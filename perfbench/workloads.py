"""The benchmark's workloads: seeded request rounds, the timed call, checks.

A workload hands out *rounds*: fixed mixes of requests whose parameters are
drawn from the run's seed.  The runner always times whole rounds, so every
run sees the same mix and its percentiles and throughput stay comparable
between seeds and commits.  Each request's output is reduced to a small
record outside the timed section; ``check`` compares every record with an
independent route once the timed loop is over, so neither the checks nor
the memory they need show in latency or ``peak_rss_mb``.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from trigint import closedform, eulersums, halfline, quadrature, recurrence, report
from trigint.pipoly import PiPoly, binomial

# ---------------------------------------------------------------------------
# cold state
# ---------------------------------------------------------------------------

# trigint has no public reset, so the benchmark restores the private
# eulersums tables to the state they had right after import.
_TABLE_NAMES = ("_NESTED", "_TAILS", "_COUPLED")
_TABLES_AT_IMPORT = {name: copy.deepcopy(getattr(eulersums, name)) for name in _TABLE_NAMES}
_CACHES = (recurrence.cos_moment, recurrence.sin_moment)


def _shape(table: dict) -> dict:
    return {key: [len(row) for row in rows] if rows and isinstance(rows[0], list) else len(rows)
            for key, rows in table.items()}


def reset_tables() -> None:
    for name, snapshot in _TABLES_AT_IMPORT.items():
        table = getattr(eulersums, name)
        table.clear()
        table.update(copy.deepcopy(snapshot))
        if _shape(table) != _shape(snapshot):
            raise RuntimeError(f"eulersums.{name} did not return to its import-time shape")


def cold_reset() -> None:
    """Clear the moment caches and the eulersums tables, as in a fresh process."""
    for cached in _CACHES:
        cached.cache_clear()
    reset_tables()


def coeff_digest(coeffs) -> str:
    """Digest of exact coefficients; works past the int-to-str digit limit."""
    h = hashlib.sha256()
    for c in coeffs:
        for v in (c.numerator, c.denominator):
            raw = v.to_bytes(v.bit_length() // 8 + 1, "little", signed=True)
            h.update(len(raw).to_bytes(8, "little") + raw)
    return h.hexdigest()


def odd_formula(n: int, p: int) -> PiPoly:
    """c(2n+1, p) from the odd-branch formula of ``closedform``, in exact arithmetic.

    ``odd_branch`` forms ``2 ** (2n + 2j - p)`` from ints, which is a float
    once 2n < p; from p = 23 on, p! no longer fits a double's mantissa and
    its coefficients go wrong.  Here that power is a Fraction.
    """
    out = PiPoly.zero()
    for j in range(p // 2 + 1):
        coeff = (Fraction((-1) ** j * math.factorial(p)) * Fraction(2) ** (2 * n + 2 * j - p)
                 / ((2 * n + 1) * binomial(2 * n, n) * math.factorial(p - 2 * j))
                 * eulersums.nested_sum("odd", j, n))
        out = out + PiPoly.pi_power(p - 2 * j, coeff)
    if p % 2 == 1:
        out = out + PiPoly.constant(closedform.star_constant("odd", n, p))
    return out


def branch_value(index: int, p: int) -> PiPoly:
    """c(index, p) by the branch-expansion route."""
    half = index // 2
    if index % 2 == 0:
        return closedform.even_branch(half, p).assembled
    if p <= max(1, 2 * half):
        return closedform.odd_branch(half, p).assembled
    return odd_formula(half, p)


def reflected_sin(n: int, p: int) -> PiPoly:
    """s(n, p) by reflecting branch values: sum_k C(p,k) (pi/2)^(p-k) (-1)^k c(n, k)."""
    out = PiPoly.zero()
    for k in range(p + 1):
        out = out + PiPoly.pi_power(p - k, Fraction((-1) ** k * binomial(p, k), 2 ** (p - k))) * branch_value(n, k)
    return out


def _jitter(rng: random.Random, n: int) -> int:
    # Downward, so no rung passes its ladder size, and by even steps, so n
    # keeps its parity (the branch route) and the cost moves only a little.
    return n - 2 * rng.randint(0, n // 50)


class Workload:
    name = ""
    #: rounds replayed by the traced run; a fixed count keeps its totals comparable
    traced_rounds = 1

    def __init__(self, seed: int, root: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = root
        self.reference_defects: list[str] = []

    def round(self) -> list:
        raise NotImplementedError

    def begin_round(self) -> None:
        """Untimed state change before a round."""

    def prepare(self, request) -> None:
        """Untimed state change before one request."""

    def run(self, request):
        raise NotImplementedError

    def record(self, request, output):
        """Small, checkable summary of an output, made outside the timed section."""
        return output

    def prepare_replay(self, request) -> None:
        self.prepare(request)

    def replay(self, request):
        """The call the traced run makes for a request; usually the timed call itself."""
        return self.run(request)

    def check(self, records: list) -> list[str]:
        """Reasons for every failed record, each naming its request.

        Defects found in a checking route, not in the requests, are noted in
        ``self.reference_defects``; they do not fail a request.
        """
        raise NotImplementedError

    def warm_up(self) -> None:
        pass


# ---------------------------------------------------------------------------
# exact-cold
# ---------------------------------------------------------------------------

# One request per rung, cheapest first.  Rung costs grow by about 13 % from
# 0.5 ms to 0.6 s (cold, on a 2-core x86 sandbox), so percentiles fall between
# close neighbours, and the rungs cycle through both families, both parities
# of n (the two branch routes) and tall, square and wide shapes.  The top rung
# is the ROADMAP's c(400,30); c(120,120) (about 6 s) is a probe of the traced
# run instead, as one such request would take a third of a run.  Sizes stay
# where str() renders today: odd n past about 335 at p = 30 exceeds CPython's
# 4300-digit int-to-str limit (ROADMAP open item 3).
_EXACT_LADDER = (
    ("c", 6, 6), ("s", 5, 4), ("s", 3, 5), ("c", 6, 8), ("c", 8, 8), ("s", 5, 5),
    ("s", 6, 5), ("s", 6, 6), ("c", 10, 10), ("s", 7, 7), ("c", 11, 10), ("s", 8, 7),
    ("c", 40, 6), ("s", 8, 10), ("s", 20, 6), ("s", 51, 4), ("c", 12, 12), ("c", 3, 20),
    ("c", 31, 8), ("c", 5, 20), ("c", 6, 24), ("s", 13, 13), ("c", 51, 8), ("s", 8, 20),
    ("c", 10, 24), ("c", 200, 4), ("c", 11, 24), ("s", 6, 24), ("c", 20, 22), ("s", 7, 20),
    ("c", 121, 8), ("s", 4, 40), ("c", 8, 50), ("s", 121, 6), ("c", 23, 25), ("s", 4, 50),
    ("c", 320, 8), ("s", 301, 6), ("c", 11, 40), ("s", 260, 6), ("c", 12, 70), ("s", 121, 12),
    ("c", 11, 50), ("s", 260, 10), ("c", 12, 90), ("s", 33, 32), ("c", 11, 60), ("s", 16, 50),
    ("c", 12, 100), ("s", 37, 36), ("c", 11, 70), ("s", 260, 16), ("c", 260, 20), ("s", 5, 70),
    ("c", 55, 57), ("s", 16, 90), ("s", 320, 16), ("s", 11, 70), ("c", 15, 100), ("c", 400, 30),
)


class ExactCold(Workload):
    name = "exact-cold"

    def round(self) -> list:
        requests = [(fam, _jitter(self.rng, n), p) for fam, n, p in _EXACT_LADDER]
        self.rng.shuffle(requests)
        return requests

    def prepare(self, request) -> None:
        cold_reset()

    def run(self, request):
        fam, n, p = request
        poly = (recurrence.cos_moment if fam == "c" else recurrence.sin_moment)(n, p)
        return poly, str(poly), poly.evaluate(30)

    def record(self, request, output):
        return coeff_digest(output[0].coeffs)

    def check(self, records: list) -> list[str]:
        failed = []
        for (fam, n, p), digest in records:
            truth = branch_value(n, p) if fam == "c" else reflected_sin(n, p)
            if coeff_digest(truth.coeffs) != digest:
                failed.append(f"{fam}({n},{p}): differs from the branch route")
            half = n // 2
            if n % 2 and p > max(1, 2 * half) and closedform.odd_branch(half, p).assembled != odd_formula(half, p):
                self.reference_defects.append(f"odd_branch({half},{p}) differs from its formula in exact arithmetic")
        return failed

    def warm_up(self) -> None:
        self.run(("s", 4, 4))
        cold_reset()


# ---------------------------------------------------------------------------
# branch-sweep
# ---------------------------------------------------------------------------

_SWEEP_P = tuple(range(2, 10))


class BranchSweep(Workload):
    """Ascending table generation: one round is one pass from a fresh table state."""

    name = "branch-sweep"

    def round(self) -> list:
        rng = self.rng
        requests = []
        n = 100 + rng.randint(0, 19)
        while n <= 1000:
            for p in _SWEEP_P:
                for parity in ("even", "odd"):
                    requests.append((parity, n, p))
                    if len(requests) % 7 == 6:
                        j = rng.randint(0, 2)
                        requests.append(("cascade", rng.randint(4, 24), rng.randint(max(2, 2 * j), 8), j))
            n += rng.randint(30, 50)
        return requests

    def begin_round(self) -> None:
        reset_tables()

    def run(self, request):
        if request[0] == "cascade":
            return closedform.coeff_via_recurrence(*request[1:])
        parity, n, p = request
        return (closedform.even_branch if parity == "even" else closedform.odd_branch)(n, p)

    def record(self, request, output):
        if request[0] == "cascade":
            return output
        return coeff_digest(output.assembled.coeffs)

    def check(self, records: list) -> list[str]:
        failed = []
        cells = [(req, rec) for req, rec in records if req[0] != "cascade"]
        top = max((2 * req[1] + 1 for req, _ in cells), default=0)
        # Fill the recurrence warm in ascending order, so it never recurses deeply.
        for index in range(top + 1):
            for p in range(max(_SWEEP_P) + 1):
                recurrence.cos_moment(index, p)
        for (parity, n, p), digest in cells:
            index = 2 * n if parity == "even" else 2 * n + 1
            if coeff_digest(recurrence.cos_moment(index, p).coeffs) != digest:
                failed.append(f"{parity}_branch({n},{p}): differs from cos_moment({index},{p})")
        for (_, n, p, j), value in ((req, rec) for req, rec in records if req[0] == "cascade"):
            if closedform.even_branch(n, p).coeffs[j] != value:
                failed.append(f"coeff_via_recurrence({n},{p},{j}): differs from even_branch({n},{p})")
        return failed

    def warm_up(self) -> None:
        self.run(("odd", 12, 3))
        self.run(("cascade", 4, 4, 1))
        reset_tables()


# ---------------------------------------------------------------------------
# verify-oracle
# ---------------------------------------------------------------------------

# The tolerances ``trigint verify`` applies per family.
_TOL_COMPLETE = 1e-10
_TOL_HALFLINE = 1e-6
_GRID = range(9)  # n, p <= 8: the sweeps' default --max-n and --max-p
_P_NEAR_0 = tuple(Fraction(1, d) for d in (20, 16, 12, 10, 8))
_P_CLASSES = (_P_NEAR_0, (Fraction(1, 2),), tuple(1 - p for p in _P_NEAR_0))


class VerifyOracle(Workload):
    """One round is the oracle traffic of ``trigint verify`` run once per family.

    The request counts follow ``cli.verify_sweep``'s case lists: ``complete``
    makes 162 finite-interval oracles (cos and sin over the n, p grid),
    ``halfline`` makes 48 half-line oracles (2 kinds x 4 n x 3 p x 2 b), and
    ``examples`` is one batch, which holds the log-weighted oracle.  Only the
    half-line parameters are widened: each n slot draws n <= 8, each p slot
    draws p near 0, 1/2 or near 1, each b slot draws b in [-1.5, 1.5], and
    the second b slot asks the oracle for 1e-9 instead of its default 1e-6.
    The exact branch-vs-recurrence checks of ``complete`` are not oracle
    traffic and are left out.
    """

    name = "verify-oracle"
    traced_rounds = 3

    def __init__(self, seed: int, root: str) -> None:
        super().__init__(seed, root)
        from trigint import cli

        self.cli = cli
        self.begin_round()

    def round(self) -> list:
        rng = self.rng
        requests = [("finite", trig, n, p) for trig in ("cos", "sin") for n in _GRID for p in _GRID]
        for trig in ("cos", "sin"):
            for _ in range(4):
                n = rng.randint(0, 8)
                for p_class in _P_CLASSES:
                    for tol in (1e-6, 1e-9):
                        requests.append(("halfline", trig, n, rng.choice(p_class), round(rng.uniform(-1.5, 1.5), 3), tol))
        requests.append(("examples",))
        rng.shuffle(requests)
        return requests

    def begin_round(self) -> None:
        # One report per round, as one ``trigint verify`` sweep builds one.
        self.report = report.VerificationReport()

    def run(self, request):
        kind = request[0]
        if kind == "examples":
            return self.cli.verify_sweep("examples")
        if kind == "halfline":
            _, trig, n, p, b, tol = request
            _, value = halfline.halfline_power(trig, n, p, b, 30)
            oracle = quadrature.integrate_halfline_osc(
                quadrature.OscillatorySpec(kind=trig, n=n, exponent=float(p), shift=b, tolerance=tol)
            )
            exact, check_tol, numeric, reference = "", _TOL_HALFLINE, float(value), oracle.value
        else:
            _, trig, n, p = request
            poly = (recurrence.cos_moment if trig == "cos" else recurrence.sin_moment)(n, p)
            f = np.cos if trig == "cos" else np.sin
            oracle = quadrature.integrate_finite(lambda x: x**p * f(x) ** n, 0.0, math.pi / 2, _TOL_COMPLETE / 10)
            exact, check_tol, numeric, reference = str(poly), _TOL_COMPLETE, float(poly.evaluate(30)), oracle.value
        return self.report.add(
            repr(request), exact=exact, numeric=numeric, oracle=reference,
            abs_err=abs(numeric - reference), tol=check_tol,
        )

    def record(self, request, output):
        if request[0] == "examples":
            return [case.line() for case in output.failures()]
        return [] if output.passed else [output.line()]

    def check(self, records: list) -> list[str]:
        return [f"{request}: {line}" for request, lines in records for line in lines]

    def warm_up(self) -> None:
        self.run(("halfline", "cos", 1, Fraction(1, 2), 0.5, 1e-6))
        self.run(("finite", "sin", 2, 2))
        cold_reset()


# ---------------------------------------------------------------------------
# cli-short
# ---------------------------------------------------------------------------

_HALFLINE_P = ("1/4", "1/3", "1/2", "2/3", "3/4")


class CliShort(Workload):
    name = "cli-short"
    traced_rounds = 5

    def __init__(self, seed: int, root: str) -> None:
        super().__init__(seed, root)
        from trigint import cli

        self.cli = cli

    def round(self) -> list:
        rng = self.rng
        requests = []
        for _ in range(2):
            argv = ["eval", "--family", rng.choice(("c", "s", "cos", "sin")), "--n", str(rng.randint(0, 8)),
                    "--p", str(rng.randint(0, 8)), "--format", rng.choice(("exact", "latex", "float", "json"))]
            requests.append(tuple(argv + ["--verify"] * rng.randint(0, 1)))
            argv = ["halfline", "--kind", rng.choice(("cos", "sin")), "--n", str(rng.randint(0, 4)),
                    "--p", rng.choice(_HALFLINE_P), "--b", rng.choice(("0", "0.25", "0.5", "1")),
                    "--format", rng.choice(("float", "exact", "json"))]
            requests.append(tuple(argv + ["--verify"] * rng.randint(0, 1)))
            lo = rng.randint(0, 3)
            requests.append(("table", "--gr", rng.choice(self.cli._GR_ENTRIES), "--range", f"{lo}..{lo + rng.randint(0, 3)}",
                             "--format", rng.choice(("md", "json"))))
        rng.shuffle(requests)
        return requests

    def run(self, request):
        done = subprocess.run([sys.executable, "-m", "trigint.cli", *request], cwd=self.root,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        return done.returncode, done.stdout

    def prepare_replay(self, request) -> None:
        cold_reset()

    def replay(self, request):
        # Children cannot be traced from here; replay the argv in-process instead.
        return self.in_process(request)

    def in_process(self, argv) -> tuple[int, bytes]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(list(argv))
        return code, out.getvalue().encode()

    def check(self, records: list) -> list[str]:
        failed = []
        for argv, (code, stdout) in records:
            if code != 0:
                failed.append(f"trigint {' '.join(argv)}: exit {code}")
            elif (code, stdout) != self.in_process(argv):
                failed.append(f"trigint {' '.join(argv)}: differs from in-process cli.main")
        return failed

    def warm_up(self) -> None:
        self.run(("eval", "--family", "c", "--n", "2", "--p", "1"))


WORKLOADS = {wl.name: wl for wl in (ExactCold, BranchSweep, VerifyOracle, CliShort)}
