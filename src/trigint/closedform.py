"""Direct (non-recursive) branch expansions of the cosine-family integrals.

For the even branch c(2n, p) and odd branch c(2n+1, p) this module builds the
coefficient vector of the pi-expansion in closed form:

    c(2n, p)   = sum_{j=0..xi} a_j pi**(p+1-2j)  (+ constant, p odd),
    c(2n+1, p) = sum_{j=0..xi} b_j pi**(p-2j)    (+ constant, p odd),

with xi = floor(p/2),

    a_j = (-1)^j C(2n,n) p! / (2**(2n+p+1) (p+1-2j)!) * nested_sum(even, j, n),
    b_j = (-1)^j p! 2**(2n+2j-p) / ((2n+1) C(2n,n) (p-2j)!) * nested_sum(odd, j, n).

For odd p the expansion terminates in a rational constant.  Solving the
coefficient cascade (the first-order systems of ``coeff_via_recurrence``
below, taken all the way down) gives that constant as a tail-coupled nested
sum with the central-tail factor attached to the *smallest* tuple index and
depth xi:

    even: (-1)^(xi+1) C(2n,n) p! / 2**(2n+p+1) * tail_coupled_sum(even, xi, n),
    odd:  (-1)^(xi+1) p! 2**(2n) / ((2n+1) C(2n,n)) * tail_coupled_sum(odd, xi, n),

and with these constants the assembled expansion equals the recurrence sweep
exactly.  It is the production route of ``recurrence.cos_moment``, built in
integers over one denominator: the nested sums share M(n)**(2 xi) in the
eulersums tables, p!/(p+1-2j)! (or p!/(p-2j)!) steps as a falling factorial,
and for odd p the tail lcm D(n) joins.  One gcd reduces the value, and the
``Fraction`` coefficients are built only when read.  The cells p <= 1 are
read off the closed-form base columns ``base_p0`` and ``base_p1``.

A depth-p variant of the constant with the tail on the largest index is kept
available through ``constant_term_routes`` for comparison; it does NOT
reproduce the recurrence values (``constant_term_routes`` reports all three
numbers side by side rather than hiding the disagreement).

``coeff_via_recurrence`` recomputes any even-branch coefficient by iterating
its first-order recurrences directly, giving a route to the same numbers that
never touches the nested-sum tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .eulersums import coupled_ints, nested_ints, tail_coupled_sum
from .pipoly import PiPoly, binomial, check_indices
from .recurrence import base_p0, base_p1, sweep_moment
from .report import VerificationReport


@dataclass(frozen=True)
class BranchExpansion:
    """One branch value c(2n+delta, p) with its pi-coefficient vector.

    ``assembled`` is the value as a PiPoly and equals the recurrence sweep
    exactly.  ``coeffs[j]`` multiplies pi**pi_powers[j]; ``star`` is the
    rational constant term, present exactly when p is odd.  Both are read
    off ``assembled``, whose powers they never share.
    """

    parity: str
    n: int
    p: int
    assembled: PiPoly

    @property
    def pi_powers(self) -> tuple[int, ...]:
        top = self.p + 1 if self.parity == "even" else self.p
        return tuple(range(top, top - 2 * (self.p // 2) - 1, -2))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self.assembled.coeff(power) for power in self.pi_powers)

    @property
    def star(self) -> Fraction | None:
        return self.assembled.coeff(0) if self.p % 2 == 1 else None

    def to_dict(self) -> dict:
        star = None if self.star is None else str(self.star)
        return {"parity": self.parity, "n": self.n, "p": self.p, "pi_powers": list(self.pi_powers),
                "coeffs": [str(c) for c in self.coeffs], "star": star}


def _branch(parity: str, n: int, p: int) -> BranchExpansion:
    check_indices(n=n, p=p)
    index = 2 * n if parity == "even" else 2 * n + 1
    if p <= 1:
        # the closed-form base columns, which never touch the recurrence, so
        # a branch checked against the sweep is still checked against a second route
        return BranchExpansion(parity, n, p, (base_p1 if p else base_p0)(index))
    xi = p // 2
    sums, lcm = nested_ints(parity, xi, n)
    # Over den, the coefficient of pi**(top-2j) is weight_j * sums[j] * M**(2 xi - 2j),
    # with weight_j = (-1)^j * head * top!/(top-2j)! * step**j.
    if parity == "even":
        top, head, step, den = p + 1, binomial(2 * n, n), 1, (p + 1) << (2 * n + p + 1)
    else:
        top, head, step, den = p, 4**n, 4, index * binomial(2 * n, n) << p
    weights = [head]
    for j in range(xi):
        weights.append(-weights[-1] * (top - 2 * j) * (top - 2 * j - 1) * step)
    nums, square, power = [0] * (top + 1), lcm * lcm, 1
    for j in range(xi, -1, -1):
        nums[top - 2 * j] = weights[j] * sums[j] * power
        power *= square
    den *= lcm ** (2 * xi)
    if p % 2 == 1:
        # the constant is -2 weight_xi * tail over den * D, a falling-factorial step past xi
        tail, tails, _ = coupled_ints(parity, xi, n)
        nums = [u * tails for u in nums]
        nums[0] = -2 * weights[xi] * tail
        den *= tails
    return BranchExpansion(parity, n, p, PiPoly._from_ints(nums, den))


def even_branch(n: int, p: int) -> BranchExpansion:
    """Closed-form expansion of c(2n, p)."""
    return _branch("even", n, p)


def odd_branch(n: int, p: int) -> BranchExpansion:
    """Closed-form expansion of c(2n+1, p)."""
    return _branch("odd", n, p)


def star_constant(parity: str, n: int, p: int) -> Fraction:
    """The rational constant term of the branch expansion for odd p."""
    check_indices(n=n, p=p)
    if p % 2 != 1:
        raise ValueError("the constant term exists only for odd p")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _branch(parity, n, p).star


# ---------------------------------------------------------------------------
# the independent coefficient cascade
# ---------------------------------------------------------------------------

def coeff_via_recurrence(n: int, p: int, j: int) -> Fraction:
    """Even-branch coefficient of pi**(p+1-2j) via its own recurrence.

    Depth d of the cascade (d = 0..j, with q = p - 2(j - d)) solves

        2k z_k = (2k-1) z_{k-1} - q(q-1)/(2k) * z'_k,

    where z' is depth d-1 at the same k; depth 0 has no inhomogeneous term
    and starts from 1/((q+1) 2**(q+1)), deeper ones start from 0.  One
    forward sweep in k carries all depths together, so the cost is O(n j).
    This route never consults the nested-sum tables, so it cross-checks them.
    """
    check_indices(n=n, p=p, j=j)
    if p + 1 - 2 * j < 1:
        raise ValueError(f"depth j={j} requires p >= {2 * j}")
    q0 = p - 2 * j
    z = [Fraction(1, (q0 + 1) * 2 ** (q0 + 1))] + [Fraction(0)] * j
    for k in range(1, n + 1):
        z[0] = z[0] * (2 * k - 1) / (2 * k)
        for d in range(1, j + 1):
            q = q0 + 2 * d
            z[d] = (z[d] * (2 * k - 1) - z[d - 1] * Fraction(q * (q - 1), 2 * k)) / (2 * k)
    return z[j]


# ---------------------------------------------------------------------------
# constant-term route comparison
# ---------------------------------------------------------------------------

def constant_term_routes(n_max: int, p_max: int) -> VerificationReport:
    """Compare the constant-term candidates against the recurrence sweep.

    For every odd p <= p_max and n <= n_max (both parities) this evaluates
    (a) the tail-on-smallest-index, depth-xi sum used by the branch
    expansions, and (b) the tail-on-largest-index, depth-p variant.  Route
    (a) must equal the constant term of ``sweep_moment`` exactly;
    route (b) generally does not, and its value is recorded in the case text
    so the disagreement is visible rather than patched away.
    """
    report = VerificationReport()
    for parity in ("even", "odd"):
        for n in range(n_max + 1):
            for p in range(1, p_max + 1, 2):
                index = 2 * n if parity == "even" else 2 * n + 1
                truth = sweep_moment("cos", index, p).coeff(0)
                used = star_constant(parity, n, p)
                central, sign = binomial(2 * n, n), (-1) ** (p // 2) * factorial(p)
                pref = Fraction(sign * central, 4**n) if parity == "even" else Fraction(sign * 4**n, index * central)
                variant = pref * tail_coupled_sum(parity, p, n, attach="largest")
                report.add_exact(
                    f"constant-term {parity} n={n} p={p}",
                    used == truth,
                    exact=f"used={used} largest-index-variant={variant} recurrence={truth}",
                    detail=float(abs(used - truth)) if used != truth else 1.0,
                )
    return report
