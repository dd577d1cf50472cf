"""Exact evaluation of the complete integrals over [0, pi/2].

The two families

    c(n, p) = integral_0^{pi/2} x**p * cos(x)**n dx,
    s(n, p) = integral_0^{pi/2} x**p * sin(x)**n dx,

are evaluated exactly in Q[pi].  ``cos_moment`` reads c(n, p) off the
closed-form branch expansion of the parity of n (``closedform``);
``sin_moment`` sweeps the sine recurrence.  Integrating x**q trig(x)**n by
parts gives both families, for n >= 2, the recurrence

    X(n, q) = (n-1)/n * X(n-2, q) - q(q-1)/n**2 * X(n, q-2) + boundary term,

whose boundary term is -1/n**2 at q = 1 (and 0 elsewhere) for the cosine and
q (pi/2)**(q-1)/n**2 for the sine.  It ties every cell of a parity class
(n mod 2, q mod 2) to the class's base row n0 = n mod 2, known in closed
form.  ``sweep_moment`` sweeps a family's classes bottom-up, with no
recursion; for the cosine it is the verifier of the branches.  A cell is
held as integer numerators over a denominator known in advance,

    den(n, q) = B_q * F(n) * L(n)**(2 ceil(q/2)),

where F(n) and L(n) are the product and the lcm of k = n0+2, n0+4, ..., n,
and B_q clears the base row: 2**q for odd n, and for even n 2**(q+1) times
the lcm of q'+1 over the q' <= q of the class.  Each B_q divides the next,
so a step is an integer multiply-add, and the only gcd reduces the value
returned.  A sweep runs along the longer side of its rectangle, rows over q
stepped in n when p <= n and columns over n stepped in q when p > n.  The
last cross-section of each class is kept for a later call further along;
``sin_moment.cache_clear`` drops it with the result cache.

``base_p0`` and ``base_p1`` give the cosine columns p = 0 and p = 1 in
closed form (Wallis' formula and the central-binomial tails), independently
of the sweep.  ``solve_first_order`` solves first-order linear recurrences
a_n z_n = b_n z_{n-1} + r_n in closed form.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Any, Callable

from .eulersums import central_tail
from .pipoly import PiPoly, binomial, check_indices
from .report import VerificationReport


# ---------------------------------------------------------------------------
# generic first-order solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstOrderProblem:
    """a(n) z_n = b(n) z_{n-1} + r(n) with initial value z0.

    a and b return nonzero rationals; r and z0 live in any Q-module that
    supports addition and Fraction scaling (Fraction or PiPoly here).
    """

    a: Callable[[int], Fraction]
    b: Callable[[int], Fraction]
    r: Callable[[int], Any]
    z0: Any


def solve_first_order(problem: FirstOrderProblem, steps: int):
    """z_steps via the telescoped integrating-factor form.

    z_n = (b1...bn)/(a1...an) * (z0 + sum_{k=1..n} (a1...a_{k-1})/(b1...b_k) r_k),
    evaluated exactly.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    acc = problem.z0
    prod_a = Fraction(1)
    prod_b = Fraction(1)
    weight = Fraction(1)
    for k in range(1, steps + 1):
        ak = Fraction(problem.a(k))
        bk = Fraction(problem.b(k))
        if ak == 0:
            raise ValueError(f"coefficient a({k}) is zero")
        if bk == 0:
            raise ValueError(f"coefficient b({k}) is zero")
        prod_a *= ak
        prod_b *= bk
        weight = weight / bk  # now a1..a_{k-1} / b1..b_k
        acc = acc + weight * problem.r(k)
        weight = weight * ak
    return (prod_b / prod_a) * acc


# ---------------------------------------------------------------------------
# base rows
# ---------------------------------------------------------------------------

def base_n0(p: int) -> PiPoly:
    """c(0, p) = (pi/2)**(p+1) / (p+1)."""
    check_indices(p=p)
    return PiPoly.pi_power(p + 1, Fraction(1, (p + 1) * 2 ** (p + 1)))


def base_p0(n: int) -> PiPoly:
    """c(n, 0): Wallis' formula and its odd-power companion.

    c(2m, 0) = pi/2**(2m+1) * C(2m, m),  c(2m+1, 0) = 2**(2m) / ((2m+1) C(2m, m)).
    """
    check_indices(n=n)
    if n % 2 == 0:
        m = n // 2
        return PiPoly.pi_power(1, Fraction(binomial(2 * m, m), 2 ** (2 * m + 1)))
    m = (n - 1) // 2
    return PiPoly.constant(Fraction(2 ** (2 * m), (2 * m + 1) * binomial(2 * m, m)))


def _n1_nums(p: int) -> list[int]:
    # numerators of c(1, p) over 2**p
    xi = p // 2
    nums = [0] * (p + 1)
    falling = 1  # p!/(p-2k)!
    for k in range(xi + 1):
        nums[p - 2 * k] = (-1) ** k * falling << (2 * k)
        falling *= (p - 2 * k) * (p - 2 * k - 1)
    if p % 2 == 1:
        nums[0] -= (-1) ** xi * math.factorial(p) << p
    return nums


def base_n1(p: int) -> PiPoly:
    """c(1, p) = integral of x**p cos x, by the alternating factorial sum

        sum_{k=0..floor(p/2)} (-1)^k p!/(p-2k)! (pi/2)^(p-2k)  -  (-1)^xi p! [p odd].
    """
    check_indices(p=p)
    return PiPoly._from_ints(_n1_nums(p), 2**p)


def base_p1(n: int) -> PiPoly:
    """c(n, 1) = integral of x cos(x)**n, split by the parity of n.

    c(2m, 1)   = C(2m,m)/2**(2m+2) * (pi**2/2 - T_even(m)),
    c(2m+1, 1) = 2**(2m)/((2m+1) C(2m,m)) * (pi/2 - T_odd(m)),

    with T_* the exact central-binomial partial sums.  Both are the solution
    of 2m z_m = (2m-1) z_{m-1} - 1/(2m) (even) and the analogous odd-index
    system, telescoped by ``solve_first_order``.
    """
    check_indices(n=n)
    if n % 2 == 0:
        m = n // 2
        pref = Fraction(binomial(2 * m, m), 2 ** (2 * m + 2))
        tail = central_tail("even", m) if m >= 1 else Fraction(0)
        return PiPoly((-pref * tail, 0, pref / 2))
    m = (n - 1) // 2
    pref = Fraction(2 ** (2 * m), (2 * m + 1) * binomial(2 * m, m))
    return PiPoly((-pref * central_tail("odd", m), pref / 2))


# ---------------------------------------------------------------------------
# the bottom-up sweep
# ---------------------------------------------------------------------------

_LOCK = threading.Lock()

# _WARM[family, n0, q0] is the last cross-section of that family's parity class:
#   ("row", n, rf(n), [X(n, q0), X(n, q0+2), ...])  or
#   ("column", q, [rf(n0), rf(n0+2), ...], [X(n0, q), X(n0+2, q), ...]),
# with X(n, q) = value(n, q) * den(n, q) as a list of pi-coefficient numerators
# and rf(n) the factors of row n (see ``_rows``).
# Cells are never mutated once built, so a read needs no lock.
_WARM: dict = {}


def _class(family: str, n0: int, q0: int, top: int) -> list[tuple[int, int, int]]:
    """(B_q, q(q-1) B_q/B_{q-2}, w_q) for q = q0, q0+2, ..., top in the class (n0, q0).

    w_q carries the boundary term of the integration by parts over den(n, q):
    it adds w_q F(n) (L(n)/n)**2 L(n)**(2 ceil(q/2) - 2) at pi**(q-1).
    """
    out, lcm, prev = [], 1, 1
    for q in range(q0, top + 1, 2):
        if n0:
            scale = 2**q
        else:
            lcm = math.lcm(lcm, q + 1)
            scale = 2 ** (q + 1) * lcm
        if family == "sin":
            weight = q * (scale >> (q - 1)) if q else 0  # + q (pi/2)**(q-1) / n**2
        else:
            weight = -scale if q == 1 else 0  # - 1/n**2, at q = 1 only
        out.append((scale, q * (q - 1) * (scale // prev), weight))
        prev = scale
    return out


def _base_cell(family: str, n0: int, q: int, scale: int) -> list[int]:
    """X(n0, q) = B_q * value(n0, q) for the base row n0 in {0, 1}."""
    if not n0:  # s(0, q) = c(0, q) = (pi/2)**(q+1) / (q+1)
        return [0] * (q + 1) + [scale // ((q + 1) << (q + 1))]
    if family == "cos":
        return _n1_nums(q)  # over B_q = 2**q already
    # s(1, q) = q c(1, q-1) by parts, and s(1, 0) = 1
    return [2 * q * u for u in _n1_nums(q - 1)] if q else [1]


def _rows(rf: tuple, n: int):
    """Row factors rf(k) = (k, L(k)/L(k-2), (L(k)/k)**2, F(k), L(k)) for the
    rows after rf's row, up to n."""
    k, _, _, f, lcm = rf
    for k in range(k + 2, n + 1, 2):
        grown = math.lcm(lcm, k)
        f *= k
        yield k, grown // lcm, (grown // k) ** 2, f, grown
        lcm = grown


def _cell(up: list, left: list, q: int, beta: int, weight: int, rf: tuple) -> list:
    """X(k, q) from up = X(k-2, q) and left = X(k, q-2), given rf = rf(k).

    Over den(k, q) the recurrence reads
    X(k, q) = (k-1) (L(k)/L(k-2))**e X(k-2, q) - beta (L(k)/k)**2 X(k, q-2)
    plus the boundary term, with e = 2 ceil(q/2) and beta = q(q-1) B_q/B_{q-2}.
    """
    k, grow, m2, f, lcm = rf
    e = q + q % 2
    a, b = (k - 1) * grow**e, beta * m2
    cell = [a * u - b * v for u, v in zip_longest(up, left, fillvalue=0)]
    if weight:
        cell[q - 1] += weight * f * m2 * lcm ** (e - 2)
    return cell


def _sweep(family: str, n: int, p: int) -> tuple[list[int], int, tuple]:
    """X(n, p) with B_p and rf(n), for the parity class of (n, p).

    n < 2 reads the base row.  Otherwise a fresh sweep fills the class's
    rectangle up to (n, p) along its longer side: rows over q, stepped in n,
    when p <= n, and columns over n, stepped in q, when p > n.  The class's
    warm cross-section is continued instead when it lies on the way and what
    is left of it costs no more cells than a fresh sweep.  Call with
    ``_LOCK`` held.
    """
    n0, q0 = n % 2, p % 2
    base = (n0, 1, 1, 1, 1)
    if n < 2:
        scale = _class(family, n0, q0, p)[-1][0]
        return _base_cell(family, n0, p, scale), scale, base
    width, height = (p - q0) // 2 + 1, (n - n0) // 2 + 1
    state = _WARM.get((family, n0, q0))
    kind = "row" if p <= n else "column"
    if state is not None:
        target, size = (n, width) if state[0] == "row" else (p, height)
        length = len(state[-1])
        if state[1] <= target and length >= size and (target - state[1]) // 2 * length <= width * height:
            kind = state[0]
        else:
            state = None

    # A fresh sweep continues the base row, or the empty column left of q0.
    if kind == "row":
        if state is None:
            cells = [_base_cell(family, n0, q0 + 2 * i, s) for i, (s, _, _) in enumerate(_class(family, n0, q0, p))]
            state = ("row", n0, base, cells)
        _, _, rf, row = state
        factors = _class(family, n0, q0, q0 + 2 * len(row) - 2)
        for rf in _rows(rf, n):
            left, cells = (), []
            for i, (up, (_, beta, weight)) in enumerate(zip(row, factors)):
                left = _cell(up, left, q0 + 2 * i, beta, weight, rf)
                cells.append(left)
            row = cells
        _WARM[family, n0, q0] = ("row", n, rf, row)
        return row[width - 1], factors[width - 1][0], rf

    factors = _class(family, n0, q0, p)
    _, q, rows, column = state or ("column", q0 - 2, [base, *_rows(base, n)], [()] * height)
    for q in range(q + 2, p + 1, 2):
        scale, beta, weight = factors[(q - q0) // 2]
        up = _base_cell(family, n0, q, scale)
        cells = [up]
        for left, rf in zip(column[1:], rows[1:]):
            up = _cell(up, left, q, beta, weight, rf)
            cells.append(up)
        column = cells
    _WARM[family, n0, q0] = ("column", p, rows, column)
    return column[height - 1], factors[-1][0], rows[height - 1]


# ---------------------------------------------------------------------------
# the complete families
# ---------------------------------------------------------------------------

def _clears_warm_state(cached):
    # cache_clear also drops the sweep's cross-sections, so a cleared
    # sin_moment is cold in full.
    clear = cached.cache_clear

    def cache_clear() -> None:
        with _LOCK:
            _WARM.clear()
        clear()

    cached.cache_clear = cache_clear
    return cached


def sweep_moment(family: str, n: int, p: int) -> PiPoly:
    """c(n, p) (family 'cos') or s(n, p) (family 'sin') by the bottom-up sweep.

    This is the verifier of ``cos_moment``'s branch route and the production
    route of ``sin_moment``.  It has no result cache of its own; its warm
    cross-sections are dropped by ``sin_moment.cache_clear``.
    """
    if family not in ("cos", "sin"):
        raise ValueError(f"family must be 'cos' or 'sin', got {family!r}")
    check_indices(n=n, p=p)
    with _LOCK:
        cell, scale, (_, _, _, f, lcm) = _sweep(family, n, p)
    return PiPoly._from_ints(list(cell), scale * f * lcm ** (p + p % 2))


@lru_cache(maxsize=None, typed=True)
def cos_moment(n: int, p: int) -> PiPoly:
    """Exact value of integral_0^{pi/2} x**p cos(x)**n dx in Q[pi].

    Read off the closed-form branch expansion of the parity of n,
    ``even_branch(n // 2, p)`` or ``odd_branch(n // 2, p)``; the sweep
    ``sweep_moment('cos', n, p)`` verifies it.  The degree in pi is at most
    p + 1.
    """
    check_indices(n=n, p=p)  # the cache is typed, so a bool or float never hits an int entry
    from .closedform import even_branch, odd_branch  # closedform imports this module

    return (odd_branch if n % 2 else even_branch)(n // 2, p).assembled


@_clears_warm_state
@lru_cache(maxsize=None, typed=True)
def sin_moment(n: int, p: int) -> PiPoly:
    """Exact value of integral_0^{pi/2} x**p sin(x)**n dx in Q[pi].

    The sine recurrence, with its boundary term q (pi/2)**(q-1)/n**2, is
    swept from the base rows s(0, q) = c(0, q), s(1, q) = q c(1, q-1) and
    s(1, 0) = 1, with no cosine sweep.  The degree in pi is at most p + 1.
    """
    return sweep_moment("sin", n, p)


# ---------------------------------------------------------------------------
# Wallis identity checks
# ---------------------------------------------------------------------------

def check_wallis_identities(n_max: int) -> VerificationReport:
    """Exact checks of the central-binomial sum identity and its relatives.

    For every n <= n_max: (i) sum_i 2**(-2i) C(n,2i) C(2i,i) equals
    2**(-n) C(2n,n); (ii) that sum satisfies f(n+1) = (2n+1)/(n+1) f(n).
    For every n <= min(n_max, 30): (iii) the half-angle expansion
    c(2n, 0) = 2**(-n) sum_i C(n, 2i) c(2i, 0) holds in Q[pi].
    Failures are reported, never raised.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    report = VerificationReport()
    # f(n) = sum_i 2**(-2i) C(n, 2i) C(2i, i)
    values = [sum(Fraction(binomial(n, 2 * i) * binomial(2 * i, i), 4**i) for i in range(n // 2 + 1))
              for n in range(n_max + 2)]
    for n in range(1, n_max + 1):
        closed = Fraction(binomial(2 * n, n), 2**n)
        report.add_exact(f"wallis-sum n={n}", values[n] == closed, exact=f"f({n}) = {closed}")
    for n in range(1, n_max + 1):
        holds = values[n + 1] * (n + 1) == values[n] * (2 * n + 1)
        report.add_exact(f"wallis-step n={n}", holds)
    for n in range(1, min(30, n_max) + 1):
        rhs = PiPoly.zero()
        for i in range(n // 2 + 1):
            rhs = rhs + cos_moment(2 * i, 0) * Fraction(binomial(n, 2 * i), 2**n)
        lhs = cos_moment(2 * n, 0)
        report.add_exact(f"wallis-expansion n={n}", lhs == rhs, exact=str(lhs))
    return report
