"""Exact evaluation of the complete integrals over [0, pi/2].

The two families

    c(n, p) = integral_0^{pi/2} x**p * cos(x)**n dx,
    s(n, p) = integral_0^{pi/2} x**p * sin(x)**n dx,

are evaluated exactly in Q[pi].  The rows n = 0 and n = 1 are known in
closed form, and for n >= 2 the two-variable recurrence

    c(n, q) = (n-1)/n * c(n-2, q) - q(q-1)/n**2 * c(n, q-2),   q >= 2,
    c(n, 1) = (n-1)/n * c(n-2, 1) - 1/n**2,
    c(n, 0) = (n-1)/n * c(n-2, 0),

ties every cell of a parity class (n mod 2, q mod 2) to the class's base
row n0 = n mod 2.  ``cos_moment`` sweeps the class bottom-up, with no
recursion.  Each cell is held as integer numerators over a denominator
known in advance,

    den(n, q) = B_q * F(n) * L(n)**(2 ceil(q/2)),

where F(n) and L(n) are the product and the lcm of k = n0+2, n0+4, ..., n,
and B_q clears the base row: 2**q for odd n, and for even n 2**(q+1) times
the lcm of q'+1 over the q' <= q of the class.  Each B_q divides the next,
so a step of the recurrence is an integer multiply-add, and the only gcd is
the one that reduces the value returned.  A sweep runs along the longer side
of its rectangle: rows over q, stepped in n, when p <= n, and columns over
n, stepped in q, when p > n.  The last cross-section of each class is kept,
so a later call that lies further along continues from it; ``cache_clear``
drops it together with the result cache.  The sine family follows by the
reflection x -> pi/2 - x, summed in integers over the cells at n of both
classes.

``base_p0`` and ``base_p1`` give the columns p = 0 and p = 1 in closed form
(Wallis' formula and the central-binomial tails), independently of the
sweep.  ``solve_first_order`` solves first-order linear recurrences
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
    if p < 0:
        raise ValueError("p must be nonnegative")
    return PiPoly.pi_power(p + 1, Fraction(1, (p + 1) * 2 ** (p + 1)))


def base_p0(n: int) -> PiPoly:
    """c(n, 0): Wallis' formula and its odd-power companion.

    c(2m, 0) = pi/2**(2m+1) * C(2m, m),  c(2m+1, 0) = 2**(2m) / ((2m+1) C(2m, m)).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
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
    if p < 0:
        raise ValueError("p must be nonnegative")
    return PiPoly._from_ints(_n1_nums(p), 2**p)


def base_p1(n: int) -> PiPoly:
    """c(n, 1) = integral of x cos(x)**n, split by the parity of n.

    c(2m, 1)   = C(2m,m)/2**(2m+2) * (pi**2/2 - T_even(m)),
    c(2m+1, 1) = 2**(2m)/((2m+1) C(2m,m)) * (pi/2 - T_odd(m)),

    with T_* the exact central-binomial partial sums.  Both are the solution
    of 2m z_m = (2m-1) z_{m-1} - 1/(2m) (even) and the analogous odd-index
    system, telescoped by ``solve_first_order``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
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

# _WARM[n0, q0] is the last cross-section of the parity class (n0, q0):
#   ("row", n, L(n), F(n), [X(n, q0), X(n, q0+2), ...])  or
#   ("column", q, [L(n0), L(n0+2), ...], [X(n0, q), X(n0+2, q), ...]),
# with X(n, q) = c(n, q) * den(n, q) as a list of pi-coefficient numerators.
# Cells are never mutated once built, so a read needs no lock.
_WARM: dict = {}


def _scales(n0: int, q0: int, top: int) -> list[int]:
    """B_q for q = q0, q0+2, ..., top in the class (n0, q0)."""
    out, lcm = [], 1
    for q in range(q0, top + 1, 2):
        if n0:
            out.append(2**q)
        else:
            lcm = math.lcm(lcm, q + 1)
            out.append(2 ** (q + 1) * lcm)
    return out


def _base_cell(n0: int, q: int, scale: int) -> list[int]:
    """X(n0, q) = B_q * c(n0, q) for the base row n0 in {0, 1}."""
    if n0:
        return _n1_nums(q)  # over B_q = 2**q already
    return [0] * (q + 1) + [scale // ((q + 1) << (q + 1))]


def _step_row(row: list, n: int, q0: int, scales: list[int], grow: int, m: int, f: int) -> list:
    """Row n of X from row n-2, given grow = L(n)/L(n-2), m = L(n)/n and f = F(n)."""
    m2 = m * m
    a = (n - 1) * grow ** (2 * q0)
    out = []
    for i, old in enumerate(row):
        if i:
            q = q0 + 2 * i
            a *= grow * grow
            b = q * (q - 1) * (scales[i] // scales[i - 1]) * m2
            out.append([a * u - b * v for u, v in zip_longest(old, out[-1], fillvalue=0)])
        else:
            cell = [a * u for u in old]
            if q0:  # the -1/n**2 of the q = 1 column
                cell[0] -= scales[0] * f * m2
            out.append(cell)
    return out


def _first_column(n0: int, q0: int, n: int, scale: int) -> tuple[list, list[int]]:
    """Column q0 of X up to n, and L(k) for k = n0, n0+2, ..., n."""
    column, lcms, f = [_base_cell(n0, q0, scale)], [1], 1
    for k in range(n0 + 2, n + 1, 2):
        lcm = math.lcm(lcms[-1], k)
        f *= k
        column += _step_row(column[-1:], k, q0, [scale], lcm // lcms[-1], lcm // k, f)
        lcms.append(lcm)
    return column, lcms


def _step_column(column: list, q: int, n0: int, scale: int, beta: int, lcms: list[int]) -> list:
    """Column q of X from column q-2, given scale = B_q and beta = q(q-1) B_q/B_{q-2}."""
    out = [_base_cell(n0, q, scale)]
    for i in range(1, len(column)):
        n = n0 + 2 * i
        a = (n - 1) * (lcms[i] // lcms[i - 1]) ** (q + q % 2)
        b = beta * (lcms[i] // n) ** 2
        out.append([a * u - b * v for u, v in zip_longest(out[-1], column[i], fillvalue=0)])
    return out


def _sweep(n: int, p: int, visit=None) -> tuple[list[int], int, int, int]:
    """X(n, p) with B_p, L(n) and F(n), for the parity class of (n, p).

    A fresh sweep fills the class's rectangle up to (n, p) along its longer
    side.  The class's warm cross-section is continued instead when it lies
    on the way and what is left of it costs no more cells than a fresh
    sweep.  ``visit(q, X(n, q), B_q, L(n))``, if given, sees every q <= p of
    the class in ascending order.  Call with ``_LOCK`` held.
    """
    n0, q0 = n % 2, p % 2
    width, height = (p - q0) // 2 + 1, (n - n0) // 2 + 1
    state = _WARM.get((n0, q0))
    kind = "row" if p <= n else "column"
    if state is not None:
        length, left = len(state[-1]), None
        if state[0] == "row" and state[1] <= n and length >= width:
            left = (n - state[1]) // 2 * length
        elif state[0] == "column" and visit is None and state[1] <= p and length >= height:
            left = (p - state[1]) // 2 * length
        if left is not None and left <= width * height:
            kind = state[0]
        else:
            state = None

    if kind == "row":
        if state is None:
            scales = _scales(n0, q0, p)
            state = ("row", n0, 1, 1, [_base_cell(n0, q0 + 2 * i, s) for i, s in enumerate(scales)])
        else:
            scales = _scales(n0, q0, q0 + 2 * len(state[-1]) - 2)
        _, k, lcm, f, row = state
        for k in range(k + 2, n + 1, 2):
            grown = math.lcm(lcm, k)
            f *= k
            row = _step_row(row, k, q0, scales, grown // lcm, grown // k, f)
            lcm = grown
        _WARM[n0, q0] = ("row", n, lcm, f, row)
        if visit is not None:
            for i in range(width):
                visit(q0 + 2 * i, row[i], scales[i], lcm)
        return row[width - 1], scales[width - 1], lcm, f

    scales, at = _scales(n0, q0, p), height - 1
    if state is None:
        column, lcms = _first_column(n0, q0, n, scales[0])
        q = q0
        if visit is not None:
            visit(q0, column[at], scales[0], lcms[at])
    else:
        _, q, lcms, column = state
    for q in range(q + 2, p + 1, 2):
        i = (q - q0) // 2
        column = _step_column(column, q, n0, scales[i], q * (q - 1) * (scales[i] // scales[i - 1]), lcms)
        if visit is not None:
            visit(q, column[at], scales[i], lcms[at])
    _WARM[n0, q0] = ("column", p, lcms, column)
    return column[at], scales[-1], lcms[at], math.prod(range(n0 + 2, n + 1, 2))


# ---------------------------------------------------------------------------
# the complete families
# ---------------------------------------------------------------------------

def _clears_warm_state(cached):
    # cache_clear also drops the sweep's cross-sections, so a cleared
    # evaluator is cold in full.
    clear = cached.cache_clear

    def cache_clear() -> None:
        with _LOCK:
            _WARM.clear()
        clear()

    cached.cache_clear = cache_clear
    return cached


@_clears_warm_state
@lru_cache(maxsize=None, typed=True)
def cos_moment(n: int, p: int) -> PiPoly:
    """Exact value of integral_0^{pi/2} x**p cos(x)**n dx in Q[pi].

    n = 0 and n = 1 come straight from the base rows; n >= 2 from the
    bottom-up sweep of the recurrence over the parity class of (n, p).
    The degree in pi is at most p + 1.
    """
    # The caches are typed, so a float or bool index never hits an int entry.
    check_indices(n=n, p=p)
    if n == 0:
        return base_n0(p)
    if n == 1:
        return base_n1(p)
    with _LOCK:
        cell, scale, lcm, f = _sweep(n, p)
    return PiPoly._from_ints(list(cell), scale * f * lcm ** (p + p % 2))


@_clears_warm_state
@lru_cache(maxsize=None, typed=True)
def sin_moment(n: int, p: int) -> PiPoly:
    """Exact value of integral_0^{pi/2} x**p sin(x)**n dx in Q[pi].

    Reflection x -> pi/2 - x turns the sine family into a binomial
    combination of cosine values,
    s(n, p) = sum_{k=0..p} C(p,k) (pi/2)**(p-k) (-1)**k c(n, k),
    summed here in integers over one denominator as the sweeps of the two
    parity classes pass the cells c(n, k).
    """
    # The caches are typed, so a float or bool index never hits an int entry.
    check_indices(n=n, p=p)
    classes = range(min(p, 1) + 1)
    top = p + p % 2
    common = math.lcm(*(_scales(n % 2, q0, p)[-1] for q0 in classes))
    nums = [0] * (p + 2)

    def visit(k: int, cell: list[int], scale: int, lcm: int) -> None:
        # term k over 2**p * common * F(n) * L(n)**top
        weight = ((-1) ** k * binomial(p, k) * (common // scale) << k) * lcm ** (top - k - k % 2)
        for j, u in enumerate(cell, p - k):
            nums[j] += weight * u

    with _LOCK:
        for q0 in classes:
            _, _, lcm, f = _sweep(n, p - (p - q0) % 2, visit)
    return PiPoly._from_ints(nums, (common << p) * f * lcm**top)


# ---------------------------------------------------------------------------
# Wallis identity checks
# ---------------------------------------------------------------------------

def _wallis_sum(n: int) -> Fraction:
    # f(n) = sum_i 2**(-2i) C(n, 2i) C(2i, i)
    out = Fraction(0)
    for i in range(n // 2 + 1):
        out += Fraction(binomial(n, 2 * i) * binomial(2 * i, i), 4**i)
    return out


def check_wallis_identities(n_max: int, expansion_max: int = 30) -> VerificationReport:
    """Exact checks of the central-binomial sum identity and its relatives.

    For every n <= n_max: (i) sum_i 2**(-2i) C(n,2i) C(2i,i) equals
    2**(-n) C(2n,n); (ii) that sum satisfies f(n+1) = (2n+1)/(n+1) f(n).
    For every n <= expansion_max: (iii) the half-angle expansion
    c(2n, 0) = 2**(-n) sum_i C(n, 2i) c(2i, 0) holds in Q[pi].
    Failures are reported, never raised.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    report = VerificationReport()
    values = [_wallis_sum(n) for n in range(n_max + 2)]
    for n in range(1, n_max + 1):
        closed = Fraction(binomial(2 * n, n), 2**n)
        report.add_exact(
            f"wallis-sum n={n}", values[n] == closed, exact=f"f({n}) = {closed}"
        )
    for n in range(1, n_max + 1):
        holds = values[n + 1] * (n + 1) == values[n] * (2 * n + 1)
        report.add_exact(f"wallis-step n={n}", holds)
    for n in range(1, min(expansion_max, n_max) + 1):
        rhs = PiPoly.zero()
        for i in range(n // 2 + 1):
            rhs = rhs + cos_moment(2 * i, 0) * Fraction(binomial(n, 2 * i), 2**n)
        lhs = cos_moment(2 * n, 0)
        report.add_exact(
            f"wallis-expansion n={n}", lhs == rhs, exact=str(lhs)
        )
    return report
