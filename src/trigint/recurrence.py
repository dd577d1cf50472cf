"""Exact evaluation of the complete integrals over [0, pi/2].

The two families

    c(n, p) = integral_0^{pi/2} x**p * cos(x)**n dx,
    s(n, p) = integral_0^{pi/2} x**p * sin(x)**n dx,

are evaluated exactly in Q[pi].  ``cos_moment`` reduces (n, p) with the
two-variable recurrence

    c(n, p) = (n-1)/n * c(n-2, p) - p(p-1)/n**2 * c(n, p-2),   n, p >= 2,

down to four exactly known base rows (n = 0, n = 1, p = 0, p = 1); the sine
family follows by the reflection x -> pi/2 - x.  The base rows themselves
rest on ``solve_first_order``, the closed-form solver for first-order linear
recurrences a_n z_n = b_n z_{n-1} + r_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable

from .eulersums import central_tail
from .pipoly import PiPoly, binomial, lincomb
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


def base_n1(p: int) -> PiPoly:
    """c(1, p) = integral of x**p cos x, by the alternating factorial sum

        sum_{k=0..floor(p/2)} (-1)^k p!/(p-2k)! (pi/2)^(p-2k)  -  (-1)^xi p! [p odd].
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    xi = p // 2
    coeffs = [Fraction(0)] * (p + 1)
    falling = 1  # p!/(p-2k)!
    for k in range(xi + 1):
        coeffs[p - 2 * k] = Fraction((-1) ** k * falling, 2 ** (p - 2 * k))
        falling *= (p - 2 * k) * (p - 2 * k - 1)
    if p % 2 == 1:
        coeffs[0] -= (-1) ** xi * math.factorial(p)
    return PiPoly(coeffs)


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
# the complete families
# ---------------------------------------------------------------------------

def _check_indices(n: int, p: int) -> None:
    # The caches are typed, so a float or bool index never hits an int entry
    # and always reaches this check.
    if isinstance(n, bool) or isinstance(p, bool) or not (isinstance(n, int) and isinstance(p, int)):
        raise TypeError("n and p must be integers")
    if n < 0 or p < 0:
        raise ValueError("n and p must be nonnegative")


@lru_cache(maxsize=None, typed=True)
def cos_moment(n: int, p: int) -> PiPoly:
    """Exact value of integral_0^{pi/2} x**p cos(x)**n dx in Q[pi].

    Indices with n in {0, 1} or p in {0, 1} come straight from the base
    rows; everything else reduces by the two-variable recurrence, memoized.
    The degree in pi is at most p + 1.
    """
    _check_indices(n, p)
    if n == 0:
        return base_n0(p)
    if n == 1:
        return base_n1(p)
    if p == 0:
        return base_p0(n)
    if p == 1:
        return base_p1(n)
    return lincomb(
        Fraction(n - 1, n), cos_moment(n - 2, p), Fraction(-p * (p - 1), n * n), cos_moment(n, p - 2)
    )


@lru_cache(maxsize=None, typed=True)
def sin_moment(n: int, p: int) -> PiPoly:
    """Exact value of integral_0^{pi/2} x**p sin(x)**n dx in Q[pi].

    Reflection x -> pi/2 - x turns the sine family into a binomial
    combination of cosine values:
    s(n, p) = sum_{k=0..p} C(p,k) (pi/2)**(p-k) (-1)**k c(n, k).
    """
    _check_indices(n, p)
    out = PiPoly.zero()
    for k in range(p + 1):
        scale = Fraction((-1) ** k * binomial(p, k), 2 ** (p - k))
        out = lincomb(1, out, scale, cos_moment(n, k).shifted(p - k))
    return out


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
