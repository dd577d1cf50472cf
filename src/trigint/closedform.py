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

and with these constants the assembled expansion agrees with the recurrence
evaluator exactly.  A depth-p variant with the tail on the largest index is
kept available through ``constant_term_routes`` for comparison; it does NOT
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

from .eulersums import nested_sum, tail_coupled_sum
from .pipoly import PiPoly, binomial, check_indices
from .recurrence import cos_moment
from .report import VerificationReport


@dataclass(frozen=True)
class BranchExpansion:
    """One branch value c(2n+delta, p) with its pi-coefficient vector.

    ``coeffs[j]`` multiplies pi**pi_powers[j]; ``star`` is the rational
    constant term, present exactly when p is odd.  ``assembled`` is the sum
    as a PiPoly and equals the recurrence evaluator's value exactly.
    """

    parity: str
    n: int
    p: int
    pi_powers: tuple[int, ...]
    coeffs: tuple[Fraction, ...]
    star: Fraction | None
    assembled: PiPoly

    def to_dict(self) -> dict:
        return {
            "parity": self.parity,
            "n": self.n,
            "p": self.p,
            "pi_powers": list(self.pi_powers),
            "coeffs": [str(c) for c in self.coeffs],
            "star": None if self.star is None else str(self.star),
        }


def _assemble(powers: tuple[int, ...], coeffs: tuple[Fraction, ...], star: Fraction | None) -> PiPoly:
    cs = [Fraction(0)] * (max(powers) + 1)
    for power, c in zip(powers, coeffs):
        cs[power] += c
    if star is not None:
        cs[0] += star
    return PiPoly(cs)


def _from_base(parity: str, n: int, p: int, powers: tuple[int, ...]) -> BranchExpansion:
    # p in {0, 1}: read the coefficients off the exactly known base rows.
    index = 2 * n if parity == "even" else 2 * n + 1
    poly = cos_moment(index, p)
    coeffs = tuple(poly.coeff(power) for power in powers)
    star = poly.coeff(0) if p % 2 == 1 else None
    return BranchExpansion(parity, n, p, powers, coeffs, star, poly)


def _star(parity: str, n: int, p: int, central: int, pf: int) -> Fraction:
    # The constant term for odd p, given central = C(2n, n) and pf = p!.
    xi = p // 2
    if parity == "even":
        pref = Fraction((-1) ** (xi + 1) * central * pf, 2 ** (2 * n + p + 1))
    else:
        pref = Fraction((-1) ** (xi + 1) * pf * 4**n, (2 * n + 1) * central)
    return pref * tail_coupled_sum(parity, xi, n, attach="smallest")


def star_constant(parity: str, n: int, p: int) -> Fraction:
    """The rational constant term of the branch expansion for odd p."""
    check_indices(n=n, p=p)
    if p % 2 != 1:
        raise ValueError("the constant term exists only for odd p")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return _star(parity, n, p, binomial(2 * n, n), factorial(p))


def even_branch(n: int, p: int) -> BranchExpansion:
    """Closed-form expansion of c(2n, p)."""
    check_indices(n=n, p=p)
    xi = p // 2
    powers = tuple(p + 1 - 2 * j for j in range(xi + 1))
    if p <= 1:
        return _from_base("even", n, p, powers)
    central, pf = binomial(2 * n, n), factorial(p)
    num, den = central * pf, 2 ** (2 * n + p + 1)
    coeffs = tuple(
        Fraction((-1) ** j * num, den * factorial(p + 1 - 2 * j)) * nested_sum("even", j, n)
        for j in range(xi + 1)
    )
    star = _star("even", n, p, central, pf) if p % 2 == 1 else None
    return BranchExpansion("even", n, p, powers, coeffs, star, _assemble(powers, coeffs, star))


def odd_branch(n: int, p: int) -> BranchExpansion:
    """Closed-form expansion of c(2n+1, p)."""
    check_indices(n=n, p=p)
    xi = p // 2
    powers = tuple(p - 2 * j for j in range(xi + 1))
    if p <= 1:
        return _from_base("odd", n, p, powers)
    central, pf = binomial(2 * n, n), factorial(p)
    den = (2 * n + 1) * central * 2**p
    coeffs = tuple(
        Fraction((-1) ** j * pf * 4 ** (n + j), den * factorial(p - 2 * j)) * nested_sum("odd", j, n)
        for j in range(xi + 1)
    )
    star = _star("odd", n, p, central, pf) if p % 2 == 1 else None
    return BranchExpansion("odd", n, p, powers, coeffs, star, _assemble(powers, coeffs, star))


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
    """Compare the constant-term candidates against the recurrence value.

    For every odd p <= p_max and n <= n_max (both parities) this evaluates
    (a) the tail-on-smallest-index, depth-xi sum used by the branch
    expansions, and (b) the tail-on-largest-index, depth-p variant.  Route
    (a) must equal the constant term of the recurrence evaluator exactly;
    route (b) generally does not, and its value is recorded in the case text
    so the disagreement is visible rather than patched away.
    """
    report = VerificationReport()
    for parity in ("even", "odd"):
        for n in range(n_max + 1):
            for p in range(1, p_max + 1, 2):
                index = 2 * n if parity == "even" else 2 * n + 1
                truth = cos_moment(index, p).coeff(0)
                used = star_constant(parity, n, p)
                xi = p // 2
                if parity == "even":
                    pref = Fraction((-1) ** xi * binomial(2 * n, n) * factorial(p), 2 ** (2 * n))
                else:
                    pref = Fraction(
                        (-1) ** xi * factorial(p) * 2 ** (2 * n), (2 * n + 1) * binomial(2 * n, n)
                    )
                variant = pref * tail_coupled_sum(parity, p, n, attach="largest")
                report.add_exact(
                    f"constant-term {parity} n={n} p={p}",
                    used == truth,
                    exact=f"used={used} largest-index-variant={variant} recurrence={truth}",
                    detail=float(abs(used - truth)) if used != truth else 1.0,
                )
    return report
