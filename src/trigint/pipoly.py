"""Exact coefficient arithmetic: binomials and polynomials in pi over Q.

Every complete integral evaluated by this package lies in Q[pi] with degree
at most p + 1, so a dense vector of rational coefficients is the entire value
type.  All operations are pure and results are immutable.

Storage: arithmetic runs on integer numerators over one shared, fully reduced
denominator, value = sum_j nums[j] * pi**j / den.  A result costs one
multi-argument gcd, not a gcd per coefficient, and ``lincomb(a, x, b, y)``
(a*x + b*y for rational a, b) is the one kernel behind ``+``, ``-`` and
scalar ``*``.  The API still speaks ``fractions.Fraction``: ``coeffs``,
``coeff``, ``str``, ``latex`` and ``to_dict`` read a Fraction tuple that is
built once per object, on first use.  A PiPoly built from Fractions keeps
them and builds its integer form on its first arithmetic operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Union

import mpmath as mp

Scalar = Union[int, Fraction]

#: Default working precision (decimal digits) for numeric rendering.  Leaves
#: a wide guard band below the tightest numeric tolerance used anywhere.
DEFAULT_DIGITS = 50


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def check_indices(**indices) -> None:
    """Refuse a non-int index (bool included) with TypeError, a negative one with ValueError."""
    for name, value in indices.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


class PiPoly:
    """An element of Q[pi]; ``coeffs[j]`` is the coefficient of pi**j.

    Canonical form strips trailing zero coefficients, so the zero polynomial
    has an empty coefficient tuple and equality/hash are structural.
    """

    # _fracs: Fraction tuple or None; _nums/_den: integer form or None.
    __slots__ = ("_fracs", "_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._fracs: tuple[Fraction, ...] | None = tuple(cs)
        self._nums: tuple[int, ...] | None = None
        self._den: int | None = None

    @classmethod
    def _from_ints(cls, nums: list[int], den: int) -> "PiPoly":
        """sum nums[j] pi**j / den for den > 0, brought to canonical form."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [u // g for u in nums]
        out = cls.__new__(cls)
        out._fracs = None
        out._den = den
        out._nums = tuple(nums)
        return out

    def _ints(self) -> tuple[tuple[int, ...], int]:
        if self._nums is None:
            # over the lcm of reduced denominators the numerators are coprime
            den = math.lcm(*(c.denominator for c in self._fracs))
            self._den = den
            self._nums = tuple(c.numerator * (den // c.denominator) for c in self._fracs)
        return self._nums, self._den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PiPoly":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "PiPoly":
        return cls((value,))

    @classmethod
    def pi_power(cls, power: int, coeff: Scalar = 1) -> "PiPoly":
        """coeff * pi**power."""
        if power < 0:
            raise ValueError("pi_power: power must be nonnegative")
        return cls((0,) * power + (coeff,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._fracs is None:
            den = self._den
            self._fracs = tuple(Fraction(u, den) for u in self._nums)
        return self._fracs

    @property
    def degree(self) -> int:
        """Degree in pi; -1 for the zero polynomial."""
        return len(self._fracs if self._fracs is not None else self._nums) - 1

    def coeff(self, power: int) -> Fraction:
        cs = self.coeffs
        if 0 <= power < len(cs):
            return cs[power]
        return Fraction(0)

    def __bool__(self) -> bool:
        return self.degree >= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, PiPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == PiPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "PiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return lincomb(1, self, 1, other)

    __radd__ = __add__

    def __neg__(self) -> "PiPoly":
        return lincomb(-1, self, 0, _ZERO)

    def __sub__(self, other) -> "PiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return lincomb(1, self, -1, other)

    def __rsub__(self, other) -> "PiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return lincomb(-1, self, 1, other)

    def __mul__(self, other) -> "PiPoly":
        if isinstance(other, (int, Fraction)):
            return lincomb(other, self, 0, _ZERO)
        if isinstance(other, PiPoly):
            (xn, xd), (yn, yd) = self._ints(), other._ints()
            out = [0] * (len(xn) + len(yn) - 1)
            for i, u in enumerate(xn):
                if u:
                    for j, v in enumerate(yn):
                        out[i + j] += u * v
            return PiPoly._from_ints(out, xd * yd)
        return NotImplemented

    __rmul__ = __mul__

    def shifted(self, power: int) -> "PiPoly":
        """self * pi**power for power >= 0."""
        nums, den = self._ints()
        return PiPoly._from_ints([0] * power + list(nums), den)

    @staticmethod
    def _coerce(other):
        if isinstance(other, PiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return PiPoly.constant(other)
        return NotImplemented

    # -- numeric rendering -------------------------------------------------

    def evaluate(self, digits: int = DEFAULT_DIGITS) -> mp.mpf:
        """Numeric value with ``digits`` decimal digits of working precision.

        The absolute error is below 10**(1 - digits) * max(1, |value|): the
        working precision is widened by the size of the largest term, so the
        bound survives the (sometimes enormous) cancellation between
        alternating coefficients.
        """
        if digits < 10:
            raise ValueError("evaluate: digits must be >= 10")
        nums, den = self._ints()
        # upper bound on log2 of the largest |nums[j] pi**j / den| (log2 pi < 2)
        top = max((u.bit_length() + 2 * j for j, u in enumerate(nums) if u), default=0)
        headroom = max(0, math.ceil((top - den.bit_length() + 1) * _LOG10_2))
        with mp.workdps(digits + 10 + headroom):
            pi = mp.pi
            acc = mp.mpf(0)
            for u in reversed(nums):
                acc = acc * pi + u
            acc /= den
        with mp.workdps(digits):
            return +acc

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"pi_coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_dict(cls, data: dict) -> "PiPoly":
        return cls(Fraction(c) for c in data["pi_coeffs"])

    def __str__(self) -> str:
        return _render(self.coeffs, _term_text)

    def latex(self) -> str:
        return _render(self.coeffs, _term_latex)

    def __repr__(self) -> str:
        return f"PiPoly({list(self.coeffs)!r})"


_ZERO = PiPoly()
_LOG10_2 = math.log10(2)


def lincomb(a: Scalar, x: PiPoly, b: Scalar, y: PiPoly) -> PiPoly:
    """a*x + b*y for exact rationals a, b, reduced once for the whole result."""
    (xn, xd), (yn, yd) = x._ints(), y._ints()
    d1 = a.denominator * xd
    d2 = b.denominator * yd
    g = math.gcd(d1, d2)
    m1 = a.numerator * (d2 // g)
    m2 = b.numerator * (d1 // g)
    nums = [m1 * u + m2 * v for u, v in zip_longest(xn, yn, fillvalue=0)]
    return PiPoly._from_ints(nums, d1 // g * d2)


def _render(coeffs: tuple[Fraction, ...], term) -> str:
    parts: list[str] = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        text = term(c, power)
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts) if parts else "0"


def _term_text(c: Fraction, power: int) -> str:
    num, den = abs(c.numerator), c.denominator
    if power == 0:
        return f"{num}/{den}" if den > 1 else f"{num}"
    pi_s = "π" if power == 1 else f"π^{power}"
    head = "" if num == 1 else f"{num}"
    tail = "" if den == 1 else f"/{den}"
    return f"{head}{pi_s}{tail}"


def _term_latex(c: Fraction, power: int) -> str:
    num, den = abs(c.numerator), c.denominator
    pi_s = "" if power == 0 else ("\\pi" if power == 1 else f"\\pi^{{{power}}}")
    if den == 1:
        head = "" if (num == 1 and power > 0) else f"{num}"
        return f"{head}{pi_s}"
    top = ("" if (num == 1 and power > 0) else f"{num}") + pi_s
    return f"\\frac{{{top}}}{{{den}}}"
