"""Nested nondecreasing-index sums and central-binomial tail sums.

These exact rational sums are the coefficient ingredients of the closed-form
branch expansions:

* ``nested_sum`` evaluates the finite multiple sums over nondecreasing index
  tuples, sum over 1 <= k1 <= ... <= kj <= n of prod 1/ki**2 (even kind) and
  the analogue over 0 <= k1 <= ... <= kj <= n of prod 1/(2*ki+1)**2 (odd).
* ``central_tail`` evaluates partial sums of the two classical series

      sum_{k>=1} 2**(2k) / (k**2 * C(2k,k))    -> pi**2 / 2,
      sum_{k>=0} C(2k,k) / (2**(2k) * (2k+1))  -> pi / 2,

  whose finite truncations enter the p = 1 base values.
* ``tail_coupled_sum`` evaluates nested sums with one ``central_tail`` factor
  attached to a designated tuple index; these are the constant terms of the
  odd-p branch expansions.

Storage.  The tables hold integer numerators over denominators known in
advance, so growing a row is an integer multiply-add with no gcd; the reduced
Fraction is built when an entry is read.  With the index unit u(k) = k (even
kind, k >= 1) or 2k+1 (odd kind, k >= 0), M(n) is the lcm of u(k) over the
summation range up to n, and D(n) is the lcm of the denominators of the
central-tail terms up to n.  A nested sum of depth j is stored over
M(n)**(2j), a central tail over D(n), and a tail-coupled sum of depth m over
D(n) * M(n)**(2m).  ``nested_ints`` and ``coupled_ints`` hand out that
integer form, for callers that assemble over one denominator.  All of this
state, the lcm lists included, lives in the three dicts ``_NESTED``,
``_TAILS`` and ``_COUPLED``, whose values are lists that start empty.

Threads.  One module lock covers the growth of the tables and the read of the
entry, so the public functions may be called from several threads at once.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .pipoly import binomial, check_indices

_KINDS = ("even", "odd")

_LOCK = threading.Lock()


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'even' or 'odd', got {kind!r}")


def _unit(kind: str, k: int) -> int:
    return k if kind == "even" else 2 * k + 1


def _seed(kind: str) -> int:
    # The value at bound 0: even sums start at index 1 (empty, 0), odd sums
    # include the all-zero tuple, whose weight and tail are both 1.
    return 0 if kind == "even" else 1


# ---------------------------------------------------------------------------
# plain nested sums
# ---------------------------------------------------------------------------

# _NESTED[kind][j][n] == nested_sum(kind, j, n) * M(n)**(2j),
# M(n) == _NESTED[kind, "lcm"][n].
_NESTED: dict = {"even": [], "odd": [], ("even", "lcm"): [], ("odd", "lcm"): []}


def _grow_nested(kind: str, depth: int, bound: int) -> list[list[int]]:
    rows = _NESTED[kind]
    if len(rows) > depth and len(rows[depth]) > bound:
        return rows  # a row is never longer than the one below it
    lcms = _NESTED[kind, "lcm"]
    if not lcms:
        lcms.append(1)
    for n in range(len(lcms), bound + 1):
        lcms.append(math.lcm(lcms[n - 1], _unit(kind, n)))
    while len(rows) <= depth:
        rows.append([])
    rows[0].extend([1] * (bound + 1 - len(rows[0])))
    for j in range(1, depth + 1):
        row, prev = rows[j], rows[j - 1]
        if not row:
            row.append(_seed(kind))
        for n in range(len(row), bound + 1):
            scale = lcms[n] // _unit(kind, n)
            row.append(row[n - 1] * (lcms[n] // lcms[n - 1]) ** (2 * j) + prev[n] * (scale * scale))
    return rows


def nested_sum(kind: str, depth: int, bound: int) -> Fraction:
    """Nested sum of reciprocal squares over nondecreasing tuples.

    even: sum over 1 <= k1 <= ... <= k_depth <= bound of prod 1/ki**2;
    odd:  sum over 0 <= k1 <= ... <= k_depth <= bound of prod 1/(2ki+1)**2.
    Depth 0 is the empty product, 1.
    """
    _check_kind(kind)
    check_indices(depth=depth, bound=bound)
    nums, lcm = nested_ints(kind, depth, bound)
    return Fraction(nums[depth], lcm ** (2 * depth))


def nested_ints(kind: str, depth: int, bound: int) -> tuple[list[int], int]:
    """The integer form of a column of nested sums: (nums, M) with
    nested_sum(kind, j, bound) == nums[j] / M**(2j) for j = 0..depth."""
    with _LOCK:
        rows = _grow_nested(kind, depth, bound)
        return [row[bound] for row in rows[: depth + 1]], _NESTED[kind, "lcm"][bound]


# ---------------------------------------------------------------------------
# central-binomial tail partial sums
# ---------------------------------------------------------------------------

# _TAILS[kind][m] == (partial sum up to index m) * D(m), D(m) == _TAILS[kind, "lcm"][m];
# the even series starts at k = 1 (value 0 at m = 0), the odd one at k = 0.
_TAILS: dict = {"even": [], "odd": [], ("even", "lcm"): [], ("odd", "lcm"): []}


def _grow_tails(kind: str, m: int) -> list[int]:
    sums, dens = _TAILS[kind], _TAILS[kind, "lcm"]
    if not sums:
        sums.append(_seed(kind))
        dens.append(1)
    if len(sums) > m:
        return sums
    central = binomial(2 * len(sums), len(sums))  # C(2k, k), stepped with k below
    for k in range(len(sums), m + 1):
        if kind == "even":
            num, den = 4**k, k * k * central
        else:
            num, den = central, 4**k * (2 * k + 1)
        g = math.gcd(num, den)
        num, den = num // g, den // g
        lcm = math.lcm(dens[k - 1], den)
        sums.append(sums[k - 1] * (lcm // dens[k - 1]) + num * (lcm // den))
        dens.append(lcm)
        central = central * 2 * (2 * k + 1) // (k + 1)  # C(2k+2, k+1)
    return sums


def central_tail(kind: str, m: int) -> Fraction:
    """Exact partial sum of the central-binomial series up to index m.

    The even series starts at k = 1, so m >= 1 there; the odd one starts at
    k = 0.  The limits are pi**2/2 and pi/2 but no finite closed form exists.
    """
    _check_kind(kind)
    check_indices(m=m)
    if kind == "even" and m < 1:
        raise ValueError("central_tail('even', m) requires m >= 1")
    with _LOCK:
        return Fraction(_grow_tails(kind, m)[m], _TAILS[kind, "lcm"][m])


def central_tail_float(kind: str, m: int) -> float:
    """Float partial sum of the same series, for large-m limit studies.

    Terms are generated by the exact term-ratio recurrence and accumulated in
    float64 (pairwise summation); the rounding error stays orders of
    magnitude below the m**(-1/2) truncation error of the series itself.
    """
    import numpy as np

    _check_kind(kind)
    if kind == "even":
        if m < 1:
            raise ValueError("central_tail_float('even', m) requires m >= 1")
        k = np.arange(1, m, dtype=np.float64)
        ratios = 2.0 * k * k / ((2.0 * k + 1.0) * (k + 1.0))
        terms = 2.0 * np.concatenate(([1.0], np.cumprod(ratios)))
    else:
        if m < 0:
            raise ValueError("central_tail_float('odd', m) requires m >= 0")
        k = np.arange(0, m, dtype=np.float64)
        ratios = (2 * k + 1) ** 2 / (2 * (k + 1) * (2 * k + 3))
        terms = np.concatenate(([1.0], np.cumprod(ratios)))
    return float(np.sum(terms))


# ---------------------------------------------------------------------------
# nested sums with an attached tail factor
# ---------------------------------------------------------------------------

_ATTACH = ("smallest", "largest")

# _COUPLED[kind, attach][m - 1][n] == tail_coupled_sum(kind, m, n, attach) * D(n) * M(n)**(2m)
# for depth m >= 1; depth 0 is the bare tail, read from _TAILS.
_COUPLED: dict = {}


def tail_coupled_sum(kind: str, depth: int, bound: int, attach: str = "smallest") -> Fraction:
    """Nested sum with one central-tail factor coupled to a tuple index.

    attach='smallest' (the form the branch constants need):
        sum over k1 <= ... <= k_depth <= bound of T(k1) * prod w(ki),
    attach='largest':
        the same with T(k_depth) instead,
    where w(k) and T(k) are the reciprocal-square weight and the
    ``central_tail`` partial sum of the matching kind.  Depth 0 degenerates
    to the bare tail T(bound) (with T(0) = 0 for the even kind).
    """
    _check_kind(kind)
    if attach not in _ATTACH:
        raise ValueError(f"attach must be one of {_ATTACH}, got {attach!r}")
    check_indices(depth=depth, bound=bound)
    num, tails, lcm = coupled_ints(kind, depth, bound, attach)
    return Fraction(num, tails * lcm ** (2 * depth))


def coupled_ints(kind: str, depth: int, bound: int, attach: str = "smallest") -> tuple[int, int, int]:
    """The integer form (num, D, M) of a tail-coupled sum: it equals
    num / (D * M**(2 depth)), with D = D(bound) and, for depth >= 1, M = M(bound)."""
    with _LOCK:
        sums = _grow_tails(kind, bound)
        dens = _TAILS[kind, "lcm"]
        if depth == 0:
            return sums[bound], dens[bound], 1
        nested = _grow_nested(kind, depth - 1, bound)
        lcms = _NESTED[kind, "lcm"]
        rows = _COUPLED.setdefault((kind, attach), [])
        while len(rows) < depth:
            rows.append([])
        for m in range(1, depth + 1):
            # attach='smallest' conditions on the largest index, whose inner
            # tuple already carries the tail (the depth m-1 row); for
            # 'largest' the tail rides the largest index over a plain nested sum.
            row, prev = rows[m - 1], rows[m - 2] if m > 1 else sums
            if not row:
                row.append(_seed(kind))
            for n in range(len(row), bound + 1):
                scale = lcms[n] // _unit(kind, n)
                inner = prev[n] if attach == "smallest" else sums[n] * nested[m - 1][n]
                step = (dens[n] // dens[n - 1]) * (lcms[n] // lcms[n - 1]) ** (2 * m)
                row.append(row[n - 1] * step + inner * (scale * scale))
        return rows[depth - 1][bound], dens[bound], lcms[bound]
