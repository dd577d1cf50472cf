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

Tables are filled by a single writer and grown in place; completed entries
are immutable Fractions, so concurrent reads of already-computed values are
safe, concurrent growth is not.
"""

from __future__ import annotations

from fractions import Fraction

from .pipoly import binomial

_KINDS = ("even", "odd")


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'even' or 'odd', got {kind!r}")


# ---------------------------------------------------------------------------
# plain nested sums
# ---------------------------------------------------------------------------

# _NESTED[kind][j][n] == nested_sum(kind, j, n)
_NESTED: dict[str, list[list[Fraction]]] = {"even": [], "odd": []}


def _index_weight(kind: str, n: int) -> Fraction:
    return Fraction(1, n * n) if kind == "even" else Fraction(1, (2 * n + 1) ** 2)


def nested_sum(kind: str, depth: int, bound: int) -> Fraction:
    """Nested sum of reciprocal squares over nondecreasing tuples.

    even: sum over 1 <= k1 <= ... <= k_depth <= bound of prod 1/ki**2;
    odd:  sum over 0 <= k1 <= ... <= k_depth <= bound of prod 1/(2ki+1)**2.
    Depth 0 is the empty product, 1.
    """
    _check_kind(kind)
    if depth < 0 or bound < 0:
        raise ValueError("depth and bound must be nonnegative")
    rows = _NESTED[kind]
    while len(rows) <= depth:
        rows.append([])
    for j in range(depth + 1):
        row = rows[j]
        if j == 0:
            while len(row) <= bound:
                row.append(Fraction(1))
            continue
        if not row:
            # bound 0: even sums start at index 1 (empty), odd include the
            # all-zero tuple whose product is 1.
            row.append(Fraction(0) if kind == "even" else Fraction(1))
        prev = rows[j - 1]
        while len(row) <= bound:
            n = len(row)
            row.append(row[n - 1] + prev[n] * _index_weight(kind, n))
    return rows[depth][bound]


# ---------------------------------------------------------------------------
# central-binomial tail partial sums
# ---------------------------------------------------------------------------

# Exact partial sums; even entry m is sum_{k=1..m}, odd entry m is sum_{k=0..m}.
_TAILS: dict[str, list[Fraction]] = {"even": [Fraction(0)], "odd": []}


def _tail_partial(kind: str, m: int) -> Fraction:
    vals = _TAILS[kind]
    if kind == "even":
        while len(vals) <= m:
            k = len(vals)
            vals.append(vals[k - 1] + Fraction(4**k, k * k * binomial(2 * k, k)))
    else:
        if not vals:
            vals.append(Fraction(1))
        while len(vals) <= m:
            k = len(vals)
            vals.append(vals[k - 1] + Fraction(binomial(2 * k, k), 4**k * (2 * k + 1)))
    return vals[m]


def central_tail(kind: str, m: int) -> Fraction:
    """Exact partial sum of the central-binomial series up to index m.

    The even series starts at k = 1, so m >= 1 there; the odd one starts at
    k = 0.  The limits are pi**2/2 and pi/2 but no finite closed form exists.
    """
    _check_kind(kind)
    if kind == "even" and m < 1:
        raise ValueError("central_tail('even', m) requires m >= 1")
    if kind == "odd" and m < 0:
        raise ValueError("central_tail('odd', m) requires m >= 0")
    return _tail_partial(kind, m)


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

# _COUPLED[(kind, attach)][m][n]
_COUPLED: dict[tuple[str, str], list[list[Fraction]]] = {}


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
    if depth < 0 or bound < 0:
        raise ValueError("depth and bound must be nonnegative")
    rows = _COUPLED.setdefault((kind, attach), [])
    while len(rows) <= depth:
        rows.append([])
    for m in range(depth + 1):
        row = rows[m]
        if m == 0:
            # Bare tails; the even series has the empty value 0 at bound 0.
            if not row:
                row.append(Fraction(0) if kind == "even" else Fraction(1))
            while len(row) <= bound:
                row.append(_tail_partial(kind, len(row)))
            continue
        if not row:
            row.append(Fraction(0) if kind == "even" else Fraction(1))
        prev = rows[m - 1]
        while len(row) <= bound:
            n = len(row)
            w = _index_weight(kind, n)
            if attach == "smallest":
                # condition on the largest index: prev already carries the tail
                row.append(row[n - 1] + prev[n] * w)
            else:
                # tail rides the largest index, inner tuple is a plain nested sum
                row.append(row[n - 1] + _tail_partial(kind, n) * nested_sum(kind, m - 1, n) * w)
        # for attach='largest' the depth-(m-1) coupled row is not consulted,
        # but filling rows in order keeps the cache layout uniform
    return rows[depth][bound]
