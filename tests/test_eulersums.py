"""Euler-sum tests: DP tables against brute-force enumeration oracles."""

import functools
import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigint import central_tail, central_tail_float, eulersums, nested_sum, tail_coupled_sum
from trigint.pipoly import binomial


# --- independent oracles: exhaustive enumeration over nondecreasing tuples ---

def brute_nested(kind: str, depth: int, bound: int) -> Fraction:
    if depth == 0:
        return Fraction(1)
    lo = 1 if kind == "even" else 0
    total = Fraction(0)
    for tup in itertools.combinations_with_replacement(range(lo, bound + 1), depth):
        prod = Fraction(1)
        for k in tup:
            prod *= Fraction(1, k * k) if kind == "even" else Fraction(1, (2 * k + 1) ** 2)
        total += prod
    return total


def brute_tail(kind: str, m: int) -> Fraction:
    if kind == "even":
        return sum(
            (Fraction(4**k, k * k * binomial(2 * k, k)) for k in range(1, m + 1)), Fraction(0)
        )
    return sum(
        (Fraction(binomial(2 * k, k), 4**k * (2 * k + 1)) for k in range(0, m + 1)), Fraction(0)
    )


def brute_coupled(kind: str, depth: int, bound: int, attach: str) -> Fraction:
    if depth == 0:
        if kind == "even" and bound == 0:
            return Fraction(0)
        return brute_tail(kind, bound)
    lo = 1 if kind == "even" else 0
    total = Fraction(0)
    for tup in itertools.combinations_with_replacement(range(lo, bound + 1), depth):
        prod = Fraction(1)
        for k in tup:
            prod *= Fraction(1, k * k) if kind == "even" else Fraction(1, (2 * k + 1) ** 2)
        anchor = tup[0] if attach == "smallest" else tup[-1]
        tail = Fraction(0) if (kind == "even" and anchor == 0) else brute_tail(kind, anchor)
        total += prod * tail
    return total


class TestNestedSum:
    def test_empty_product(self):
        assert nested_sum("even", 0, 5) == 1
        assert nested_sum("odd", 0, 3) == 1

    def test_small_cases_by_enumeration(self):
        # (1,1), (1,2), (2,2) -> 1 + 1/4 + 1/16
        assert nested_sum("even", 2, 2) == Fraction(21, 16)
        # k1 in {0, 1} -> 1 + 1/9
        assert nested_sum("odd", 1, 1) == Fraction(10, 9)

    def test_zero_bound(self):
        assert nested_sum("even", 3, 0) == 0
        assert nested_sum("odd", 3, 0) == 1  # the all-zero tuple

    def test_against_brute_force(self):
        for kind in ("even", "odd"):
            for j in range(4):
                for n in range(7):
                    assert nested_sum(kind, j, n) == brute_nested(kind, j, n), (kind, j, n)

    def test_monotone_in_bound(self):
        for kind in ("even", "odd"):
            for j in range(4):
                prev = nested_sum(kind, j, 0)
                for n in range(1, 10):
                    cur = nested_sum(kind, j, n)
                    assert cur >= prev
                    prev = cur

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            nested_sum("weird", 1, 1)
        with pytest.raises(ValueError):
            nested_sum("even", -1, 1)


class TestCentralTail:
    def test_frozen_values(self):
        assert central_tail("even", 2) == Fraction(8, 3)  # 2 + 2/3
        assert central_tail("odd", 1) == Fraction(7, 6)  # 1 + 1/6
        assert central_tail("odd", 0) == 1

    def test_even_needs_positive_bound(self):
        with pytest.raises(ValueError):
            central_tail("even", 0)

    def test_against_direct_sum(self):
        for m in range(1, 30):
            assert central_tail("even", m) == brute_tail("even", m)
            assert central_tail("odd", m) == brute_tail("odd", m)

    def test_float_agrees_with_exact(self):
        for kind in ("even", "odd"):
            for m in (1, 2, 7, 50, 200, 512):
                exact = float(central_tail(kind, m))
                assert abs(central_tail_float(kind, m) - exact) < 1e-12

    def test_limit_error_shrinks_like_sqrt(self):
        # |partial - pi^2/2| ~ 2 sqrt(pi) / sqrt(m): quadrupling m halves it
        target = math.pi**2 / 2
        e1 = abs(central_tail_float("even", 10_000) - target)
        e2 = abs(central_tail_float("even", 40_000) - target)
        assert e2 < 0.6 * e1
        assert e1 < 2.2 * math.sqrt(math.pi) / math.sqrt(10_000)


class TestTailCoupled:
    def test_frozen_values(self):
        # depth 1, bound 1: E(1)/1 = 2
        assert tail_coupled_sum("even", 1, 1, "smallest") == 2
        # O(0)/1 + O(1)/9 = 1 + 7/54
        assert tail_coupled_sum("odd", 1, 1, "smallest") == Fraction(61, 54)

    def test_degenerate_depth_zero(self):
        assert tail_coupled_sum("even", 0, 0) == 0
        assert tail_coupled_sum("even", 0, 2) == Fraction(8, 3)
        assert tail_coupled_sum("odd", 0, 0) == 1

    def test_against_brute_force(self):
        for kind in ("even", "odd"):
            for attach in ("smallest", "largest"):
                for depth in range(4):
                    for bound in range(6):
                        assert tail_coupled_sum(kind, depth, bound, attach) == brute_coupled(
                            kind, depth, bound, attach
                        ), (kind, attach, depth, bound)

    def test_attach_modes_differ(self):
        # the two couplings are genuinely different sums
        assert tail_coupled_sum("even", 2, 3, "smallest") != tail_coupled_sum(
            "even", 2, 3, "largest"
        )

    def test_bad_attach(self):
        with pytest.raises(ValueError):
            tail_coupled_sum("even", 1, 1, "middle")


# --- the integer-numerator tables against plain Fraction loops ---

def clear_tables() -> None:
    """Return the tables to their import-time state: every list empty."""
    for table in (eulersums._NESTED, eulersums._TAILS):
        for rows in table.values():
            rows.clear()
    eulersums._COUPLED.clear()


REF_DEPTH, REF_BOUND = 6, 300


@functools.cache
def reference_tables(kind: str):
    """nested[j][n], coupled[attach][m][n] and tail[n] by plain Fraction prefix sums."""
    lo = 1 if kind == "even" else 0
    w = [Fraction(0)] * lo + [
        Fraction(1, k * k) if kind == "even" else Fraction(1, (2 * k + 1) ** 2)
        for k in range(lo, REF_BOUND + 1)
    ]
    tail = [Fraction(0)] if kind == "even" else []
    while len(tail) <= REF_BOUND:
        k = len(tail)
        term = (Fraction(4**k, k * k * math.comb(2 * k, k)) if kind == "even"
                else Fraction(math.comb(2 * k, k), 4**k * (2 * k + 1)))
        tail.append(term + (tail[-1] if tail else 0))

    def deeper(row, factor=None):
        # sum over k <= n of row[k] * w(k) (* factor[k]); index 0 only for the odd kind
        out, acc = [], Fraction(0)
        for n in range(REF_BOUND + 1):
            if n >= lo:
                acc += row[n] * w[n] * (1 if factor is None else factor[n])
            out.append(acc)
        return out

    nested = [[Fraction(1)] * (REF_BOUND + 1)]
    smallest = [tail]
    for _ in range(REF_DEPTH):
        nested.append(deeper(nested[-1]))
        smallest.append(deeper(smallest[-1]))
    largest = [tail] + [deeper(nested[m - 1], tail) for m in range(1, REF_DEPTH + 1)]
    return nested, {"smallest": smallest, "largest": largest}, tail


_QUERY = st.tuples(
    st.sampled_from(("nested", "smallest", "largest", "tail")),
    st.sampled_from(("even", "odd")),
    st.integers(0, REF_DEPTH),
    st.integers(0, REF_BOUND),
)


class TestIntegerTables:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(_QUERY, min_size=1, max_size=6))
    def test_query_sequences_match_fraction_loops(self, queries):
        clear_tables()
        for what, kind, depth, bound in queries:
            nested, coupled, tail = reference_tables(kind)
            if what == "nested":
                assert nested_sum(kind, depth, bound) == nested[depth][bound]
            elif what == "tail":
                assert central_tail(kind, max(bound, 1)) == tail[max(bound, 1)]
            else:
                assert tail_coupled_sum(kind, depth, bound, what) == coupled[what][depth][bound]

    def test_tables_hold_only_lists(self):
        # perfbench's cold reset deep-copies these dicts and compares list lengths
        nested_sum("odd", 3, 20)
        tail_coupled_sum("even", 2, 20, "largest")
        central_tail("odd", 20)
        for table in (eulersums._NESTED, eulersums._TAILS, eulersums._COUPLED):
            assert all(isinstance(rows, list) for rows in table.values())

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_even_sums_approach_zeta_star(self, depth):
        # zeta*({2}^j) = 2 (1 - 2**(1-2j)) zeta(2j) (Hoffman 1992); the gap
        # to the partial sum falls like 1/n
        with mp.workdps(40):
            limit = 2 * (1 - mp.mpf(2) ** (1 - 2 * depth)) * mp.zeta(2 * depth)

            def gap(n):
                value = nested_sum("even", depth, n)
                return limit - mp.mpf(value.numerator) / value.denominator

            g1, g2 = gap(1000), gap(2000)
        assert 0 < g2 < 1e-3
        assert abs(g1 / g2 - 2) < 0.01


class TestThreads:
    def test_concurrent_growth_matches_single_thread(self):
        rng = random.Random(5)
        queries = [
            [(rng.choice(("nested", "smallest", "largest")), rng.choice(("even", "odd")),
              rng.randint(0, 4), rng.randint(0, 150)) for _ in range(25)]
            for _ in range(4)
        ]

        def answer(query):
            what, kind, depth, bound = query
            if what == "nested":
                return nested_sum(kind, depth, bound)
            return tail_coupled_sum(kind, depth, bound, what)

        clear_tables()
        expected = [[answer(q) for q in qs] for qs in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                clear_tables()
                results = [None] * len(queries)

                def work(i):
                    results[i] = [answer(q) for q in queries[i]]

                threads = [threading.Thread(target=work, args=(i,)) for i in range(len(queries))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == expected
        finally:
            sys.setswitchinterval(interval)
