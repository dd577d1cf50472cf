"""Recurrence-engine tests: solver, base rows, full families, Wallis checks."""

import importlib.util
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigint import (
    FirstOrderProblem,
    PiPoly,
    base_n0,
    base_n1,
    base_p0,
    base_p1,
    check_wallis_identities,
    cos_moment,
    sin_moment,
    even_branch,
    odd_branch,
    recurrence,
    solve_first_order,
)
from trigint.pipoly import binomial

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class TestSolver:
    def test_pure_accumulation(self):
        prob = FirstOrderProblem(
            a=lambda n: Fraction(1), b=lambda n: Fraction(1), r=lambda n: Fraction(1), z0=Fraction(0)
        )
        assert solve_first_order(prob, 5) == 5

    def test_wallis_homogeneous(self):
        # 2n z_n = (2n-1) z_{n-1}, z_0 = pi/2: two steps give 3 pi/16
        prob = FirstOrderProblem(
            a=lambda n: Fraction(2 * n),
            b=lambda n: Fraction(2 * n - 1),
            r=lambda n: Fraction(0),
            z0=PiPoly.pi_power(1, Fraction(1, 2)),
        )
        assert solve_first_order(prob, 2) == PiPoly.pi_power(1, Fraction(3, 16))
        assert solve_first_order(prob, 0) == PiPoly.pi_power(1, Fraction(1, 2))

    def test_linear_weight_inhomogeneous(self):
        # 2n z_n = (2n-1) z_{n-1} - 1/(2n), z_0 = pi^2/8: one step is pi^2/16 - 1/4
        prob = FirstOrderProblem(
            a=lambda n: Fraction(2 * n),
            b=lambda n: Fraction(2 * n - 1),
            r=lambda n: Fraction(-1, 2 * n),
            z0=PiPoly.pi_power(2, Fraction(1, 8)),
        )
        expected = PiPoly([Fraction(-1, 4), 0, Fraction(1, 16)])
        assert solve_first_order(prob, 1) == expected

    def test_zero_coefficient_diagnosed(self):
        prob = FirstOrderProblem(
            a=lambda n: Fraction(n - 3),  # vanishes at n = 3
            b=lambda n: Fraction(1),
            r=lambda n: Fraction(0),
            z0=Fraction(1),
        )
        with pytest.raises(ValueError, match="a\\(3\\)"):
            solve_first_order(prob, 5)

    def test_randomized_against_stepping(self):
        rng = random.Random(20240817)
        for _ in range(25):
            a_seq = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in range(51)]
            b_seq = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in range(51)]
            r_seq = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(51)]
            z0 = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            prob = FirstOrderProblem(
                a=lambda n: a_seq[n], b=lambda n: b_seq[n], r=lambda n: r_seq[n], z0=z0
            )
            z = z0
            for n in range(1, 51):
                z = (b_seq[n] * z + r_seq[n]) / a_seq[n]
                assert solve_first_order(prob, n) == z


def iterate_single_cos_row(p: int) -> PiPoly:
    """Independent oracle for c(1, p): integration by parts gives
    u_p + p(p-1) u_{p-2} = (pi/2)**p with u_0 = 1, u_1 = pi/2 - 1."""
    if p == 0:
        return PiPoly.constant(1)
    if p == 1:
        return PiPoly.pi_power(1, Fraction(1, 2)) + PiPoly.constant(-1)
    return PiPoly.pi_power(p, Fraction(1, 2**p)) + iterate_single_cos_row(p - 2) * Fraction(
        -p * (p - 1)
    )


def taylor_single_cos_row(p: int) -> PiPoly:
    """Independent oracle for c(1, p) through the degree-(2 xi + 1) Taylor
    polynomial of cos: f(x) = (-1)^xi p! (-1 + sum (-1)^k x^(2k+1)/(2k+1)!)
    at pi/2 for odd p, its derivative there for even p."""
    xi = p // 2
    sign = Fraction((-1) ** xi * math.factorial(p))
    if p % 2 == 1:
        out = PiPoly.constant(-sign)
        for k in range(xi + 1):
            out = out + PiPoly.pi_power(
                2 * k + 1, sign * Fraction((-1) ** k, math.factorial(2 * k + 1) * 2 ** (2 * k + 1))
            )
        return out
    out = PiPoly.zero()
    for k in range(xi + 1):
        out = out + PiPoly.pi_power(2 * k, sign * Fraction((-1) ** k, math.factorial(2 * k) * 2 ** (2 * k)))
    return out


class TestBaseRows:
    def test_pure_power_row(self):
        assert base_n0(0) == PiPoly.pi_power(1, Fraction(1, 2))
        assert base_n0(2) == PiPoly.pi_power(3, Fraction(1, 24))

    def test_wallis_row(self):
        assert base_p0(2) == PiPoly.pi_power(1, Fraction(1, 4))
        assert base_p0(5) == PiPoly.constant(Fraction(8, 15))  # 2^4/(5 C(4,2))
        assert base_p0(0) == PiPoly.pi_power(1, Fraction(1, 2))

    def test_single_cos_row_known_values(self):
        assert base_n1(1) == PiPoly([-1, Fraction(1, 2)])  # pi/2 - 1
        assert base_n1(2) == PiPoly([-2, 0, Fraction(1, 4)])  # pi^2/4 - 2

    def test_single_cos_row_vs_parts_iteration(self):
        for p in range(0, 16):
            assert base_n1(p) == iterate_single_cos_row(p), p

    def test_dual_route_consistency_sweep(self):
        for p in range(0, 61):
            assert base_n1(p) == taylor_single_cos_row(p), p

    @pytest.mark.parametrize("row", [base_n0, base_n1, base_p0, base_p1])
    @pytest.mark.parametrize("index", [True, 2.0])
    def test_non_int_index_refused(self, row, index):
        with pytest.raises(TypeError, match="must be an integer"):
            row(index)

    def test_linear_weight_row(self):
        assert base_p1(0) == PiPoly.pi_power(2, Fraction(1, 8))
        assert base_p1(1) == PiPoly([-1, Fraction(1, 2)])
        # cos^3 = (3 cos x + cos 3x)/4 integrated by parts: pi/3 - 7/9
        assert base_p1(3) == PiPoly([Fraction(-7, 9), Fraction(1, 3)])
        assert base_p1(2) == PiPoly([Fraction(-1, 4), 0, Fraction(1, 16)])


class TestCompleteFamilies:
    def test_known_values(self):
        assert cos_moment(0, 1) == PiPoly.pi_power(2, Fraction(1, 8))
        # antiderivative of x^2 cos^2 x: x^3/6 + (x^2 sin 2x)/4 + (x cos 2x)/4 - sin(2x)/8
        assert cos_moment(2, 2) == PiPoly([0, Fraction(-1, 8), 0, Fraction(1, 48)])
        assert cos_moment(2, 0) == PiPoly.pi_power(1, Fraction(1, 4))
        assert cos_moment(4, 2) == PiPoly([0, Fraction(-15, 128), 0, Fraction(1, 64)])

    def test_degree_bound(self):
        for n in range(9):
            for p in range(9):
                assert cos_moment(n, p).degree <= p + 1

    def test_recurrence_closure(self):
        for n in range(2, 16):
            for p in range(2, 16):
                lhs = cos_moment(n, p)
                rhs = cos_moment(n - 2, p) * Fraction(n - 1, n) + cos_moment(n, p - 2) * Fraction(
                    -p * (p - 1), n * n
                )
                assert lhs == rhs, (n, p)

    def test_sine_recurrence_closure(self):
        # the cosine step plus the boundary term q (pi/2)**(q-1) / n**2 of sin(pi/2) = 1
        for n in range(2, 16):
            for p in range(1, 16):
                lhs = sin_moment(n, p)
                rhs = sin_moment(n - 2, p) * Fraction(n - 1, n) + PiPoly.pi_power(
                    p - 1, Fraction(p, n * n * 2 ** (p - 1)))
                if p >= 2:
                    rhs = rhs + sin_moment(n, p - 2) * Fraction(-p * (p - 1), n * n)
                assert lhs == rhs, (n, p)

    def test_sine_equals_reflection_sum(self):
        # x -> pi/2 - x: an independent route through the cosine family
        for n in range(31):
            for p in range(31):
                assert sin_moment(n, p) == reflected(cos_moment, n, p), (n, p)

    def test_positivity_and_monotonicity_in_n(self):
        for p in range(0, 16):
            prev = None
            for n in range(0, 16):
                val = cos_moment(n, p).evaluate(30)
                assert val > 0, (n, p)
                if prev is not None:
                    assert val < prev, (n, p)
                prev = val

    def test_sine_values(self):
        assert sin_moment(1, 0) == PiPoly.constant(1)
        assert sin_moment(2, 0) == PiPoly.pi_power(1, Fraction(1, 4))
        assert sin_moment(1, 1) == PiPoly.constant(1)  # int x sin x = 1 by parts

    def test_sine_reflection_vs_quadrature(self):
        import numpy as np

        from trigint import integrate_finite

        for n, p in ((2, 3), (3, 2), (5, 5), (4, 1)):
            exact = float(sin_moment(n, p).evaluate(30))
            res = integrate_finite(lambda x: x**p * np.sin(x) ** n, 0.0, float(mp.pi) / 2, 1e-12)
            assert res.converged
            assert abs(exact - res.value) < 1e-10, (n, p)

    def test_deep_cancellation_evaluation(self):
        # c(200, 30) ~ 1e-20 emerges from alternating coefficients ~ 1e+14;
        # evaluate() must widen its working precision to absorb that
        import numpy as np

        from trigint import integrate_finite

        val = cos_moment(200, 30).evaluate(30)
        assert val > 0
        res = integrate_finite(
            lambda x: x**30 * np.cos(x) ** 200, 0.0, float(mp.pi) / 2, 1e-13
        )
        assert res.converged
        assert abs(float(val) - res.value) < 1e-13

    def test_index_validation(self):
        with pytest.raises(ValueError):
            cos_moment(-1, 0)
        with pytest.raises(TypeError):
            cos_moment(1.5, 0)

    @pytest.mark.parametrize("moment", [cos_moment, sin_moment])
    @pytest.mark.parametrize("n, p", [(1.0, 1), (1, 1.0), (2.0, 2), (True, 1), (1, True), (False, 0)])
    def test_non_int_indices_rejected_cold_and_warm(self, moment, n, p):
        # The answer must not depend on whether the int entry is cached.
        moment.cache_clear()
        with pytest.raises(TypeError):
            moment(n, p)
        moment(int(n), int(p))
        with pytest.raises(TypeError):
            moment(n, p)


def reflected(cosine, n: int, p: int) -> PiPoly:
    """s(n, p) = sum_k C(p,k) (pi/2)**(p-k) (-1)**k c(n, k), with c(n, k) = cosine(n, k)."""
    out = PiPoly.zero()
    for k in range(p + 1):
        weight = PiPoly.pi_power(p - k, Fraction((-1) ** k * binomial(p, k), 2 ** (p - k)))
        out = out + weight * cosine(n, k)
    return out


def branch_value(n: int, p: int) -> PiPoly:
    return (even_branch(n // 2, p) if n % 2 == 0 else odd_branch(n // 2, p)).assembled


def clear_moments() -> None:
    cos_moment.cache_clear()
    sin_moment.cache_clear()


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ladder_cells():
    # every cosine rung of the exact-cold ladder, at its size and at its lowest jitter
    ladder = load_workloads()._EXACT_LADDER
    cells = {(n - 2 * m, p) for family, n, p in ladder if family == "c" for m in (0, n // 50)}
    return sorted(cells) + [(4000, 2), (4001, 3), (2, 1200)]


class TestSweep:
    """The bottom-up sweep: deep cells, warm continuation, clearing, threads."""

    @pytest.mark.parametrize("n, p", [(2400, 2), (4000, 2), (4001, 3), (2, 600)])
    def test_deep_cells_equal_branches(self, n, p):
        # far past any recursion limit, in either direction
        clear_moments()
        branch = even_branch(n // 2, p) if n % 2 == 0 else odd_branch(n // 2, p)
        assert recurrence.sweep_moment("cos", n, p) == branch.assembled

    def test_cos_moment_equals_sweep(self):
        clear_moments()
        for p in range(40):
            for n in range(40):
                assert cos_moment(n, p) == recurrence.sweep_moment("cos", n, p), (n, p)
        clear_moments()

    @pytest.mark.parametrize("n, p", ladder_cells())
    def test_ladder_cells_equal_sweep(self, n, p):
        # the benchmark checks cos_moment against the branches, which are now
        # cos_moment itself; this keeps the sweep's second opinion on its cells
        clear_moments()
        assert cos_moment(n, p) == recurrence.sweep_moment("cos", n, p)

    def test_sweep_family_refused(self):
        with pytest.raises(ValueError, match="family"):
            recurrence.sweep_moment("tan", 2, 2)
        with pytest.raises(TypeError):
            recurrence.sweep_moment("cos", True, 2)

    @pytest.mark.parametrize("n, p", [(4000, 2), (4001, 3), (2, 600)])
    def test_deep_sine_cells_equal_reflected_branches(self, n, p):
        clear_moments()
        assert sin_moment(n, p) == reflected(branch_value, n, p)

    def test_sine_never_sweeps_the_cosine(self):
        clear_moments()
        for n, p in ((30, 4), (31, 5), (4, 30), (5, 31)):
            sin_moment(n, p)
        assert {key[0] for key in recurrence._WARM} == {"sin"}
        assert cos_moment.cache_info().currsize == 0
        clear_moments()

    def test_cosine_never_sweeps(self):
        clear_moments()
        for n, p in ((30, 4), (31, 5), (4, 30), (5, 31)):
            cos_moment(n, p)
        assert not recurrence._WARM
        clear_moments()

    def test_cache_clear_drops_warm_state(self):
        # sin_moment and the sweep verifier share the warm cross-sections
        clear_moments()
        recurrence.sweep_moment("cos", 30, 4)
        sin_moment(30, 4)
        assert {key[0] for key in recurrence._WARM} == {"cos", "sin"}
        sin_moment.cache_clear()
        assert not recurrence._WARM
        assert sin_moment.cache_info().currsize == 0

    def test_wide_cell_memory(self):
        # p > n sweeps columns over n, so c(2, 1000) never holds a row of q-cells
        for moment in (cos_moment, partial(recurrence.sweep_moment, "cos")):
            clear_moments()
            tracemalloc.start()
            try:
                moment(2, 1000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8e6, moment

    def test_wide_sine_cell_memory(self):
        clear_moments()
        tracemalloc.start()
        try:
            sin_moment(2, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("c", "s", "clear c", "clear s")),
                              st.integers(0, 40), st.integers(0, 40)), max_size=12))
    def test_values_do_not_depend_on_warm_state(self, calls):
        moments = {"c": cos_moment, "s": sin_moment}
        clear_moments()
        seen = []
        for what, n, p in calls:
            if what.startswith("clear"):
                moments[what[-1]].cache_clear()
            else:
                seen.append((what, n, p, moments[what](n, p)))
        for what, n, p, value in seen:
            clear_moments()
            assert moments[what](n, p) == value, (what, n, p)

    def test_concurrent_sweeps_match_single_thread(self):
        rng = random.Random(11)
        queries = [[(rng.choice("cs"), rng.randint(0, 60), rng.randint(0, 60)) for _ in range(15)]
                   for _ in range(4)]

        def answer(query):
            what, n, p = query
            return (cos_moment if what == "c" else sin_moment)(n, p)

        clear_moments()
        expected = [[answer(q) for q in qs] for qs in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                clear_moments()
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


class TestWallisIdentities:
    def test_spot_values(self):
        # f(2) = 1 + C(2,2) C(2,1)/4 = 3/2 = 2^{-2} C(4,2)
        f2 = sum(Fraction(binomial(2, 2 * i) * binomial(2 * i, i), 4**i) for i in range(2))
        assert f2 == Fraction(3, 2) == Fraction(binomial(4, 2), 4)
        # expansion at n=1: c(2,0) = (1/2) C(1,0) c(0,0) = pi/4
        assert cos_moment(2, 0) == cos_moment(0, 0) * Fraction(1, 2)

    def test_sweep_passes(self):
        report = check_wallis_identities(60)
        assert report.all_passed
        assert report.summary["failed"] == 0

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            check_wallis_identities(0)
