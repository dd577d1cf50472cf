"""Closed-form branch tests: coefficient formulas against the recurrence
route, the cascade route, and brute-force constant-term sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigint import (
    coeff_via_recurrence,
    constant_term_routes,
    cos_moment,
    even_branch,
    odd_branch,
    star_constant,
)


class TestEvenBranch:
    def test_spot_coefficients(self):
        b = even_branch(1, 2)
        assert b.coeffs == (Fraction(1, 48), Fraction(-1, 8))
        assert b.pi_powers == (3, 1)
        assert b.star is None
        assert b.assembled == cos_moment(2, 2)

    def test_pure_power_case(self):
        b = even_branch(0, 2)
        assert b.coeffs[0] == Fraction(1, 24)
        assert b.assembled == cos_moment(0, 2)

    def test_delegated_wallis(self):
        b = even_branch(1, 0)
        assert b.assembled == cos_moment(2, 0)
        assert b.coeffs == (Fraction(1, 4),)

    def test_odd_p_star(self):
        b = even_branch(1, 1)
        assert b.star == Fraction(-1, 4)
        assert b.assembled == cos_moment(2, 1)
        b3 = even_branch(1, 3)
        assert b3.star == Fraction(3, 8)
        assert b3.assembled == cos_moment(2, 3)


class TestOddBranch:
    def test_spot_values(self):
        assert odd_branch(0, 2).assembled == cos_moment(1, 2)  # pi^2/4 - 2
        assert odd_branch(1, 1).assembled == cos_moment(3, 1)  # pi/3 - 7/9
        assert odd_branch(0, 0).assembled == cos_moment(1, 0)  # 1

    def test_star_constant(self):
        assert star_constant("odd", 0, 3) == 6  # constant of c(1,3) = pi^3/8 - 3 pi + 6
        with pytest.raises(ValueError):
            star_constant("odd", 0, 2)

    # 2n + 2j < p with p! too wide for a double's mantissa: the power of two
    # must stay exact there
    @pytest.mark.parametrize("n,p", [*((n, 23) for n in range(12)), (5, 24), (2, 70)])
    def test_negative_power_of_two_cells(self, n, p):
        assert odd_branch(n, p).assembled == cos_moment(2 * n + 1, p)


class TestTripleAgreement:
    def test_branches_equal_recurrence(self):
        for n in range(7):
            for p in range(8):
                assert even_branch(n, p).assembled == cos_moment(2 * n, p), ("even", n, p)
                assert odd_branch(n, p).assembled == cos_moment(2 * n + 1, p), ("odd", n, p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 30))
    def test_branches_equal_recurrence_property(self, n, p):
        assert even_branch(n, p).assembled == cos_moment(2 * n, p)
        assert odd_branch(n, p).assembled == cos_moment(2 * n + 1, p)

    def test_numeric_agreement_with_quadrature(self):
        import math

        import numpy as np

        from trigint import integrate_finite

        for half in range(4):
            for p in range(4):
                for branch, index in ((even_branch, 2 * half), (odd_branch, 2 * half + 1)):
                    exact = float(branch(half, p).assembled.evaluate(30))
                    res = integrate_finite(
                        lambda x, p=p, index=index: x**p * np.cos(x) ** index,
                        0.0,
                        math.pi / 2,
                        1e-11,
                    )
                    assert abs(exact - res.value) < 1e-10, (index, p)

    def test_sign_pattern(self):
        for n in range(6):
            for p in range(2, 9):
                for parity, branch in (("even", even_branch), ("odd", odd_branch)):
                    b = branch(n, p)
                    for j, c in enumerate(b.coeffs):
                        if c != 0:
                            assert (c > 0) == (j % 2 == 0), (parity, n, p, j)


class TestCoefficientCascade:
    def test_leading_coefficient(self):
        assert coeff_via_recurrence(1, 2, 0) == Fraction(1, 48)

    def test_second_coefficient(self):
        assert coeff_via_recurrence(1, 2, 1) == Fraction(-1, 8)
        # -(2 C(4,2)/2^7) (1 + 1/4)
        assert coeff_via_recurrence(2, 2, 1) == Fraction(-15, 128)

    def test_dual_route_agreement(self):
        for n in range(13):
            for p in range(13):
                for j in range(p // 2 + 1):
                    assert coeff_via_recurrence(n, p, j) == even_branch(n, p).coeffs[j], (n, p, j)

    def test_unsupported_depth(self):
        # every depth j <= p/2 has a cascade; only p < 2j and j < 0 are refused
        assert coeff_via_recurrence(1, 8, 3) == even_branch(1, 8).coeffs[3]
        with pytest.raises(ValueError):
            coeff_via_recurrence(1, 2, 2)  # pi^{-1} does not exist in the expansion
        with pytest.raises(ValueError):
            coeff_via_recurrence(1, 2, -1)

    @pytest.mark.parametrize("call", [
        lambda: coeff_via_recurrence(3, 4, True),
        lambda: coeff_via_recurrence(True, 4, 1),
        lambda: coeff_via_recurrence(3, 4.0, 1),
        lambda: even_branch(True, 3),
        lambda: even_branch(2, 3.0),
        lambda: odd_branch(1, True),
        lambda: star_constant("even", 1, True),
        lambda: star_constant("odd", 2.0, 3),
    ])
    def test_non_int_indices_refused(self, call):
        with pytest.raises(TypeError):
            call()


class TestConstantTermRoutes:
    def test_used_route_matches_recurrence_and_variant_reported(self):
        report = constant_term_routes(4, 5)
        assert report.all_passed
        # the alternative coupling is recorded and differs somewhere
        texts = [c.exact for c in report.cases]
        assert any("largest-index-variant" in t for t in texts)
        mismatch_seen = False
        for c in report.cases:
            used = c.exact.split("used=")[1].split()[0]
            variant = c.exact.split("largest-index-variant=")[1].split()[0]
            if used != variant:
                mismatch_seen = True
        assert mismatch_seen


class TestSerialization:
    def test_branch_json(self):
        b = even_branch(1, 3)
        d = b.to_dict()
        assert d["parity"] == "even"
        assert d["pi_powers"] == [4, 2]
        assert d["coeffs"] == [str(c) for c in b.coeffs]
        assert d["star"] == "3/8"
        assert even_branch(1, 2).to_dict()["star"] is None
