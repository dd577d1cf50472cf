"""Half-line closed-form tests against independently computed constants."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from trigint import (
    check_coefficient_identity,
    check_ode_system,
    double_log,
    fresnel_c,
    gamma_prime_half,
    gamma_real,
    gr_822_1,
    halfline_power,
    linear_phase,
    log_weighted,
    multidim_log,
    power_arg,
)
from trigint.pipoly import binomial


def close(a, b, tol):
    return abs(mp.mpf(a) - mp.mpf(b)) < tol


class TestGamma:
    def test_half_integer_values(self):
        with mp.workdps(40):
            assert close(gamma_real(Fraction(1, 2), 30), mp.sqrt(mp.pi), mp.mpf("1e-28"))
            assert close(gamma_real(1, 30), 1, mp.mpf("1e-28"))
            assert close(gamma_real(Fraction(3, 2), 30), mp.sqrt(mp.pi) / 2, mp.mpf("1e-28"))

    def test_contract_tolerance(self):
        # the stated contract is relative error <= 1e-12
        with mp.workdps(40):
            for x, ref in ((0.5, mp.sqrt(mp.pi)), (1.5, mp.sqrt(mp.pi) / 2)):
                assert abs(gamma_real(x, 30) - ref) / ref < mp.mpf("1e-12")

    def test_domain(self):
        for bad in (0, 2, -0.5, 2.5):
            with pytest.raises(ValueError):
                gamma_real(bad)

    def test_derivative_at_half(self):
        with mp.workdps(40):
            ref = -mp.sqrt(mp.pi) * (mp.euler + 2 * mp.log(2))
            assert close(gamma_prime_half(30), ref, mp.mpf("1e-28"))


class TestHalflinePower:
    def test_half_power_values(self):
        with mp.workdps(40):
            root = mp.sqrt(mp.pi / 2)
            _, v_cos = halfline_power("cos", 0, Fraction(1, 2), 0.0, 30)
            _, v_sin = halfline_power("sin", 0, Fraction(1, 2), 0.0, 30)
            assert close(v_cos, root, mp.mpf("1e-25"))
            assert close(v_sin, root, mp.mpf("1e-25"))
            _, v_shift = halfline_power("cos", 0, Fraction(1, 2), math.pi / 2, 30)
            assert close(v_shift, -root, mp.mpf("1e-14"))

    def test_term_structure(self):
        cfs, _ = halfline_power("sin", 3, Fraction(1, 4), 0.25, 30)
        assert len(cfs.terms) == 4
        assert [t.frequency for t in cfs.terms] == [1, 3, 5, 7]
        for k, t in enumerate(cfs.terms):
            assert abs(t.weight) == binomial(7, 3 - k)
            assert (t.weight > 0) == (k % 2 == 0)
            assert t.exponent == Fraction(1, 4) - 1
            assert t.phase == "cos"
        assert cfs.gamma_arg == Fraction(3, 4)
        assert cfs.scale == Fraction(1, 64)

    def test_json_schema(self):
        cfs, _ = halfline_power("cos", 1, Fraction(1, 2), 0.0, 30)
        d = cfs.to_dict()
        assert set(d) == {"gamma_arg", "scale", "terms"}
        assert d["gamma_arg"] == "1/2"
        assert set(d["terms"][0]) == {"weight", "freq", "exp", "phase", "shift"}

    def test_guards(self):
        with pytest.raises(TypeError):
            halfline_power("cos", 0, 0.5)  # floats are not exact
        with pytest.raises(ValueError):
            halfline_power("cos", 0, Fraction(1))
        with pytest.raises(ValueError):
            halfline_power("cos", 0, Fraction(9999999, 10000000))  # within 1e-6 of 1
        with pytest.raises(ValueError):
            halfline_power("tan", 0, Fraction(1, 2))
        for b in (math.nan, math.inf, -math.inf):  # not a silent nan
            with pytest.raises(ValueError, match="b must be finite"):
                halfline_power("cos", 1, Fraction(1, 2), b, 30)

    def test_shift_periodicity(self):
        for kind in ("cos", "sin"):
            _, v1 = halfline_power(kind, 2, Fraction(1, 3), 0.7, 40)
            _, v2 = halfline_power(kind, 2, Fraction(1, 3), 0.7 + 2 * math.pi, 40)
            # b enters as a float, so matching is limited by the 2 pi rounding
            assert close(v1, v2, mp.mpf("1e-14"))


class TestPowerArg:
    def test_fresnel_values(self):
        with mp.workdps(40):
            ref = mp.gamma(mp.mpf(3) / 2) * mp.cos(mp.pi / 4)
            assert close(power_arg("cos", 0, 2, 30), ref, mp.mpf("1e-25"))
            assert close(power_arg("sin", 0, 2, 30), ref, mp.mpf("1e-25"))

    def test_cubed_argument_squared(self):
        with mp.workdps(40):
            ref = mp.gamma(mp.mpf(3) / 2) * mp.cos(mp.pi / 4) * (3 + 1 / mp.sqrt(3)) / 4
            assert close(power_arg("cos", 1, 2, 30), ref, mp.mpf("1e-25"))
            assert str(float(power_arg("cos", 1, 2, 30))).startswith("0.5604429583")

    def test_substitution_consistency(self):
        # t = x^p maps the integral onto the fractional-power closed form
        for kind in ("cos", "sin"):
            for n in range(3):
                for p in (2, 3):
                    lhs = power_arg(kind, n, p, 40)
                    _, rhs = halfline_power(kind, n, Fraction(p - 1, p), 0.0, 40)
                    assert close(lhs, rhs / p, mp.mpf("1e-30")), (kind, n, p)

    def test_domain(self):
        with pytest.raises(ValueError):
            power_arg("cos", 0, 1)
        with pytest.raises(ValueError):
            power_arg("cos", 0, 0.5)


class TestTableEntries:
    def test_gr_822_1_values(self):
        with mp.workdps(40):
            assert close(gr_822_1(0, 30)[0], mp.sqrt(mp.pi / 2), mp.mpf("1e-25"))
            ref1 = mp.sqrt(mp.pi / 2) * (3 + 1 / mp.sqrt(3)) / 4
            assert close(gr_822_1(1, 30)[0], ref1, mp.mpf("1e-25"))

    def test_gr_822_1_matches_closed_form_to_precision(self):
        for n in range(8):
            value, cfs = gr_822_1(n, 50)
            assert close(value, cfs.evaluate(50), mp.mpf("1e-45"))

    def test_gr_822_1_weights_mirror_the_closed_form(self):
        # The table's C(2n+1, n+k+1) weights are the closed form's C(2n+1, n-k)
        # read in mirror order, with frequency 2k+1, term by term.
        for n in range(41):
            _, cfs = gr_822_1(n, 15)
            assert len(cfs.terms) == n + 1
            for k, term in enumerate(cfs.terms):
                table_w = binomial(2 * n + 1, n + k + 1)
                assert table_w == binomial(2 * n + 1, n - k)
                assert table_w == abs(term.weight)
                assert term.frequency == 2 * k + 1

    def test_linear_phase_values(self):
        with mp.workdps(40):
            root = mp.sqrt(mp.pi / 2)
            assert close(linear_phase("cos", 1, 0.0, Fraction(1, 2), 30), root, mp.mpf("1e-25"))
            assert close(linear_phase("sin", 1, 0.0, Fraction(1, 2), 30), root, mp.mpf("1e-25"))
            assert close(
                linear_phase("cos", 3, 0.0, Fraction(1, 2), 30), root / mp.sqrt(3), mp.mpf("1e-25")
            )

    def test_linear_phase_domain(self):
        with pytest.raises(ValueError):
            linear_phase("cos", 0, 0.0, Fraction(1, 2))
        with pytest.raises(ValueError):
            linear_phase("cos", -1, 0.0, Fraction(1, 2))
        for a, b in ((1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (math.inf, 0.0), (math.nan, 0.0)):
            with pytest.raises(ValueError):
                linear_phase("cos", a, b, Fraction(1, 2))

    def test_beyond_float_range_refused(self):
        # an int past the float range is not finite either, not an OverflowError
        with pytest.raises(ValueError, match="a must be finite"):
            linear_phase("cos", 10**400, 0.0, Fraction(1, 2))
        with pytest.raises(ValueError, match="b must be finite"):
            linear_phase("sin", 1, -(10**400), Fraction(1, 2))
        with pytest.raises(ValueError, match="b must be finite"):
            halfline_power("cos", 1, Fraction(1, 2), 10**400, 30)


class TestLogWeighted:
    def test_value_n0(self):
        with mp.workdps(40):
            ref = -(mp.sqrt(mp.pi) / 8) * (mp.pi + 2 * mp.euler + 4 * mp.log(2)) / mp.sqrt(2)
            assert close(log_weighted(0, 30), ref, mp.mpf("1e-25"))

    def test_n1_second_sum_active(self):
        with mp.workdps(40):
            s1 = 3 / mp.sqrt(2) + 1 / mp.sqrt(6)
            s2 = mp.log(3) / mp.sqrt(6)
            ref = -(mp.sqrt(mp.pi) / 32) * (mp.pi + 2 * mp.euler + 4 * mp.log(2)) * s1 - (
                mp.sqrt(mp.pi) / 16
            ) * s2
            assert close(log_weighted(1, 30), ref, mp.mpf("1e-25"))

    def test_negative_through_n5(self):
        for n in range(6):
            assert log_weighted(n, 30) < 0


class TestDoubleLog:
    def test_phase_zero(self):
        assert abs(double_log(Fraction(1, 2), Fraction(1, 2), 0, digits=30)) < mp.mpf("1e-25")

    def test_quarter_powers(self):
        with mp.workdps(40):
            ref = -mp.gamma(mp.mpf(3) / 4) ** 2 * mp.cos(mp.pi / 4)
            assert close(double_log(Fraction(1, 4), Fraction(1, 4), 0, digits=30), ref, mp.mpf("1e-25"))

    def test_log_kernel_special_value(self):
        with mp.workdps(40):
            ref = (mp.euler + 2 * mp.log(2)) * mp.pi**2
            got = double_log(Fraction(1, 2), Fraction(1, 2), 0, log_kernel=True, digits=30)
            assert close(got, ref, mp.mpf("1e-25"))

    def test_log_kernel_only_at_half(self):
        with pytest.raises(ValueError):
            double_log(Fraction(1, 4), Fraction(1, 2), 0, log_kernel=True)


class TestMultidim:
    def test_triangle_numbers(self):
        assert [multidim_log(n, 20).delta for n in (1, 2, 3, 4)] == [1, 3, 6, 10]

    def test_two_dimensional_value(self):
        with mp.workdps(40):
            ref = (mp.euler + 2 * mp.log(2)) * mp.pi**2 / 16
            assert close(multidim_log(2, 30).value, ref, mp.mpf("1e-25"))

    def test_one_dimensional_equals_log_weighted(self):
        assert close(multidim_log(1, 40).value, log_weighted(0, 40), mp.mpf("1e-35"))

    def test_against_complex_product_route(self):
        # independent derivation: the orthant integral is Re(I^n) with
        # I = -(sqrt(pi)/4) e^{i pi/4} (xi - i pi/2), xi = gamma + 2 log 2
        with mp.workdps(40):
            cap = mp.mpc(mp.euler + 2 * mp.log(2), -mp.pi / 2)
            base = -(mp.sqrt(mp.pi) / 4) * mp.exp(mp.mpc(0, mp.pi / 4)) * cap
            for n in range(1, 11):
                ref = (base**n).real
                assert close(multidim_log(n, 30).value, ref, mp.mpf("1e-22")), n

    def test_three_dimensional_value(self):
        # frozen from the complex-product route above
        assert close(multidim_log(3, 30).value, mp.mpf("-1.30773845306948548"), mp.mpf("1e-15"))

    def test_domain(self):
        with pytest.raises(ValueError):
            multidim_log(0)


class TestFresnel:
    def test_endpoints(self):
        assert fresnel_c(0, 30) == 0

    def test_unit_value_vs_mpmath(self):
        with mp.workdps(40):
            assert close(fresnel_c(1, 30), mp.fresnelc(1), mp.mpf("1e-25"))

    def test_range_vs_mpmath(self):
        with mp.workdps(40):
            for x in (0.25, 0.5, 1.5, 2.5, 3.75):
                assert close(fresnel_c(x, 30), mp.fresnelc(x), mp.mpf("1e-22")), x

    def test_series_bound(self):
        with pytest.raises(ValueError):
            fresnel_c(4.5)
        with pytest.raises(ValueError):
            fresnel_c(-1)


class TestCoefficientIdentity:
    def test_hand_values(self):
        from trigint.halfline import _phase_coeff_lhs, _phase_coeff_rhs

        assert _phase_coeff_lhs(1, 0) == _phase_coeff_rhs(1, 0) == Fraction(3, 4)
        assert _phase_coeff_lhs(1, 1) == _phase_coeff_rhs(1, 1) == Fraction(-3, 4)

    def test_sweep(self):
        report = check_coefficient_identity(20)
        assert report.all_passed


class TestOdeSystem:
    def test_single_phase_exact(self):
        report = check_ode_system(0, Fraction(1, 2), 0.3)
        assert report.all_passed
        assert all(c.abs_err < 1e-9 for c in report.cases)

    def test_low_order(self):
        assert check_ode_system(1, Fraction(1, 2), 0.3).all_passed

    def test_higher_order(self):
        assert check_ode_system(3, Fraction(1, 4), 1.0).all_passed
