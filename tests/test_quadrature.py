"""Oracle tests: the oracle itself is checked against closed constants and
mpmath's independent quadrature routines."""

import math

import mpmath as mp
import numpy as np
import pytest

from trigint import (
    OscillatorySpec,
    accelerate_alternating,
    integrate_finite,
    integrate_halfline_osc,
)


def _mp_halfline(f):
    """Independent mpmath reference for a singular oscillatory half-line
    integral.  Plain quadosc over [0, inf] mis-handles the singular leading
    interval, so integrate [0, 2 pi] with tanh-sinh and hand quadosc the
    rest."""
    return mp.quad(f, [0, 2 * mp.pi]) + mp.quadosc(f, [2 * mp.pi, mp.inf], period=2 * mp.pi)


class TestFinite:
    def test_cosine(self):
        res = integrate_finite(np.cos, 0.0, math.pi / 2, 1e-12)
        assert res.converged
        assert abs(res.value - 1.0) < 1e-12

    def test_linear_weight_cos_squared(self):
        res = integrate_finite(lambda x: x * np.cos(x) ** 2, 0.0, math.pi / 2, 1e-11)
        target = math.pi**2 / 16 - 0.25
        assert res.converged
        assert abs(res.value - target) < 1e-10

    def test_cubic_weight_cos_cubed_vs_mpmath(self):
        res = integrate_finite(lambda x: x**3 * np.cos(x) ** 3, 0.0, math.pi / 2, 1e-12)
        with mp.workdps(30):
            ref = mp.quad(lambda x: x**3 * mp.cos(x) ** 3, [0, mp.pi / 2])
        assert abs(res.value - float(ref)) < 1e-11

    def test_singular_head_after_substitution(self):
        # int_0^{pi/2} x^{-1/2} cos x dx  ==  2 int_0^{sqrt(pi/2)} cos(u^2) du
        res = integrate_finite(lambda u: 2.0 * np.cos(u * u), 0.0, math.sqrt(math.pi / 2), 1e-12)
        with mp.workdps(30):
            ref = mp.sqrt(2 * mp.pi) * mp.fresnelc(1)
        assert abs(res.value - float(ref)) < 1e-9

    def test_error_estimate_honest(self):
        res = integrate_finite(lambda x: np.exp(x) * np.sin(3 * x), 0.0, 2.0, 1e-11)
        with mp.workdps(30):
            ref = mp.quad(lambda x: mp.exp(x) * mp.sin(3 * x), [0, 2])
        assert res.converged
        assert res.error_estimate <= 1e-11
        assert abs(res.value - float(ref)) <= res.error_estimate + 1e-13

    def test_nonconvergence_reported_not_hidden(self):
        # |x|^0.1 kink with an absurd depth cap: must flag, not fabricate
        res = integrate_finite(lambda x: np.abs(x - 0.3) ** 0.1, 0.0, 1.0, 1e-13, max_depth=2)
        assert not res.converged

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(np.cos, 1.0, 0.0, 1e-6)
        with pytest.raises(ValueError):
            integrate_finite(np.cos, 0.0, 1.0, 1e-15)


class TestAcceleration:
    def test_alternating_harmonic(self):
        sums, s = [], 0.0
        for k in range(20):
            s += (-1) ** k / (k + 1)
            sums.append(s)
        value, err = accelerate_alternating(sums)
        assert abs(value - math.log(2)) < 1e-7
        assert abs(value - math.log(2)) < 10 * err + 1e-12

    def test_leibniz_pi_over_four(self):
        sums, s = [], 0.0
        for k in range(20):
            s += (-1) ** k / (2 * k + 1)
            sums.append(s)
        value, _ = accelerate_alternating(sums)
        assert abs(value - math.pi / 4) < 1e-7

    def test_constant_sequence(self):
        value, err = accelerate_alternating([2.5] * 10)
        assert value == 2.5
        assert err < 1e-12

    def test_too_few_entries(self):
        with pytest.raises(ValueError):
            accelerate_alternating([1.0, 2.0, 3.0])


class TestOscillatory:
    def test_cos_half_power(self):
        res = integrate_halfline_osc(OscillatorySpec(kind="cos", n=0, exponent=0.5))
        assert res.converged
        assert abs(res.value - math.sqrt(math.pi / 2)) < 1e-6

    def test_sin_half_power(self):
        res = integrate_halfline_osc(OscillatorySpec(kind="sin", n=0, exponent=0.5))
        assert abs(res.value - math.sqrt(math.pi / 2)) < 1e-6

    def test_cubed_quarter_power_vs_quadosc(self):
        res = integrate_halfline_osc(OscillatorySpec(kind="cos", n=1, exponent=0.25))
        with mp.workdps(30):
            ref = _mp_halfline(lambda x: mp.cos(x) ** 3 / x ** mp.mpf("0.25"))
        assert abs(res.value - float(ref)) < 1e-6

    def test_shifted_vs_quadosc(self):
        res = integrate_halfline_osc(OscillatorySpec(kind="cos", n=0, exponent=0.5, shift=0.5))
        with mp.workdps(30):
            ref = _mp_halfline(lambda x: mp.cos(x + mp.mpf("0.5")) / mp.sqrt(x))
        assert abs(res.value - float(ref)) < 1e-6

    def test_log_weight_vs_quadosc(self):
        res = integrate_halfline_osc(
            OscillatorySpec(kind="cos", n=0, exponent=0.5, log_weight=True, tolerance=1e-7)
        )
        with mp.workdps(30):
            ref = _mp_halfline(lambda x: mp.log(x) * mp.cos(x) / mp.sqrt(x))
        assert abs(res.value - float(ref)) < 1e-5

    def test_doubling_arches_stays_within_error(self):
        for n in range(3):
            base = integrate_halfline_osc(OscillatorySpec(kind="cos", n=n, exponent=0.5))
            fine = integrate_halfline_osc(
                OscillatorySpec(kind="cos", n=n, exponent=0.5, max_arches=120)
            )
            assert abs(base.value - fine.value) <= base.error_estimate + fine.error_estimate

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            OscillatorySpec(kind="cos", n=0, exponent=1.0)
        with pytest.raises(ValueError):
            OscillatorySpec(kind="tan", n=0, exponent=0.5)
        with pytest.raises(ValueError):
            OscillatorySpec(kind="cos", n=-1, exponent=0.5)
        for shift in (math.nan, math.inf, -math.inf):  # named up front, not inside math.ceil
            with pytest.raises(ValueError, match="shift must be finite"):
                OscillatorySpec(kind="cos", n=0, exponent=0.5, shift=shift)

    def test_unresolvable_tolerance_refused_up_front(self):
        # 60 arches at tolerance/240 each: below 2.4e-11 no arch could be resolved
        assert OscillatorySpec(kind="cos", n=0, exponent=0.5, tolerance=2.4e-11).tolerance == 2.4e-11
        for tol in (1e-12, 0.0, math.nan):
            with pytest.raises(ValueError, match="tolerance must be at least"):
                OscillatorySpec(kind="cos", n=0, exponent=0.5, tolerance=tol)
