"""Exact-core tests: binomials, the Q[pi] ring, numeric rendering."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigint import PiPoly, binomial, cos_moment


def binomial_by_product(n: int, k: int) -> int:
    # independent oracle: C(n,k) = prod_{i=1..k} (n-k+i)/i, exact at every step
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(1, k + 1):
        num *= n - k + i
        den *= i
    assert num % den == 0
    return num // den


class TestBinomial:
    def test_small_by_hand(self):
        assert binomial(4, 2) == 6

    def test_central_binomial_product_oracle(self):
        assert binomial(20, 10) == binomial_by_product(20, 10) == 184756

    def test_out_of_range_convention(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_rule_to_100(self):
        for n in range(1, 101):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polys_st = st.lists(fractions_st, min_size=0, max_size=5).map(PiPoly)


class TestRing:
    @settings(max_examples=200)
    @given(polys_st, polys_st, polys_st)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100)
    @given(polys_st)
    def test_identities(self, a):
        assert a + PiPoly.zero() == a
        assert a * PiPoly.constant(1) == a
        assert a + (-a) == PiPoly.zero()

    def test_canonical_form_trims_trailing_zeros(self):
        p = PiPoly([Fraction(1, 2), 0, 0])
        assert p.coeffs == (Fraction(1, 2),)
        assert PiPoly(p.coeffs).coeffs == p.coeffs  # normalizing twice = once

    def test_additive_inverse_is_empty(self):
        half_pi = PiPoly.pi_power(1, Fraction(1, 2))
        assert (half_pi + PiPoly.pi_power(1, Fraction(-1, 2))).coeffs == ()

    def test_pi_times_pi(self):
        assert (PiPoly.pi_power(1) * PiPoly.pi_power(1)).coeffs == (0, 0, 1)

    def test_scaling(self):
        p = PiPoly.pi_power(2, Fraction(1, 8))
        assert p * Fraction(1, 2) == PiPoly.pi_power(2, Fraction(1, 16))

    def test_scalar_coercion_and_degree(self):
        assert PiPoly.constant(3) == 3
        assert PiPoly.zero().degree == -1
        assert PiPoly.pi_power(4).degree == 4
        assert PiPoly.pi_power(4).coeff(4) == 1
        assert PiPoly.pi_power(4).coeff(7) == 0

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            PiPoly([0.5])


def ref_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def ref_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def ref_trim(cs: list) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


fraction_lists_st = st.lists(fractions_st, min_size=0, max_size=5)


class TestAgainstFractionLists:
    """Integer-numerator arithmetic against plain per-coefficient Fraction lists."""

    @settings(max_examples=100)
    @given(fraction_lists_st, fraction_lists_st, fractions_st)
    def test_operations(self, a, b, s):
        pa, pb = PiPoly(a), PiPoly(b)
        assert (pa + pb).coeffs == ref_trim(ref_add(a, b))
        assert (pa - pb).coeffs == ref_trim(ref_add(a, [-c for c in b]))
        assert (-pa).coeffs == ref_trim([-c for c in a])
        assert (pa * pb).coeffs == ref_trim(ref_mul(a, b))
        assert (pa * s).coeffs == (s * pa).coeffs == ref_trim([c * s for c in a])
        assert (pa + s).coeffs == ref_trim(ref_add(a, [s]))
        assert (s - pa).coeffs == ref_trim(ref_add([s], [-c for c in a]))
        same = ref_trim(a) == ref_trim(b)
        # built vs built, computed vs computed, built vs computed
        assert (pa == pb) == ((pa + 0) == (pb * 1)) == (pa == pb * 1) == same
        if same:
            assert hash(pa) == hash(pb) == hash(pb * 1)

    @settings(max_examples=100)
    @given(fraction_lists_st, fraction_lists_st)
    def test_built_and_computed_forms_agree(self, a, b):
        # b + (a - b) reaches the value of a through arithmetic only
        built, computed = PiPoly(a), PiPoly(a) - PiPoly(b) + PiPoly(b)
        assert built == computed and computed == built
        assert hash(built) == hash(computed)
        assert computed.coeffs == built.coeffs == ref_trim(a)
        assert computed.degree == built.degree
        assert str(computed) == str(built)

    @given(fraction_lists_st)
    def test_zero_is_canonical(self, a):
        zero = PiPoly(a) - PiPoly(a)
        assert zero.coeffs == () and zero.degree == -1 and not zero
        assert zero == PiPoly.zero() == PiPoly([0, 0]) == 0
        assert hash(zero) == hash(PiPoly.zero())
        assert zero * PiPoly(a) == zero


class TestEvaluate:
    def test_pi_squared_over_eight_20_digits(self):
        got = PiPoly.pi_power(2, Fraction(1, 8)).evaluate(20)
        with mp.workdps(60):
            ref = mp.pi**2 / 8
            assert abs(got - ref) < mp.mpf(10) ** (1 - 20) * max(1, abs(ref))

    def test_constant(self):
        got = PiPoly.constant(Fraction(7, 3)).evaluate(30)
        with mp.workdps(40):
            assert abs(got - mp.mpf(7) / 3) < mp.mpf("1e-28")

    def test_linear_weight_value(self):
        # pi^2/16 - 1/4, cross-checked against quadrature elsewhere
        p = PiPoly([Fraction(-1, 4), 0, Fraction(1, 16)])
        with mp.workdps(60):
            ref = mp.pi**2 / 16 - mp.mpf(1) / 4
            assert abs(p.evaluate(30) - ref) < mp.mpf("1e-28")
        assert str(float(p.evaluate(20))).startswith("0.3668502750680849")

    def test_coefficients_past_the_str_digit_limit(self):
        # c(1, 1700) has 4,700-digit coefficients.  The reference integrates
        # the Taylor series of cos term by term, an alternating series with no
        # large cancellation: sum_k (-1)^k (pi/2)^(p+2k+1) / ((2k)! (p+2k+1)).
        p = 1700
        got = cos_moment(1, p).evaluate(30)
        with mp.workdps(60):
            h = mp.pi / 2
            ref = mp.fsum((-1) ** k * h ** (p + 2 * k + 1) / (mp.factorial(2 * k) * (p + 2 * k + 1)) for k in range(60))
            assert abs(got - ref) < mp.mpf(10) ** (1 - 30) * abs(ref)

    def test_digits_floor(self):
        with pytest.raises(ValueError):
            PiPoly.constant(1).evaluate(5)


class TestSerialization:
    def test_json_round_trip(self):
        p = PiPoly([Fraction(-1, 4), 0, Fraction(1, 16)])
        data = p.to_dict()
        assert data == {"pi_coeffs": ["-1/4", "0", "1/16"]}
        assert PiPoly.from_dict(data) == p

    def test_text_rendering(self):
        p = PiPoly([Fraction(-1, 4), 0, Fraction(1, 16)])
        assert str(p) == "π^2/16 - 1/4"
        assert str(PiPoly.zero()) == "0"
        assert str(PiPoly.pi_power(1, Fraction(3, 2))) == "3π/2"
        assert str(PiPoly.pi_power(3, 5)) == "5π^3"

    def test_latex_rendering(self):
        p = PiPoly([Fraction(-1, 4), 0, Fraction(1, 16)])
        assert p.latex() == "\\frac{\\pi^{2}}{16} - \\frac{1}{4}"
