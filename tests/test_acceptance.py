"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Tolerances are pinned here and nowhere else.

Criterion 9's even-series bound is asserted exactly as specified even though
the true truncation error of that series at m = 10**6 is 2*sqrt(pi)*1e-3
~ 3.545e-3 (the error constant of the m**(-1/2) decay is 2*sqrt(pi), not 2),
so that check fails for mathematical reasons, not implementation ones; see
the analysis printed by the test.
"""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

from trigint import (
    central_tail_float,
    check_coefficient_identity,
    check_ode_system,
    check_wallis_identities,
    cos_moment,
    even_branch,
    fresnel_c,
    gr_822_1,
    halfline_power,
    integrate_finite,
    integrate_halfline_osc,
    log_weighted,
    multidim_log,
    odd_branch,
    sin_moment,
)
from trigint.quadrature import OscillatorySpec
from trigint.recurrence import sweep_moment


def _report(num: str, ok: bool, desc: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {desc}")


def test_criterion_1_exact_dual_route():
    """Branch expansions equal the recurrence sweep exactly, n,p <= 10."""
    cos_moment.cache_clear()
    sin_moment.cache_clear()
    start = time.monotonic()
    mismatches = []
    for n in range(11):
        for p in range(11):
            if even_branch(n, p).assembled != sweep_moment("cos", 2 * n, p):
                mismatches.append(("even", n, p))
            if odd_branch(n, p).assembled != sweep_moment("cos", 2 * n + 1, p):
                mismatches.append(("odd", n, p))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 30.0
    _report("1", ok, f"dual-route exact equality, 242 cases in {elapsed:.2f}s")
    assert not mismatches, mismatches[:5]
    assert elapsed < 30.0


def test_criterion_2_quadrature_agreement():
    """|exact - oracle| < 1e-10 for both families, n,p <= 8."""
    worst = 0.0
    for fam, moment, trig in (("cos", cos_moment, np.cos), ("sin", sin_moment, np.sin)):
        for n in range(9):
            for p in range(9):
                exact = float(moment(n, p).evaluate(30))
                res = integrate_finite(
                    lambda x, p=p, n=n, trig=trig: x**p * trig(x) ** n,
                    0.0,
                    math.pi / 2,
                    1e-11,
                )
                assert res.converged, (fam, n, p)
                worst = max(worst, abs(exact - res.value))
    ok = worst < 1e-10
    _report("2", ok, f"quadrature agreement over 162 integrals, worst |err| = {worst:.3e}")
    assert ok


def test_criterion_3_wallis_identity_sweep():
    """Central-binomial sum identity to n = 200, expansion check to n = 30."""
    report = check_wallis_identities(200)
    ok = report.all_passed
    s = report.summary
    _report("3", ok, f"Wallis identities: {s['passed']}/{s['total']} exact checks")
    assert ok, report.failures()[:5]


def test_criterion_4_phase_coefficient_identity():
    """Phase-coefficient identity and its certificate recurrence to n = 50."""
    report = check_coefficient_identity(50)
    ok = report.all_passed
    s = report.summary
    _report("4", ok, f"phase-coefficient identity: {s['passed']}/{s['total']} exact checks")
    assert ok, report.failures()[:5]


def test_criterion_5_halfline_vs_oracle():
    """Closed forms match the oscillatory oracle within 1e-6 on the grid."""
    worst = 0.0
    for kind in ("cos", "sin"):
        for n in range(4):
            for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                for b in (0.0, 0.5, math.pi / 2):
                    _, value = halfline_power(kind, n, p, b, 30)
                    res = integrate_halfline_osc(
                        OscillatorySpec(kind=kind, n=n, exponent=float(p), shift=b)
                    )
                    worst = max(worst, abs(float(value) - res.value))
    # the p = 1/2, b = 0 entries must also hit the classical value
    root = math.sqrt(math.pi / 2)
    _, v_cos = halfline_power("cos", 0, Fraction(1, 2), 0.0, 30)
    _, v_sin = halfline_power("sin", 0, Fraction(1, 2), 0.0, 30)
    anchors = max(abs(float(v_cos) - root), abs(float(v_sin) - root))
    ok = worst < 1e-6 and anchors < 1e-12
    _report("5", ok, f"half-line grid (72 cases), worst |err| = {worst:.3e}, anchors {anchors:.1e}")
    assert ok


def test_criterion_6_table_entry_equivalence():
    """The table form and the closed form are the same sum, n <= 20."""
    worst = mp.mpf(0)
    for n in range(21):
        value, cfs = gr_822_1(n, 50)  # weights: test_halfline.py, n <= 40
        worst = max(worst, abs(value - cfs.evaluate(50)))
    ok = worst < mp.mpf("1e-40")
    _report("6", ok, f"table-entry equivalence for n <= 20, worst numeric gap = {mp.nstr(worst, 3)}")
    assert ok


def test_criterion_7_ode_system_residuals():
    """Finite-difference residuals of the derivative system stay below 1e-7."""
    worst = 0.0
    for n in range(5):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for b in (0.3, 1.0):
                report = check_ode_system(n, p, b, h=1e-5, tol=1e-7)
                worst = max(worst, max(c.abs_err for c in report.cases))
                assert report.all_passed, (n, p, b)
    ok = worst < 1e-7
    _report("7", ok, f"ODE-system residuals over 30 grid points, worst = {worst:.3e}")
    assert ok


def test_criterion_8_examples_suite():
    """Cross-checks tying the log-weighted, multidimensional and Fresnel values."""
    with mp.workdps(40):
        xi = mp.euler + 2 * mp.log(2)
        a_gap = abs(multidim_log(2, 40).value - xi * mp.pi**2 / 16)
        b_gap = abs(multidim_log(1, 40).value - log_weighted(0, 40))
    lw = float(log_weighted(0, 30))
    osc = integrate_halfline_osc(
        OscillatorySpec(kind="cos", n=0, exponent=0.5, tolerance=1e-7, log_weight=True)
    )
    c_gap = abs(lw - osc.value / 4.0)  # t = x^2 contributes the factor 4
    fres = float(mp.sqrt(2 * mp.pi) * fresnel_c(1, 30))
    head = integrate_finite(lambda u: 2.0 * np.cos(u * u), 0.0, math.sqrt(math.pi / 2), 1e-12)
    d_gap = abs(fres - head.value)
    ok = a_gap < 1e-12 and b_gap < 1e-12 and c_gap < 1e-5 and d_gap < 1e-9
    _report(
        "8",
        ok,
        f"examples: multidim-2 {float(a_gap):.1e}, multidim-1 {float(b_gap):.1e}, "
        f"log-weight oracle {c_gap:.1e}, Fresnel pair {d_gap:.1e}",
    )
    assert a_gap < 1e-12
    assert b_gap < 1e-12
    assert c_gap < 1e-5
    assert d_gap < 1e-9
    assert abs(lw - (-1.1074)) < 1e-4


def test_criterion_9_odd_tail_limit():
    """Odd central-binomial partial sum at m = 10**6 is within 1e-3 of pi/2."""
    err = abs(central_tail_float("odd", 10**6) - math.pi / 2)
    ok = err < 1e-3
    _report("9 (odd)", ok, f"odd tail at m=1e6: |err| = {err:.3e} < 1e-3")
    assert ok


def test_criterion_9_even_tail_limit():
    """Even central-binomial partial sum at m = 10**6 within 2e-3 of pi**2/2.

    As specified this bound is unattainable: the truncation error of the
    series is asymptotically 2*sqrt(pi)/sqrt(m) = 3.545e-3 at m = 10**6
    (about 1.77x the stated bound).  The check is asserted as stated rather
    than loosened; the sibling sanity assertions show the computed partial
    sum sits exactly where the mathematics puts it.
    """
    err = abs(central_tail_float("even", 10**6) - math.pi**2 / 2)
    predicted = 2 * math.sqrt(math.pi) / math.sqrt(10**6)
    _report(
        "9 (even)",
        err < 2e-3,
        f"even tail at m=1e6: |err| = {err:.3e} vs stated bound 2e-3 "
        f"(asymptotic truncation error is {predicted:.3e})",
    )
    # the partial sum itself is correct: it matches the m^{-1/2} asymptotics
    assert abs(err - predicted) < 2e-6
    # the stated criterion, asserted verbatim
    assert err < 2e-3
