"""trigint: exact, cross-verified evaluation of trigonometric integrals.

Complete integrals of x**p cos(x)**n and x**p sin(x)**n over [0, pi/2] are
evaluated exactly as polynomials in pi with rational coefficients, through
two independent routes (direct closed-form branch expansions and a sweep of
the two-variable recurrence) that must agree coefficient by coefficient.
Half-line integrals of x**(-p) trig(x+b)**(2n+1) and their log-weighted and
multidimensional relatives get Gamma-function closed forms.  Everything is
checked against an adaptive / oscillatory quadrature oracle.
"""

from .closedform import (
    BranchExpansion,
    coeff_via_recurrence,
    constant_term_routes,
    even_branch,
    odd_branch,
    star_constant,
)
from .eulersums import central_tail, central_tail_float, nested_sum, tail_coupled_sum
from .halfline import (
    ClosedFormSum,
    ClosedFormTerm,
    MultidimResult,
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
from .pipoly import DEFAULT_DIGITS, PiPoly, binomial
from .quadrature import (
    OscillatorySpec,
    QuadratureResult,
    accelerate_alternating,
    integrate_finite,
    integrate_halfline_osc,
)
from .recurrence import (
    FirstOrderProblem,
    base_n0,
    base_n1,
    base_p0,
    base_p1,
    check_wallis_identities,
    cos_moment,
    sin_moment,
    solve_first_order,
    sweep_moment,
)
from .report import CaseResult, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "BranchExpansion",
    "CaseResult",
    "ClosedFormSum",
    "ClosedFormTerm",
    "DEFAULT_DIGITS",
    "FirstOrderProblem",
    "MultidimResult",
    "OscillatorySpec",
    "PiPoly",
    "QuadratureResult",
    "VerificationReport",
    "accelerate_alternating",
    "base_n0",
    "base_n1",
    "base_p0",
    "base_p1",
    "binomial",
    "central_tail",
    "central_tail_float",
    "check_coefficient_identity",
    "check_ode_system",
    "check_wallis_identities",
    "coeff_via_recurrence",
    "constant_term_routes",
    "cos_moment",
    "double_log",
    "even_branch",
    "fresnel_c",
    "gamma_prime_half",
    "gamma_real",
    "gr_822_1",
    "halfline_power",
    "integrate_finite",
    "integrate_halfline_osc",
    "linear_phase",
    "log_weighted",
    "multidim_log",
    "nested_sum",
    "odd_branch",
    "power_arg",
    "sin_moment",
    "solve_first_order",
    "star_constant",
    "sweep_moment",
    "tail_coupled_sum",
]
