"""Gamma-function closed forms for oscillatory half-line integrals.

The central objects are

    C_n(p, b) = integral_0^inf x**(-p) cos(x+b)**(2n+1) dx
              = Gamma(1-p)/2**(2n) * sum_k C(2n+1, n-k)
                    sin(pi p/2 - (2k+1) b) / (2k+1)**(1-p),
    S_n(p, b) = the sine analogue with (-1)**k weights and cosine phases,

valid for 0 < p < 1, together with the evaluations that flow out of them:
integrals of odd trig powers of x**p, the classical integral-table entries
they specialize to (GR 3.822.x, 3.821.x, 3.764.x), log-weighted values
obtained by parameter differentiation, the n-dimensional log-kernel
integral, and the Fresnel-function identity marking where the exact
rational-pi theory stops.

The exponent p is carried as an exact Fraction so phases pi*p/2 and
exponents p-1 are formed without rounding; only the final transcendental
evaluation (mpmath, configurable precision) is approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .pipoly import DEFAULT_DIGITS, binomial, check_indices
from .report import VerificationReport

#: p closer than this to the endpoints of (0, 1) is rejected: Gamma(1-p)
#: blows up at p = 1 and the integrals diverge at p = 0.
_P_GUARD = 1e-6


def _exact(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(
        f"exponent must be exact (Fraction, int or 'a/b' string), got {type(value).__name__}"
    )


def _check_finite(name: str, value) -> None:
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the float range
        finite = False
    if not finite:
        shown = value if isinstance(value, float) else "a value beyond the float range"
        raise ValueError(f"{name} must be finite, got {shown}")


def _exact_unit(value, name: str = "p") -> Fraction:
    p = _exact(value)
    if not _P_GUARD < float(p) < 1.0 - _P_GUARD:
        raise ValueError(f"{name} must lie in ({_P_GUARD}, {1 - _P_GUARD}), got {p}")
    return p


def _mpf_frac(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# Gamma on (0, 2)
# ---------------------------------------------------------------------------

def gamma_real(x, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """Gamma(x) for real x in (0, 2), relative error far below 1e-12.

    Backed by mpmath's correctly-rounded gamma at the requested working
    precision; the (0, 2) window is all the closed forms here ever need
    (arguments 1-p and 1+1/p).
    """
    xf = float(x)
    if not 0.0 < xf < 2.0:
        raise ValueError(f"gamma_real is defined on (0, 2), got {xf}")
    with mp.workdps(digits + 5):
        val = mp.gamma(_mpf_frac(x) if isinstance(x, Fraction) else mp.mpf(x))
    with mp.workdps(digits):
        return +val


def gamma_prime_half(digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """Gamma'(1/2) = -sqrt(pi) (euler_gamma + 2 log 2)."""
    with mp.workdps(digits + 5):
        val = -mp.sqrt(mp.pi) * (mp.euler + 2 * mp.log(2))
    with mp.workdps(digits):
        return +val


# ---------------------------------------------------------------------------
# structured closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormTerm:
    weight: Fraction          # signed binomial C(2n+1, n-k), (-1)^k for sine
    frequency: int            # 2k+1
    exponent: Fraction        # p - 1, the power the frequency is raised to
    phase: str                # 'sin' or 'cos'
    phase_shift: float        # pi p/2 - (2k+1) b

    def to_dict(self) -> dict:
        return {
            "weight": str(self.weight),
            "freq": self.frequency,
            "exp": str(self.exponent),
            "phase": self.phase,
            "shift": self.phase_shift,
        }


@dataclass(frozen=True)
class ClosedFormSum:
    """Gamma(gamma_arg) * scale * sum of weighted single-frequency phases."""

    kind: str
    n: int
    p: Fraction
    b: float
    gamma_arg: Fraction       # 1 - p
    scale: Fraction           # 2**(-2n)
    terms: tuple[ClosedFormTerm, ...]

    def evaluate(self, digits: int = DEFAULT_DIGITS) -> mp.mpf:
        with mp.workdps(digits + 10):
            two_pi = 2 * mp.pi
            total = mp.mpf(0)
            for t in self.terms:
                # phase formed from the exact p, then reduced mod 2 pi for
                # stability at large frequency * b
                shift = mp.pi * _mpf_frac(self.p) / 2 - t.frequency * mp.mpf(self.b)
                shift = mp.fmod(shift, two_pi)
                osc = mp.sin(shift) if t.phase == "sin" else mp.cos(shift)
                total += _mpf_frac(t.weight) * osc * mp.power(t.frequency, _mpf_frac(t.exponent))
            val = mp.gamma(_mpf_frac(self.gamma_arg)) * _mpf_frac(self.scale) * total
        with mp.workdps(digits):
            return +val

    def text(self) -> str:
        pieces = []
        for t in self.terms:
            pieces.append(
                f"{t.weight}*{t.phase}({t.phase_shift:.12g})*{t.frequency}^({t.exponent})"
            )
        return f"Gamma({self.gamma_arg}) * {self.scale} * [" + " + ".join(pieces) + "]"

    def to_dict(self) -> dict:
        return {
            "gamma_arg": str(self.gamma_arg),
            "scale": str(self.scale),
            "terms": [t.to_dict() for t in self.terms],
        }


def halfline_power(kind: str, n: int, p, b: float = 0.0, digits: int = DEFAULT_DIGITS):
    """Closed form and value of integral_0^inf x**(-p) trig(x+b)**(2n+1) dx.

    Returns (ClosedFormSum, value).  p must be an exact rational strictly
    inside (0, 1); b is a finite real shift.
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    check_indices(n=n)
    _check_finite("b", b)
    p = _exact_unit(p)
    terms = []
    for k in range(n + 1):
        w = Fraction(binomial(2 * n + 1, n - k))
        if kind == "sin":
            w *= (-1) ** k
        shift = float(mp.pi) * float(p) / 2.0 - (2 * k + 1) * b
        terms.append(
            ClosedFormTerm(
                weight=w,
                frequency=2 * k + 1,
                exponent=p - 1,
                phase="sin" if kind == "cos" else "cos",
                phase_shift=shift,
            )
        )
    cfs = ClosedFormSum(
        kind=kind,
        n=n,
        p=p,
        b=float(b),
        gamma_arg=1 - p,
        scale=Fraction(1, 4**n),
        terms=tuple(terms),
    )
    return cfs, cfs.evaluate(digits)


def power_arg(kind: str, n: int, p, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """integral_0^inf trig(x**p)**(2n+1) dx for real p > 1.

    Equals Gamma((p+1)/p)/2**(2n) * cos(pi/(2p)) * sum_k C(2n+1,n-k)/(2k+1)**(1/p)
    for the cosine kind, with sin(pi/(2p)) and (-1)**k weights for the sine
    kind; the substitution t = x**p ties it back to ``halfline_power``.
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    check_indices(n=n)
    if float(p) <= 1.0:
        raise ValueError(f"power_arg needs p > 1, got {p}")
    with mp.workdps(digits + 10):
        pm = _mpf_frac(p) if isinstance(p, Fraction) else mp.mpf(p)
        gam = mp.gamma((pm + 1) / pm)
        angle = mp.pi / (2 * pm)
        osc = mp.cos(angle) if kind == "cos" else mp.sin(angle)
        total = mp.mpf(0)
        for k in range(n + 1):
            w = binomial(2 * n + 1, n - k) * ((-1) ** k if kind == "sin" else 1)
            total += w * mp.power(2 * k + 1, -1 / pm)
        val = gam * osc * total / 4**n
    with mp.workdps(digits):
        return +val


def gr_822_1(n: int, digits: int = DEFAULT_DIGITS):
    """The table form of integral_0^inf cos(x)**(2n+1)/sqrt(x) dx.

    Evaluates sqrt(pi/2)/2**(2n) * sum_k C(2n+1, n+k+1)/sqrt(2k+1) literally;
    its binomial weights are the C(2n+1, n-k) weights of
    ``halfline_power(cos, n, 1/2, 0)`` read in mirror order.  Returns
    (value, ClosedFormSum).
    """
    check_indices(n=n)
    cfs, _ = halfline_power("cos", n, Fraction(1, 2), 0.0, digits)
    with mp.workdps(digits + 10):
        total = mp.mpf(0)
        for k in range(n + 1):
            total += binomial(2 * n + 1, n + k + 1) / mp.sqrt(2 * k + 1)
        val = mp.sqrt(mp.pi / 2) * total / 4**n
    with mp.workdps(digits):
        return +val, cfs


def linear_phase(kind: str, a: float, b: float, p, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """integral_0^inf x**(-p) trig(a x + b) dx  (GR 3.764.1 / 3.764.2).

    cos kind: -a**(p-1) Gamma(1-p) sin(b - p pi/2);
    sin kind:  a**(p-1) Gamma(1-p) cos(b - p pi/2).
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    _check_finite("a", a)
    if not a > 0:
        raise ValueError(f"need a > 0, got {a}")
    _check_finite("b", b)
    p = _exact_unit(p)
    with mp.workdps(digits + 10):
        angle = mp.mpf(b) - _mpf_frac(p) * mp.pi / 2
        scale = mp.power(mp.mpf(a), _mpf_frac(p - 1)) * mp.gamma(_mpf_frac(1 - p))
        val = -scale * mp.sin(angle) if kind == "cos" else scale * mp.cos(angle)
    with mp.workdps(digits):
        return +val


def log_weighted(n: int, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """integral_0^inf log(x) cos(x**2)**(2n+1) dx.

    Differentiating the p-dependence of the half-line closed form at
    p = 1/2 (where Gamma'(1/2) = -sqrt(pi)(gamma + 2 log 2)) and changing
    variables back to x**2 gives

        -sqrt(pi)/2**(2n+3) (pi + 2 gamma + 4 log 2) sum_k C(2n+1,n-k)/sqrt(4k+2)
        -sqrt(pi)/2**(2n+2) sum_k C(2n+1,n-k) log(2k+1)/sqrt(4k+2).
    """
    check_indices(n=n)
    with mp.workdps(digits + 10):
        s_plain = mp.mpf(0)
        s_log = mp.mpf(0)
        for k in range(n + 1):
            w = binomial(2 * n + 1, n - k) / mp.sqrt(4 * k + 2)
            s_plain += w
            s_log += w * mp.log(2 * k + 1)
        root_pi = mp.sqrt(mp.pi)
        val = (
            -root_pi / 2 ** (2 * n + 3) * (mp.pi + 2 * mp.euler + 4 * mp.log(2)) * s_plain
            - root_pi / 2 ** (2 * n + 2) * s_log
        )
    with mp.workdps(digits):
        return +val


def double_log(p, q, n: int, log_kernel: bool = False, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """The double half-line integral of cos(x+y)**(2n+1) / (x**p y**q).

    Base mode returns

        -Gamma(1-p) Gamma(1-q) cos(pi (p+q)/2) / 2**(2n)
            * sum_k C(2n+1, n-k) (2k+1)**(p+q-2).

    ``log_kernel=True`` is the mixed-derivative special value at
    p = q = 1/2, n = 0: the log x log y / sqrt(x y) kernel integrates to
    (gamma + 2 log 2) pi**2.
    """
    check_indices(n=n)
    p = _exact_unit(p, "p")
    q = _exact_unit(q, "q")
    if log_kernel:
        if (p, q, n) != (Fraction(1, 2), Fraction(1, 2), 0):
            raise ValueError("the log-log special value is defined at p = q = 1/2, n = 0")
        with mp.workdps(digits + 10):
            val = (mp.euler + 2 * mp.log(2)) * mp.pi**2
        with mp.workdps(digits):
            return +val
    with mp.workdps(digits + 10):
        gg = mp.gamma(_mpf_frac(1 - p)) * mp.gamma(_mpf_frac(1 - q))
        phase = mp.cos(mp.pi * _mpf_frac(p + q) / 2)
        total = mp.mpf(0)
        for k in range(n + 1):
            total += binomial(2 * n + 1, n - k) * mp.power(2 * k + 1, _mpf_frac(p + q - 2))
        val = -gg * phase * total / 4**n
    with mp.workdps(digits):
        return +val


@dataclass(frozen=True)
class MultidimResult:
    """Value of the n-dimensional log-kernel integral over the positive orthant.

    integral over R_+^n of cos(|x|**2) prod_j log(x_j) dV
        = (-1)**delta * pi**(n/2) / 2**(2n) * (Re psi if n even else Im psi),
    delta = n(n+1)/2,  psi = (gamma + 2 log 2 + i pi/2)**n * exp(i pi n/4).
    """

    n: int
    delta: int
    psi: mp.mpc
    value: mp.mpf


def multidim_log(n: int, digits: int = DEFAULT_DIGITS) -> MultidimResult:
    """Closed form of the n-dimensional log * cos(|x|^2) integral, n >= 1."""
    check_indices(n=n)
    if n < 1:
        raise ValueError("n must be >= 1")
    delta = n * (n + 1) // 2
    with mp.workdps(digits + 10):
        xi = mp.euler + 2 * mp.log(2)
        psi = (mp.mpc(xi, mp.pi / 2)) ** n * mp.exp(mp.mpc(0, mp.pi * n / 4))
        part = psi.real if n % 2 == 0 else psi.imag
        val = (-1) ** delta * mp.pi ** (mp.mpf(n) / 2) / 2 ** (2 * n) * part
    with mp.workdps(digits):
        return MultidimResult(n=n, delta=delta, psi=+psi, value=+val)


def fresnel_c(x, digits: int = DEFAULT_DIGITS) -> mp.mpf:
    """FresnelC(x) = integral_0^x cos(pi t**2 / 2) dt by Taylor series.

    sum_k (-1)**k (pi/2)**(2k) x**(4k+1) / ((2k)! (4k+1)), truncated when the
    next term drops below the working precision (the series alternates, so
    the first omitted term bounds the remainder).  Series mode only: x <= 4.
    """
    xf = float(x)
    if xf < 0:
        raise ValueError("x must be nonnegative")
    if xf > 4:
        raise ValueError("series evaluation is supported only for x <= 4")
    with mp.workdps(digits + 15):
        xm = mp.mpf(x)
        if xm == 0:
            val = mp.mpf(0)
        else:
            half_pi = mp.pi / 2
            cutoff = mp.mpf(10) ** (-(digits + 10))
            term = xm  # k = 0
            total = mp.mpf(0)
            k = 0
            while abs(term) > cutoff:
                total += term
                k += 1
                term *= -(half_pi**2) * xm**4 * (4 * k - 3)
                term /= (2 * k - 1) * (2 * k) * (4 * k + 1)
                if k > 500:
                    raise RuntimeError("Fresnel series failed to converge")
            val = total
    with mp.workdps(digits):
        return +val


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------

def _phase_coeff_lhs(n: int, k: int) -> Fraction:
    return Fraction((-1) ** k * binomial(2 * n + 1, n - k) * (2 * k + 1), 4**n)


def _phase_coeff_rhs(n: int, k: int) -> Fraction:
    total = Fraction(0)
    for j in range(k, n + 1):
        total += Fraction((-1) ** j * binomial(n, j) * binomial(2 * j + 1, j - k), 4**j)
    return (2 * n + 1) * total


def check_coefficient_identity(n_max: int) -> VerificationReport:
    """Exact check of the phase-coefficient identity behind the ODE system.

    For all n <= n_max and 0 <= k <= n:

        (-1)**k 2**(-2n) C(2n+1, n-k) (2k+1)
            = (2n+1) sum_{j=k..n} (-1)**j 2**(-2j) C(n,j) C(2j+1, j-k),

    and both sides satisfy the first-order certificate recurrence

        2 (n+1-k)(n+k+2) u(n+1, k) = (n+1)(2n+3) u(n, k),   u(0,0) = 1.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    report = VerificationReport()
    report.add_exact("phase-coeff u(0,0)=1", _phase_coeff_lhs(0, 0) == 1, exact="u(0,0)")
    for n in range(n_max + 1):
        ok = all(_phase_coeff_lhs(n, k) == _phase_coeff_rhs(n, k) for k in range(n + 1))
        report.add_exact(f"phase-coeff identity n={n}", ok)
    for n in range(n_max):
        ok = True
        for k in range(n + 1):
            lhs_step = 2 * (n + 1 - k) * (n + k + 2)
            rhs_step = (n + 1) * (2 * n + 3)
            ok = ok and lhs_step * _phase_coeff_lhs(n + 1, k) == rhs_step * _phase_coeff_lhs(n, k)
            ok = ok and lhs_step * _phase_coeff_rhs(n + 1, k) == rhs_step * _phase_coeff_rhs(n, k)
        report.add_exact(f"phase-coeff certificate n={n}->{n + 1}", ok)
    return report


def check_ode_system(
    n: int,
    p,
    b: float,
    h: float = 1e-5,
    tol: float = 1e-7,
    digits: int = 30,
) -> VerificationReport:
    """Finite-difference check of the coupled b-derivative system.

    With f_j = C_j(p, b) and g_j = S_j(p, b) the closed forms must satisfy

        dg_n/db - (-1)**n (2n+1) f_n =  (2n+1) sum_{j<n} (-1)**j C(n,j) f_j,
        df_n/db + (-1)**n (2n+1) g_n = -(2n+1) sum_{j<n} (-1)**j C(n,j) g_j.

    Derivatives are central differences with step h (O(h**2) error), so the
    default tolerance 1e-7 has a wide margin at h = 1e-5.
    """
    p = _exact_unit(p)

    def f(j: int, x: float) -> mp.mpf:
        return halfline_power("cos", j, p, x, digits)[1]

    def g(j: int, x: float) -> mp.mpf:
        return halfline_power("sin", j, p, x, digits)[1]

    sign = (-1) ** n * (2 * n + 1)
    with mp.workdps(digits):
        dg = (g(n, b + h) - g(n, b - h)) / (2 * mp.mpf(h))
        df = (f(n, b + h) - f(n, b - h)) / (2 * mp.mpf(h))
        sum_f = mp.mpf(0)
        sum_g = mp.mpf(0)
        for j in range(n):
            w = (-1) ** j * binomial(n, j)
            sum_f += w * f(j, b)
            sum_g += w * g(j, b)
        r1 = dg - sign * f(n, b) - (2 * n + 1) * sum_f
        r2 = df + sign * g(n, b) + (2 * n + 1) * sum_g

    report = VerificationReport()
    report.add(
        f"ode-system eq1 n={n} p={p} b={b}",
        exact="dg/db - (-1)^n (2n+1) f_n - (2n+1) sum",
        numeric=float(r1),
        abs_err=abs(float(r1)),
        tol=tol,
    )
    report.add(
        f"ode-system eq2 n={n} p={p} b={b}",
        exact="df/db + (-1)^n (2n+1) g_n + (2n+1) sum",
        numeric=float(r2),
        abs_err=abs(float(r2)),
        tol=tol,
    )
    return report
