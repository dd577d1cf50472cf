"""Independent numerical ground truth for the exact evaluators.

``integrate_finite`` is adaptive-bisection quadrature with a fixed 24-point
Gauss-Legendre panel rule; the disagreement between a panel and its two
half-panels is the (very conservative) error estimate, and each split halves
the local error budget so the accumulated estimate stays below the requested
tolerance whenever every leaf converged.

``integrate_halfline_osc`` evaluates the oscillatory half-line integrals

    integral_0^inf x**(-p) * trig(x + b)**(2n+1) * [log x] dx,   0 <= p < 1,

by splitting at the zeros of the trigonometric factor: the leading interval
(which contains the algebraic singularity) is transformed so the x**(-p)
factor disappears exactly, the remaining arch integrals alternate in sign,
and their partial sums are extrapolated by iterated pairwise averaging.

Integrand callables must accept numpy arrays (panels are evaluated in one
vectorized call).  Gauss-Legendre nodes are strictly interior, so integrands
are never evaluated at interval endpoints.

numpy is needed only by these oracles and is loaded on first use: importing
this module, or evaluating exact values, never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

from .pipoly import check_indices


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int
    converged: bool
    partial_sums: tuple[float, ...] | None = None


@cache
def _numpy_rule():
    """numpy and the 24-point Gauss-Legendre rule on [-1, 1], built once."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(24)
    return np, nodes, weights


def integrate_finite(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-11,
    max_depth: int = 44,
) -> QuadratureResult:
    """Adaptive quadrature of f over the finite interval [a, b].

    Endpoint singularities of x**(-1/2) type are the caller's business: they
    are removed by substitution before calling (the half-line driver below
    does exactly that).  A leaf that still disagrees with its children at
    max_depth is accepted but flags the result as not converged; the value
    returned is always the best available estimate, never a substitute.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    if tol < 1e-13:
        raise ValueError("tol below 1e-13 is not resolvable in double precision")
    np, nodes, weights = _numpy_rule()

    def panel(lo: float, hi: float) -> float:
        half = 0.5 * (hi - lo)
        return half * float(np.dot(weights, f(half * nodes + 0.5 * (lo + hi))))

    total = 0.0
    err_total = 0.0
    panels = 1
    converged = True
    stack = [(a, b, panel(a, b), tol, 0)]
    while stack:
        lo, hi, whole, budget, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        panels += 2
        err = abs(whole - (left + right))
        if err <= budget or depth >= max_depth:
            total += left + right
            err_total += err
            if err > budget:
                converged = False
        else:
            stack.append((lo, mid, left, 0.5 * budget, depth + 1))
            stack.append((mid, hi, right, 0.5 * budget, depth + 1))
    return QuadratureResult(total, err_total, panels, converged)


# ---------------------------------------------------------------------------
# alternating-series acceleration
# ---------------------------------------------------------------------------

def accelerate_alternating(partial_sums: Sequence[float]) -> tuple[float, float]:
    """Extrapolate partial sums of an eventually-alternating series.

    Iterated pairwise averaging: each level replaces the sequence by the
    means of adjacent entries, which successively cancels the leading
    alternating error terms.  Returns the deepest stable level's final entry
    together with a stability-based error estimate (the step from the
    previous level, floored at the double-precision noise level).
    """
    sums = [float(s) for s in partial_sums]
    if len(sums) < 6:
        raise ValueError("need at least 6 partial sums")
    level_last = [sums[-1]]
    cur = sums
    while len(cur) > 1:
        cur = [0.5 * (cur[i] + cur[i + 1]) for i in range(len(cur) - 1)]
        level_last.append(cur[-1])
    best_val = level_last[1]
    best_err = abs(level_last[1] - level_last[0])
    for i in range(2, len(level_last)):
        step = abs(level_last[i] - level_last[i - 1])
        if step <= best_err:
            best_err = step
            best_val = level_last[i]
    floor = 1e-15 * max(1.0, abs(best_val))
    return best_val, max(best_err, floor)


# ---------------------------------------------------------------------------
# oscillatory half-line integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OscillatorySpec:
    """integral_0^inf x**(-exponent) trig(x+shift)**(2n+1) [log x] dx.

    ``exponent`` must lie in [0, 1): integrability at infinity comes from the
    sign alternation of the odd trig power, at zero from exponent < 1.
    """

    kind: str
    n: int
    exponent: float | Fraction
    shift: float = 0.0
    tolerance: float = 1e-6
    max_arches: int = 60
    log_weight: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("cos", "sin"):
            raise ValueError(f"kind must be 'cos' or 'sin', got {self.kind!r}")
        check_indices(n=self.n)
        p = float(self.exponent)
        if not 0.0 <= p < 1.0:
            raise ValueError(f"exponent must lie in [0, 1), got {p}")
        if self.max_arches < 8:
            raise ValueError("need at least 8 arches")
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")
        # each arch gets tolerance / (4 max_arches), and integrate_finite
        # resolves nothing below 1e-13
        floor = 4e-13 * self.max_arches
        if not self.tolerance >= floor:
            raise ValueError(f"tolerance must be at least {floor:.3g} with {self.max_arches} arches, "
                             f"got {self.tolerance:g}")


def _first_zero(kind: str, b: float) -> float:
    # Smallest strictly positive zero of trig(x + b).
    if kind == "cos":
        j = math.ceil((b - math.pi / 2) / math.pi - 1e-12)
        x = math.pi / 2 - b + j * math.pi
    else:
        j = math.ceil(b / math.pi - 1e-12)
        x = j * math.pi - b
    if x < 1e-9:
        x += math.pi
    return x


def integrate_halfline_osc(spec: OscillatorySpec) -> QuadratureResult:
    """Oscillatory half-line quadrature by zero partition and extrapolation.

    The interval [0, first zero] is integrated after the substitution
    x = u**(1/(1-p)) (x = w**(2/(1-p)) when a log weight is present), which
    turns x**(-p) dx into a constant multiple of du exactly.  Subsequent
    arches alternate in sign; their partial sums are extrapolated with
    ``accelerate_alternating``.
    """
    np = _numpy_rule()[0]
    p = float(spec.exponent)
    b, m = spec.shift, 2 * spec.n + 1
    trig = np.cos if spec.kind == "cos" else np.sin
    tol = spec.tolerance

    if spec.log_weight:
        def integrand(x):
            return x ** (-p) * np.log(x) * trig(x + b) ** m
    else:
        def integrand(x):
            return x ** (-p) * trig(x + b) ** m

    x0 = _first_zero(spec.kind, b)

    q = 1.0 - p
    if spec.log_weight:
        # x = w**(2/q):  x**(-p) log x dx = (2/q)**2 w log w dw
        c = (2.0 / q) ** 2

        def head_f(w):
            return c * w * np.log(w) * trig(w ** (2.0 / q) + b) ** m

        head = integrate_finite(head_f, 0.0, x0 ** (q / 2.0), tol / 10.0)
    else:
        # x = u**(1/q):  x**(-p) dx = du / q
        def head_f(u):
            return trig(u ** (1.0 / q) + b) ** m / q

        head = integrate_finite(head_f, 0.0, x0**q, tol / 10.0)

    arch_tol = tol / (4.0 * spec.max_arches)
    sums: list[float] = []
    running = head.value
    arch_err = head.error_estimate
    panels = head.subdivisions
    all_converged = head.converged
    for j in range(spec.max_arches):
        res = integrate_finite(integrand, x0 + j * math.pi, x0 + (j + 1) * math.pi, arch_tol)
        running += res.value
        arch_err += res.error_estimate
        panels += res.subdivisions
        all_converged = all_converged and res.converged
        sums.append(running)

    value, acc_err = accelerate_alternating(sums)
    err = acc_err + arch_err
    converged = all_converged and err <= tol
    return QuadratureResult(
        value,
        err,
        panels + spec.max_arches,
        converged,
        partial_sums=None if converged else tuple(sums),
    )
