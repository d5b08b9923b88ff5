"""Fractional integration engine: the Weyl-type transform

    W[omega](s; x) = (1/Gamma(s)) * integral_0^inf omega(t + x) t^{s-1} dt

for kernels that decay at infinity, together with its extension to
non-positive orders by analytic differentiation.  The Taylor series in x
around x = 0 is the extended pair's own route (``extended``, Strategy
``PowerSeriesX``), not part of this engine.

Quadrature design: adaptive Gauss-Kronrod (G7, K15) panels on [0, 1] and
then on doubling intervals [1, 2], [2, 4], ... up to the truncation point.
For 0 < sigma = Re(s) < 1 a stub [0, a] next to the t^{s-1} endpoint
singularity is integrated exactly with the kernel frozen at omega(x), and
[a, 1] in u = t^sigma, where t^{s-1} dt = u^{i Im(s)/sigma} du / sigma is
bounded: its panels split log u evenly, each spanning at most one turn of
t^{i Im(s)} (a single panel for real s).  The far tail beyond the
truncation point is bounded analytically from the kernel's observed
exponential decay (or its declared power-law order) and charged to the
error estimate.  The tolerances are fixed: the worst panel is split until
the summed error estimate of the integral (before the 1/Gamma(s) factor)
is at most max(ABS_TOL, REL_TOL |integral|) = max(1e-12, 1e-10
|integral|), and ConvergenceError is raised after MAX_SUBDIVISIONS = 240
panels, or at once when [a, 1] alone would need more.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections import namedtuple
from typing import Callable, Optional

from .errors import ConvergenceError, DomainError
from .numeric_core import compensated_sum, is_nonpos_int, ln_gamma, require_finite
from .result import EvalResult, Record

__all__ = [
    "KernelSpec",
    "weyl_transform",
    "weyl_negative_order",
    "audit_decay",
]


class KernelSpec(Record, namedtuple("KernelSpec", "value derivative decay_b")):
    """A kernel omega(t) on [0, inf) suitable for the transform, as an
    immutable record (see :mod:`zetakit.result`).

    Attributes:
        value: t -> omega(t), finite on finite subintervals.
        derivative: optional (m, t) -> omega^(m)(t) supplier, required by
            negative orders only.
        decay_b: power-law decay order; ``math.inf`` declares faster-than-
            any-power (exponential-type) decay.  The transform exists for
            0 < Re(s) < decay_b.
    """

    __slots__ = ()

    def __new__(cls, value: Callable[[float], complex],
                derivative: Optional[Callable[[int, float], complex]] = None,
                decay_b: float = math.inf):
        if not decay_b > 0:
            raise DomainError("decay_b must be positive (math.inf allowed)")
        return tuple.__new__(cls, (value, derivative, decay_b))


# Fixed quadrature tolerances and panel budget; see the module docstring.
ABS_TOL = 1e-12
REL_TOL = 1e-10
MAX_SUBDIVISIONS = 240

# Gauss 7 / Kronrod 15 nodes and weights on [-1, 1].
_KRONROD_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_GAUSS_WEIGHTS = {  # indices into _KRONROD_NODES carrying G7 weight
    1: 0.129484966168870,
    3: 0.279705391489277,
    5: 0.381830050505119,
    7: 0.417959183673469,
}


def _panel(f: Callable[[float], complex], a: float, b: float):
    """One G7/K15 evaluation on [a, b]: (kronrod, |k15-g7|, evals)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    k15 = complex(0.0)
    g7 = complex(0.0)
    for i, node in enumerate(_KRONROD_NODES):
        if node == 0.0:
            fv = f(mid)
            k15 += _KRONROD_WEIGHTS[i] * fv
            g7 += _GAUSS_WEIGHTS[i] * fv
            continue
        fp = f(mid + half * node)
        fm = f(mid - half * node)
        k15 += _KRONROD_WEIGHTS[i] * (fp + fm)
        gw = _GAUSS_WEIGHTS.get(i)
        if gw is not None:
            g7 += gw * (fp + fm)
    return k15 * half, abs(k15 - g7) * half, 15


def _tail_bound(
    kernel: KernelSpec, s: complex, x: float, t_cut: float
) -> float:
    """Analytic bound for |integral_{t_cut}^inf omega(t+x) t^{s-1} dt|."""
    sigma = s.real
    w1 = abs(kernel.value(x + t_cut))
    if w1 == 0.0:
        return 0.0
    if math.isinf(kernel.decay_b):
        # Estimate an exponential rate from two samples; decay faster than
        # any power means the log-ratio is eventually positive.
        d = max(1.0, t_cut / 8.0)
        w2 = abs(kernel.value(x + t_cut + d))
        if w2 == 0.0:
            return w1 * max(t_cut, 1.0) ** max(sigma - 1.0, 0.0) * d
        lam = math.log(w1 / w2) / d if w1 > w2 else 0.0
        if lam <= 0.0:
            return math.inf
        if sigma <= 1.0:
            return w1 * t_cut ** (sigma - 1.0) / lam
        if lam * t_cut <= 2.0 * (sigma - 1.0):
            return math.inf  # not yet in the dominated regime; grow t_cut
        geom = 1.0 / (1.0 - (sigma - 1.0) / (lam * t_cut))
        return w1 * t_cut ** (sigma - 1.0) / lam * geom
    # Declared power-law decay |omega(t)| <~ C t^{-b}.
    b = kernel.decay_b
    c = w1 * (x + t_cut) ** b
    return c * t_cut ** (sigma - b) / (b - sigma)


def weyl_transform(
    kernel: KernelSpec,
    s: complex,
    x: float = 0.0,
) -> EvalResult:
    """Positive-order transform by adaptive Gauss-Kronrod quadrature.

    Requires 0 < Re(s) < kernel.decay_b and real x >= 0.
    """
    s = require_finite(s, "s")
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    sigma = s.real
    if sigma <= 0.0:
        raise DomainError("weyl_transform needs Re(s) > 0; "
                          "use weyl_negative_order for Re(s) <= 0")
    if not sigma < kernel.decay_b:
        raise DomainError(
            f"transform diverges: Re(s)={sigma:g} >= decay_b={kernel.decay_b:g}"
        )

    sm1 = s - 1.0

    def integrand(t: float) -> complex:
        return kernel.value(t + x) * cmath.exp(sm1 * math.log(t))

    inv_sigma = 1.0 / sigma
    u_phase = 1j * s.imag * inv_sigma

    def u_integrand(v: float) -> complex:
        # u = t^sigma, so t^{s-1} dt = u^{i Im(s)/sigma} du / sigma; u is
        # held as v = 1 - u, which keeps the precision of t = u^{1/sigma}
        # and of the phase where sigma is small and u near 1.
        lu = math.log1p(-v)
        return (kernel.value(math.exp(lu * inv_sigma) + x)
                * cmath.exp(u_phase * lu) * inv_sigma)

    work = 0

    # --- truncation point with an analytic tail bound ---
    t_cut = 8.0
    t_cut_max = 1200.0 if math.isinf(kernel.decay_b) else 1e8
    tail = _tail_bound(kernel, s, x, t_cut)
    work += 2
    while tail > ABS_TOL / 2.0 and t_cut < t_cut_max:
        t_cut *= 2.0
        tail = _tail_bound(kernel, s, x, t_cut)
        work += 2
    if tail > ABS_TOL / 2.0 and not tail <= ABS_TOL:
        raise ConvergenceError(
            f"tail bound {tail:.2e} above tolerance at t={t_cut:g}"
        )

    # --- initial panels: (lo, hi, value, err, integrand) ---
    u_edges: list[float] = []
    stub_value = complex(0.0)
    stub_err = 0.0
    if sigma < 1.0:
        # The stub [0, a] contributes omega(x) a^s / s; its error is set by
        # the kernel's local derivative, so a only needs deriv_scale *
        # a^{sigma+1}/(sigma+1) below tolerance.
        w0 = kernel.value(x)
        d = 1.0 / 64.0
        deriv_scale = max(
            abs(kernel.value(x + d) - w0) / d, 1e-3 * abs(w0), 1e-300
        )
        work += 2
        a_min = (
            (sigma + 1.0) * (ABS_TOL / 4.0) / (2.0 * deriv_scale)
        ) ** (1.0 / (sigma + 1.0))
        depth = 4
        while 4.0 ** (-depth) > a_min and depth < 60:
            depth += 1
        a_last = 4.0 ** (-depth)
        ln_a = math.log(a_last)
        # integral_0^a t^{s-1} dt = a^s / s exactly (complex power).
        stub_value = w0 * cmath.exp(s * ln_a) / s
        stub_err = (
            2.0 * deriv_scale * a_last ** (sigma + 1.0) / abs(s + 1.0)
            + 1e-16 * abs(stub_value)
        )
        # [a, 1] in u = t^sigma (held as v = 1 - u): t^{i Im(s)} turns
        # |Im s| log(1/a) / (2 pi) times there, so log u is split evenly
        # into panels of at most one turn, a single one for real s.
        turns = abs(s.imag) * -ln_a / (2.0 * math.pi)
        if turns > MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"t^(i Im s) turns {turns:.0f} times on [{a_last:.1e}, 1], "
                f"more than {MAX_SUBDIVISIONS} panels"
            )
        n_u = max(1, math.ceil(turns))
        u_edges = [-math.expm1(sigma * ln_a * k / n_u)
                   for k in range(n_u + 1)]
    boundaries = [1.0] if u_edges else [0.0, 1.0]
    while boundaries[-1] * 2.0 < t_cut:
        boundaries.append(boundaries[-1] * 2.0)
    boundaries.append(t_cut)

    panels: list[tuple[float, float, complex, float, Callable]] = []
    for f, edges in ((u_integrand, u_edges), (integrand, boundaries)):
        for a, b in zip(edges, edges[1:]):
            val, err, n = _panel(f, a, b)
            panels.append((a, b, val, err, f))
            work += n

    # --- adaptive refinement of the worst panel ---
    while len(panels) < MAX_SUBDIVISIONS:
        total = sum(p[2] for p in panels) + stub_value
        err_sum = sum(p[3] for p in panels) + stub_err + tail
        target = max(ABS_TOL, REL_TOL * abs(total))
        if err_sum <= target:
            break
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        a, b, _, _, f = panels.pop(worst)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            val, err, n = _panel(f, lo, hi)
            panels.append((lo, hi, val, err, f))
            work += n
    else:
        raise ConvergenceError(
            f"quadrature error stuck above tolerance after "
            f"{MAX_SUBDIVISIONS} panels"
        )

    panels.sort(key=lambda p: p[0])
    raw = compensated_sum([p[2] for p in panels]) + stub_value
    raw_err = sum(p[3] for p in panels) + stub_err + tail

    inv_gamma = cmath.exp(-ln_gamma(s))
    value = raw * inv_gamma
    err = raw_err * abs(inv_gamma) + 1e-15 * abs(value)
    return EvalResult(value, err, "weyl/gk-adaptive", work)


def weyl_negative_order(
    kernel: KernelSpec,
    s: complex,
    x: float = 0.0,
) -> EvalResult:
    """Transform of order s with Re(s) <= 0.

    Let n be the smallest non-negative integer with Re(s) + n > 0 (for a
    negative integer s = -m, n = m).  The derivative rule
        W(s; x) = (-1)^n d^n/dx^n W(s + n; x)
    is applied with the differentiation taken analytically inside the
    integral, i.e. on the kernel's supplied derivative -- never by finite
    differences.  For integer s = -m this collapses to (-1)^m omega^(m)(x).
    """
    s = require_finite(s, "s")
    if s.real > 0.0:
        raise DomainError("weyl_negative_order needs Re(s) <= 0")
    if kernel.derivative is None:
        raise DomainError("negative orders require kernel.derivative")
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"x must be finite and >= 0, got {x!r}")

    if is_nonpos_int(s):
        m = int(-s.real)
        value = complex(kernel.derivative(m, x)) * (-1.0) ** m
        return EvalResult(value, 1e-14 * abs(value), "weyl/neg-int-derivative", 1)

    n = math.ceil(-s.real)
    if s.real + n == 0.0:
        n += 1  # purely imaginary shift would leave Re = 0; bump into (0, 1]
    if not s.real + n < kernel.decay_b:
        raise DomainError("shifted order exceeds kernel decay")
    deriv = kernel.derivative
    shifted = KernelSpec(
        value=lambda t: deriv(n, t),
        derivative=lambda m, t: deriv(m + n, t),
        decay_b=kernel.decay_b,
    )
    res = weyl_transform(shifted, s + n, x)
    sign = (-1.0) ** n
    return EvalResult(
        sign * res.value, res.err_estimate, "weyl/neg-frac-derivative", res.work
    )


_AUDIT_SAMPLES = 40


def audit_decay(kernel: KernelSpec) -> bool:
    """Spot-check the declared decay class on t in [10, 1e4].

    For finite decay_b, |omega(t)| * t^decay_b should stay bounded; emits a
    warning (never an error) and returns False when the samples grow.
    """
    if math.isinf(kernel.decay_b):
        return True
    lo, hi = math.log(10.0), math.log(1e4)
    vals = []
    for i in range(_AUDIT_SAMPLES):
        t = math.exp(lo + (hi - lo) * i / (_AUDIT_SAMPLES - 1))
        vals.append(abs(kernel.value(t)) * t**kernel.decay_b)
    head = max(vals[: _AUDIT_SAMPLES // 4]) + 1e-300
    tail = max(vals[-_AUDIT_SAMPLES // 4 :])
    if tail > 10.0 * head:
        warnings.warn(
            f"kernel decays slower than declared t^-{kernel.decay_b:g} "
            f"(weighted samples grew {tail / head:.1f}x)",
            stacklevel=2,
        )
        return False
    return True
