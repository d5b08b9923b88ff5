"""Fractional-integral engine: quadrature, negative orders, decay audit."""

import math

import pytest

from zetakit import (
    DEFAULT_QUADRATURE,
    ConvergenceError,
    DomainError,
    KernelSpec,
    QuadratureConfig,
    audit_decay,
    weyl_negative_order,
    weyl_transform,
)

# Derivative convention matches KernelSpec: derivative(order k, point t).
EXP_KERNEL = KernelSpec(
    value=lambda t: math.exp(-t),
    derivative=lambda k, t: (-1.0) ** k * math.exp(-t),
    decay_b=math.inf,
)


def scaled_exp_kernel(b: float) -> KernelSpec:
    return KernelSpec(
        value=lambda t: math.exp(-b * t),
        derivative=lambda k, t: (-b) ** k * math.exp(-b * t),
        decay_b=math.inf,
    )


class TestWeylTransform:
    def test_exponential_is_fixed_point(self):
        # Integrating t^{s-1} e^{-(x+t)} / Gamma(s) gives back e^{-x} for
        # every order: the exponential is invariant under the transform.
        for s in (0.5, 1.0, 2.5, 1.5 + 1.0j):
            for x in (0.0, 0.7, 3.0):
                res = weyl_transform(EXP_KERNEL, s, x)
                want = math.exp(-x)
                assert abs(res.value - want) <= max(1e-11 * want, 5 * res.err_estimate)

    def test_scaled_exponential_pulls_out_power(self):
        # kernel e^{-bt} transforms to b^{-s} e^{-bx}
        b = 2.5
        kern = scaled_exp_kernel(b)
        for s in (0.75, 2.0):
            res = weyl_transform(kern, s, 1.0)
            want = b ** (-s) * math.exp(-b)
            assert abs(res.value - want) <= max(1e-11 * want, 5 * res.err_estimate)

    def test_power_law_kernel_beta_integral(self):
        # kernel (1+t)^{-p} at x=0: value Gamma(p-s)/Gamma(p) via the Beta
        # integral; checked against math.gamma.
        p = 4.0
        kern = KernelSpec(value=lambda t: (1.0 + t) ** (-p), decay_b=p)
        for s in (0.5, 1.5, 2.5):
            res = weyl_transform(kern, s, 0.0)
            want = math.gamma(p - s) / math.gamma(p)
            assert abs(res.value - want) <= max(1e-9 * want, 10 * res.err_estimate)

    def test_error_estimate_is_honest_on_smooth_kernels(self):
        res = weyl_transform(EXP_KERNEL, 1.5, 0.5)
        assert abs(res.value - math.exp(-0.5)) <= 10 * res.err_estimate

    def test_order_outside_strip_rejected(self):
        kern = KernelSpec(value=lambda t: (1.0 + t) ** (-2.0), decay_b=2.0)
        with pytest.raises(DomainError):
            weyl_transform(kern, 2.5, 0.0)  # Re s >= decay_b
        with pytest.raises(DomainError):
            weyl_transform(kern, 0.0, 0.0)  # Re s <= 0 needs the derivative rule
        with pytest.raises(DomainError):
            weyl_transform(kern, 1.0, -1.0)  # x < 0

    def test_near_edge_order_converges_or_raises(self):
        # Just inside the analyticity strip the integral is still proper;
        # the engine must either deliver the Beta value or raise honestly.
        p = 2.0
        kern = KernelSpec(value=lambda t: (1.0 + t) ** (-p), decay_b=p)
        try:
            res = weyl_transform(kern, 1.9, 0.0)
        except ConvergenceError:
            return
        want = math.gamma(p - 1.9) / math.gamma(p)
        assert abs(res.value - want) <= max(1e-6 * want, 20 * res.err_estimate)

    def test_work_accounting(self):
        res = weyl_transform(EXP_KERNEL, 1.5, 0.0)
        assert res.work > 0
        assert "weyl" in res.strategy


class TestNegativeOrders:
    def test_integer_negative_order_is_kernel_derivative(self):
        # Order -m collapses to (-1)^m omega^(m)(x): for e^{-t} that is
        # e^{-x} at every m.
        for m in (0, 1, 2, 3):
            res = weyl_negative_order(EXP_KERNEL, -float(m), 0.8)
            assert abs(res.value - math.exp(-0.8)) <= 1e-10

    def test_fractional_negative_order(self):
        # W(s) of e^{-t} is e^{-x} for all s; the derivative rule must agree.
        res = weyl_negative_order(EXP_KERNEL, -0.5, 1.2)
        want = math.exp(-1.2)
        assert abs(res.value - want) <= max(1e-9 * want, 10 * res.err_estimate)

    def test_requires_derivative(self):
        bare = KernelSpec(value=lambda t: math.exp(-t), decay_b=math.inf)
        with pytest.raises(DomainError):
            weyl_negative_order(bare, -1.0, 0.0)

    def test_rejects_positive_order(self):
        with pytest.raises(DomainError):
            weyl_negative_order(EXP_KERNEL, 0.5, 0.0)


class TestKernelSpecAndConfig:
    def test_decay_must_be_positive(self):
        with pytest.raises(DomainError):
            KernelSpec(value=lambda t: 1.0, decay_b=0.0)

    def test_audit_detects_slow_decay(self):
        lying = KernelSpec(value=lambda t: 1.0 / (1.0 + t), decay_b=3.0)
        with pytest.warns(UserWarning):
            assert audit_decay(lying) is False

    def test_audit_accepts_honest_kernel(self):
        honest = KernelSpec(value=lambda t: (1.0 + t) ** (-3.0), decay_b=3.0)
        assert audit_decay(honest) is True
        assert audit_decay(EXP_KERNEL) is True

    def test_quadrature_config_fields(self):
        assert DEFAULT_QUADRATURE.abs_tol > 0
        tight = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=300)
        res = weyl_transform(EXP_KERNEL, 1.5, 0.0, tight)
        assert abs(res.value - 1.0) < 1e-11
