"""Fractional-integral engine: quadrature, negative orders, decay audit."""

import cmath
import math

import pytest

from zetakit import weyl
from zetakit import (
    ConvergenceError,
    DomainError,
    KernelSpec,
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

    def test_scaled_exponential_estimate_is_honest_at_every_order(self):
        # W(s; x) = b^{-s} e^{-bx} for the kernel e^{-bt} at every s, so the
        # sub-unit orders, where t^{s-1} is singular at t = 0, are checked
        # without an oracle: small and near-unit sigma, complex s of both
        # signs, and the negative orders that shift into (0, 1].
        points = []
        for b in (0.5, 2.5):
            kern = scaled_exp_kernel(b)
            for sigma in (0.001, 0.02, 0.1, 0.5, 0.9, 0.999):
                for tau in (0.0, 0.5, -3.0, 10.0):
                    for x in (0.0, 1.3):
                        s = complex(sigma, tau)
                        points.append((b, s, x, weyl_transform(kern, s, x)))
            for s in (-0.5, -1.5, -2.7):
                for x in (0.0, 1.3):
                    points.append((b, s, x, weyl_negative_order(kern, s, x)))
        for b, s, x, res in points:
            want = cmath.exp(-s * math.log(b)) * math.exp(-b * x)
            assert abs(res.value - want) <= res.err_estimate, (b, s, x)

    def test_sub_unit_order_work(self):
        # e^{-t} at s = 1/2: one panel in u = t^{1/2} on [a, 1], the five
        # doubling panels up to t = 32 and the stub and tail samples.
        assert weyl_transform(EXP_KERNEL, 0.5, 0.0).work <= 150

    def test_no_zero_width_panel(self, monkeypatch):
        widths = []
        panel = weyl._panel

        def recording_panel(f, a, b):
            widths.append(b - a)
            return panel(f, a, b)

        monkeypatch.setattr(weyl, "_panel", recording_panel)
        for s in (0.5, 0.02, 0.9 - 3.0j, 0.3 + 10.0j):
            weyl_transform(EXP_KERNEL, s, 0.7)
        weyl_negative_order(EXP_KERNEL, -1.5, 0.7)
        assert widths and min(widths) > 0.0

    def test_too_many_turns_refused_up_front(self, monkeypatch):
        # t^{i Im s} would turn about 1,000 times on [a, 1]: more than the
        # panel budget, so the call refuses before any panel.
        calls = []
        monkeypatch.setattr(weyl, "_panel",
                            lambda f, a, b: calls.append(a) or (0j, 0.0, 15))
        with pytest.raises(ConvergenceError):
            weyl_transform(EXP_KERNEL, 0.5 + 300.0j, 0.0)
        assert calls == []


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
