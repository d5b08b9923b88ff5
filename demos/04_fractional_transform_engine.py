"""The fractional-integral engine behind the quadrature strategy.

For a decaying kernel omega(t), the order-s transform is

    W(s; x) = (1/Gamma(s)) * integral_0^inf t^{s-1} omega(x + t) dt.

The engine powers the WeylQuad evaluation route and is exposed directly so
new kernels can be transformed without touching the series code.

Run:  python3 demos/04_fractional_transform_engine.py
"""

import math

from zetakit import (
    DomainError,
    KernelSpec,
    audit_decay,
    fd_kernel,
    weyl_negative_order,
    weyl_transform,
)

print("The exponential kernel is a fixed point of every order")
exp_kernel = KernelSpec(
    value=lambda t: math.exp(-t),
    derivative=lambda k, t: (-1.0) ** k * math.exp(-t),
    decay_b=math.inf,
)
for s in (0.5, 1.0, 2.5):
    res = weyl_transform(exp_kernel, s, x=1.0)
    print(f"  order {s:<4g}: {res.value.real:.15g}   (e^-1 = {math.exp(-1):.15g})")

print("\nPower-law kernels live in a strip of admissible orders")
p = 4.0
power_kernel = KernelSpec(value=lambda t: (1.0 + t) ** (-p), decay_b=p)
for s in (1.0, 2.0, 2.5):
    res = weyl_transform(power_kernel, s, x=0.0)
    ref = math.gamma(p - s) / math.gamma(p)
    print(f"  order {s:<4g}: {res.value.real:.12g}   (Beta-integral reference {ref:.12g})")
try:
    weyl_transform(power_kernel, 4.5, x=0.0)
except DomainError as exc:
    print(f"  order 4.5 refused (outside the strip): {exc}")

from zetakit import ConvergenceError

try:
    weyl_transform(power_kernel, 3.0, x=0.0)
except ConvergenceError as exc:
    print(f"  order 3.0 refused honestly (tail decays like 1/T): {exc}")

print("\nDeclared decay classes are audited, not trusted")
liar = KernelSpec(value=lambda t: 1.0 / (1.0 + t), decay_b=3.0)
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    honest = audit_decay(power_kernel)
    caught = audit_decay(liar)
print(f"  honest kernel audit: {honest};  overstated decay audit: {caught}")

print("\nNegative orders differentiate instead of integrating")
for s in (-0.5, -2.0):
    res = weyl_negative_order(exp_kernel, s, x=1.0)
    print(f"  order {s:<5g}: {res.value.real:.15g}  ({res.strategy})")

print("\nOccupation kernel of the alternating family at nu = 1/2")
kern = fd_kernel(0.5)
res = weyl_transform(kern, 2.5, x=0.0)
print(f"  transform at order 2.5: {res.value.real:.15g}  (err~{res.err_estimate:.1e})")
