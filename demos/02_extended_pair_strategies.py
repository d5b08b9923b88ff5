"""The extended Fermi-Dirac / Bose-Einstein pair and its evaluation routes.

The two families generalize the classical statistical-mechanics integrals by
a continuous shift parameter nu >= 0:

  alternating family   sum_{n>=0} (-1)^n e^{-(n+nu+1)x} / (n+nu+1)^s
  all-positive family  sum_{n>=0}        e^{-(n+nu+1)x} / (n+nu+1)^s

Each point can be reached through several independent routes; every result
carries the route tag and an a-posteriori error estimate, so disagreement is
detectable rather than silent.

Run:  python3 demos/02_extended_pair_strategies.py
"""

from fractions import Fraction

from zetakit import (
    ConvergenceError,
    DomainError,
    ExtParams,
    Strategy,
    be_classical,
    ext_be,
    ext_fd,
    ext_fd_negint_exact,
    fd_classical,
)

POINT = ExtParams(nu=0.5, s=2.5, x=1.0)

print(f"One point, many routes: nu={POINT.nu}, s={POINT.s}, x={POINT.x}")
print(f"  {'route':18s} {'value':22s} {'err est':10s} {'work':>6s}  tag")
for route in Strategy:
    try:
        res = ext_fd(POINT, route)
    except (DomainError, ConvergenceError) as exc:
        print(f"  {route.value:18s} not applicable here ({type(exc).__name__})")
        continue
    print(
        f"  {route.value:18s} {res.value.real:<22.15g} {res.err_estimate:<10.1e}"
        f" {res.work:>6d}  {res.strategy}"
    )

print("\nAuto-dispatch picks the route by argument size")
for x in (0.0, 0.01, 0.5, 5.0):
    res = ext_fd(ExtParams(0.5, 2.5, x))
    print(f"  x = {x:<5g} -> {res.strategy}")

print("\nComplex arguments ride the defining series")
res = ext_fd(ExtParams(0.5, 2.5 + 2.0j, 1.0 + 1.5j), Strategy.XSERIES)
print(f"  fd(0.5, 2.5+2i, 1+1.5i) = {res.value:.15g}  ({res.strategy})")

print("\nOn the unit circle")
# Imaginary x puts z = -e^{-x} on |z| = 1.  At Re s > 0 the Chebyshev (CVZ)
# weights taken at w = 1/z sum the series; at Re s <= 0 Lerch's
# transformation turns the point into two such sums of order 1 - s.
for s in (1.5, -1.5):
    res = ext_fd(ExtParams(0.5, s, 3j))
    print(f"  fd(0.5, {s:g}, 3i) = {res.value:.15g}")
    print(f"    err est {res.err_estimate:.1e}  ({res.strategy})")
# Off the axis, at Re x < 0.05, the period 2 pi i and the duality
# x -> x - i pi move x next to a Taylor centre; the tag names the centre.
res = ext_fd(ExtParams(0.5, -1.5, 0.01 + 3j))
print(f"  fd(0.5, -1.5, 0.01+3i) = {res.value:.15g}")
print(f"    err est {res.err_estimate:.1e}  ({res.strategy})")

print("\nNon-positive integer orders collapse to exact polynomials")
for n in (0, 1, 3, 5):
    exact = ext_fd_negint_exact(Fraction(1, 2), n)
    floating = ext_fd(ExtParams(0.5, -float(n), 0.0)).value.real
    print(f"  order -{n}: exact {exact!s:>12s} = {float(exact):.15g}   float route {floating:.15g}")

print("\nClassical wrappers (nu = 0)")
res = fd_classical(2.5, 1.5)
print(f"  alternating integral at s=2.5, shift +1.5 : {res.value.real:.15g}  ({res.strategy})")
res = fd_classical(2.5, -1.5)
print(f"  alternating integral at s=2.5, shift -1.5 : {res.value.real:.15g}  ({res.strategy})")
res = be_classical(2.0, 0.0)
print(f"  all-positive integral at s=2, shift 0     : {res.value.real:.15g}  ({res.strategy})")
try:
    be_classical(2.0, 0.5)
except DomainError as exc:
    print(f"  all-positive at positive shift refused: {exc}")
