"""zetakit: extended Fermi-Dirac / Bose-Einstein functions, the zeta family,
and an identity-verification harness with multiple independent evaluation
strategies per function.

No evaluation needs the harness, so ``zetakit.identities`` (and ``json``
with it) loads on first use: the module itself and the names the package
re-exports from it resolve through the module ``__getattr__`` (PEP 562).
"""

import importlib

from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    RangeError,
    ZetakitError,
)
from .extended import (
    ExtParams,
    Strategy,
    be_classical,
    be_kernel,
    ext_be,
    ext_be_negint_exact,
    ext_fd,
    ext_fd_negint_exact,
    fd_classical,
    fd_kernel,
    fd_zero_hurwitz_route,
)
from .numeric_core import (
    MAX_POLY_DEGREE,
    PolyCoeffs,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_coeffs,
    compensated_sum,
    euler_poly,
    euler_poly_coeffs,
    ln_gamma,
)
from .result import EvalResult
from .weyl import (
    KernelSpec,
    audit_decay,
    weyl_negative_order,
    weyl_transform,
)
from .zeta import (
    LerchParams,
    chi_ratio,
    digamma,
    dirichlet_eta,
    hurwitz_diff,
    hurwitz_zeta,
    lerch_phi,
    polylog,
    riemann_zeta,
)

__version__ = "0.1.0"

# Names re-exported from the identity harness, which loads on first use.
_HARNESS_NAMES = frozenset({
    "QUICK_SUBSET",
    "IdentityReport",
    "IdentitySpec",
    "build_catalog",
    "check",
    "reports_to_json",
    "run_catalog",
})


def __getattr__(name: str):
    if name != "identities" and name not in _HARNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    harness = importlib.import_module(".identities", __name__)
    if name == "identities":
        return harness
    value = getattr(harness, name)
    globals()[name] = value
    return value

__all__ = [
    # errors & result record
    "ZetakitError",
    "PoleError",
    "DomainError",
    "RangeError",
    "ConvergenceError",
    "EvalResult",
    # exact rational layer
    "MAX_POLY_DEGREE",
    "PolyCoeffs",
    "ln_gamma",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_coeffs",
    "euler_poly",
    "euler_poly_coeffs",
    "compensated_sum",
    # fractional-integral engine
    "KernelSpec",
    "weyl_transform",
    "weyl_negative_order",
    "audit_decay",
    # zeta family
    "LerchParams",
    "hurwitz_zeta",
    "riemann_zeta",
    "dirichlet_eta",
    "lerch_phi",
    "polylog",
    "chi_ratio",
    "digamma",
    "hurwitz_diff",
    # extended pair
    "ExtParams",
    "Strategy",
    "ext_fd",
    "ext_be",
    "fd_classical",
    "be_classical",
    "fd_zero_hurwitz_route",
    "ext_fd_negint_exact",
    "ext_be_negint_exact",
    "fd_kernel",
    "be_kernel",
    # identity harness
    "IdentitySpec",
    "IdentityReport",
    "build_catalog",
    "run_catalog",
    "check",
    "reports_to_json",
    "QUICK_SUBSET",
    "__version__",
]
