"""The immutable records: keyword construction, value equality and hashing
within one type, no reassignment, and the refusals each record makes."""

import math
import pickle
from fractions import Fraction

import pytest

from zetakit import (
    DomainError,
    EvalResult,
    ExtParams,
    IdentityReport,
    IdentitySpec,
    KernelSpec,
    LerchParams,
    PolyCoeffs,
)


def _exp(t):
    return math.exp(-t)


def _one(point):
    return 1.0


# One set of valid fields per record, in field order.
RECORDS = [
    (EvalResult, dict(value=1.5 + 2j, err_estimate=1e-15, strategy="hurwitz/x", work=3)),
    (ExtParams, dict(nu=0.5, s=2.5 + 1j, x=0.25)),
    (LerchParams, dict(z=0.5j, s=-1.5, a=0.75)),
    (KernelSpec, dict(value=_exp, derivative=None, decay_b=math.inf)),
    (PolyCoeffs, dict(coeffs=(Fraction(1), Fraction(-1, 2)))),
    (IdentitySpec, dict(name="one", lhs=_one, rhs=_one, grid=({"x": 1},), tol=1e-10)),
    (IdentityReport, dict(name="one", points_tested=1, max_rel_err=0.0,
                          mean_rel_err=0.0, worst_point=None, passed=True)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields):
    by_name = cls(**fields)
    assert by_name == cls(*fields.values())
    for name, value in fields.items():
        assert getattr(by_name, name) is value
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_name) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_value_within_one_type(cls, fields):
    one, two = cls(**fields), cls(**fields)
    assert one is not two and one == two and not one != two
    if cls not in (IdentitySpec, IdentityReport):   # their dicts do not hash
        assert hash(one) == hash(two)
        assert pickle.loads(pickle.dumps(one)) == one
    plain = tuple(fields.values())
    assert one != plain and not one == plain and plain != one


def test_records_of_different_types_differ():
    assert ExtParams(0.5, 2.0, 0.5) != LerchParams(0.5, 2.0, 0.5)
    assert len({ExtParams(0.5, 2.0, 0.5), ExtParams(0.5, 2.0, 0.5)}) == 1


def test_different_values_differ():
    base = dict(value=1.0, err_estimate=0.0, strategy="t", work=0)
    assert EvalResult(**base) != EvalResult(**dict(base, work=1))
    assert EvalResult(**base) != EvalResult(**dict(base, strategy="u"))


def test_defaults():
    assert KernelSpec(_exp) == KernelSpec(_exp, None, math.inf)
    assert IdentitySpec("one", _one, _one, ({"x": 1},)).tol == 1e-10


@pytest.mark.parametrize("make, error", [
    (lambda: EvalResult(1.0, -1e-16, "t", 0), ValueError),
    (lambda: EvalResult(1.0, math.nan, "t", 0), ValueError),
    (lambda: EvalResult(1.0, 0.0, "t", -1), ValueError),
    (lambda: ExtParams(-0.5, 2.0, 0.0), DomainError),
    (lambda: ExtParams(0.5, 2.0, -1e-3 + 1j), DomainError),
    (lambda: ExtParams(0.5, math.nan, 0.0), DomainError),
    (lambda: LerchParams(1.5, 2.0, 1.0), DomainError),
    (lambda: LerchParams(0.5, 2.0, -2.0), DomainError),
    (lambda: LerchParams(1j, -1.5, 1 + 1j), DomainError),
    (lambda: PolyCoeffs(()), ValueError),
    (lambda: KernelSpec(_exp, decay_b=0.0), DomainError),
    (lambda: IdentitySpec("one", _one, _one, ()), DomainError),
    (lambda: IdentitySpec("one", _one, _one, ({"x": 1},), tol=0.0), DomainError),
], ids=["negative-estimate", "nan-estimate", "negative-work", "negative-nu",
        "negative-x", "nan-s", "z-outside", "a-pole", "circle-complex-a",
        "empty-coefficients", "decay", "empty-grid", "zero-tol"])
def test_invalid_input_is_refused(make, error):
    with pytest.raises(error):
        make()
