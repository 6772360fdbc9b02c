"""The value classes: field-wise ==, hash and repr, keyword construction,
immutability of the frozen ones, values derived rather than stored, and an
import of kbound.cli that loads neither typing, dataclasses, csv nor
datetime."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kbound.bounds import (
    GenusBoundResult,
    HilbertProfile,
    castelnuovo_bound,
    chi_lower_bound_s4,
    halphen_bound,
    pi1_bound,
    pi2_bound,
)
from kbound.exact import InconsistencyError, Poly, SignCertificate
from kbound.scroll import HYPERPLANE, DivisorClass, ExtremalSurface, KsqMinimum, ScrollFrame, k2_min_closed_form
from kbound.verify import CLAIM_ANCHORS, CaseVerdict, Certificate

POLY = Poly((-2, 0, 1), 2)  # x^2/2 - 1
SIGN = SignCertificate(POLY, 2, "positive", 3, None, "m", "x^2/2 - 1 > 0")
CERT = Certificate("R2.base", {"d": 1}, "verified", {"w": 1}, [SIGN])

# Each class with keyword arguments for every field, in field order.
FROZEN = [
    (Poly, {"num": (-2, 0, 1), "den": 2}),
    (HilbertProfile, {"label": "h", "d": 9, "prefix": (4, 9)}),
    (DivisorClass, {"alpha": 2, "beta": -2}),
    (ScrollFrame, {"d": 10, "a": 0}),
    (KsqMinimum, {"d": 40, "a_min": 6, "k2_min": -1360, "unique": True}),
    (ExtremalSurface, {"cls": DivisorClass(2, -2), "k2": 8, "genus": 0}),
]
MUTABLE = [
    (SignCertificate, {
        "polynomial": POLY, "start": 2, "asserted_sign": "positive", "tail_bound": 3,
        "counterexample": None, "variable": "m", "label": "x^2/2 - 1 > 0",
    }),
    (GenusBoundResult, {"formula_id": "pi2", "d": 7, "bound": Fraction(3), "params": {"v": 1}}),
    (Certificate, {
        "claim_id": "R2.base", "params": {"d": 1}, "status": "verified",
        "witness": {"w": 1}, "sign_certificates": [SIGN],
    }),
    (CaseVerdict, {"d_from": 36, "d_to": 40, "certificates": [CERT]}),
]


def ids(cases):
    return [cls.__name__ for cls, _ in cases]


def changed(value):
    """A value of the same kind that differs from value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, str):
        # a claim id changes to another known one, as Certificate requires
        return "R3.direct" if value == "R2.base" else value + "'"
    if isinstance(value, (tuple, list)):
        return value[:-1]
    if isinstance(value, dict):
        return {**value, "extra": 0}
    if value is None:
        return 0
    if isinstance(value, Poly):
        return value + 1
    return DivisorClass(value.alpha + 1, value.beta)


@pytest.mark.parametrize("cls, fields", FROZEN + MUTABLE, ids=ids(FROZEN + MUTABLE))
def test_keyword_and_positional_construction_agree(cls, fields):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert not record != cls(*fields.values())
    assert {name: getattr(record, name) for name in fields} == fields
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls, fields", FROZEN + MUTABLE, ids=ids(FROZEN + MUTABLE))
def test_equality_is_field_wise(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        if cls is HilbertProfile and name in ("d", "prefix"):
            continue  # validated together below
        assert record != cls(**{**fields, name: changed(value)}), name
    assert record != tuple(fields.values())
    assert record != object()


def test_hilbert_profile_equality_reads_d_and_prefix():
    assert HilbertProfile("h", 9, (4, 9)) != HilbertProfile("h", 10, (4, 9))
    assert HilbertProfile("h", 9, (4, 9)) != HilbertProfile("h", 9, (4,))


@pytest.mark.parametrize("cls, fields", FROZEN, ids=ids(FROZEN))
def test_frozen_records_hash_by_value_and_reject_assignment(cls, fields):
    record = cls(**fields)
    assert hash(record) == hash(cls(*fields.values()))
    assert len({record, cls(**fields)}) == 1
    for name, value in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, changed(value))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields", MUTABLE, ids=ids(MUTABLE))
def test_mutable_records_are_unhashable_and_assignable(cls, fields):
    record = cls(**fields)
    with pytest.raises(TypeError):
        hash(record)
    name, value = next(iter(fields.items()))
    setattr(record, name, changed(value))
    assert getattr(record, name) == changed(value)
    assert record != cls(**fields)


def test_defaults():
    sign = SignCertificate(POLY, 2, "positive", 3, None)
    assert (sign.variable, sign.label) == ("d", "")
    first = Certificate("R2.base", {}, "verified")
    second = Certificate("R2.base", {}, "verified")
    assert first.witness is None
    assert first.sign_certificates == [] and first.sign_certificates is not second.sign_certificates
    first.sign_certificates.append(SIGN)
    assert second.sign_certificates == []


def test_derived_values_are_properties_not_fields():
    assert ScrollFrame.__slots__ == ("d", "a")
    frame = ScrollFrame(10, 1)
    assert (frame.m, frame.eps, frame.a_star, frame.q_parity) == (3, 0, 1, 0)
    assert "in_asserted_range" not in KsqMinimum.__slots__
    assert KsqMinimum(17, 2, -55, True).in_asserted_range is False
    assert KsqMinimum(18, 3, -216, True).in_asserted_range is True
    assert "anchor" not in Certificate.__slots__
    assert CERT.anchor == CLAIM_ANCHORS["R2.base"]
    with pytest.raises(TypeError):
        Certificate("R2.base", CLAIM_ANCHORS["R2.base"], {}, "verified", None, [], None)


def test_certificate_rejects_an_unknown_claim_id():
    with pytest.raises(ValueError, match="unknown claim id 'R7.none'"):
        Certificate("R7.none", {}, "verified")


def test_divisor_classes_are_not_tuples():
    assert DivisorClass(1, 2) != (1, 2)
    assert DivisorClass(1, 2) + DivisorClass(0, 1) == DivisorClass(1, 3)
    with pytest.raises(TypeError):
        3 * HYPERPLANE


def test_poly_stores_numerators_over_one_denominator():
    assert Poly.__slots__ == ("num", "den")
    p = Poly.of(Fraction(1, 2), 3, 0)
    assert (p.num, p.den) == ((1, 6), 2)
    assert repr(p) == "Poly(num=(1, 6), den=2)"
    # the coefficients are derived, as Fractions, and are not a field
    assert p.coeffs == (Fraction(1, 2), Fraction(3)) and type(p.coeffs[1]) is Fraction
    with pytest.raises(AttributeError):
        p.coeffs = ()
    # equal polynomials have equal fields, so == and hash agree on any input
    assert p == Poly((3, 18, 0), 6) and hash(p) == hash(Poly((3, 18, 0), 6))


def test_the_calls_that_return_one_rational_return_a_fraction():
    # kbound computes in integer numerators; these calls hand their values
    # to the caller as Fractions, at today's values
    p = Poly((-2, 0, 1), 2)  # x^2/2 - 1
    values = [
        (p(3), Fraction(7, 2)),
        (p(Fraction(1, 2)), Fraction(-7, 8)),
        (p.leading, Fraction(1, 2)),
        *zip(p.coeffs, (Fraction(-1), Fraction(0), Fraction(1, 2)), strict=True),
        (castelnuovo_bound(5, 18).bound, Fraction(28)),
        (halphen_bound(22, 5).bound, Fraction(58)),
        (pi1_bound(33).bound, Fraction(120)),
        (pi2_bound(31).bound, Fraction(87)),
        (chi_lower_bound_s4(36, 6), Fraction(-1941, 16)),
        (chi_lower_bound_s4(36, Fraction(15, 2)), Fraction(1623, 16)),
        (k2_min_closed_form(19), Fraction(-72)),
        (k2_min_closed_form(20), Fraction(-280)),
    ]
    for value, expected in values:
        assert type(value) is Fraction and value == expected, (value, expected)


@pytest.mark.parametrize("result, text", [
    (halphen_bound(22, 5),
     "GenusBoundResult(formula_id='halphen', d=22, bound=Fraction(58, 1), params={'s': 5, 'm': 4, 'eps': 1})"),
    (pi2_bound(31),
     "GenusBoundResult(formula_id='pi2', d=31, bound=Fraction(87, 1),"
     " params={'n': 6, 'v': 0, 'w': 0, 'genus_bound_asserted_for': 'd > 143'})"),
    (GenusBoundResult("propagated", 20, 7, {}), "GenusBoundResult(formula_id='propagated', d=20, bound=Fraction(7, 1), params={})"),
    (GenusBoundResult("h", 9, Fraction(7, 2), {"s": 2}),
     "GenusBoundResult(formula_id='h', d=9, bound=Fraction(7, 2), params={'s': 2})"),
], ids=["halphen", "pi2", "int", "fraction"])
def test_a_genus_bound_result_keeps_its_repr_equality_and_pickling(result, text):
    # the bound is kept in integers and built as a Fraction on its first read,
    # which neither repr, == nor pickling can tell
    fresh = pickle.loads(pickle.dumps(result))
    assert fresh == result and result == fresh
    assert repr(fresh) == repr(result) == text
    assert GenusBoundResult(result.formula_id, result.d, result.bound, result.params) == result
    assert result != GenusBoundResult(result.formula_id, result.d, result.bound + 1, result.params)
    assert GenusBoundResult._fields == ("formula_id", "d", "bound", "params")
    with pytest.raises(TypeError):
        hash(result)


def test_an_assigned_bound_is_the_one_each_derived_value_reads():
    result = halphen_bound(22, 5)
    result.bound = Fraction(9, 2)
    assert (result.bound, result.floor, result.is_integer) == (Fraction(9, 2), 4, False)
    assert result.to_json_dict()["bound"] == "9/2"
    with pytest.raises(InconsistencyError, match=r"^halphen\(22\) is not an integer: 9/2$"):
        result.bound_int


@pytest.mark.parametrize(
    "d, prefix, message",
    [
        (0, (), "profile needs d >= 1"),
        (5, (0, 1), "profile value 0 outside [1, d=5]"),
        (5, (1, 6), "profile value 6 outside [1, d=5]"),
        (5, (1, 7, 5), "profile value 7 outside [1, d=5]"),
        (5, (2, 1), "profile must be nondecreasing"),
        (5, (1, 3, 2, 9), "profile must be nondecreasing"),
    ],
)
def test_hilbert_profile_names_the_first_bad_value(d, prefix, message):
    with pytest.raises(ValueError) as info:
        HilbertProfile("h", d, prefix)
    assert str(info.value) == message


def test_cli_import_loads_no_dataclasses_inspect_csv_datetime_random_tempfile_shutil_json_or_argparse():
    # -S: no site module, whose .pth files may import any of these first.
    src = Path(__file__).resolve().parents[1] / "src"
    deferred = {"typing", "dataclasses", "inspect", "csv", "datetime", "random", "tempfile", "shutil", "json",
                "argparse", "gettext", "locale"}
    code = f"import sys, kbound.cli; print(sorted(set(sys.modules) & {deferred!r}))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


def test_verify_runs_load_no_json_or_argparse():
    # exact.dumps writes the JSON document and the CSV params and witness
    # columns, and cli reads a plain verify argv without argparse (which
    # brings gettext and locale); -S as above
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, sys\n"
        "from kbound import cli\n"
        "for fmt in ('json', 'csv', 'table'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['verify', 'all', '--from', '36', '--to', '40',"
        " '--format', fmt, '--no-timestamp']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0]"
        " in ('json', '_json', 'argparse', 'gettext', 'locale')))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"
