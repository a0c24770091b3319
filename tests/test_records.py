"""The result records are immutable NamedTuples with unchanged payloads.

One sample of each record type is built; the test pins its fields,
checks that neither a field nor a new attribute can be assigned, that
its hash is the hash of its field tuple (what the frozen dataclasses
these records replaced computed), and that the sha256 of its JSON
payload, or of its repr where it has none, is the one recorded before
the change.
"""

import copy
import hashlib
import json
import pickle

import pytest

from gf2perfect import catalog, search
from gf2perfect.catalog import by_name
from gf2perfect.factorize import factor_full
from gf2perfect.gf2poly import Poly
from oracles import ExponentTuple


def _prime(name):
    return by_name(name).poly


def _admissibility():
    return catalog.is_admissible([_prime("M1"), _prime("M2"), _prime("M3")])[1]


# (record type, fields in order, sample factory, sha256 of the payload).
SAMPLES = [
    (
        catalog.CatalogEntry,
        ("name", "poly", "kind", "params", "bar_partner"),
        lambda: by_name("S1"),
        "ddaa3837528ed6af8e0be1659e32c6ab2bf1fd66319fae14293d26763212b546",
    ),
    (
        catalog.Representation,
        ("pairs",),
        lambda: catalog.representation(_prime("S7")),
        "abe39fa94ff3258d93abe7496071559d4a760dbd0cef4402e37c932233d02ffb",
    ),
    (
        catalog.Classification,
        ("k", "mersenne_params", "two_mersenne_params"),
        lambda: catalog.classify(_prime("S3")),
        "72384475e75e8479b116d03a979c7613f123011432764145df00442db5ae8bf1",
    ),
    (
        catalog.ConditionReport,
        ("holds", "detail"),
        lambda: _admissibility().closure,
        "a0190b4f44eaf1263b0088fe323272070ec944a3a5200a3fdb98f51cc84ac0ba",
    ),
    (
        catalog.AdmissibilityReport,
        ("admissible", "closure", "linear_tables", "member_feedback", "budget_note"),
        _admissibility,
        "4cf5dfe9544b207178ca723c86024d9292126a54fa580626afcd7184071391ff",
    ),
    (
        search.StageResult,
        ("stage", "tuples", "count", "stage_counts", "filter_diff"),
        lambda: search.StageResult(
            "final", (_prime("T2"), _prime("T4")), 2, {"final": 2}, None
        ),
        "17f5b21ad30c61e7125beeab8e48b854423b174b511382fd545d6398877df3bb",
    ),
    (
        search.SigmaTable,
        ("base", "h_max", "rows"),
        lambda: search.sigma_factor_tables("linear")[0],
        "9477ef2f3e0498a0b8d792eded3afa43a2ece1d7efd31eeaa5f484622010c9f5",
    ),
    (
        search.ReciprocalEntry,
        ("a", "b", "c", "poly", "name", "star_kind", "star", "star_name"),
        lambda: search.explore_reciprocal(3).entries[0],
        "f2888abc5960dbc2cb2b52a8577710116a71e10e548ed5518153cf21724c3cfc",
    ),
    (
        search.ReciprocalReport,
        ("max_abc", "entries"),
        lambda: search.explore_reciprocal(3),
        "ff2430edc31179c2aac9efee5d5ae18baac5cb8db198f4d6ecda4f03bd77ce07",
    ),
    (
        search.IdentityFamily,
        ("label", "found", "expected"),
        lambda: search.verify_split_identities(8).families[1],
        "0509927218aeb32f8109753c201b8396d885b75c87bc2c4226f4a6feecefd405",
    ),
    (
        search.IdentityReport,
        ("max_exp", "families"),
        lambda: search.verify_split_identities(8),
        "1ea3ce6f10947656cbfea4db46ee83b7cc0df9016015b41af767609898d45c9b",
    ),
    (
        search.ConjectureRow,
        ("h", "factors", "witness"),
        lambda: search.conjecture_scan(_prime("M2"), 4).rows[0],
        "4749fceb01bba9c630c852b23e55b111f93652ce139b22ac6216c0600d781e53",
    ),
    (
        search.ConjectureScan,
        ("base", "h_max", "threshold", "rows"),
        lambda: search.conjecture_scan(_prime("M2"), 4),
        "cb5abb2ee352c9c060344b60f2a86047dcae2b79a93a0ca99287a47b621885e0",
    ),
]
IDS = [cls.__name__ for cls, *_ in SAMPLES]


def payload(rec):
    """The record's JSON payload, or its repr when it has no to_json."""
    if hasattr(rec, "to_json"):
        return json.dumps(rec.to_json(), sort_keys=True)
    return repr(rec)


@pytest.mark.parametrize("cls, fields, make, digest", SAMPLES, ids=IDS)
def test_record_fields_and_payload(cls, fields, make, digest):
    rec = make()
    assert type(rec) is cls
    assert cls._fields == fields
    assert hashlib.sha256(payload(rec).encode()).hexdigest() == digest


@pytest.mark.parametrize("cls, fields, make, digest", SAMPLES, ids=IDS)
def test_record_rejects_assignment(cls, fields, make, digest):
    rec = make()
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], getattr(rec, fields[0]))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("cls, fields, make, digest", SAMPLES, ids=IDS)
def test_record_hash_is_its_field_tuple_hash(cls, fields, make, digest):
    rec = make()
    values = tuple(getattr(rec, f) for f in fields)
    if cls is search.StageResult:
        # stage_counts is a dict, so a stage result never was hashable.
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(values)
    # The one behaviour the records gained: a record equals the plain
    # tuple of its fields.
    assert rec == values


def test_record_defaults_are_kept():
    assert catalog.Classification(3) == catalog.Classification(3, None, None)
    t = ExponentTuple.from_parts()
    assert (t.a, t.b, t.c, t.d) == (0, 0, (0,) * 5, (0,) * 8)


# (sample, the Poly it holds).
POLY_HOLDERS = [
    (lambda: Poly(7), lambda v: v),
    (lambda: factor_full(Poly.parse("x^6+x^5+x^3+x^2")), lambda v: v[0][0]),
    (lambda: search.run_search("final"), lambda v: v.tuples[0]),
]


@pytest.mark.parametrize("make, held", POLY_HOLDERS, ids=["Poly", "FactorMap", "StageResult"])
@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_values_holding_a_poly_round_trip(make, held, round_trip):
    """A Poly is rebuilt through its constructor, so it and every record
    holding one survive pickle and deepcopy, and the copy stays immutable."""
    value = make()
    copied = round_trip(value)
    assert type(copied) is type(value)
    assert copied == value
    poly = held(copied)
    assert type(poly) is Poly and poly == held(value)
    with pytest.raises(AttributeError):
        poly.bits = 1
