"""The record contract: every exported result type is an immutable NamedTuple.

Records compare and hash by field values, keep the `X(a=..., b=...)` repr,
serialize through `cli.to_json` in `_fields` order (or through their own
`to_json_dict`), and the five validating records check their fields
whether they are given positionally or by keyword.  No record writes its
own JSON text: `cli.write_json` writes every one, equal to the compact,
key-sorted `json.dumps` of its `to_json` form, with an exact Decimal
written as the int it equals and a lazy view as the list it reads as.
"""

import io
import json
from collections.abc import Sequence
from contextlib import redirect_stdout
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import Phase, given, settings, strategies as st

import floorfull
from floorfull.classify import Factorization, factorize
from floorfull.certificates import (
    construct_certificate,
    verify_non_rfull,
)
from floorfull import cli
from floorfull.cli import to_json, write_json
from floorfull.floorseq import Explicit, FloorPower, Squares, ratio_condition_check
from floorfull.pset import PSetBitmap, compute_pset, verify_squares_witness
from floorfull.rationals import RatInterval, interval
from floorfull.skipverify import symbolic_condition_check, verify_skip_all_alpha
from floorfull.view import View

CERT = construct_certificate(2, 3)
SAMPLES = {
    "Certificate": CERT,
    "Explicit": Explicit((1, 3, 4)),
    "Factorization": factorize(72),
    "FloorPower": FloorPower(Fraction(3, 2)),
    "NonRFullReport": verify_non_rfull(CERT, max_m=4),
    "PSetBitmap": compute_pset([2, 3], 10),
    "RatInterval": interval("1/3", "1/2"),
    "RatioReport": ratio_condition_check(Squares(), 10),
    "SkipReport": verify_skip_all_alpha(Fraction(3, 2), 3, 12),
    "Squares": Squares(),
    "SquaresWitnessReport": verify_squares_witness(3),
    "SymbolicCheck": symbolic_condition_check(Fraction(3, 2), 3),
}


def exported_record_classes() -> dict:
    records = {}
    for names in floorfull._EXPORTS.values():
        for name in names:
            value = getattr(floorfull, name)
            if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields"):
                records[name] = value
    return records


def test_every_exported_record_has_a_sample():
    classes = exported_record_classes()
    assert set(classes) == set(SAMPLES)
    for name, record in SAMPLES.items():
        assert type(record) is classes[name]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_cannot_be_assigned(name):
    record = SAMPLES[name]
    for field in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_fields_give_equal_records_and_hashes(name):
    record = SAMPLES[name]
    cls = type(record)
    for copy in (cls(*record), cls(**record._asdict())):
        assert copy == record and copy is not record
        assert hash(copy) == hash(record)
        assert repr(copy) == repr(record)
    assert repr(record).startswith(f"{name}(")
    assert all(f"{field}=" in repr(record) for field in record._fields)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_to_json_keys_follow_fields(name):
    record = SAMPLES[name]
    if hasattr(record, "to_json_dict"):
        assert to_json(record) == record.to_json_dict()
    else:
        payload = to_json(record)
        assert list(payload) == list(record._fields)
        assert payload == {field: to_json(getattr(record, field)) for field in record._fields}


def dumps(value) -> str:
    """The oracle of `write_json`: json.dumps of the `to_json` form."""
    def plain(inner):  # a lazy view reads as a list, an exact Decimal as its int
        return list(inner) if isinstance(inner, Sequence) else int(inner)

    return json.dumps(to_json(value), sort_keys=True, separators=(",", ":"), default=plain)


def written(value) -> str:
    writes = []
    write_json(value, writes.append)
    return "".join(writes)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_write_json_matches_json_dumps(name):
    assert not hasattr(SAMPLES[name], "to_json_chunks")  # one JSON writer
    assert written(SAMPLES[name]) == dumps(SAMPLES[name])


def test_write_json_encodes_a_to_json_dict_as_it_is(monkeypatch):
    # a bitmap's runs are in their JSON form already: converting them again
    # cost `pset compute` on 32,000 runs ~15 ms
    def to_json_again(value):
        raise AssertionError(f"to_json({value!r}) converts a JSON form again")

    bitmap = compute_pset([10 * 21 ** k // 10 ** k for k in range(10)], 40_000)  # 1,024 runs
    text = dumps(bitmap)
    monkeypatch.setattr(cli, "to_json", to_json_again)
    assert written(bitmap) == text


def test_to_json_rejects_what_is_not_a_record():
    with pytest.raises(TypeError):
        to_json(object())
    assert to_json(((2, 3), (3, 2))) == [[2, 3], [3, 2]]


class Holder(NamedTuple):
    alpha: Fraction
    rows: list


# lengths on both sides of one and two `write_json` slices
S = cli._SLICE
LENGTHS = (0, 1, S - 1, S, S + 1, 2 * S, 2 * S + 1, 4 * S + 3)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3), st.fractions())
FLAT_DICTS = st.dictionaries(st.text(max_size=3), SCALARS, max_size=3)
ITEMS = st.one_of(SCALARS, FLAT_DICTS, st.tuples(SCALARS, SCALARS),
                  st.builds(Holder, st.fractions(), st.lists(SCALARS, max_size=2)))


def long_lists(items):
    """Lists of each length in LENGTHS, cycling through a few drawn items."""
    def cycle(pool, n):
        return [pool[i % len(pool)] for i in range(n)]

    return st.builds(cycle, st.lists(items, min_size=1, max_size=5), st.sampled_from(LENGTHS))


def view(items):
    """A lazy view over `items`, as a report's lists are: a Sequence that is not a list."""
    return View(range(len(items)), items.__getitem__)


class Lazy(NamedTuple):
    """A record whose JSON form holds lazy views, as the squares witness report's does."""

    form: dict

    def to_json_dict(self):
        return self.form


# JSON forms, as a `to_json_dict` returns them; an exact Decimal reads as its int
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3))
DECIMALS = st.integers().map(Decimal)
JSON_ITEMS = st.one_of(
    JSON_SCALARS, DECIMALS, st.dictionaries(st.text(max_size=3), st.one_of(JSON_SCALARS, DECIMALS)),
    st.lists(JSON_SCALARS, max_size=3).map(view),
)
# plain items first, and half the time items that may hold a Decimal or a
# view from an index on either side of a slice's end
VIEWS = st.builds(lambda head, tail: view(head + tail),
                  long_lists(st.one_of(JSON_SCALARS, st.dictionaries(st.text(max_size=3), JSON_SCALARS))),
                  st.one_of(st.just([]), long_lists(JSON_ITEMS)))
LAZY = st.builds(Lazy, st.dictionaries(st.text(max_size=3), st.one_of(JSON_ITEMS, VIEWS), max_size=4))

NESTED = st.dictionaries(
    st.text(max_size=3),
    st.one_of(SCALARS, FLAT_DICTS, long_lists(SCALARS), long_lists(FLAT_DICTS), long_lists(ITEMS),
              st.builds(Holder, st.fractions(), long_lists(ITEMS)), LAZY, long_lists(LAZY)),
    max_size=4,
)


# Without hypothesis's shrink phase: each step re-encodes lists of up to
# 4 * _SLICE + 3 items, and a failing writer was still shrinking after ten
# minutes; the first failing example is reported as drawn.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@given(value=st.one_of(NESTED, long_lists(ITEMS)))
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
def test_write_json_matches_json_dumps_on_nested_values(value):
    assert written(value) == dumps(value)


@given(view=VIEWS)
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
def test_write_json_matches_json_dumps_on_lazy_views(view):
    value = Lazy({"lines": view, "n": len(view)})
    assert written(value) == dumps(value)


@pytest.mark.parametrize("k_max", [300, 3000])
def test_write_json_writes_a_thm2_verify_report_in_a_few_calls(monkeypatch, k_max):
    # the rows view is encoded a slice at a time, not walked row by row or cell by cell
    calls = []
    write_json_once = cli.write_json

    def counted(value, write, converted=False):
        calls.append(type(value).__name__)
        write_json_once(value, write, converted)

    monkeypatch.setattr(cli, "write_json", counted)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["thm2", "verify", "--gamma", "3/2", "--j", "3", "--K", str(k_max)]) == 0
    assert calls == ["dict", "dict", "SkipReport", "View", "tuple"]  # config, result, rows, skipped


def test_to_json_renders_every_nested_fraction_as_num_den():
    q = Fraction(-8, 17)
    value = {"list": [q, 3], "dict": {"q": q}, "record": Holder(q, [Fraction(4)])}
    assert to_json(value) == {
        "list": ["-8/17", 3],
        "dict": {"q": "-8/17"},
        "record": {"alpha": "-8/17", "rows": ["4/1"]},
    }
    with pytest.raises(TypeError, match="no JSON form for float"):
        to_json([q, 0.5])


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_record_is_true_as_a_non_empty_tuple_is(name):
    # a verdict is raised, never read from the truth of a record
    record = SAMPLES[name]
    assert "__bool__" not in vars(type(record))
    assert bool(record) is bool(record._fields)


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (RatInterval, (Fraction(1, 2), Fraction(1, 3)), "lo < hi"),
        (RatInterval, (Fraction(1, 2), Fraction(1, 2)), "lo < hi"),
        (Factorization, (12, ((2, 1), (3, 1))), "do not multiply"),
        (Factorization, (12, ((3, 1), (2, 2))), "not strictly increasing"),
        (Factorization, (16, ((4, 2),)), "4 is not prime"),
        (Factorization, (1, ((2, 0),)), "exponent 0 < 1"),
        (FloorPower, (Fraction(1),), "gamma must exceed 1"),
        (Explicit, ((3, 2),), "strictly increasing positive"),
        (Explicit, ((0, 2),), "strictly increasing positive"),
        (PSetBitmap, (10, 0), "0 must always be representable"),
        (PSetBitmap, (3, 1 << 6 | 1), "bits set beyond bound 3"),
        (PSetBitmap, (0, 1), "bound must be >= 1"),
    ],
)
def test_validating_records_reject_bad_fields(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)
    with pytest.raises(ValueError, match=message):
        cls(**dict(zip(cls._fields, args)))
