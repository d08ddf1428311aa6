import csv
import hashlib
import io
import json
import math
import random
import re
import tracemalloc
import types
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from floorfull import pset
from floorfull.cli import main, to_json, write_json
from floorfull.errors import VerificationFailure
from floorfull.pset import (
    BITMAP_CAP,
    WITNESS_M_CAP,
    PSetBitmap,
    brown_criterion,
    complete_up_to,
    compute_pset,
    squares_witness_alpha,
    verify_squares_witness,
)


def enumerate_subset_sums(terms: list[int]) -> set[int]:
    """Exhaustive oracle: explicitly lists all 2^len(terms) subset sums."""
    sums = [0]
    for a in terms:
        sums = sums + [s + a for s in sums]
    assert len(sums) == 2 ** len(terms)
    return set(sums)


def test_compute_pset_binary_weights():
    bitmap = compute_pset([1, 2, 4, 8], 15)
    assert bitmap.members() == list(range(16))


def test_compute_pset_two_and_three():
    assert enumerate_subset_sums([2, 3]) == {0, 2, 3, 5}
    assert compute_pset([2, 3], 10).members() == [0, 2, 3, 5]


def test_compute_pset_multiset_semantics():
    assert enumerate_subset_sums([2, 2]) == {0, 2, 4}
    assert compute_pset([2, 2], 10).members() == [0, 2, 4]


def test_compute_pset_guards():
    with pytest.raises(ValueError):
        compute_pset([1, 2], 0)
    with pytest.raises(ValueError):
        compute_pset([-1], 10)
    with pytest.raises(ValueError, match=f"bitmap cap BITMAP_CAP = {BITMAP_CAP}"):
        compute_pset([1], BITMAP_CAP)  # BITMAP_CAP + 1 bits, rejected before the mask
    with pytest.raises(ValueError):
        compute_pset([10**8, -1], 10)  # a negative term is rejected even after skipped ones


def test_compute_pset_skips_terms_above_bound_without_allocating():
    tracemalloc.start()
    try:
        bitmap = compute_pset([2, 10**8, 3], 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bitmap == compute_pset([2, 3], 100)
    assert peak < 1 << 20  # shifting by 10^8 first would take 12.5 MB


@given(
    terms=st.lists(st.integers(0, 40), min_size=0, max_size=12),
    bound=st.integers(1, 200),
)
@settings(max_examples=150)
def test_compute_pset_matches_exhaustive_enumeration(terms, bound):
    expected = {s for s in enumerate_subset_sums(terms) if s <= bound}
    assert set(compute_pset(terms, bound).members()) == expected


@given(terms=st.lists(st.integers(0, 30), min_size=0, max_size=10), extra=st.integers(0, 30))
def test_adding_a_term_never_removes_members(terms, extra):
    before = compute_pset(terms, 120).bits
    after = compute_pset(terms + [extra], 120).bits
    assert before | after == after


@given(terms=st.lists(st.integers(1, 30), min_size=1, max_size=10))
def test_zero_member_and_max_bound(terms):
    bitmap = compute_pset(terms, 400)
    assert 0 in bitmap
    assert max(bitmap.members()) <= min(400, sum(terms))


def test_complete_up_to_examples():
    assert complete_up_to([1, 2, 4, 8, 16], 31) == 0
    assert complete_up_to([2, 3], 10) is None  # 6 and 10 are unreachable
    assert complete_up_to([1, 1, 1, 1], 4) == 0


def test_complete_up_to_gap():
    # {1, 5}: reachable sums 0,1,5,6 -> checking up to 6 leaves gap 2..4
    assert complete_up_to([1, 5], 6) == 5
    assert complete_up_to([1, 5], 7) is None


def test_brown_criterion_examples():
    assert brown_criterion([1, 2, 4, 8])
    assert not brown_criterion([1, 3])
    assert brown_criterion([1, 2, 3, 5, 7, 11, 17])
    assert not brown_criterion([2, 3])
    assert not brown_criterion([])


def test_brown_criterion_requires_sorted():
    with pytest.raises(ValueError):
        brown_criterion([2, 1])
    with pytest.raises(ValueError):
        brown_criterion([0, 1])


def test_brown_implies_full_coverage():
    rng = random.Random(11)
    for _ in range(30):
        terms = [1]
        for _ in range(rng.randrange(1, 8)):
            terms.append(rng.randint(1, sum(terms) + 1))
        terms.sort()
        assert brown_criterion(terms)
        total = sum(terms)
        assert compute_pset(terms, total).members() == list(range(total + 1))


def test_brown_checks_every_prefix():
    # first gap is fine, later prefix violates
    assert not brown_criterion([1, 2, 4, 100])


def test_squares_witness_alpha_values():
    assert squares_witness_alpha(2) == Fraction(1, 20)
    assert squares_witness_alpha(0) == Fraction(1, 8)
    assert squares_witness_alpha(5) == Fraction(1, 132)
    with pytest.raises(ValueError):
        squares_witness_alpha(-1)


def witness_forms(m: int) -> dict:
    """The squares witness report's JSON form for m, from plain products and isqrt."""
    inv_alpha = 4 * (2 ** m + 1)
    lines = []
    for i in range(m + 1):
        target = 2 ** i
        lower, upper = inv_alpha * target, inv_alpha * (target + 1)
        n_i = math.isqrt(lower)
        if n_i * n_i < lower:
            n_i += 1
        assert (n_i - 1) ** 2 < lower <= n_i ** 2 < upper
        gap_rhs = 2 ** (i + 1) + 2 + math.isqrt(4 * target * (target + 1))
        assert inv_alpha >= gap_rhs
        lines.append({
            "i": i, "target": target, "n_i": n_i, "lower": lower, "upper": upper,
            "gap_rhs": gap_rhs, "gap_ok": True,
        })
    return {"m": m, "alpha": f"1/{inv_alpha}", "inv_alpha": inv_alpha, "lines": lines,
            "all_passed": True}


def as_ints(value):
    """`value` with each exact Decimal made the int it prints as, each dict
    made its (key, value) pairs, so that a comparison also checks key order,
    and each list or lazy view of lines made a list."""
    if isinstance(value, dict):
        return [(key, as_ints(inner)) for key, inner in value.items()]
    if isinstance(value, Sequence) and not isinstance(value, str):
        return [as_ints(inner) for inner in value]
    if isinstance(value, Decimal):
        assert str(value) == str(int(value))
        return int(value)
    return value


def test_squares_witness_m2():
    report = verify_squares_witness(2)
    assert report == (2, (5, 7, 9))
    alpha = squares_witness_alpha(2)
    assert math.floor(alpha * 25) == 1
    assert math.floor(alpha * 49) == 2
    assert math.floor(alpha * 81) == 4


def test_squares_witness_m0():
    report = verify_squares_witness(0)
    assert report.lines == (3,)
    assert math.floor(Fraction(9, 8)) == 1


def test_squares_witness_through_m12():
    for m in range(13):
        report = verify_squares_witness(m)
        alpha = squares_witness_alpha(m)
        assert len(report.lines) == m + 1
        payload = report.to_json_dict()
        assert payload["alpha"] == str(alpha) and payload["all_passed"] is True
        for i, (n_i, line) in enumerate(zip(report.lines, payload["lines"])):
            # independent exact check of the floor identity
            assert math.floor(alpha * n_i**2) == 2 ** i == line["target"]
            # window inequalities as printed
            assert line["n_i"] == n_i and line["lower"] <= n_i**2 < line["upper"]
            assert payload["inv_alpha"] >= line["gap_rhs"] and line["gap_ok"] is True


def test_squares_witness_lines_match_plain_products_through_m300():
    for m in range(301):
        expected = witness_forms(m)
        report = verify_squares_witness(m)
        assert report == (m, tuple(line["n_i"] for line in expected["lines"]))
        assert as_ints(report.to_json_dict()) == as_ints(expected)


@pytest.mark.parametrize("m", [3, *range(2995, 3001), WITNESS_M_CAP])
def test_witness_n_i_match_one_isqrt_per_line(m):
    # the route the two roots replaced; at m = 3, 2^3 + 1 = 9 makes lower a square at even i
    inv_alpha = 4 * (2 ** m + 1)
    expected = tuple(math.isqrt((inv_alpha << i) - 1) + 1 for i in range(m + 1))
    assert verify_squares_witness(m).lines == expected


@pytest.mark.parametrize("fmt, md5", [("json", "09238340f10ad459a3eeb9672dc673da"),
                                      ("table", "c45e503fc4787ff3ad0dd13d3a684353")])
def test_witness_output_at_m2995_is_pinned(capsys, fmt, md5):
    # the benchmark's size: the bytes printed when every n_i took its own isqrt
    assert main(["pset", "witness", "--m", "2995", "--format", fmt]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


@pytest.mark.parametrize("m", [1, 12, 13, 300])
@pytest.mark.parametrize("call", [0, 1])
@pytest.mark.parametrize("wrong", [lambda root: root // 2, lambda root: 2 * root],
                         ids=["half", "twice"])
def test_witness_rejects_a_wrong_root_at_the_first_line_that_reads_it(monkeypatch, m, call, wrong):
    # root `call` serves the lines i with i & 1 == call, first line `call`;
    # half of it puts n_i^2 below lower, twice puts it past upper
    taken = []

    def isqrt(n):
        taken.append(n)
        root = math.isqrt(n)
        return wrong(root) if len(taken) == call + 1 else root

    monkeypatch.setattr(pset, "math", types.SimpleNamespace(isqrt=isqrt))
    inv_alpha = 4 * (2 ** m + 1)
    lower = inv_alpha << call
    with pytest.raises(VerificationFailure) as failure:
        verify_squares_witness(m)
    assert str(failure.value) == (f"no integer square in [{lower}, {lower + inv_alpha}) "
                                  f"for target 2^{call}")
    assert len(taken) == 2  # the roots are taken before any line


def test_squares_witness_gap_rhs_closed_form_through_i3000():
    # the printed closed form 2^(i+2) + 2 against the isqrt it replaces, every i <= 3000
    for line in verify_squares_witness(3000).to_json_dict()["lines"]:
        t = 2 ** line["i"]
        assert int(line["gap_rhs"]) == 2 ** (line["i"] + 1) + 2 + math.isqrt(4 * t * (t + 1))


def test_witness_csv_and_table_print_the_plain_products(capsys):
    m = 40
    expected = witness_forms(m)
    head = [[key, str(expected[key])] for key in ("m", "alpha", "inv_alpha")]
    assert main(["pset", "witness", "--m", str(m), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1:] == [
        *head,
        *([f"lines[{i}].{key}", str(value)]
          for i, line in enumerate(expected["lines"]) for key, value in line.items()),
        ["all_passed", "True"],
    ]
    assert main(["pset", "witness", "--m", str(m), "--format", "table"]) == 0
    text = capsys.readouterr().out.splitlines()
    assert text[1:5] == [*(f"{key}: {value}" for key, value in head), "lines:"]
    assert text[5].split() == list(expected["lines"][0])
    assert [row.split() for row in text[6:-1]] == [
        [str(value) for value in line.values()] for line in expected["lines"]
    ]
    assert text[-1] == "all_passed: True"


def assert_json_chunks_match_json_dumps(m: int) -> None:
    """`write_json` writes the report in chunks, one per line, whose text is json.dumps's."""
    report = verify_squares_witness(m)
    chunks = []
    write_json(report, chunks.append)
    text = "".join(chunks)
    form = to_json(report)
    form["lines"] = list(form["lines"])  # the lazy view reads as this list
    assert text == json.dumps(form, sort_keys=True, separators=(",", ":"), default=int)
    lines = [chunk for chunk in chunks if chunk.startswith(("{", ",{")) and chunk.endswith("}")]
    assert len(lines) == m + 1
    # every number is plain integer digits: JSON hands any number with a
    # fraction or an exponent ("E", "e" or ".") to parse_float
    payload = json.loads(text, parse_float=pytest.fail, parse_constant=pytest.fail)
    assert re.fullmatch(r"1/[0-9]+", payload["alpha"])


@pytest.mark.parametrize("m", range(65))
def test_witness_json_chunks_match_json_dumps(m):
    assert_json_chunks_match_json_dumps(m)


@given(m=st.integers(0, 1_500))
@settings(max_examples=15, deadline=None)
def test_witness_json_chunks_match_json_dumps_drawn(m):
    assert_json_chunks_match_json_dumps(m)


def test_witness_json_chunks_match_json_dumps_at_the_cap():
    assert_json_chunks_match_json_dumps(WITNESS_M_CAP)


def test_bitmap_validation():
    with pytest.raises(ValueError):
        PSetBitmap(bound=10, bits=0)  # 0 must be representable
    with pytest.raises(ValueError):
        PSetBitmap(bound=3, bits=1 << 6 | 1)  # member beyond bound
    with pytest.raises(ValueError):
        PSetBitmap(bound=0, bits=1)


def from_rle_json_dict(payload: dict) -> PSetBitmap:
    """Round-trip oracle: rebuild a bitmap from to_json_dict's runs."""
    bits = 0
    for start, length in payload["runs"]:
        bits |= ((1 << length) - 1) << start
    return PSetBitmap(bound=int(payload["bound"]), bits=bits)


def from_bit_bytes(blob: bytes) -> PSetBitmap:
    """Round-trip oracle: rebuild a bitmap from to_bit_bytes's export."""
    n_bits = int.from_bytes(blob[:8], "little")
    return PSetBitmap(bound=n_bits - 1, bits=int.from_bytes(blob[8:], "little"))


def test_bitmap_rle_round_trip():
    bitmap = compute_pset([2, 3, 9], 20)
    payload = bitmap.to_json_dict()
    assert payload["bound"] == 20
    assert from_rle_json_dict(payload) == bitmap
    # runs really are maximal: {0, 2, 3, 5} -> [0,1], [2,2], [5,1], ...
    assert compute_pset([2, 3], 10).runs() == [[0, 1], [2, 2], [5, 1]]


def test_bitmap_bit_file_round_trip():
    bitmap = compute_pset([1, 4, 9], 25)
    blob = bitmap.to_bit_bytes()
    assert int.from_bytes(blob[:8], "little") == 26  # bit count header
    assert from_bit_bytes(blob) == bitmap


def test_bitmap_count():
    assert compute_pset([2, 3], 10).count() == 4


def _bitwise_runs(bitmap):
    """Reference: test every bit of [0, bound] in turn, O(bound^2)."""
    out = []
    i = 0
    while i <= bitmap.bound:
        if (bitmap.bits >> i) & 1:
            start = i
            while i <= bitmap.bound and (bitmap.bits >> i) & 1:
                i += 1
            out.append([start, i - start])
        else:
            i += 1
    return out


def _bitwise_members(bitmap):
    return [i for i in range(bitmap.bound + 1) if (bitmap.bits >> i) & 1]


@given(data=st.data(), bound=st.integers(1, 300))
def test_runs_and_members_match_bitwise_reference(data, bound):
    bits = data.draw(st.integers(0, (1 << (bound + 1)) - 1)) | 1
    bitmap = PSetBitmap(bound=bound, bits=bits)
    assert bitmap.runs() == _bitwise_runs(bitmap)
    assert bitmap.members() == _bitwise_members(bitmap)


@pytest.mark.parametrize(
    "bound, bits",
    [
        (1, 0b01),                           # only 0
        (1, 0b11),                           # all ones
        (40, (1 << 41) - 1),                 # all ones, longer
        (12, 1 | (0b111 << 10)),             # run ending exactly at bound
        (12, 1 | (1 << 12)),                 # single member at bound
        (64, 1 | (1 << 63) | (1 << 64)),     # two-bit run ending at bound 64
    ],
)
def test_runs_and_members_edge_cases(bound, bits):
    bitmap = PSetBitmap(bound=bound, bits=bits)
    assert bitmap.runs() == _bitwise_runs(bitmap)
    assert bitmap.members() == _bitwise_members(bitmap)


@pytest.mark.parametrize(
    "bound, bits",
    [
        (1, 0b01),                           # bound 1, one run
        (1, 0b11),                           # bound 1, all ones
        (40, (1 << 41) - 1),                 # one run, longer
        (20, compute_pset([2, 3, 9], 20).bits),
        (300, compute_pset([3, 5, 9, 14, 24, 49, 86], 300).bits),
    ],
)
def test_runs_view_reads_as_the_list_of_runs(bound, bits):
    bitmap = PSetBitmap(bound=bound, bits=bits)
    # the view's protocol is tests/test_view.py's; here, what it reads
    view, runs = bitmap.to_json_dict()["runs"], _bitwise_runs(bitmap)
    assert bitmap.runs() == view
    assert list(view) == runs and len(view) == len(runs)
    assert [view[i] for i in range(len(runs))] == runs
    assert all(type(run) is list for run in view)  # a table prints a tuple as (19, 1)


def test_runs_view_prints_as_the_runs_in_every_format(tmp_path, capsys):
    terms = [3, 5, 9, 14, 24, 49, 86]
    path = tmp_path / "terms.txt"
    path.write_text("".join(f"{t}\n" for t in terms))
    runs = _bitwise_runs(compute_pset(terms, 300))
    argv = ["pset", "compute", "--terms", str(path), "--bound", "300", "--format"]
    assert main([*argv, "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"bound": 300, "runs": runs}
    assert main([*argv, "table"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["bound: 300", "runs:",
                                                        *(f"  {run}" for run in runs)]
    assert main([*argv, "csv"]) == 0
    assert list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:] == [
        ["bound", "300"],
        *([f"runs[{k}][{j}]", str(value)] for k, run in enumerate(runs) for j, value in enumerate(run)),
    ]


def test_runs_on_a_sparse_million_bit_set():
    bound = 10**6
    terms = [999_983, 7, 250_001, 500_000, 123_457]
    bitmap = compute_pset(terms, bound)
    runs = bitmap.runs()
    assert sum(length for _, length in runs) == bitmap.count()
    assert runs[0] == [0, 1] and runs[-1][0] + runs[-1][1] - 1 <= bound
    for start, length in random.Random(5).sample(runs, 8):
        assert start in bitmap and start + length - 1 in bitmap
        assert start - 1 not in bitmap and start + length not in bitmap
