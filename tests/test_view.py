"""Every list a report builds on read is a `View` that reads as the tuple of its items."""

import random
from fractions import Fraction

import pytest

from floorfull import pset
from floorfull.pset import PSetBitmap, compute_pset, verify_squares_witness
from floorfull.skipverify import verify_skip_all_alpha
from floorfull.view import View


def skip_rows(j, k_max, as_json=False):
    report = verify_skip_all_alpha(Fraction(3, 2), j, k_max)
    return report.to_json_dict()["rows"] if as_json else report.rows


def runs(bound, bits):
    return PSetBitmap(bound=bound, bits=bits).to_json_dict()["runs"]


def witness_lines(m):
    return verify_squares_witness(m).to_json_dict()["lines"]


CUBES = [k ** 3 for k in range(1, 41)]  # `pset compute` of these at bound 200,000 prints 832 runs


# name: (the view, whether its items can be hashed)
VIEWS = {
    "skip_rows": (lambda: skip_rows(3, 40), True),  # k = 6..40
    "skip_rows_json": (lambda: skip_rows(3, 40, as_json=True), False),
    "skip_rows_empty": (lambda: skip_rows(20, 10), True),  # s_10 = 57 < 2^20: every k is skipped
    "skip_rows_empty_json": (lambda: skip_rows(20, 10, as_json=True), True),
    "runs": (lambda: runs(300, compute_pset([3, 5, 9, 14, 24, 49, 86], 300).bits), False),
    "runs_one_run": (lambda: runs(40, (1 << 41) - 1), False),
    "runs_bound_1": (lambda: runs(1, 0b01), False),
    "runs_bound_1_full": (lambda: runs(1, 0b11), False),
    "bitmap_runs": (lambda: compute_pset(CUBES, 200_000).runs(), False),
    "witness_lines_m0": (lambda: witness_lines(0), False),
    "witness_lines_m5": (lambda: witness_lines(5), False),
}


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_view_reads_as_the_tuple_of_its_items(name):
    build, hashable = VIEWS[name]
    view = build()
    items = list(view)  # read in order, by the view's in-order reader if it has one
    n, as_tuple = len(items), tuple(items)
    assert type(view) is View and len(view) == n
    for i in range(-n, n):  # read by index
        assert view[i] == items[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    for cut in (slice(None), slice(1, 3), slice(None, 4), slice(-2, None), slice(0, None, 2),
                slice(None, None, -1), slice(4, 0, -3), slice(n, n + 3), slice(-n - 5, -n - 1)):
        assert type(view[cut]) is tuple and view[cut] == as_tuple[cut]
    assert view == as_tuple and as_tuple == view and view == items and items == view
    assert view != as_tuple + (None,) and view != "not a view" and view != ""
    if n:
        assert view != as_tuple[:-1]
    assert repr(view) == repr(as_tuple)
    if hashable:
        assert hash(view) == hash(as_tuple)
    else:
        with pytest.raises(TypeError):
            hash(view)


def test_a_view_takes_item_or_in_order():
    with pytest.raises(TypeError):
        View(range(2))
    with pytest.raises(TypeError):
        View(range(2), str, in_order=lambda: iter("01"))


def test_a_streamed_view_reads_by_position_from_one_pass(monkeypatch):
    passes = []
    spans = pset._spans
    monkeypatch.setattr(pset, "_spans", lambda bits: passes.append(bits) or spans(bits))
    view = compute_pset(CUBES, 200_000).runs()
    assert len(view) == 832 and not passes
    runs = list(view)  # iterating reads the bitmap once and holds nothing
    assert len(runs) == 832 and len(passes) == 1
    reads = (view[:], view[-1], view[100:0:-7], list(reversed(view)), view.index(view[-1]),
             random.Random(5).sample(view, 8))
    assert len(passes) == 2  # the first read by position holds one pass for all of them
    assert reads == (tuple(runs), runs[-1], tuple(runs[100:0:-7]), runs[::-1], 831,
                     random.Random(5).sample(runs, 8))
