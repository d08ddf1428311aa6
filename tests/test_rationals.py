from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from floorfull.cli import to_json
from floorfull.rationals import UNIT, RatInterval, interval, parse_rational, rat_str


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("0.3") == Fraction(3, 10)
    assert parse_rational(" 17 ") == Fraction(17)
    assert parse_rational("-2/4") == Fraction(-1, 2)


def test_rat_str_always_carries_denominator():
    assert rat_str(Fraction(3, 2)) == "3/2"
    assert rat_str(Fraction(17)) == "17/1"


def test_interval_construction_and_emptiness():
    assert not interval(0, 1).is_empty
    assert interval("1/2", "1/2").is_empty
    with pytest.raises(ValueError):
        interval(1, 0)


def test_interval_contains_half_open():
    window = interval("1/3", "2/3")
    assert Fraction(1, 3) in window
    assert Fraction(1, 2) in window
    assert Fraction(2, 3) not in window


def test_intersect_idempotent():
    assert UNIT.intersect(UNIT) == UNIT


def test_intersect_disjoint_is_empty():
    # 9/17 < 16/25 by cross-multiplication: 9*25 = 225 < 272 = 16*17
    assert 9 * 25 < 16 * 17
    a = interval("8/17", "9/17")
    b = interval("16/25", "17/25")
    assert a.intersect(b).is_empty


def test_intersect_with_empty_operand_is_empty():
    a = interval("1/20", "1/10")
    b = interval("1/20", "1/20")
    assert a.intersect(b).is_empty


def test_empty_intervals_compare_equal():
    assert interval(0, 0) == interval("1/2", "1/2")
    assert hash(interval(0, 0)) == hash(interval("1/2", "1/2"))
    assert interval(0, 1) != interval(0, 0)


def _random_interval(draw_lo, draw_width):
    return RatInterval(draw_lo, draw_lo + draw_width)


interval_strategy = st.builds(
    _random_interval,
    st.fractions(min_value=0, max_value=10),
    st.fractions(min_value=0, max_value=5),
)


@given(a=interval_strategy, b=interval_strategy)
def test_intersect_commutative(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(a=interval_strategy, b=interval_strategy, c=interval_strategy)
def test_intersect_associative(a, b, c):
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


nonempty_interval_strategy = st.builds(
    _random_interval,
    st.fractions(min_value=0, max_value=10, max_denominator=20),
    st.fractions(min_value=0, max_value=5, max_denominator=20).filter(lambda w: w > 0),
)


@given(
    a=nonempty_interval_strategy,
    b=nonempty_interval_strategy,
    q=st.fractions(min_value=0, max_value=15, max_denominator=40),
)
def test_intersect_nonempty_exactly_when_endpoints_overlap(a, b, q):
    both = a.intersect(b)
    # the overlap condition counterexample_scan's sweep relies on
    assert (not both.is_empty) == (b.lo < a.hi and a.lo < b.hi)
    assert both == b.intersect(a)
    assert (q in both) == (q in a and q in b)


@given(a=interval_strategy)
def test_intersect_with_superset_is_identity(a):
    everything = interval(0, 100)
    assert a.intersect(everything) == a


@given(a=interval_strategy, b=interval_strategy, q=st.fractions(min_value=0, max_value=15))
def test_intersect_membership_semantics(a, b, q):
    assert (q in a.intersect(b)) == (q in a and q in b)


def test_midpoint_and_width():
    window = interval("1/2", "3/4")
    assert window.width == Fraction(1, 4)
    midpoint = (window.lo + window.hi) / 2
    assert midpoint == Fraction(5, 8)
    assert midpoint in window


def test_interval_json_shape():
    payload = to_json(interval("8/17", "9/17"))
    assert payload == {"lo": "8/17", "hi": "9/17", "closed_open": True}
