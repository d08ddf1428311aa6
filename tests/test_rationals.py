from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from floorfull.cli import to_json
from floorfull.rationals import RatInterval, interval, parse_rational, rat_str


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("0.3") == Fraction(3, 10)
    assert parse_rational(" 17 ") == Fraction(17)
    assert parse_rational("-2/4") == Fraction(-1, 2)


def test_parse_rational_bounds_the_decimal_exponent():
    # 4300 is the digit limit Python applies to int(str)
    assert parse_rational("1e4300") == 10 ** 4300
    assert parse_rational("1e-4300") == Fraction(1, 10 ** 4300)
    assert parse_rational(" 2.5E+4_300 ") == Fraction(5, 2) * 10 ** 4300
    assert parse_rational("1e-0_0_4300") == Fraction(1, 10 ** 4300)
    for text in ("1e4301", "1e-4301", "1E+4301", "1e4_301", "1e-00_4301", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)
    with pytest.raises(ValueError):
        parse_rational("1e4__3")


def test_rat_str_always_carries_denominator():
    assert rat_str(Fraction(3, 2)) == "3/2"
    assert rat_str(Fraction(17)) == "17/1"


def test_interval_construction_and_emptiness():
    assert interval(0, 1) == RatInterval(Fraction(0), Fraction(1))
    # lo < hi is enforced: no empty interval can be built
    with pytest.raises(ValueError):
        interval("1/2", "1/2")
    with pytest.raises(ValueError):
        interval(1, 0)


def test_interval_equality_and_hash_by_endpoints():
    assert interval("2/4", 1) == interval("1/2", 1)
    assert hash(interval("2/4", 1)) == hash(interval("1/2", 1))
    assert interval(0, 1) != interval(0, 2)
    assert len({interval(0, 1), interval("0/3", "3/3"), interval(0, 2)}) == 2


def test_interval_contains_half_open():
    window = interval("1/3", "2/3")
    assert Fraction(1, 3) in window
    assert Fraction(1, 2) in window
    assert Fraction(2, 3) not in window


def test_intersect_idempotent():
    unit = interval(0, 1)
    assert unit.intersect(unit) == unit


def test_intersect_matches_hand_computation():
    # [1/3, 2/3) and [1/2, 1): max of the lows 1/2, min of the highs 2/3
    assert interval("1/3", "2/3").intersect(interval("1/2", 1)) == interval("1/2", "2/3")
    # 8/17 < 1/2 < 9/17 < 3/5 by cross-multiplication
    assert 8 * 2 < 1 * 17 and 1 * 17 < 9 * 2 and 9 * 5 < 3 * 17
    both = interval("8/17", "9/17").intersect(interval("1/2", "3/5"))
    assert both == interval("1/2", "9/17")
    inner = interval("1/20", "1/10")
    assert interval(0, 1).intersect(inner) == inner == inner.intersect(interval(0, 1))


def test_intersect_disjoint_raises():
    # 9/17 < 16/25 by cross-multiplication: 9*25 = 225 < 272 = 16*17
    assert 9 * 25 < 16 * 17
    with pytest.raises(ValueError):
        interval("8/17", "9/17").intersect(interval("16/25", "17/25"))
    # touching half-open intervals share no point either
    with pytest.raises(ValueError):
        interval(0, "1/2").intersect(interval("1/2", 1))
    with pytest.raises(ValueError):
        interval("1/2", 1).intersect(interval(0, "1/2"))


def _random_interval(draw_lo, draw_width):
    return RatInterval(draw_lo, draw_lo + draw_width)


interval_strategy = st.builds(
    _random_interval,
    st.fractions(min_value=0, max_value=10),
    st.fractions(min_value=Fraction(1, 1000), max_value=5),
)


def _around(point, below, above):
    return RatInterval(point - below, point + above)


def _intervals_sharing(point, count):
    """`count` intervals that all contain `point`, so each intersection of them is defined."""
    one = st.builds(
        _around,
        st.just(point),
        st.fractions(min_value=0, max_value=5),
        st.fractions(min_value=Fraction(1, 1000), max_value=5),
    )
    return st.tuples(*[one] * count)


shared_points = st.fractions(min_value=5, max_value=10)
overlapping_pairs = shared_points.flatmap(lambda p: _intervals_sharing(p, 2))
overlapping_triples = shared_points.flatmap(lambda p: _intervals_sharing(p, 3))


@given(pair=overlapping_pairs)
def test_intersect_commutative(pair):
    a, b = pair
    assert a.intersect(b) == b.intersect(a)


@given(triple=overlapping_triples)
def test_intersect_associative(triple):
    a, b, c = triple
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


nonempty_interval_strategy = st.builds(
    _random_interval,
    st.fractions(min_value=0, max_value=10, max_denominator=20),
    st.fractions(min_value=Fraction(1, 20), max_value=5, max_denominator=20),
)


@given(
    a=nonempty_interval_strategy,
    b=nonempty_interval_strategy,
    q=st.fractions(min_value=0, max_value=15, max_denominator=40),
)
def test_intersect_nonempty_exactly_when_endpoints_overlap(a, b, q):
    # the overlap condition counterexample_scan's sweep relies on
    if not (b.lo < a.hi and a.lo < b.hi):
        with pytest.raises(ValueError):
            a.intersect(b)
        return
    both = a.intersect(b)
    assert both == b.intersect(a)
    assert (q in both) == (q in a and q in b)


@given(a=interval_strategy)
def test_intersect_with_superset_is_identity(a):
    everything = interval(0, 100)
    assert a.intersect(everything) == a


@given(pair=overlapping_pairs, q=st.fractions(min_value=0, max_value=15))
def test_intersect_membership_semantics(pair, q):
    a, b = pair
    assert (q in a.intersect(b)) == (q in a and q in b)


def test_midpoint_and_width():
    window = interval("1/2", "3/4")
    assert window.hi - window.lo == Fraction(1, 4)
    midpoint = (window.lo + window.hi) / 2
    assert midpoint == Fraction(5, 8)
    assert midpoint in window


def test_interval_json_shape():
    payload = to_json(interval("8/17", "9/17"))
    assert payload == {"lo": "8/17", "hi": "9/17", "closed_open": True}
