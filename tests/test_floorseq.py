import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from floorfull.cli import main
from floorfull.floorseq import (
    CARRY_BITS_CAP,
    SEQ_CAP,
    TERM_BITS_CAP,
    Explicit,
    FloorPower,
    Squares,
    generate_terms,
    member_alpha_set,
    preimage_interval,
    ratio_condition_check,
    s_alpha,
)
from floorfull.rationals import interval

POW32 = FloorPower(Fraction(3, 2))


def test_generate_floor_power_terms():
    # oracle: exact powers, floored by hand-checkable long division
    powers = [Fraction(3, 2) ** n for n in range(1, 11)]
    expected = [p.numerator // p.denominator for p in powers]
    assert expected == [1, 2, 3, 5, 7, 11, 17, 25, 38, 57]
    assert generate_terms(POW32, 10) == expected
    assert generate_terms(POW32, 1) == [1]


def test_generate_squares_and_explicit():
    assert generate_terms(Squares(), 5) == [1, 4, 9, 16, 25]
    assert generate_terms(Explicit((3, 7, 20)), 2) == [3, 7]


def test_explicit_validation():
    with pytest.raises(ValueError):
        Explicit((1, 1, 2))
    with pytest.raises(ValueError):
        Explicit((2, 1))
    with pytest.raises(ValueError):
        Explicit((0, 1))
    with pytest.raises(ValueError):
        generate_terms(Explicit((1, 2)), 3)


def test_floor_power_requires_growth():
    with pytest.raises(ValueError):
        FloorPower(Fraction(1))
    # gamma barely above 1 stalls: floor(1.01^n) repeats 1, caught at generation
    with pytest.raises(ValueError, match="strictly increasing"):
        generate_terms(FloorPower(Fraction(101, 100)), 5)


def test_generate_terms_cap_and_bounds():
    with pytest.raises(ValueError):
        generate_terms(POW32, 0)
    assert len(generate_terms(Squares(), SEQ_CAP)) == SEQ_CAP
    with pytest.raises(ValueError, match=f"sequence cap SEQ_CAP = {SEQ_CAP}"):
        generate_terms(POW32, SEQ_CAP + 1)  # rejected before any term is built


def test_generate_terms_bit_caps_at_their_boundaries():
    # floor(4^n) = 4^n has 2n + 1 bits; 128^n has 7n + 1
    assert generate_terms(FloorPower(Fraction(4)), 8191)[-1].bit_length() == TERM_BITS_CAP - 1
    with pytest.raises(ValueError, match=f"term 8192 exceeds the term bit cap TERM_BITS_CAP = {TERM_BITS_CAP}"):
        generate_terms(FloorPower(Fraction(4)), 8192)
    assert len(generate_terms(FloorPower(Fraction(257, 128)), 9362)) == 9362
    with pytest.raises(ValueError, match=f"q\\^9363 exceeds the carry bit cap CARRY_BITS_CAP = {CARRY_BITS_CAP}"):
        generate_terms(FloorPower(Fraction(257, 128)), 9363)


# 4,300 digits over 4,300, inside [3/2, 2): tiny terms, but q^n grows by 14,284 bits a step
HUGE_DIGIT_GAMMA = f"{15 * 10**4298 + 1}/{10**4299}"


@pytest.mark.parametrize("argv,message", [
    # terms of up to 40,000 bits, each printed by a quadratic int-to-str conversion
    (["seq", "gen", "--gamma", "1000000", "--n", "2000"],
     f"term 823 exceeds the term bit cap TERM_BITS_CAP = {TERM_BITS_CAP}"),
    # the default K = 300 carried q^302, p multiplying it at every step
    (["thm2", "verify", "--gamma", HUGE_DIGIT_GAMMA, "--j", "3"],
     f"q^5 exceeds the carry bit cap CARRY_BITS_CAP = {CARRY_BITS_CAP}"),
], ids=["large_terms", "large_carry"])
def test_runs_past_a_bit_cap_exit_2_with_one_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _fraction_power_terms(gamma, n_max):
    """The route before the remainder recurrence: floor of each Fraction power."""
    power, terms = Fraction(1), []
    for _ in range(n_max):
        power *= gamma
        terms.append(math.floor(power))
    return terms


@given(
    gamma=st.one_of(
        st.integers(1, 10**6).flatmap(
            lambda q: st.integers(q + 1, 5 * q).map(lambda p: Fraction(p, q))
        ),
        st.fractions(min_value=Fraction(10**6 + 1, 10**6), max_value=1000, max_denominator=10**6),
        st.integers(2, 10**6).map(Fraction),
    ),
    n_max=st.integers(1, 300),
    alpha=st.fractions(min_value=Fraction(1, 10**6), max_value=3, max_denominator=10**6),
)
@settings(max_examples=300, deadline=None)
def test_floor_power_terms_match_fraction_powers(gamma, n_max, alpha):
    expected = _fraction_power_terms(gamma, n_max)
    stalls = [(a, b) for a, b in zip(expected, expected[1:]) if b <= a]
    if stalls:
        a, b = stalls[0]
        with pytest.raises(ValueError) as info:
            generate_terms(FloorPower(gamma), n_max)
        assert str(info.value) == f"sequence is not strictly increasing at {a} -> {b}"
        return
    assert generate_terms(FloorPower(gamma), n_max) == expected
    assert s_alpha(FloorPower(gamma), alpha, n_max) == [math.floor(alpha * s) for s in expected]


def test_s_alpha_halving():
    assert s_alpha(POW32, Fraction(1, 2), 7) == [0, 1, 1, 2, 3, 5, 8]


def test_s_alpha_identity_scaling():
    for spec in (POW32, Squares(), Explicit((4, 9, 11))):
        assert s_alpha(spec, Fraction(1), 3) == generate_terms(spec, 3)


def test_s_alpha_squares_witness_values():
    assert s_alpha(Squares(), Fraction(1, 20), 9) == [0, 0, 0, 0, 1, 1, 2, 3, 4]


def test_s_alpha_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        s_alpha(POW32, Fraction(0), 3)
    with pytest.raises(ValueError):
        s_alpha(POW32, Fraction(-1, 2), 3)


def test_preimage_interval_examples():
    assert preimage_interval(8, 17) == interval("8/17", "9/17")
    assert preimage_interval(0, 5) == interval(0, "1/5")
    assert preimage_interval(16, 25) == interval("16/25", "17/25")
    with pytest.raises(ValueError):
        preimage_interval(1, 0)
    with pytest.raises(ValueError):
        preimage_interval(-1, 5)


@given(
    alpha=st.fractions(min_value=Fraction(1, 100), max_value=5),
    s=st.integers(1, 10**6),
)
def test_preimage_contains_its_alpha(alpha, s):
    t = math.floor(alpha * s)
    assert alpha in preimage_interval(t, s)


@given(s=st.integers(1, 500))
def test_preimages_tile_the_line(s):
    previous_hi = Fraction(0)
    for t in range(0, 25):
        window = preimage_interval(t, s)
        assert window.lo == previous_hi  # adjacent, no gap, no overlap
        assert window.hi - window.lo == Fraction(1, s)
        previous_hi = window.hi


def test_member_alpha_set_floor_power():
    got = member_alpha_set(POW32, 8, 12)
    terms = generate_terms(POW32, 12)
    expected = [
        interval(Fraction(8, s), Fraction(9, s)) for s in terms if s > 8
    ]
    assert got == expected
    assert got[0] == interval("8/11", "9/11")
    assert got[1] == interval("8/17", "9/17")


def test_member_alpha_set_squares():
    got = member_alpha_set(Squares(), 1, 5)
    assert got == [
        interval("1/4", "1/2"),
        interval("1/9", "2/9"),
        interval("1/16", "1/8"),
        interval("1/25", "2/25"),
    ]


def test_member_alpha_set_validates():
    with pytest.raises(ValueError):
        member_alpha_set(POW32, 0, 5)
    with pytest.raises(TypeError):  # the alpha range is always [0, 1): no window argument
        member_alpha_set(POW32, 3, 5, interval(0, 1))


def _clipped_preimages(spec, t, n_max):
    """The route before clipping was dropped: [t/s, (t+1)/s) clipped to [0, 1), empties dropped."""
    clipped = []
    for s in generate_terms(spec, n_max):
        lo = max(Fraction(t, s), Fraction(0))
        hi = min(Fraction(t + 1, s), Fraction(1))
        if lo < hi:
            clipped.append((lo, hi))
    return clipped


def _strictly_increasing_power(gamma, n_max):
    spec = FloorPower(gamma)
    try:
        generate_terms(spec, n_max)
    except ValueError:  # floor(gamma^n) repeats a value for gamma close to 1
        assume(False)
    return spec


@given(
    kind=st.one_of(
        st.fractions(min_value=Fraction(11, 10), max_value=4, max_denominator=12)
        .map(lambda g: ("power", g)),
        st.just(("squares", None)),
        st.lists(st.integers(1, 400), min_size=1, max_size=80, unique=True)
        .map(lambda xs: ("explicit", tuple(sorted(xs)))),
    ),
    t=st.integers(1, 300),
    n_max=st.integers(1, 90),
)
@settings(max_examples=200, deadline=None)
def test_member_alpha_set_matches_clipped_preimages(kind, t, n_max):
    name, value = kind
    if name == "power":
        spec = _strictly_increasing_power(value, n_max)
    elif name == "squares":
        spec = Squares()
    else:
        spec = Explicit(value)
        n_max = min(n_max, len(value))
    got = member_alpha_set(spec, t, n_max)
    assert [(w.lo, w.hi) for w in got] == _clipped_preimages(spec, t, n_max)


def test_membership_consistency_with_s_alpha():
    # t lands in the scaled image iff some returned interval contains alpha
    n_max = 30
    for numerator in range(1, 40):
        alpha = Fraction(numerator, 40)
        image = set(s_alpha(POW32, alpha, n_max))
        for t in (3, 8, 16, 25):
            windows = member_alpha_set(POW32, t, n_max)
            assert (t in image) == any(alpha in w for w in windows), (alpha, t)


def test_scaled_image_is_nondecreasing():
    for numerator in range(1, 60):
        alpha = Fraction(numerator, 60)
        image = s_alpha(POW32, alpha, 40)
        assert image == sorted(image)


def test_ratio_condition_floor_power():
    report = ratio_condition_check(POW32, 50)
    assert report.violations == ()
    assert report.holds_from == 1
    assert report.n_checked == 49


def test_ratio_condition_explicit_violation():
    report = ratio_condition_check(Explicit((1, 3)), 2)
    assert report.violations == (1,)
    assert report.holds_from == 2


def test_ratio_condition_squares():
    # 4 > 2*1 and 9 > 2*4; from n = 3 on, (n+1)^2 <= 2n^2
    report = ratio_condition_check(Squares(), 50)
    assert report.violations == (1, 2)
    assert report.holds_from == 3
    with pytest.raises(ValueError):
        ratio_condition_check(Squares(), 1)
