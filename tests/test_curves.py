"""Slope arithmetic, windows, curve references and intersection numbers.

The oracles here are independent of the implementation: crossing numbers
are counted geometrically with exact rationals, triple completions are
compared against exhaustive search over small slopes, and the
two-crossing neighbor sets are compared against an exhaustive search of
the coordinate box.
"""

import copy
import math
import pickle
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvelab import (
    DualChain,
    FormatError,
    InfiniteModel,
    IntersectionTooSmall,
    NotTorusWindow,
    PantsCurve,
    Slope,
    UnknownCurve,
    WindowCurve,
    WrongIntersection,
    ZeroSlope,
    abstract_window,
    build_finite_surface,
    build_truncation,
    curve_inventory,
    dt_uniqueness_check,
    dt_vector,
    format_ref,
    global_intersection,
    is_triple,
    local_graph,
    make_slope,
    parse_ref,
    parse_refs,
    resolve_ref,
    sch04_common_neighbors,
    slopes_up_to,
    triple_completion,
    twist,
    validate,
    window_around,
    window_curve_separates,
    window_intersection,
)
from curvelab import Curve, GluingGraph, PantsSlot
from curvelab.verify import _meeting, _unit_neighbors, _unit_pairs

TORUS = abstract_window("torus")
SPHERE = abstract_window("sphere")


def torus_crossings(a, b):
    """Count crossings of the slope lines a, b on the unit square torus.

    A crossing is a solution of s*(a.p, a.q) = t*(b.p, b.q) + (m, n) with
    s, t in [0, 1); the 2x2 system is solved exactly with Fractions for
    every integer pair (m, n) that can possibly admit a solution.
    """
    det = -a.p * b.q + b.p * a.q
    if det == 0:
        return 0
    count = 0
    for m in range(-(abs(a.p) + abs(b.p)), abs(a.p) + abs(b.p) + 1):
        for n in range(-(abs(a.q) + abs(b.q)), abs(a.q) + abs(b.q) + 1):
            s = Fraction(-m * b.q + b.p * n, det)
            t = Fraction(a.p * n - a.q * m, det)
            if 0 <= s < 1 and 0 <= t < 1:
                count += 1
    return count


# --- slopes ---------------------------------------------------------------


def test_make_slope_normalizes():
    assert make_slope(2, 4) == make_slope(1, 2)
    assert make_slope(-2, -4) == make_slope(1, 2)
    assert make_slope(3, -6) == make_slope(-1, 2)
    assert make_slope(-5, 0) == make_slope(1, 0)
    assert str(make_slope(7, -14)) == "-1/2"


def test_zero_slope_rejected():
    with pytest.raises(ZeroSlope):
        make_slope(0, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 5))
def test_make_slope_is_projective(p, q, k):
    if p == 0 and q == 0:
        return
    assert make_slope(k * p, k * q) == make_slope(p, q)
    assert make_slope(-p, -q) == make_slope(p, q)


def test_slopes_up_to_is_sorted_and_complete():
    slopes = slopes_up_to(2)
    assert len(slopes) == len(set(slopes))
    assert sorted(slopes) == list(slopes)
    assert make_slope(1, 0) in slopes
    assert make_slope(-1, 2) in slopes
    for s in slopes:
        assert abs(s.p) <= 2 and s.q <= 2
    for bound in range(1, 13):
        want = sorted(
            {
                _reference_slope(p, q)
                for p in range(-bound, bound + 1)
                for q in range(-bound, bound + 1)
                if (p, q) != (0, 0)
            }
        )
        assert slopes_up_to(bound) == want, bound


# --- the Slope constructor and the make_slope fast path -------------------


def _reference_slope(p, q):
    """Reduce, sign-normalize, then build through the validating
    constructor."""
    d = math.gcd(abs(p), abs(q))
    p, q = p // d, q // d
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return Slope(p, q)


def _reference_twist(along, s, direction, scale):
    d = scale * (s.p * along.q - s.q * along.p)
    return _reference_slope(s.p + direction * d * along.p, s.q + direction * d * along.q)


def _assert_same_slope(got, want):
    assert type(got) is Slope
    assert (got.p, got.q) == (want.p, want.q)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want) and str(got) == str(want)
    assert Slope(got.p, got.q) == got


@pytest.mark.parametrize("p, q", [(2, 4), (1, -2), (-1, 0), (0, 0), (0, 2), (-3, -1)])
def test_slope_constructor_validates(p, q):
    with pytest.raises(ValueError):
        Slope(p, q)


def test_slope_constructor_accepts_normalized_pairs():
    assert (Slope(1, 0).p, Slope(1, 0).q) == (1, 0)
    assert Slope(-3, 7) == make_slope(6, -14)
    assert repr(Slope(-3, 7)) == "Slope(p=-3, q=7)"
    assert str(Slope(-3, 7)) == "-3/7"


def test_slopes_are_frozen():
    # every way a slope is made: the constructor, make_slope, a twist
    # image, a slopes_up_to member, and copy, deepcopy and pickle trips
    made = [
        Slope(1, 2),
        make_slope(4, 8),
        twist(SPHERE, Slope(0, 1), Slope(1, 4)),
        slopes_up_to(2)[7],
    ]
    trips = (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)))
    made += [trip(s) for s in made for trip in trips]
    for s in made:
        p, q = s.p, s.q
        assert type(s) is Slope and not hasattr(s, "__dict__")
        for field in ("p", "q", "r"):
            with pytest.raises(AttributeError):
                setattr(s, field, 3)
            with pytest.raises(AttributeError):
                delattr(s, field)
        assert (s.p, s.q) == (p, q)
        assert s == Slope(p, q)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(s, protocol) == pickle.dumps(Slope(p, q), protocol)
    assert [(s.p, s.q) for s in made[:4]] == [(1, 2), (1, 2), (1, 6), (2, 1)]


def test_slopes_sort_as_their_pairs():
    rng = random.Random(7)
    slopes = slopes_up_to(6) + [make_slope(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(200)]
    rng.shuffle(slopes)
    assert [(s.p, s.q) for s in sorted(slopes)] == sorted((s.p, s.q) for s in slopes)


_COORDS = st.one_of(
    st.just(0), st.integers(-12, 12), st.integers(-(10**12), 10**12)
)


@settings(max_examples=500, deadline=None)
@given(_COORDS, _COORDS, st.integers(1, 10**6))
def test_make_slope_matches_the_reference(p, q, k):
    for x, y in ((p, q), (k * p, k * q), (-k * p, k * q), (k * q, -k * p)):
        if (x, y) == (0, 0):
            with pytest.raises(ZeroSlope):
                make_slope(x, y)
            continue
        _assert_same_slope(make_slope(x, y), _reference_slope(x, y))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from("TtS"), max_size=12),
    st.lists(st.sampled_from("TtS"), max_size=12),
    st.sampled_from((1, -1)),
)
# Along 0/1, the first twist's raw image needs the sign step: 1/0 goes to
# (1, -1) and -3/1 to (-3, -2); -1/1 goes to (-1, 0).  1/1 goes to (1, 0),
# which must stay.  A raw (-1, 0) never arises at direction -1.
@example(["S"], [], -1)
@example(["S"], ["S"], 1)
@example(["S"], ["t", "S"], 1)
@example(["S"], ["T", "S"], -1)
def test_twist_powers_match_the_reference(moves_a, moves_b, direction):
    a, b = _word_columns(moves_a)
    c, _ = _word_columns(moves_b)
    along = _reference_slope(*a)
    for w, scale in ((TORUS, 1), (SPHERE, 2)):
        for start in (b, c, (c[0] + 3 * b[0], c[1] + 3 * b[1])):
            got = want = _reference_slope(*start)
            for _ in range(5):
                got = twist(w, along, got, direction)
                want = _reference_twist(along, want, direction, scale)
                _assert_same_slope(got, want)


# --- window intersection against the geometric oracle ---------------------


def test_window_intersection_matches_lattice_crossings():
    slopes = slopes_up_to(5)
    for a in slopes:
        for b in slopes:
            crossings = torus_crossings(a, b)
            assert window_intersection(TORUS, a, b) == crossings, (a, b)
            assert window_intersection(SPHERE, a, b) == 2 * crossings, (a, b)


def test_window_intersection_examples():
    assert window_intersection(TORUS, make_slope(0, 1), make_slope(1, 0)) == 1
    assert window_intersection(SPHERE, make_slope(0, 1), make_slope(1, 0)) == 2
    assert window_intersection(TORUS, make_slope(2, 5), make_slope(0, 1)) == 2
    assert window_intersection(TORUS, make_slope(1, 2), make_slope(1, 2)) == 0


# --- twists ----------------------------------------------------------------


def test_twist_pinned_direction():
    assert twist(TORUS, make_slope(0, 1), make_slope(1, 0)) == make_slope(1, 1)


def test_twist_preserves_crossings_with_the_axis():
    slopes = slopes_up_to(6)
    for along in slopes:
        for s in slopes:
            t = twist(TORUS, along, s)
            assert window_intersection(TORUS, t, along) == window_intersection(
                TORUS, s, along
            )


def test_twist_inverse():
    slopes = slopes_up_to(6)
    for along in slopes:
        for s in slopes:
            forward = twist(TORUS, along, s, 1)
            assert twist(TORUS, along, forward, -1) == s


_SMALL_SLOPES = (
    st.tuples(st.integers(-20, 20), st.integers(-20, 20))
    .filter(lambda pair: pair != (0, 0))
    .map(lambda pair: make_slope(*pair))
)


def _twist_power(w, along, s, k):
    for _ in range(abs(k)):
        s = twist(w, along, s, 1 if k > 0 else -1)
    return s


# Farb-Margalit, Prop. 3.2: i(T_a^k(b), b) = |k| i(a, b)^2.  On the sphere,
# 0/1 against 1/0 gives 4, 8, 12 for k = 1, 2, 3; a half-twist gives 2, 4, 6.
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("torus", "sphere")), _SMALL_SLOPES, _SMALL_SLOPES, st.integers(-4, 4))
@example("sphere", Slope(0, 1), Slope(1, 0), 1)
@example("sphere", Slope(0, 1), Slope(1, 0), 3)
def test_twist_power_meets_its_curve_k_times_the_square(kind, a, b, k):
    w = abstract_window(kind)
    t = _twist_power(w, a, b, k)
    assert window_intersection(w, t, b) == abs(k) * window_intersection(w, a, b) ** 2


# Farb-Margalit, Prop. 3.4: |i(T_a^k(b), c) - |k| i(a, b) i(a, c)| <= i(b, c).
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(("torus", "sphere")),
    _SMALL_SLOPES,
    _SMALL_SLOPES,
    _SMALL_SLOPES,
    st.integers(-4, 4),
)
@example("sphere", Slope(0, 1), Slope(1, 0), Slope(1, 0), 1)
def test_twist_power_obeys_the_crossing_bound(kind, a, b, c, k):
    w = abstract_window(kind)
    t = _twist_power(w, a, b, k)
    i = lambda x, y: window_intersection(w, x, y)
    assert abs(i(t, c) - abs(k) * i(a, b) * i(a, c)) <= i(b, c)


def test_twist_rejects_other_directions():
    # a float would give a slope like Slope(p=1.0, q=1.0), whose text
    # 1.0/1.0 parse_slope refuses
    for direction in (2, 0, 1.0, -1.0, 0.5, True):
        for w in (TORUS, SPHERE):
            with pytest.raises(ValueError, match="direction must be"):
                twist(w, make_slope(0, 1), make_slope(1, 0), direction)


# --- triples ----------------------------------------------------------------


def _exhaustive_completions(a, b, bound):
    """All unordered pairs of slopes up to ``bound`` forming a triple with
    ``a`` and splitting the crossings of ``b`` additively."""
    found = set()
    slopes = slopes_up_to(bound)
    total = window_intersection(TORUS, a, b)
    for i, g in enumerate(slopes):
        for g2 in slopes[i + 1 :]:
            if not is_triple(TORUS, a, g, g2):
                continue
            if (
                window_intersection(TORUS, g, b) + window_intersection(TORUS, g2, b)
                == total
            ):
                found.add(frozenset((g, g2)))
    return found


def test_triple_completion_pinned_examples():
    a = make_slope(0, 1)
    g, g2 = triple_completion(TORUS, a, make_slope(2, 5))
    assert {g, g2} == {make_slope(1, 2), make_slope(1, 3)}
    g, g2 = triple_completion(TORUS, a, make_slope(5, 7))
    assert {g, g2} == {make_slope(1, 1), make_slope(1, 2)}


def test_triple_completion_agrees_with_exhaustive_search():
    a = make_slope(0, 1)
    for b in (make_slope(2, 5), make_slope(5, 7), make_slope(-3, 4), make_slope(7, 2)):
        g, g2 = triple_completion(TORUS, a, b)
        assert frozenset((g, g2)) in _exhaustive_completions(a, b, 8)


def test_triple_completion_properties_at_scale():
    a = make_slope(0, 1)
    for b in slopes_up_to(12):
        if window_intersection(TORUS, a, b) < 2:
            continue
        g, g2 = triple_completion(TORUS, a, b)
        assert is_triple(TORUS, a, g, g2)
        assert window_intersection(TORUS, g, b) + window_intersection(
            TORUS, g2, b
        ) == window_intersection(TORUS, a, b)


def test_triple_completion_with_general_axis():
    # the axis does not need to be 0/1
    a = make_slope(1, 1)
    b = make_slope(-2, 3)
    assert window_intersection(TORUS, a, b) == 5
    g, g2 = triple_completion(TORUS, a, b)
    assert is_triple(TORUS, a, g, g2)
    assert window_intersection(TORUS, g, b) + window_intersection(
        TORUS, g2, b
    ) == 5


def _reference_triple_completion(a, b):
    """triple_completion's arithmetic with its Bezout pair u*a.p + v*a.q = 1
    found by the extended Euclidean algorithm."""
    old_r, r = a.p, a.q
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_u, u = u, old_u - k * u
        old_v, v = v, old_v - k * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    u, v = old_u, old_v
    s, _ = divmod(u * b.p + v * b.q, a.q * b.p - a.p * b.q)
    return (
        make_slope(v + a.p * s, -u + a.q * s),
        make_slope(v + a.p * (s + 1), -u + a.q * (s + 1)),
    )


_WIDE_SLOPES = (
    st.tuples(_COORDS, _COORDS)
    .filter(lambda pair: pair != (0, 0))
    .map(lambda pair: make_slope(*pair))
)


@settings(max_examples=500, deadline=None)
@given(_WIDE_SLOPES, _WIDE_SLOPES)
@example(Slope(1, 0), Slope(2, 5))
@example(Slope(3, 1), Slope(2, 5))
@example(Slope(-4, 1), Slope(7, 3))
def test_triple_completion_matches_the_euclid_reference(a, b):
    # any Bezout pair for a gives the same completion
    assume(window_intersection(TORUS, a, b) >= 2)
    assert triple_completion(TORUS, a, b) == _reference_triple_completion(a, b)


def test_triple_completion_needs_two_crossings():
    with pytest.raises(IntersectionTooSmall):
        triple_completion(TORUS, make_slope(0, 1), make_slope(1, 2))
    with pytest.raises(IntersectionTooSmall):
        triple_completion(TORUS, make_slope(0, 1), make_slope(0, 1))


def test_triples_require_torus_window():
    with pytest.raises(NotTorusWindow):
        triple_completion(SPHERE, make_slope(0, 1), make_slope(2, 5))
    with pytest.raises(NotTorusWindow):
        is_triple(SPHERE, make_slope(0, 1), make_slope(1, 0), make_slope(1, 1))


def test_is_triple():
    a, b, c = make_slope(0, 1), make_slope(1, 0), make_slope(1, 1)
    assert is_triple(TORUS, a, b, c)
    assert not is_triple(TORUS, a, b, b)
    assert not is_triple(TORUS, a, b, make_slope(1, 2))  # i(a, 1/2) = 2


# --- two-crossing neighbors -------------------------------------------------


def test_sch04_pinned_examples():
    sols = sch04_common_neighbors(SPHERE, make_slope(0, 1), make_slope(1, 0))
    assert sols == {make_slope(1, 1), make_slope(-1, 1)}
    sols = sch04_common_neighbors(SPHERE, make_slope(0, 1), make_slope(1, 1))
    assert sols == {make_slope(1, 0), make_slope(1, 2)}
    sols = sch04_common_neighbors(SPHERE, make_slope(100, 1), make_slope(101, 1))
    assert sols == {make_slope(1, 0), make_slope(201, 2)}


def _word_columns(moves):
    """The integer columns of an SL(2, Z) word in T, T^-1 and S."""
    a, b = (1, 0), (0, 1)
    for m in moves:
        if m == "T":
            b = (b[0] + a[0], b[1] + a[1])
        elif m == "t":
            b = (b[0] - a[0], b[1] - a[1])
        else:
            a, b = b, (-a[0], -a[1])
    return a, b


def _unimodular_pair(moves):
    """Slopes from the columns of an SL(2, Z) word in T, T^-1 and S."""
    a, b = _word_columns(moves)
    return make_slope(*a), make_slope(*b)


def _box_common_neighbors(a, b, bound):
    """Every slope with |p|, |q| <= bound meeting both ``a`` and ``b`` in
    a unit determinant, found by exhaustive search of that box: the row
    search of ``verify._unit_neighbors`` for ``a``, kept where it meets
    ``b``."""
    return _meeting(_unit_neighbors(a, bound), b)


@given(st.lists(st.sampled_from("TtS"), max_size=12))
@settings(max_examples=200, deadline=None)
def test_sch04_matches_box_search_on_random_unimodular_pairs(moves):
    a, b = _unimodular_pair(moves)
    assert window_intersection(SPHERE, a, b) == 2
    sols = sch04_common_neighbors(SPHERE, a, b)
    safe = max(abs(a.p) + abs(b.p), a.q + b.q)
    for bound in range(safe, safe + 41):
        assert sols == _box_common_neighbors(a, b, bound)


def test_unit_neighbors_match_the_all_pairs_filter():
    for bound in range(1, 21):
        slopes = slopes_up_to(bound)
        for a in slopes:
            want = [b for b in slopes if window_intersection(SPHERE, a, b) == 2]
            assert _unit_neighbors(a, bound) == want, (a, bound)


def test_sch04_pairs_match_the_all_pairs_filter():
    for coord_bound in range(1, 21):
        slopes = slopes_up_to(coord_bound)
        want = [
            (a, b)
            for i, a in enumerate(slopes)
            for b in slopes[i + 1 :]
            if window_intersection(SPHERE, a, b) == 2
        ]
        got = []
        for a, b, row in _unit_pairs(coord_bound, 100):
            assert row == _unit_neighbors(a, 100)
            got.append((a, b))
        assert got == want, coord_bound


def test_unit_pairs_stay_fast_at_scale():
    # filtering all pairs of slopes_up_to(60) takes about 10^7 determinants
    start = time.perf_counter()
    pairs = [(a, b) for a, b, _ in _unit_pairs(60, 60)]
    elapsed = time.perf_counter() - start
    assert all(window_intersection(SPHERE, a, b) == 2 for a, b in pairs)
    assert len(set(pairs)) == len(pairs) > 0
    assert elapsed < 2.0, elapsed


def test_sch04_requires_two_crossings():
    # the pair 0/1, 2/1 meets four times in a sphere window
    with pytest.raises(WrongIntersection):
        sch04_common_neighbors(SPHERE, make_slope(0, 1), make_slope(2, 1))


def test_sch04_requires_sphere_window():
    with pytest.raises(ValueError):
        sch04_common_neighbors(TORUS, make_slope(0, 1), make_slope(1, 0))


# --- coordinate vectors -----------------------------------------------------


def test_dt_vector_on_a_surface_window():
    g = build_truncation("loch_ness", 4)
    coords = [parse_ref("pants:c2"), parse_ref("win:c2:1/0")]
    vec = dt_vector(g, parse_ref("win:c2:1/1"), coords)
    assert vec == (("pants:c2", 2), ("win:c2:1/0", 2))


def test_dt_uniqueness_small_bounds():
    # at bound 1 the four slopes 0/1, 1/0, 1/1, -1/1 have distinct vectors
    assert dt_uniqueness_check(TORUS, 1) is None
    assert dt_uniqueness_check(SPHERE, 1) is None
    assert dt_uniqueness_check(TORUS, 12) is None
    assert dt_uniqueness_check(SPHERE, 12) is None


# --- references -------------------------------------------------------------


def test_parse_and_format_roundtrip():
    for text in (
        "pants:c2",
        "win:c2:3/2",
        "win:h0:-1/2",
        "win:h0:1/0",
        "chain:h0:h1:c1,t1",
        "chain:h0:h0x:",
    ):
        ref = parse_ref(text)
        assert parse_ref(format_ref(ref)) == ref


# the curve ids a surface document may hold (surface_from_json refuses the rest)
_IDS = st.text(st.characters(blacklist_characters=":,"), min_size=1, max_size=6)
_REF_SLOPES = st.one_of(
    st.just(Slope(1, 0)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50))
    .filter(lambda t: t != (0, 0))
    .map(lambda t: make_slope(*t))
    .filter(lambda s: s != Slope(0, 1)),
)
_REFS = st.one_of(
    st.builds(PantsCurve, _IDS),
    st.builds(WindowCurve, _IDS, _REF_SLOPES),
    st.builds(DualChain, _IDS, _IDS, st.tuples() | st.lists(_IDS, max_size=4).map(tuple)),
)


@given(_REFS)
@example(WindowCurve("h0", Slope(1, 0)))
@example(WindowCurve("c2", Slope(-3, 2)))
@example(DualChain("h1", "h0", ()))
@example(DualChain("h1", "h0", ("t1", "c1")))
def test_format_ref_round_trips(ref):
    text = format_ref(ref)
    assert parse_ref(text) == ref
    if isinstance(ref, WindowCurve):
        assert text == f"win:{ref.center}:{ref.slope}"


@pytest.mark.parametrize("model", list(InfiniteModel))
def test_parse_refs_reads_back_a_joined_inventory(model):
    for depth in range(1, 5):
        inventory = curve_inventory(build_truncation(model, depth), 3)
        assert parse_refs(",".join(map(format_ref, inventory))) == inventory
    # the deepest inventories hold chains whose interiors contain commas
    assert any(isinstance(ref, DualChain) and len(ref.interior) > 1 for ref in inventory)


def test_format_ref_rejects_other_objects():
    for other in (object(), Slope(1, 0), "pants:c1"):
        with pytest.raises(TypeError) as exc:
            format_ref(other)
        assert str(exc.value) == f"not a curve reference: {other!r}"


def test_parse_rejects_malformed_references():
    for text in ("", "pants:", "win:c2", "win:c2:1", "win:c2:a/b", "bogus:x", "chain:h0"):
        with pytest.raises(FormatError):
            parse_ref(text)


def test_parse_rejects_center_slope():
    with pytest.raises(FormatError):
        parse_ref("win:c2:0/1")


def test_chain_reference_normalizes_orientation():
    assert DualChain("h1", "h0", ("t1", "c1")) == DualChain("h0", "h1", ("c1", "t1"))
    assert format_ref(DualChain("h1", "h0", ("t1", "c1"))) == "chain:h0:h1:c1,t1"


def _written_text(ref):
    """The text of a window curve or dual chain as the f-strings of
    format_ref write it, with no kept text to read."""
    if isinstance(ref, WindowCurve):
        return f"win:{ref.center}:{ref.slope.p}/{ref.slope.q}"
    return f"chain:{ref.handle_a}:{ref.handle_b}:{','.join(ref.interior)}"


# window curves over make_slope pairs (negative p and 1/0 among them), and
# chains with random interiors whose endpoints come in either order
_KEPT_REFS = st.one_of(
    st.builds(WindowCurve, _IDS, _REF_SLOPES),
    st.builds(DualChain, _IDS, _IDS, st.lists(_IDS, max_size=4).map(tuple)),
)


@given(_KEPT_REFS, _KEPT_REFS)
@example(WindowCurve("h0", Slope(1, 0)), WindowCurve("c2", Slope(-3, 2)))
@example(DualChain("h1", "h0", ("t1", "c1")), DualChain("h0", "h1", ()))
def test_format_ref_keeps_the_text_on_the_reference(ref, other):
    want = _written_text(ref)
    for _ in range(2):
        assert format_ref(ref) == want
        assert format_ref(other) == _written_text(other)
    assert parse_ref(want) == ref
    for copied in (copy.copy(ref), copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))):
        assert copied == ref
        assert format_ref(copied) == want
    assert format_ref(ref._replace()) == want
    moved = ref._replace(**{ref._fields[0]: ref[0] + "x"})
    assert format_ref(moved) == _written_text(moved)


@given(_KEPT_REFS)
def test_the_kept_text_is_no_part_of_the_value(ref):
    fresh = type(ref)(*ref)
    format_ref(ref)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(ref, protocol) == pickle.dumps(fresh, protocol)
    assert (ref, hash(ref), repr(ref), ref._asdict()) == (
        fresh, hash(fresh), repr(fresh), fresh._asdict()
    )


def test_pants_curves_keep_no_text():
    ref = PantsCurve("h0")
    assert format_ref(ref) == "pants:h0"
    assert not hasattr(ref, "__dict__")


def test_resolve_ref_checks_the_surface():
    g = build_truncation("loch_ness", 4)
    assert resolve_ref(g, parse_ref("pants:c2")).id == "c2"
    assert resolve_ref(g, parse_ref("win:c2:1/1")).center == "c2"
    resolve_ref(g, parse_ref("chain:h0:h1:c1,t1"))
    for bad in (
        "pants:zz",          # no such curve
        "pants:c4",          # frontier curves are not referencable
        "win:zz:1/1",
        "win:c1:1/1",        # support pants hp0 is self-glued
        "win:t1:1/1",        # support pants hp1 is self-glued
        "chain:h0:c1:t1",    # endpoint is not a handle
        "chain:h0:h2:c1",    # c1 and h2 share no pants
        "chain:h0:h1:c1,c1,t1",  # repeated curve
    ):
        with pytest.raises(UnknownCurve):
            resolve_ref(g, parse_ref(bad))


class _PantsSub(PantsCurve):
    __slots__ = ()


class _WindowSub(WindowCurve):
    pass


class _ChainSub(DualChain):
    pass


_SUBCLASSES = {PantsCurve: _PantsSub, WindowCurve: _WindowSub, DualChain: _ChainSub}


def test_only_the_exact_reference_classes_are_references():
    # a subclass instance, or a plain tuple, equals a reference and hashes
    # alike, so it is refused also once the equal reference is checked
    g = build_truncation("loch_ness", 4)
    exact = [parse_ref(t) for t in ("pants:h0", "win:h0:1/1", "chain:h0:h1:c1,t1")]
    other = parse_ref("pants:c2")
    for warm in (False, True):
        if warm:
            local_graph(g, exact + [other], "c")
        for ref in exact:
            for foreign in (_SUBCLASSES[type(ref)](*ref), tuple(ref)):
                assert foreign == ref and hash(foreign) == hash(ref)
                refused = pytest.raises(
                    UnknownCurve, match=re.escape(f"unsupported reference {foreign!r}")
                )
                with refused:
                    resolve_ref(g, foreign)
                with refused:
                    global_intersection(g, foreign, other)
                with refused:
                    global_intersection(g, other, foreign)
                with refused:
                    local_graph(g, [other, foreign], "c")
                with pytest.raises(TypeError, match="not a curve reference"):
                    format_ref(foreign)
                assert foreign not in g.ref_table or type(g.ref_table[foreign].ref) is type(ref)


def test_window_around_torus_and_sphere():
    g = build_truncation("loch_ness", 4)
    w = window_around(g, "h0")
    assert w.kind == "torus" and w.scale == 1
    w = window_around(g, "c2")
    assert w.kind == "sphere" and w.scale == 2
    assert len(w.cuff_slots) == 4


def test_window_around_rejects_double_gluings():
    g = build_finite_surface(1, 2)  # curves a, b join the same two pants
    with pytest.raises(UnknownCurve):
        window_around(g, "a")


# --- the global intersection table ------------------------------------------


def test_global_intersection_table():
    g = build_truncation("loch_ness", 5)
    i = lambda x, y: global_intersection(g, parse_ref(x), parse_ref(y))
    # decomposition curves are pairwise disjoint
    assert i("pants:c1", "pants:c2") == 0
    assert i("pants:h0", "pants:h0") == 0
    # window curves against the center and against everything else
    assert i("pants:c2", "win:c2:3/2") == 6
    assert i("pants:h0", "win:h0:3/2") == 3
    assert i("pants:c1", "win:c2:3/2") == 0
    # window curves in one window use slope arithmetic
    assert i("win:c2:1/0", "win:c2:1/1") == 2
    assert i("win:h0:1/0", "win:h0:1/1") == 1
    assert i("win:c2:1/1", "win:c2:1/1") == 0
    # windows with disjoint supports do not meet
    assert i("win:c2:1/0", "win:h0:1/1") == 0
    assert i("win:c2:1/0", "win:c4:1/1") == 0
    # chains cross their endpoints once and interior curves twice
    assert i("chain:h0:h1:c1,t1", "pants:h0") == 1
    assert i("chain:h0:h1:c1,t1", "pants:c1") == 2
    assert i("chain:h0:h1:c1,t1", "pants:c3") == 0
    # a chain against itself or anything it avoids
    assert i("chain:h0:h1:c1,t1", "chain:h0:h1:c1,t1") == 0
    assert i("chain:h0:h1:c1,t1", "win:h3:1/1") == 0
    assert i("chain:h0:h1:c1,t1", "win:c4:2/1") == 0


def test_global_intersection_undefined_pairs():
    g = build_truncation("loch_ness", 5)
    i = lambda x, y: global_intersection(g, parse_ref(x), parse_ref(y))
    # windows overlapping on one pants only
    assert i("win:c2:1/0", "win:c3:1/1") is None
    # a chain through a window's support
    assert i("chain:h0:h1:c1,t1", "win:c2:1/1") is None
    # two different chains sharing support
    assert i("chain:h0:h1:c1,t1", "chain:h0:h2:c1,c2,t2") is None


def test_global_intersection_rejects_unknown_refs():
    g = build_truncation("loch_ness", 4)
    with pytest.raises(UnknownCurve):
        global_intersection(g, parse_ref("pants:zz"), parse_ref("pants:c1"))
    with pytest.raises(UnknownCurve):
        global_intersection(g, parse_ref("win:c1:1/1"), parse_ref("pants:c1"))


# --- separating window curves ------------------------------------------------


def test_torus_window_curves_never_separate():
    g = build_truncation("loch_ness", 4)
    w = window_around(g, "h0")
    for s in slopes_up_to(3):
        assert not window_curve_separates(g, w, s)


def test_sphere_window_curves_in_a_tree_always_separate():
    # every exterior piece of this window hangs off its own cuff
    g = build_truncation("loch_ness", 4)
    w = window_around(g, "c2")
    for s in slopes_up_to(3):
        assert window_curve_separates(g, w, s)


RING = GluingGraph(
    pants=("A", "B", "C"),
    curves=(
        Curve("x", (PantsSlot("A", 0), PantsSlot("B", 0))),
        Curve("u", (PantsSlot("A", 1), PantsSlot("C", 0))),
        Curve("v", (PantsSlot("B", 1), PantsSlot("C", 1))),
    ),
    boundary=(PantsSlot("A", 2), PantsSlot("B", 2), PantsSlot("C", 2)),
)


def test_sphere_window_curves_around_a_handle():
    # A-B-C form a ring, so the window at x has two cuffs leading to the
    # same exterior piece; curves pairing them across do not separate
    assert validate(RING) == ()
    w = window_around(RING, "x")
    assert not window_curve_separates(RING, w, make_slope(0, 1))
    assert window_curve_separates(RING, w, make_slope(1, 0))
    assert not window_curve_separates(RING, w, make_slope(1, 1))
    # parity is all that matters
    assert not window_curve_separates(RING, w, make_slope(3, 5))
    assert window_curve_separates(RING, w, make_slope(3, 2))


def test_window_curve_separates_refuses_a_window_of_no_graph():
    g = build_truncation("loch_ness", 4)
    for kind in ("sphere", "torus"):
        with pytest.raises(UnknownCurve, match="no curve 'window'"):
            window_curve_separates(g, abstract_window(kind), make_slope(1, 1))


def test_window_curve_separates_refuses_a_window_of_another_graph():
    small = build_truncation("loch_ness", 4)
    big = build_truncation("loch_ness", 8)
    # Loch Ness 4 has no c6 at all, and c4 only as a frontier curve
    for center in ("c6", "c4"):
        with pytest.raises(UnknownCurve, match=f"'{center}'"):
            window_curve_separates(small, window_around(big, center), make_slope(1, 1))
    # a center both graphs have, spanning another window in each
    turned = GluingGraph(
        RING.pants,
        [
            Curve("x", (PantsSlot("A", 1), PantsSlot("B", 0))),
            Curve("u", (PantsSlot("A", 0), PantsSlot("C", 0))),
            Curve("v", (PantsSlot("B", 1), PantsSlot("C", 1))),
        ],
        RING.boundary,
    )
    assert validate(turned) == ()
    for w, g in ((window_around(RING, "x"), turned), (window_around(turned, "x"), RING)):
        with pytest.raises(UnknownCurve, match="window at 'x' does not belong to this graph"):
            window_curve_separates(g, w, make_slope(1, 0))
    # a one-holed torus whose handle h1 keeps its cuff on slot 2, not 0
    torus = GluingGraph(
        ["hp1"], [Curve("h1", (PantsSlot("hp1", 0), PantsSlot("hp1", 1)))], [PantsSlot("hp1", 2)]
    )
    with pytest.raises(UnknownCurve, match="torus window at 'h1' does not belong"):
        window_curve_separates(torus, window_around(small, "h1"), make_slope(1, 0))
    # the same window built again, of an equal graph, is this graph's own
    again = build_truncation("loch_ness", 4)
    for center in ("c2", "h1"):
        w = window_around(again, center)
        assert window_curve_separates(small, w, make_slope(1, 1)) == (center == "c2")
