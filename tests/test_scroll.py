from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kbound.scroll as scroll
from kbound.exact import FrameRangeError, InconsistencyError, OutOfDomainError, Poly
from kbound.scroll import (
    CANONICAL,
    DivisorClass,
    HYPERPLANE,
    KsqMinimum,
    RULING,
    ScrollFrame,
    class_from_frame,
    discriminant,
    extremal_class,
    frame_from_class,
    frame_scan,
    is_admissible,
    k2_intersection,
    k2_min_closed_form,
    minimize_k2,
    phi,
    phi_derivative,
    phi_derivative_coefficients,
    sectional_genus,
    triple_product,
)


# independent oracles: direct expansions of the intersection products -------

def k2_oracle(alpha: int, beta: int) -> int:
    return 3 * alpha * (alpha - 3) ** 2 + beta * (alpha - 3) ** 2 + 2 * alpha * (alpha - 3) * (beta + 1)


def genus_doubled_oracle(alpha: int, beta: int) -> int:
    return 3 * alpha * (alpha - 2) + (alpha - 2) * beta + (beta + 1) * alpha


# intersection ring -----------------------------------------------------------

def test_ring_constants():
    h, w = HYPERPLANE, RULING
    assert triple_product(h, h, h) == 3  # deg T
    assert triple_product(h, h, w) == 1
    assert triple_product(h, w, w) == 0
    assert triple_product(w, w, w) == 0
    assert CANONICAL == DivisorClass(-3, 1)


def test_degree_examples():
    assert DivisorClass(9, -9).degree() == 18
    assert DivisorClass(1, 1).degree() == 4
    assert DivisorClass(2, -2).degree() == 4


# admissibility ----------------------------------------------------------------

def test_admissibility_examples():
    assert not is_admissible(DivisorClass(1, 0))  # degree 3 < 4
    assert is_admissible(DivisorClass(2, -2))
    assert is_admissible(DivisorClass(9, -9))
    assert not is_admissible(DivisorClass(0, 5))
    assert not is_admissible(DivisorClass(5, -6))  # alpha + beta < 0


def test_admissibility_matches_frame_range():
    for d in range(4, 120):
        m = (d - 1) // 3
        a_star = (m + (d - 1) % 3 - 1) // 2
        for alpha in range(-2, d):
            c = DivisorClass(alpha, d - 3 * alpha)
            a = alpha - m - 1
            assert is_admissible(c) == (-m <= a <= a_star), (d, alpha)


# frames -------------------------------------------------------------------------

def test_class_from_frame_examples():
    assert class_from_frame(ScrollFrame(18, 3)) == DivisorClass(9, -9)
    # a = -m at d = 18: alpha = 1, beta = eps + 1 - 3(a+1) = 3 + 12 = 15
    c = class_from_frame(ScrollFrame(18, -5))
    assert c == DivisorClass(1, 15)
    assert c.degree() == 18
    assert class_from_frame(ScrollFrame(4, -1)) == DivisorClass(1, 1)


def test_frame_round_trip():
    for d in range(4, 200):
        m, eps = divmod(d - 1, 3)
        for a in range(-m, (m + eps - 1) // 2 + 1):
            f = ScrollFrame(d, a)
            c = class_from_frame(f)
            assert c.degree() == d
            back = frame_from_class(c, d)
            assert back.a == a and back.m == m and back.eps == eps


def test_frame_errors():
    with pytest.raises(FrameRangeError):
        frame_from_class(DivisorClass(9, -9), 17)  # degree mismatch
    with pytest.raises(FrameRangeError, match=r"a=4 outside \[-5, 3\] for d=18"):
        ScrollFrame(18, 4)  # beyond a*
    with pytest.raises(FrameRangeError):
        ScrollFrame(18, -6)  # below -m
    with pytest.raises(OutOfDomainError):
        ScrollFrame(3, 0)


def test_frame_constructor_accepts_exactly_the_admissible_range():
    for d in range(4, 201):
        m, eps = divmod(d - 1, 3)
        a_star = (m + eps - 1) // 2
        for a in range(-m - 2, a_star + 3):
            if -m <= a <= a_star:
                f = ScrollFrame(d, a)
                assert (f.m, f.eps, f.a_star) == (m, eps, a_star), (d, a)
                assert f.q_parity == d % 2, (d, a)
            else:
                with pytest.raises(FrameRangeError):
                    ScrollFrame(d, a)


def test_frame_parameters_follow_from_the_degree():
    # m and eps are derived from d, so a frame with d = 10 and m = eps = 0
    # (whose class would have degree 1) cannot be built.
    with pytest.raises(TypeError):
        ScrollFrame(10, 0, 0, 0)
    with pytest.raises(TypeError):
        ScrollFrame(d=10, m=0, eps=0, a=0)
    f = ScrollFrame(10, 0)
    assert (f.m, f.eps) == (3, 0)
    assert class_from_frame(f) == DivisorClass(4, -2) and class_from_frame(f).degree() == 10


# phi and the intersection route -------------------------------------------------

def test_phi_examples():
    assert phi(18, -5) == 8  # value at a = -m
    assert phi(18, -3) == 0  # value at a = -m + 2
    assert phi(18, 3) == -216 == -18 * (18 - 6)


def test_k2_intersection_examples():
    assert k2_intersection(DivisorClass(9, -9)) == -216 == k2_oracle(9, -9)
    assert k2_intersection(DivisorClass(1, 12)) == 8 == k2_oracle(1, 12)
    # (2,-2) is the frame (d=4, a=0); both routes must agree (value 8)
    assert k2_oracle(2, -2) == 8
    assert k2_intersection(DivisorClass(2, -2)) == phi(4, 0) == 8


def test_k2_intersection_rejects_inadmissible():
    with pytest.raises(OutOfDomainError):
        k2_intersection(DivisorClass(1, 0))


def test_phi_agrees_with_intersection_ring_up_to_500():
    for d in range(4, 501):
        m, eps = divmod(d - 1, 3)
        for a in range(-m, (m + eps - 1) // 2 + 1):
            c = class_from_frame(ScrollFrame(d, a))
            assert phi(d, a) == k2_oracle(c.alpha, c.beta), (d, a)


@given(st.integers(4, 3000), st.integers(-1000, 1000))
def test_phi_agrees_with_raw_intersection_everywhere(d, a):
    # phi and the adjunction triple product agree as polynomials in a,
    # admissible or not.
    m, eps = divmod(d - 1, 3)
    alpha = m + 1 + a
    beta = eps + 1 - 3 * (a + 1)
    assert phi(d, a) == k2_oracle(alpha, beta)


# sectional genus -----------------------------------------------------------------

def test_sectional_genus_examples():
    assert sectional_genus(DivisorClass(9, -9)) == 28
    assert genus_doubled_oracle(9, -9) == 54  # 2g - 2
    assert sectional_genus(DivisorClass(1, 1)) == 0  # quartic scroll surface
    g = sectional_genus(DivisorClass(2, -2))
    assert g == 0
    # scroll relation K^2 = 8(1-g) for this class
    assert k2_intersection(DivisorClass(2, -2)) == 8 * (1 - g)


@given(st.integers(1, 400))
def test_sectional_genus_parity(alpha):
    # the triple product 2g - 2 is even for every integer class
    for beta in range(-alpha, 2 * alpha + 5, 3):
        assert genus_doubled_oracle(alpha, beta) % 2 == 0


def test_sectional_genus_nonnegative_on_admissible_classes():
    for d in range(4, 250):
        for row in frame_scan(d):
            assert row["genus"] >= 0


# derivative, critical interval ----------------------------------------------------

def test_phi_derivative_examples():
    # phi'(-m+2) = 18m + 6e - 42 at d = 18 (m = 5, e = 2) is 60
    assert phi_derivative(18, -3) == 60 == 18 * 5 + 6 * 2 - 42
    # phi'(1) = 2 - 26m + 6me at d = 18 is -68
    assert phi_derivative(18, 1) == -68 == 2 - 26 * 5 + 6 * 5 * 2
    # the exact discriminant 324m^2 - 936m + 216me + 36e^2 - 312e + 820 of
    # phi' at d = 18 (m = 5, e = 2)
    assert discriminant(phi_derivative_coefficients(5, 2)) == 8100 - 4680 + 2160 + 144 - 624 + 820 == 5920 > 0
    # the tabulated variant 324m^2 - 936m + 216me + 110 + 114e + 36e^2 is
    # also positive here (m = 5, e = 2)
    assert 324 * 25 - 936 * 5 + 216 * 10 + 110 + 228 + 144 == 6062 > 0



def test_phi_derivative_positive_between_its_two_real_roots():
    # phi' = A a^2 + B a + C with A = -18 has the roots (B -+ sqrt(disc)) / 36;
    # bracket sqrt(disc) by isqrt and check the sign on either side
    for d in range(12, 400):
        m, e = divmod(d - 1, 3)
        C, B, A = phi_derivative_coefficients(m, e)
        assert A == -18
        disc = discriminant((C, B, A))
        assert disc > 0, d
        s = isqrt(disc)
        lo1, hi1 = Fraction(B - s - 1, 36), Fraction(B - s, 36)
        lo2, hi2 = Fraction(B + s, 36), Fraction(B + s + 1, 36)
        assert lo1 <= hi1 < lo2 <= hi2
        for a in range(-(d + 5), d + 5):
            dv = phi_derivative(d, a)
            assert dv == (A * a + B) * a + C, (d, a)
            if a < lo1 or a > hi2:
                assert dv < 0, (d, a)
            elif hi1 < a < lo2:
                assert dv > 0, (d, a)


@given(st.integers(4, 3000), st.integers(-1000, 1000))
def test_phi_derivative_is_the_derivative_of_phi(d, a):
    # for a cubic with leading coefficient -6: f(a+1) - f(a-1) = 2f'(a) - 12
    assert phi(d, a + 1) - phi(d, a - 1) == 2 * phi_derivative(d, a) - 12


def test_monotone_shape_full_range():
    for d in range(18, 2001):
        m, e = divmod(d - 1, 3)
        a_star = (m + e - 1) // 2
        for a in range(-m + 2, 0):
            assert phi_derivative(d, a) > 0, (d, a)
        for a in range(1, a_star + 3):
            assert phi_derivative(d, a) < 0, (d, a)


# minimization ------------------------------------------------------------------------

def test_minimize_examples():
    res = minimize_k2(18)
    assert (res.a_min, res.k2_min, res.unique) == (3, -216, True)
    # left-edge values are far from the minimum
    assert phi(18, -5) == 8 and phi(18, -4) == -34 and phi(18, -3) == 0
    res = minimize_k2(19)
    assert (res.a_min, res.k2_min, res.unique) == (2, -72, True)
    assert k2_min_closed_form(19) == Fraction(-19 * 19 + 2 * 19 + 35, 4) == -72
    assert scroll.ODD_MINIMUM == Poly.of(Fraction(35, 4), Fraction(1, 2), Fraction(-1, 4))
    assert res.k2_min > -19 * 13 == -247
    res = minimize_k2(20)
    assert res.k2_min == -280 == -20 * 14
    f = ScrollFrame(20, res.a_min)
    assert res.a_min == f.a_star


@pytest.mark.parametrize("lows", [(0, 19), (3, 4), (18, 19), (5,)])
def test_minimize_finds_the_least_a_of_a_repeated_minimum(monkeypatch, lows):
    # d = 40 has the frame a = -13 .. 6: a doctored K^2 below the real
    # minimum at each index in lows
    real = scroll.frame_k2
    low = min(real(40)) - 1

    def frame(d):
        values = real(d)
        for i in lows:
            values[i] = low
        return values

    monkeypatch.setattr(scroll, "frame_k2", frame)
    res = minimize_k2(40)
    assert (res.a_min, res.k2_min, res.unique) == (-13 + lows[0], low, len(lows) == 1)


def test_k2_moves_by_the_step_at_a_fixed_alpha():
    # the class alpha*H + (d - 3alpha)W against the oracle, and against phi
    # across a change of frame residue
    for alpha in range(-3, 30):
        for d in range(4, 60):
            step = k2_oracle(alpha, d + 1 - 3 * alpha) - k2_oracle(alpha, d - 3 * alpha)
            assert scroll.k2_step(alpha) == step, (alpha, d)
            m, m1 = (d - 1) // 3, d // 3
            assert phi(d + 1, alpha - m1 - 1) - phi(d, alpha - m - 1) == step, (alpha, d)


@pytest.fixture(scope="module")
def minima():
    return {d: minimize_k2(d) for d in range(4, 3001)}


@pytest.mark.parametrize("lo", [4, 5, 6, 18, 36])
def test_the_frame_walk_gives_minimize_k2s_minimum_at_every_degree(minima, lo):
    # one window to d = 3000 packs every class alpha = 1 .. 1500 at lo, each
    # not yet admissible one walked by the same step, in 40-bit lanes throughout
    for d, (res, frame, w, residue) in zip(range(lo, 3001), scroll.frame_walk(lo, 3000)):
        if d <= 100:
            assert scroll.unpack_frame(frame, w, 1500) == scroll.frame_k2(d, 1500), d
        assert res == minima[d] and w == 40, d


def test_the_running_residue_is_the_frames_at_every_degree():
    # the lanes' sum is read mod 2^w - 1 off a residue that each degree's
    # addition moves, never off the frame
    for res, frame, w, residue in scroll.frame_walk(36, 3000):
        assert residue == frame % ((1 << w) - 1), res.d


@pytest.mark.parametrize("lo, w", [(40, 16), (59, 24), (341, 32), (2136, 40), (13531, 48), (90000, 56)])
def test_a_window_in_each_lane_width_gives_minimize_k2s_minimum(lo, w):
    # the width is chosen once, from K^2 at the window's ends
    walk = list(scroll.frame_walk(lo, lo + 8))
    assert [width for *_, width, _ in walk] == [w] * 9
    assert [res for res, *_ in walk] == [minimize_k2(d) for d in range(lo, lo + 9)]


def test_a_window_with_a_lane_at_the_edge_of_its_bias():
    # [9, 11] packs alpha = 1 .. 5, and the class 5H - 6W, admissible from
    # d = 10 on, has K^2 = -64 = -2^(8 - 2) at d = 9: the least an 8-bit lane holds
    assert scroll.frame_k2(9, 5)[-1] == -64
    walk = list(scroll.frame_walk(9, 11))
    assert [w for *_, w, _ in walk] == [8] * 3
    assert scroll.unpack_frame(walk[0][1], 8, 5) == scroll.frame_k2(9, 5)
    assert [res for res, *_ in walk] == [minimize_k2(d) for d in (9, 10, 11)]


def test_a_lane_leaving_its_width_raises(monkeypatch):
    # [52, 59] needs 24-bit lanes by d = 59; packed for its first degree
    # alone, in 16-bit lanes, a lane sets its guard bit there and the walk
    # raises rather than widen
    real = scroll._packed_frame
    monkeypatch.setattr(scroll, "_packed_frame", lambda values, span: real(values, 0))
    walk = scroll.frame_walk(52, 59)
    assert [w for _, (*_, w, _) in zip(range(52, 59), walk)] == [16] * 7
    with pytest.raises(InconsistencyError, match="^frame walk leaves its 16-bit lanes at d=59$"):
        next(walk)


def test_frame_sum_is_the_sum_of_the_frame():
    # the closed form a window's lanes sum to: the classes alpha = 1 .. n of
    # degree d, admissible (n = d // 2) or not yet
    for d in range(4, 1001):
        m, eps = scroll._split3(d)
        for n in (d // 2, d // 2 + 1, d // 2 + d // 8 + 1):
            assert scroll._cubic_sum(scroll.phi_coefficients(m, eps), -m, n - 1 - m) == sum(scroll.frame_k2(d, n)), d


def wrong_step(monkeypatch, alpha):
    """The walk alone moves the class alpha by one more than k2_step."""
    real = scroll.k2_step
    monkeypatch.setattr(scroll, "k2_step", lambda a: real(a) + (a == alpha))


@pytest.mark.parametrize("d", [40, 41])
def test_a_doctored_frame_mid_walk_fails_the_next_degrees_end_check(monkeypatch, d):
    # the packed frame is an int, so the class at a* of d + 1 is doctored
    # through its step from d on: alpha = 20, at a* from d = 40 already, or
    # alpha = 21, the class 21H - 22W at d = 41, admissible from 42 on and
    # walked there; the end check reads it before the lanes' sum
    wrong_step(monkeypatch, (d + 1) // 2)
    walk = scroll.frame_walk(d, 60)
    res, frame, w, residue = next(walk)
    assert scroll.unpack_frame(frame, w, 30) == scroll.frame_k2(d, 30)
    with pytest.raises(InconsistencyError, match=f"^frame walk gives .* at d={d + 1}, direct evaluation"):
        next(walk)


def test_a_wrong_interior_step_fails_the_next_degrees_lane_sum():
    # the end check reads only the class at a*; the lanes' sum reads every
    # class, alpha = 5 admissible and alpha = 25 not until d = 50
    for alpha in (5, 25):
        with pytest.MonkeyPatch.context() as monkeypatch:
            wrong_step(monkeypatch, alpha)
            walk = scroll.frame_walk(40, 60)
            res, frame, w, residue = next(walk)
            assert scroll.unpack_frame(frame, w, 30) == scroll.frame_k2(40, 30)
            with pytest.raises(InconsistencyError, match=r"^frame walk's lanes do not sum to .* at d=41$"):
                next(walk)


def seeded_walk(monkeypatch, values):
    """The one degree of the window [40, 40] whose frame_k2 gives values."""
    monkeypatch.setattr(scroll, "frame_k2", lambda d, n: list(values))
    return next(scroll.frame_walk(40, 40))


@pytest.mark.parametrize("index", [0, 5, 18])
def test_an_interior_lane_equal_to_the_last_takes_three_passes(monkeypatch, index):
    # d = 40: a = -13 .. 6, the minimum -1360 at a* = 6 (index 19)
    values = scroll.frame_k2(40)
    values[index] = values[-1]
    res, frame, w, residue = seeded_walk(monkeypatch, values)
    assert res == KsqMinimum(40, -13 + index, -1360, False)


@pytest.mark.parametrize("index", [0, 5, 18])
def test_an_interior_lane_one_above_the_last_takes_one_pass(monkeypatch, index):
    values = scroll.frame_k2(40)
    values[index] = values[-1] + 1
    monkeypatch.setattr(scroll, "frame_minimum", None)  # the three passes are not taken
    res, frame, w, residue = seeded_walk(monkeypatch, values)
    assert res == KsqMinimum(40, 6, -1360, True)


@pytest.mark.parametrize("w", [8, 16, 24, 32, 40, 48])
def test_lanes_hold_the_edges_of_the_bias(w):
    # the classes alpha = 1 .. 6 have steps 0, -3, 0, 9, 24 and 45; the
    # lanes take the least width that holds every value, moved span steps on
    bias = 1 << w - 2
    lanes = [-bias, bias - 1, 0, -1, -bias, bias - 1]
    packed_w, frame, steps, guards, ones = scroll._packed_frame(lanes, 0)
    assert packed_w == w and scroll.unpack_frame(frame, w, 6) == lanes
    assert scroll._packed_frame([-bias - 1], 0)[0] == scroll._packed_frame([bias], 0)[0] == w + 8
    assert scroll._packed_frame(lanes, 1)[0] == w + 8  # alpha = 6 reaches bias + 44
    assert scroll._packed_frame(lanes[:5] + [bias - 46], 1)[0] == w
    assert frame & guards == 0 and frame < 1 << 6 * w and guards == ones << w - 1
    assert steps == sum(scroll.k2_step(alpha) << w * (alpha - 1) for alpha in range(1, 7))


def test_the_walk_reads_a_frame_at_the_edges_of_its_lanes(monkeypatch):
    # d = 40 packs in 16-bit lanes: K^2 lies in [-2^14, 2^14) and the
    # lanes' K^2 + 2^14 in [0, 2^15)
    values = scroll.frame_k2(40)
    values[0], values[1] = -(1 << 14), (1 << 14) - 1
    res, frame, w, residue = seeded_walk(monkeypatch, values)
    assert w == 16 and scroll.unpack_frame(frame, w, 20) == values
    assert res == KsqMinimum(40, -13, -(1 << 14), True)


def test_minimize_below_asserted_range_is_flagged():
    res = minimize_k2(12)
    assert not res.in_asserted_range
    assert not minimize_k2(17).in_asserted_range
    assert minimize_k2(18).in_asserted_range and minimize_k2(19).in_asserted_range
    assert minimize_k2(18).to_json_dict()["in_asserted_range"] is True


# extremal construction -----------------------------------------------------------------

def test_extremal_examples():
    ext = extremal_class(18)
    assert ext.cls == DivisorClass(9, -9) and ext.k2 == -216 and ext.genus == 28
    ext = extremal_class(8)
    assert ext.cls == DivisorClass(4, -4) and ext.k2 == -16 and ext.genus == 3
    ext = extremal_class(36)
    assert ext.cls == DivisorClass(18, -18) and ext.k2 == -1080 and ext.genus == 136
    assert scroll.EXTREMAL_GENUS == Poly.of(1, Fraction(-3, 4), Fraction(1, 8))


def test_extremal_rejects_odd_degree():
    with pytest.raises(ValueError):
        extremal_class(19)


def test_extremal_class_is_frame_endpoint():
    for d in range(8, 400, 2):
        ext = extremal_class(d)
        f = frame_from_class(ext.cls, d)
        assert f.a == f.a_star and f.q_parity == 0
        assert ext.k2 == phi(d, f.a)


def test_extremal_class_checks_its_frame_endpoint(monkeypatch):
    # a right endpoint one past the extremal class's index
    monkeypatch.setattr(scroll, "_a_star", lambda m, eps: (m + eps - 1) // 2 + 1)
    with pytest.raises(InconsistencyError, match=r"extremal class not at a\* with q=0 at d=18"):
        extremal_class(18)


def test_frame_scan_degree_identity():
    for d in range(4, 150):
        rows = frame_scan(d)
        assert all(row["degree"] == d for row in rows)
        assert sum(1 for row in rows if row["extremal"]) == (1 if d % 2 == 0 else 0)
