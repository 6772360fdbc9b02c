from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kbound.exact import FrameRangeError, OutOfDomainError
from kbound.scroll import (
    CANONICAL,
    DivisorClass,
    HYPERPLANE,
    RULING,
    ScrollFrame,
    class_from_frame,
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
    phi_derivative_discriminant,
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
    assert class_from_frame(ScrollFrame.for_degree(18, 3)) == DivisorClass(9, -9)
    # a = -m at d = 18: alpha = 1, beta = eps + 1 - 3(a+1) = 3 + 12 = 15
    c = class_from_frame(ScrollFrame.for_degree(18, -5))
    assert c == DivisorClass(1, 15)
    assert c.degree() == 18
    assert class_from_frame(ScrollFrame.for_degree(4, -1)) == DivisorClass(1, 1)


def test_frame_round_trip():
    for d in range(4, 200):
        m, eps = divmod(d - 1, 3)
        for a in range(-m, (m + eps - 1) // 2 + 1):
            f = ScrollFrame.for_degree(d, a)
            c = class_from_frame(f)
            assert c.degree() == d
            back = frame_from_class(c, d)
            assert back.a == a and back.m == m and back.eps == eps


def test_frame_errors():
    with pytest.raises(FrameRangeError):
        frame_from_class(DivisorClass(9, -9), 17)  # degree mismatch
    with pytest.raises(FrameRangeError):
        ScrollFrame.for_degree(18, 4)  # beyond a*
    with pytest.raises(FrameRangeError):
        ScrollFrame.for_degree(18, -6)  # below -m
    with pytest.raises(OutOfDomainError):
        ScrollFrame.for_degree(3, 0)


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
            c = class_from_frame(ScrollFrame.for_degree(d, a))
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
    assert phi_derivative_discriminant(5, 2) == 8100 - 4680 + 2160 + 144 - 624 + 820 == 5920 > 0
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
        disc = phi_derivative_discriminant(m, e)
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


def test_appendix_value_table_full_range():
    for d in range(12, 2001):
        m, e = divmod(d - 1, 3)
        assert phi(d, -m) == 8
        assert phi(d, -m + 1) == -9 * m + 17 - 3 * e
        assert phi(d, -m + 2) == 0
        assert phi(d, 0) == (m - 2) * (3 * m * m - 7 * m + 3 * m * e - 4)
        assert phi(d, 1) == (m - 1) * (3 * m * m - 10 * m + 3 * m * e + 3 * e - 17)
        assert phi_derivative(d, 1) == 2 - 26 * m + 6 * m * e


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
    assert res.k2_min > -19 * 13 == -247
    res = minimize_k2(20)
    assert res.k2_min == -280 == -20 * 14
    f = ScrollFrame.for_degree(20, res.a_min)
    assert res.a_min == f.a_star


def test_minimize_matches_closed_form_sampled():
    for d in range(18, 600):
        res = minimize_k2(d)
        assert Fraction(res.k2_min) == k2_min_closed_form(d), d
        if d % 2 == 0:
            assert res.k2_min == -d * (d - 6) and res.unique
        else:
            assert res.k2_min > -d * (d - 6)


def test_minimize_matches_naive_scan():
    for d in range(4, 401):
        m, e = divmod(d - 1, 3)
        values = [phi(d, a) for a in range(-m, (m + e - 1) // 2 + 1)]
        best = min(values)
        res = minimize_k2(d)
        assert res.k2_min == best, d
        assert res.a_min == -m + values.index(best), d
        assert res.unique == (values.count(best) == 1), d


def test_minimize_below_asserted_range_is_flagged():
    res = minimize_k2(12)
    assert not res.in_asserted_range


# extremal construction -----------------------------------------------------------------

def test_extremal_examples():
    ext = extremal_class(18)
    assert ext.cls == DivisorClass(9, -9) and ext.k2 == -216 and ext.genus == 28
    ext = extremal_class(8)
    assert ext.cls == DivisorClass(4, -4) and ext.k2 == -16 and ext.genus == 3
    ext = extremal_class(36)
    assert ext.cls == DivisorClass(18, -18) and ext.k2 == -1080 and ext.genus == 136


def test_extremal_rejects_odd_degree():
    with pytest.raises(ValueError):
        extremal_class(19)


def test_extremal_class_is_frame_endpoint():
    for d in range(8, 400, 2):
        ext = extremal_class(d)
        f = frame_from_class(ext.cls, d)
        assert f.a == f.a_star and f.q_parity == 0
        assert ext.k2 == phi(d, f.a)


def test_frame_scan_degree_identity():
    for d in range(4, 150):
        rows = frame_scan(d)
        assert all(row["degree"] == d for row in rows)
        assert sum(1 for row in rows if row["extremal"]) == (1 if d % 2 == 0 else 0)
