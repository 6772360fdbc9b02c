from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kbound.bounds import (
    HilbertProfile,
    castelnuovo_bound,
    castelnuovo_profile,
    chi_bound_poly,
    chi_lower_bound_s4,
    double_point_2k2,
    double_point_k2,
    genus_from_profile,
    halphen_bound,
    pi1_bound,
    pi1_profile,
    pi2_bound,
    pi2_profile,
    propagate_profile,
    weighted_defect_closed_form,
    weighted_defect_direct,
)
from kbound.exact import InconsistencyError, OutOfDomainError, Poly


# independent oracles --------------------------------------------------------

def castelnuovo_defect_oracle(r: int, d: int) -> int:
    """Sum_i max(0, d - min(d, 1 + i(r-1))) without using the profile class."""
    total, i = 0, 1
    while d - 1 - i * (r - 1) > 0:
        total += d - 1 - i * (r - 1)
        i += 1
    return total


def pi2_defect_oracle(d: int) -> int:
    n, v = divmod(d - 1, 5)
    w = max(0, v // 2)
    return sum(d - (5 * i - 1) for i in range(1, n + 1)) + w


def pi1_defect_oracle(d: int) -> int:
    p, q = divmod(d - 1, 4)
    total = sum(d - 4 * i for i in range(1, p + 1))
    if q == 3:
        total += 1  # k(p+1) = d - 1
    return total


# castelnuovo ----------------------------------------------------------------

def test_castelnuovo_examples():
    assert castelnuovo_bound(3, 6).bound_int == 4 == castelnuovo_defect_oracle(3, 6)
    assert castelnuovo_bound(5, 18).bound_int == 28 == castelnuovo_defect_oracle(5, 18)
    assert castelnuovo_bound(5, 21).bound_int == 40 == castelnuovo_defect_oracle(5, 21)
    # the degree-18 value is also d^2/8 - 3d/4 + 1
    assert castelnuovo_bound(5, 18).bound == Fraction(18 * 18, 8) - Fraction(54, 4) + 1


def test_castelnuovo_profile_values():
    assert castelnuovo_profile(5, 18).values_upto(6) == [5, 9, 13, 17, 18, 18]
    assert castelnuovo_profile(3, 6).values_upto(4) == [3, 5, 6, 6]
    assert castelnuovo_profile(5, 21).values_upto(5) == [5, 9, 13, 17, 21]


def test_castelnuovo_domain():
    with pytest.raises(OutOfDomainError):
        castelnuovo_bound(5, 4)
    with pytest.raises(ValueError):
        castelnuovo_bound(2, 10)


def test_castelnuovo_closed_form_equals_profile_sum_everywhere():
    for r in range(3, 13):
        for d in range(r, 2001):
            assert (
                castelnuovo_bound(r, d).bound_int
                == genus_from_profile(castelnuovo_profile(r, d))
            ), (r, d)


@given(st.integers(3, 12), st.integers(0, 500))
def test_castelnuovo_monotone_in_d(r, offset):
    d = r + offset
    assert castelnuovo_bound(r, d + 1).bound >= castelnuovo_bound(r, d).bound


# halphen ---------------------------------------------------------------------

def test_halphen_examples():
    # (2,5) complete intersection: g = (1/2)*2*5*(2+5-4) + 1 = 16
    assert halphen_bound(10, 2).bound_int == 16
    r = halphen_bound(36, 5)
    assert r.bound_int == 147
    # cross-check of the degree-36 reduction: 22(147-1) < 3*36^2 - 17*36
    assert 22 * (147 - 1) < 3 * 36**2 - 17 * 36
    # exact closed form at (13, 3): 169/6 - 13/2 + 1 - 4/6 = 22, an integer
    r = halphen_bound(13, 3)
    assert r.bound == Fraction(22)
    assert r.is_integer


def test_halphen_complete_intersection_family():
    # curves cut by surfaces of degrees s and k (k >= s) attain the bound:
    # d = sk, eps = s - 1 kills the correction, g = sk(s + k - 4)/2 + 1.
    for s in range(2, 7):
        for k in range(s, 13):
            d = s * k
            if d <= s * s - s:
                continue
            expected = s * k * (s + k - 4) // 2 + 1
            assert halphen_bound(d, s).bound_int == expected, (s, k)


def test_halphen_domain():
    with pytest.raises(OutOfDomainError):
        halphen_bound(20, 5)  # needs d > 20
    with pytest.raises(OutOfDomainError):
        halphen_bound(6, 3)
    with pytest.raises(ValueError):
        halphen_bound(10, 1)


def test_halphen_monotone_in_d():
    for s in (2, 3, 4, 5):
        lo = s * s - s + 1
        values = [halphen_bound(d, s).bound for d in range(lo, lo + 300)]
        assert all(b <= c for b, c in zip(values, values[1:]))


# pi2 / pi1 -------------------------------------------------------------------

def test_pi2_examples():
    assert pi2_bound(31).bound_int == 87 == pi2_defect_oracle(31)
    assert pi2_profile(31).values_upto(8) == [4, 9, 14, 19, 24, 29, 31, 31]
    # d = 32: v = 1, w = 0; closed form must equal the profile sum
    assert pi2_bound(32).bound_int == pi2_defect_oracle(32) == 93
    # boundary behavior at d = 18: equality with G(5;18), strict drop after
    assert pi2_bound(18).bound_int == castelnuovo_bound(5, 18).bound_int == 28
    assert pi2_bound(19).bound_int < castelnuovo_bound(5, 19).bound_int


def test_pi1_examples():
    assert pi1_bound(33).bound_int == 120 == pi1_defect_oracle(33)
    assert pi1_bound(36).bound_int == 145 == pi1_defect_oracle(36)
    assert pi1_bound(5).bound_int == 1
    assert pi1_profile(36).values_upto(10) == [4, 8, 12, 16, 20, 24, 28, 32, 35, 36]


def test_profile_closed_form_agreement_sampled():
    for d in range(6, 1200):
        assert pi2_bound(d).bound_int == genus_from_profile(pi2_profile(d))
        assert pi1_bound(d).bound_int == genus_from_profile(pi1_profile(d))


def test_pi_bounds_monotone():
    p2 = [pi2_bound(d).bound_int for d in range(6, 800)]
    p1 = [pi1_bound(d).bound_int for d in range(6, 800)]
    assert all(a <= b for a, b in zip(p2, p2[1:]))
    assert all(a <= b for a, b in zip(p1, p1[1:]))


def test_abs_inequality_sampled():
    for d in range(19, 2000):
        assert pi2_bound(d).bound_int < castelnuovo_bound(5, d).bound_int


# profiles --------------------------------------------------------------------

def test_genus_from_profile_examples():
    assert genus_from_profile(pi2_profile(31)) == 87
    assert genus_from_profile(castelnuovo_profile(5, 18)) == 28
    constant = HilbertProfile(label="saturated", d=9, prefix=(9, 9))
    assert genus_from_profile(constant) == 0


def test_profile_invariants():
    with pytest.raises(ValueError):
        HilbertProfile(label="bad", d=5, prefix=(3, 2))  # decreasing
    with pytest.raises(ValueError):
        HilbertProfile(label="bad", d=5, prefix=(3, 7))  # above d
    prof = pi2_profile(31)
    assert prof.value_at(prof.stabilization_index) == 31
    assert prof.value_at(100) == 31


def test_propagate_profile_examples():
    prof = propagate_profile([(1, 4), (2, 9), (3, 16)], 31)
    assert prof.value_at(4) == min(31, 4 + 15) == 19
    prof = propagate_profile((4, 10, 19), 40)
    assert prof.value_at(6) == min(40, 19 + 18) == 37
    # already-saturated seed gives the constant-d profile
    prof = propagate_profile((7, 7, 7), 7)
    assert genus_from_profile(prof) == 0
    assert prof.value_at(1) == 7


def test_propagate_profile_dominates_pi2_profile():
    for seed in ((4, 9, 16), (4, 10, 19)):
        for d in range(19, 400):
            prop = propagate_profile(seed, d)
            target = pi2_profile(d)
            upto = max(len(prop.prefix), len(target.prefix)) + 2
            assert all(
                prop.value_at(i) >= target.value_at(i) for i in range(1, upto)
            ), (seed, d)
            assert genus_from_profile(prop) <= pi2_bound(d).bound_int


def test_propagate_profile_rejects_bad_seeds():
    with pytest.raises(ValueError):
        propagate_profile((9, 4, 16), 31)  # not nondecreasing
    with pytest.raises(ValueError):
        propagate_profile((4, 9), 31)  # wrong arity
    with pytest.raises(ValueError):
        propagate_profile((0, 1, 2), 31)  # nonpositive
    with pytest.raises(ValueError):
        propagate_profile((4, 9, 40), 31)  # above d
    with pytest.raises(ValueError):
        propagate_profile((1, 1, 1), 31)  # cannot stabilize


# weighted defect sum ----------------------------------------------------------

def test_weighted_defect_examples():
    assert weighted_defect_closed_form(33) == 252  # C(8,2)*33 - 8*C(9,3) = 924 - 672
    assert weighted_defect_closed_form(5) == 0
    assert weighted_defect_closed_form(36) == 344  # 28*36 - 672 + 8


def test_weighted_defect_identity_sampled():
    for d in range(5, 2000):
        assert weighted_defect_direct(d) == weighted_defect_closed_form(d), d


def test_weighted_defect_oracle_full_range_small():
    # brute force over the full stated range i = 1..d-4, including zero terms
    for d in range(7, 160):
        p, q = divmod(d - 1, 4)

        def k(i):
            if i <= p:
                return 4 * i
            if i == p + 1 and q == 3:
                return d - 1
            return d

        brute = sum((i - 1) * (d - k(i)) for i in range(1, d - 3))
        assert brute == weighted_defect_direct(d) == weighted_defect_closed_form(d), d


# double point formula ---------------------------------------------------------

def test_double_point_examples():
    assert double_point_k2(3, 0, 1) == 8  # cubic scroll in P^4: 8(1 - g)
    assert double_point_k2(5, 1, 0) == 0  # elliptic quintic scroll
    assert double_point_k2(4, 0, 1) == 9  # projected Veronese, K^2(P^2) = 9


def test_double_point_scroll_oracle():
    # scrolls satisfy K^2 = 8(1-g) and chi = 1-g; the formula must agree
    for d in range(3, 40):
        for g in range(0, 10):
            k2 = double_point_k2(d, g, 1 - g)
            assert k2 == (d * (d - 5) - 10 * (g - 1) + 12 * (1 - g)) // 2


def test_double_point_polynomial_form_matches_scalars():
    # the same definition in ints, Fractions and polynomials in d
    g = Poly.of(1, Fraction(-3, 8), Fraction(1, 8))
    chi = chi_bound_poly(Fraction(15, 2))
    two_k2 = double_point_2k2(Poly.variable(), g, chi)
    assert two_k2.degree == 3
    for d in range(4, 60):
        assert two_k2(d) == double_point_2k2(d, g(d), chi(d)), d
    assert double_point_2k2(Poly.variable(), 1, 0) == Poly.of(0, -5, 1)  # d(d-5)



@given(st.integers(1, 500), st.integers(0, 10**4), st.integers(-10**4, 10**4))
def test_double_point_k2_halves_the_formula(d, g, chi):
    if chi < 1 - g:
        with pytest.raises(InconsistencyError):
            double_point_k2(d, g, chi)
    else:
        assert 2 * double_point_k2(d, g, chi) == double_point_2k2(d, g, chi)


def test_double_point_rejects_impossible_invariants():
    with pytest.raises(InconsistencyError):
        double_point_k2(4, 0, 0)  # chi < 1 - g: no smooth surface in P^4


# chi lower bound ---------------------------------------------------------------

def test_chi_lower_bound_examples():
    d = 36
    at9 = chi_lower_bound_s4(d, 9)
    assert at9 == Fraction(d**3, 96) - Fraction(d * d, 16) - Fraction(5 * d, 3) - Fraction(333, 16)
    # at x = 6 the bound is d^3/96 - 7d^2/16 - 13d/24 - 333/16 = -1941/16;
    # above 6 it is exceeded
    weak = Fraction(d**3, 96) - Fraction(7 * d * d, 16) - Fraction(13 * d, 24) - Fraction(333, 16)
    assert chi_lower_bound_s4(d, 6) == weak == Fraction(-1941, 16)
    assert chi_lower_bound_s4(d, Fraction(13, 2)) > weak
    assert chi_lower_bound_s4(d, 0) == Fraction(-16197, 16)


def test_chi_lower_bound_domain():
    with pytest.raises(ValueError):
        chi_lower_bound_s4(36, 10)
    with pytest.raises(ValueError):
        chi_lower_bound_s4(36, -1)
    with pytest.raises(OutOfDomainError):
        chi_lower_bound_s4(3, 5)
