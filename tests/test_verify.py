import json
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kbound.bounds import (
    chi_bound_poly,
    double_point_2k2,
    castelnuovo_bound,
    castelnuovo_poly,
    castelnuovo_profile,
    genus_from_profile,
    halphen_poly,
    pi1_poly,
    pi1_profile,
    pi2_bound,
    pi2_poly,
    pi2_profile,
    propagate_profile,
    weighted_defect_direct,
    weighted_defect_poly,
)
from kbound.exact import InconsistencyError, Poly, rat_str
import kbound.scroll as scroll
import kbound.verify as verify
from kbound.scroll import DivisorClass, _k2_raw
from kbound.verify import (
    CASES,
    CLAIM_ANCHORS,
    abs_diff_poly,
    deg4_cubic_poly,
    deg4_excess_poly_in_k,
    genus_defect_poly,
    psi_from_bounds_poly,
    psi_quoted_poly,
    r4_margin_poly,
    spanned_from_bounds_poly,
    spanned_quadratic_poly,
    verify_appendix,
    verify_r2,
    verify_r3,
    verify_r4,
    verify_r5_exclusion,
    verify_r5_remark,
    verify_r_ge6_scroll,
    verify_r_ge6_spanned,
    verify_sharpness,
    verify_theorem,
)


# symbolic building blocks match independent oracles ---------------------------

def test_residue_class_polys_match_bound_functions():
    # The scalar bounds evaluate these very polynomials, so they are checked
    # against oracles that share no formula with them, on every residue class:
    # Hilbert-profile defect sums, the term-by-term weighted sum and the
    # Halphen formula written out inline.
    for r in range(3, 9):
        for d in range(r, 400):
            assert castelnuovo_poly(r, (d - 1) % (r - 1))(d) == castelnuovo_profile(r, d).defect_sum(), (r, d)
    for d in range(2, 400):
        assert pi2_poly((d - 1) % 5)(d) == pi2_profile(d).defect_sum(), d
        assert pi1_poly((d - 1) % 4)(d) == pi1_profile(d).defect_sum(), d
    for d in range(5, 400):
        p, q = divmod(d - 1, 4)
        assert weighted_defect_poly(q)(p) == weighted_defect_direct(d), d
    for s in range(2, 7):
        for d in range(s * s - s + 1, 300):
            eps = (d - 1) % s
            inline = (
                Fraction(d * d, 2 * s) + Fraction(d * (s - 4), 2) + 1
                - Fraction((s - 1 - eps) * (eps + 1) * (s - 1), 2 * s)
            )
            assert halphen_poly(s, eps)(d) == inline, (s, d)


def test_spanned_quadratic_identity():
    for r in range(5, 12):
        for eps in range(r - 2):
            assert spanned_quadratic_poly(r, eps) == spanned_from_bounds_poly(r, eps)


def test_psi_identity_and_remark_constants():
    for r in range(6, 12):
        for eps in range(r - 1):
            assert psi_from_bounds_poly(r, eps) == psi_quoted_poly(r, eps)
    # r = 5: psi collapses to the constant e^2 - 4e + 3
    for eps, value in ((0, 3), (1, 0), (2, -1), (3, 0)):
        assert psi_from_bounds_poly(5, eps) == Poly.of(value)


def test_deg4_cubic_identity_and_values():
    for q in range(4):
        assert deg4_excess_poly_in_k(q) == deg4_cubic_poly(q)(Poly.of(q + 1, 4))
    # direct evaluation: q = 0, t = 0 at d = 25
    assert deg4_cubic_poly(0)(25) == -15625 + 15000 - 3125 + 174 == -3576


def test_abs_diff_poly_tracks_exact_difference():
    for d in range(19, 500):
        c = d % 20
        poly_k, k_from = abs_diff_poly(c)
        k = (d - c) // 20
        assert k >= k_from
        assert poly_k(k) == pi2_bound(d).bound - castelnuovo_bound(5, d).bound


# individual cases -------------------------------------------------------------

def test_r2_and_r3():
    assert verify_r2().status == "verified"
    c = verify_r3()
    assert c.status == "verified"
    assert any(s.ok for s in c.sign_certificates)


def test_r4_certificates():
    certs = {c.claim_id: c for c in verify_r4(36, 200)}
    assert set(certs) == {"R4.reduce", "R4.s2", "R4.s3", "R4.s4.x<=6", "R4.s4.x>6"}
    assert all(c.status == "verified" for c in certs.values())
    main = certs["R4.reduce"].sign_certificates[0]
    assert main.polynomial == Poly.of(0, -28, Fraction(4, 5))
    # s = 4, x > 6: the threshold d > 35 is tight (documented inside the cert)
    checks = certs["R4.s4.x>6"].params["checks"]
    assert any("tight" in rec["label"] and rec["holds"] for rec in checks)
    assert certs["R4.s4.x>6"].params["x_samples"][0] == "9"


def test_r4_s4_high_tightness_point_is_one_below_the_certified_start():
    # the check's witness key names the degree where the certified
    # polynomial turns negative, and its value is that polynomial there
    cert = verify._r4_s4_high(36, 40)
    chains = [s for s in cert.sign_certificates if s.label.startswith(("RHS", "exact chain"))]
    (start,) = {s.start for s in chains}
    main = chains[0].polynomial
    (tight,) = [rec for rec in cert.params["checks"] if "tight" in rec["label"]]
    (key,) = [k for k in tight if k.startswith("value_at_")]
    assert key == f"value_at_{start - 1}"
    assert tight[key] == rat_str(main(start - 1))


def test_sample_tables_keep_the_sampling_ranges():
    xs = verify.X_SAMPLES
    assert len(set(xs)) == len(xs)
    assert all(6 < x <= 9 and x.denominator in (2, 4, 8, 16) for x in xs)
    assert all(7 <= r < 60 and 0 <= e < r - 1 for r, e in verify.SQUARE_COMPLETION_SAMPLES)


def test_r4_margin_poly_is_the_scalar_double_point_margin():
    weak = Poly.of(1, Fraction(-3, 8), Fraction(1, 8))
    forms = [(Poly.of(1), Poly.of(0)), (Poly.of(1), Poly.of(1)), (weak, 1 - weak)] + [
        (genus_defect_poly(x), chi_bound_poly(x)) for x in (Fraction(6), Fraction(15, 2), Fraction(9))
    ]
    for g, chi in forms:
        margin = r4_margin_poly(g, chi)
        for d in range(1, 120):
            assert margin(d) == double_point_2k2(d, g(d), chi(d)) + 2 * d * (d - 6), (g, chi, d)
    assert r4_margin_poly(1, 0) == verify.REDUCE_RHS
    assert r4_margin_poly(1, 1) == verify.REDUCE2_RHS


def test_r4_per_degree_checks_report_a_failing_degree(monkeypatch):
    # the scalar per-degree checks must see the genus bound: a bound far above
    # Halphen's at one degree makes 2K^2 too small there
    real = verify.halphen_bound
    monkeypatch.setattr(
        verify, "halphen_bound",
        lambda d, s: SimpleNamespace(bound=d * d) if d == 44 else real(d, s),
    )
    assert verify._r4_reduce_check_one(43) is None
    assert verify._r4_reduce_check_one(44) == 44
    assert verify._r4_s_check_one(2, 44) == 44
    assert verify._r4_s_check_one(3, 45) is None


def test_r6_spanned_certificates():
    for r in (5, 6, 7, 8):
        cert = verify_r_ge6_spanned(r)
        assert cert.status == "verified"
        assert len(cert.sign_certificates) == r - 2  # one per residue
    tail = verify_r_ge6_spanned(9)
    assert tail.status == "verified"
    labels = [s.label for s in tail.sign_certificates]
    assert any("r >= 9" in lab for lab in labels)
    # every r >= 9 carries the certificates that cover the whole tail
    later = verify_r_ge6_spanned(12)
    assert later.status == "verified" and later.params["covers"] == "every r >= 9"
    assert [s.label for s in later.sign_certificates] == labels
    with pytest.raises(ValueError):
        verify_r_ge6_spanned(4)


def test_r6_scroll_certificates():
    c6 = verify_r_ge6_scroll(6)
    assert c6.status == "verified"
    assert len(c6.sign_certificates) == 5
    # psi(6,10) with eps = 4 equals 16
    assert psi_quoted_poly(6, 4)(10) == 16
    c7 = verify_r_ge6_scroll(7)
    assert c7.status == "verified"
    assert c7.params["covers"] == "every r >= 7"
    assert any("for all r >= 7" in s.label for s in c7.sign_certificates)
    cubic = Poly.of(-23, 27, -10, 1)
    assert cubic(7) == 19
    with pytest.raises(ValueError):
        verify_r_ge6_scroll(5)


def test_r6_scroll_certified_cubic_is_psi_at_its_least_degree():
    # (r-1)*psi(r, r-1) = cubic(r) + (r-2e)^2 + 4e as polynomials in r and e:
    # both sides have degree <= 3 in r and <= 2 in e, so agreement on the
    # 4 x 3 grid below proves the identity, and with it that the certified
    # cubic is the one the psi bound reduces to.
    (sign,) = [s for s in verify_r_ge6_scroll(7).sign_certificates if s.variable == "r"]
    cubic = sign.polynomial
    for r in range(7, 11):
        for e in range(3):
            assert (r - 1) * psi_quoted_poly(r, e)(r - 1) == cubic(r) + (r - 2 * e) ** 2 + 4 * e


def test_r6_scroll_signs_the_forward_difference_it_names():
    (sign,) = [s for s in verify_r_ge6_scroll(7).sign_certificates if s.label.startswith("d^2 - 2d")]
    d = Poly.variable()
    q = d * d - 2 * d
    assert sign.polynomial == q(d + 1) - q


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("delta", (-1, 1))
def test_r6_scroll_catches_a_wrong_cubic_coefficient(monkeypatch, index, delta):
    # the per-r check, the sign certificate and the square completion all read
    # SCROLL_CUBIC, so a wrong coefficient makes the certificate itself fail
    coeffs = list(verify.SCROLL_CUBIC.coeffs)
    coeffs[index] += delta
    monkeypatch.setattr(verify, "SCROLL_CUBIC", Poly.of(*coeffs))
    cert = verify_r_ge6_scroll(7)
    assert cert.status == "counterexample"
    if (index, delta) == (0, -1):  # -24 in place of -23
        assert cert.witness["failed_check"] == "square completion at (r,e)=(55,22)"


TABLE_PERTURBATIONS = {
    "+1": lambda m, e: 1, "-1": lambda m, e: -1,
    "+m": lambda m, e: m, "-m": lambda m, e: -m,
    "+e": lambda m, e: e, "-e": lambda m, e: -e,
    "+me": lambda m, e: m * e, "-me": lambda m, e: -m * e,
    "+m*m": lambda m, e: m * m, "-m*m": lambda m, e: -m * m,
}


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("change", sorted(TABLE_PERTURBATIONS))
def test_appendix_catches_a_wrong_tabulated_value(monkeypatch, index, change):
    # the per-degree checks and the sign certificates read one appendix_table,
    # so a wrong tabulated value makes the certificate itself fail
    real = verify.appendix_table

    def wrong(m, eps):
        values = list(real(m, eps))
        values[index] += TABLE_PERTURBATIONS[change](m, eps)
        return tuple(values)

    monkeypatch.setattr(verify, "appendix_table", wrong)
    cert = verify_appendix(18, 60)
    assert cert.status == "counterexample"
    if (index, change) == (1, "+1"):
        assert cert.witness["failure"] == "d=18: phi(0) factorization fails"


def test_r5_remark_table():
    cert = verify_r5_remark()
    assert cert.status == "verified"
    values = [rec["value"] for rec in cert.params["checks"]]
    assert values == [3, 0, -1, 0]


def test_r5_exclusion_certificates():
    certs = {c.claim_id: c for c in verify_r5_exclusion(31, 200)}
    assert set(certs) == {
        "R5.abs",
        "R5.profile.seed-4-9-16",
        "R5.profile.seed-4-10-19",
        "R5.deg4.cubic",
    }
    assert all(c.status == "verified" for c in certs.values())
    # (abs) carries one tail certificate per residue class of d mod 20
    assert len(certs["R5.abs"].sign_certificates) == 20
    assert certs["R5.abs"].params["boundary_d18"]["pi2"] == 28
    assert certs["R5.abs"].params["boundary_d18"]["castelnuovo5"] == 28
    # the cubic case carries one tail-bounded certificate per q
    cubic_signs = certs["R5.deg4.cubic"].sign_certificates
    assert len(cubic_signs) == 4
    assert all(s.asserted_sign == "negative" and s.ok for s in cubic_signs)


def test_r5_out_of_asserted_range_markers():
    certs = verify_r5_exclusion(10, 20)
    by_id = {c.claim_id: c for c in certs}
    assert by_id["R5.abs"].status == "verified"  # 19..20 is in range
    assert by_id["R5.abs"].params["below_asserted_range"] == [10, 18]
    assert by_id["R5.profile.seed-4-9-16"].status == "out-of-asserted-range"
    assert by_id["R5.deg4.cubic"].status == "out-of-asserted-range"


def test_appendix_certificate():
    cert = verify_appendix(18, 300)
    assert cert.status == "verified"
    assert cert.witness["checked_range"] == [18, 300]
    cert = verify_appendix(10, 16)
    assert cert.status == "out-of-asserted-range"


def test_appendix_full_asserted_range():
    # exhaustive minimization for every d in [18, 2000]
    cert = verify_appendix(18, 2000)
    assert cert.status == "verified"


def test_sharpness_certificate():
    cert = verify_sharpness(36, 150)
    assert cert.status == "verified"
    assert cert.witness["even_degrees_checked"] == 58
    assert cert.witness["attainers_sample"][0] == [36, 18, -18]
    cert = verify_sharpness(20, 30)
    assert cert.status == "out-of-asserted-range"


def test_sharpness_scan_matches_naive_ring_scan():
    for d in list(range(4, 120)) + [500, 501, 1998, 1999]:
        k2s = [_k2_raw(DivisorClass(alpha, d - 3 * alpha)) for alpha in range(1, d // 2 + 1)]
        best, attained = verify._sharpness_scan(d, -d * (d - 6))
        assert best == min(k2s, default=None), d
        assert attained == [
            alpha for alpha, k2 in enumerate(k2s, 1) if k2 == -d * (d - 6)
        ], d


def test_walk_mismatch_is_reported_as_counterexample(monkeypatch):
    # A K^2 route that is not cubic in alpha derails the ring walk, and the
    # per-degree check finds it leaving phi at the first of its five classes
    # (phi(-m) = 8); neither passes or crashes.
    monkeypatch.setattr(verify, "_k2_raw", lambda c: c.alpha**4)
    with pytest.raises(InconsistencyError, match="^forward-difference walk"):
        verify._sharpness_scan(40, -1360)
    failure = "the intersection ring gives K^2 = 1 at alpha=1, phi gives 8"
    assert verify._sharpness_check_one(40) == f"d=40: {failure}"
    cert = verify_sharpness(36, 40)
    assert cert.status == "counterexample"
    assert cert.witness["failure"] == f"d=36: {failure}"


def test_phi_prime_walk_mismatch_is_reported(monkeypatch):
    monkeypatch.setattr(verify, "phi_derivative", lambda d, a: a**3 - 1000)
    failure = verify._appendix_check_one(100)
    assert failure.startswith("d=100: forward-difference walk")


def doctor_walk(monkeypatch, lo, index, value):
    """Make every verify.forward_walk from lo return value at index."""
    real = verify.forward_walk

    def walk(f, start, hi, degree):
        values = real(f, start, hi, degree)
        if start == lo:
            values[index] = value
        return values

    monkeypatch.setattr(verify, "forward_walk", walk)


# At d = 40 (m = 13, e = 0, a* = 6) phi' is walked over [-11, -1], where it
# must be positive, and over [1, 7], where it must be negative.
@pytest.mark.parametrize("index, a", [(0, -11), (4, -7), (10, -1)])
def test_appendix_reports_phi_prime_not_positive(monkeypatch, index, a):
    doctor_walk(monkeypatch, -11, index, 0)
    failure = f"d=40: phi' not positive at a={a} in [-m+2, -1]"
    assert verify._appendix_check_one(40) == failure
    assert verify._appendix_check_one(43) is None  # m = 14: its walk starts at -12
    cert = verify_appendix(39, 41)
    assert cert.status == "counterexample"
    assert cert.witness["failure"] == failure


@pytest.mark.parametrize("index, a", [(0, 1), (6, 7)])
def test_appendix_reports_phi_prime_not_negative(monkeypatch, index, a):
    doctor_walk(monkeypatch, 1, index, 0)
    assert verify._appendix_check_one(40) == f"d=40: phi' not negative at a={a} >= 1"


def doctor_frame(monkeypatch, d, index, value):
    """Make the frame scan of phi at degree d, which minimize_k2 and the
    attainer list both read, return value at index."""
    real = scroll.frame_k2

    def scan(n):
        values = real(n)
        if n == d:
            values[index] = value
        return values

    monkeypatch.setattr(scroll, "frame_k2", scan)
    monkeypatch.setattr(verify, "frame_k2", scan)


@pytest.mark.parametrize("index, attained", [(0, [1, 20]), (4, [5, 20])])
def test_sharpness_reports_a_second_attainer(monkeypatch, index, attained):
    # The frame of d = 40 is a = -13 .. 6, alpha = a + 14 = 1 .. 20: a second
    # class with K^2 = -d(d-6) = -1360 in the shared minimum breaks the
    # uniqueness. d = 40 is below the sweep's last degree, where the full
    # ring walk re-checks the verdict.
    doctor_frame(monkeypatch, 40, index, -1360)
    cert = verify_sharpness(39, 42)
    assert cert.status == "counterexample"
    assert cert.witness["failure"] == (
        f"d=40: -d(d-6) attained at alpha in {attained}, not only d/2"
    )


def test_sharpness_reports_an_odd_degree_attainer(monkeypatch):
    # d = 41 (frame a = -13 .. 6): a class reaching -d(d-6) = -1435, and one
    # below it without the even minimum reached
    doctor_frame(monkeypatch, 41, 3, -1435)
    assert verify._sharpness_check_one(41) == "d=41: odd degree attains the even-degree minimum"
    doctor_frame(monkeypatch, 41, 3, -1436)
    assert verify._sharpness_check_one(41) == "d=41: odd-degree minimum -1436 fails to exceed -1435"


@pytest.mark.parametrize("extra", [
    lambda a: (a - 1) * (a - 2) * (a - 3),  # agrees at three of the four seeds
    lambda a: -(a - 1) * (a - 2) * (a - 3),
    lambda a: (a - 1) * (a - 2) * (a - 3) * (a - 4),  # agrees at all four seeds
])
def test_sharpness_fails_a_ring_route_that_leaves_phi(monkeypatch, extra):
    real = verify._k2_raw
    monkeypatch.setattr(verify, "_k2_raw", lambda c: real(c) + extra(c.alpha))
    cert = verify_sharpness(36, 60)
    assert cert.status == "counterexample"
    alpha = 18 if extra(4) == 0 else 4  # the first class where the routes differ
    ring = -36 * 30 + extra(alpha) if alpha == 18 else real(DivisorClass(4, 24)) + extra(4)
    assert cert.witness["failure"] == (
        f"d=36: the intersection ring gives K^2 = {ring} at alpha={alpha},"
        f" phi gives {ring - extra(alpha)}"
    )


@pytest.mark.parametrize("wrong", [lambda a: 1, lambda a: a])
def test_a_wrong_phi_fails_both_claims(monkeypatch, wrong):
    real = scroll.phi
    for module in (scroll, verify):
        monkeypatch.setattr(module, "phi", lambda d, a: real(d, a) + wrong(a))
    verdict = verify_theorem(36, 60, cases=("appendix", "sharpness"))
    assert [c.status for c in verdict.certificates] == ["counterexample"] * 2


def test_sharpness_certificate_alone_equals_the_full_runs():
    def sharpness(verdict):
        (cert,) = (c for c in verdict.certificates if c.claim_id == "SHARPNESS")
        return cert.to_json_dict()

    alone = sharpness(verify_theorem(36, 400, cases=("sharpness",)))
    assert alone == sharpness(verify_theorem(36, 400))
    assert alone == verify_sharpness(36, 400).to_json_dict()


def test_one_frame_minimum_per_degree_in_a_run(monkeypatch):
    calls = []
    real = verify.minimize_k2
    monkeypatch.setattr(verify, "minimize_k2", lambda d: calls.append(d) or real(d))
    verify_theorem(36, 100)
    assert calls == list(range(36, 101))  # APPENDIX.min's, then read by SHARPNESS
    assert verify._MINIMA.get() is None
    calls.clear()
    # a builder called directly computes its own, once per degree: the
    # oracle is compared with the map's result at d = 40, not a re-run
    verify_sharpness(36, 40)
    assert calls == [36, 37, 38, 39, 40]


def test_frame_minima_are_dropped_when_a_run_raises(monkeypatch):
    def boom(d):
        assert verify._MINIMA.get()[d].d == d  # APPENDIX.min filled the table
        raise RuntimeError(f"check failed at d={d}")

    monkeypatch.setattr(verify, "_sharpness_check_one", boom)
    with pytest.raises(RuntimeError, match="d=36"):
        verify_theorem(36, 40, cases=["appendix", "sharpness"])
    assert verify._MINIMA.get() is None


def test_sweep_failure_is_recorded_at_its_degree(monkeypatch):
    # A per-degree failure in a failure_at sweep is reported as the first
    # failing degree, under the check's label, and fails the claim. The
    # integer check is handed G(5;d) = 0 at d = 40 and 45.
    real = verify._r5_abs_int_check
    monkeypatch.setattr(
        verify, "_r5_abs_int_check",
        lambda g4, g5, d: real(g4, (Poly.zero(),) * 4 if d in (40, 45) else g5, d),
    )
    cert = verify._r5_abs(36, 50)
    assert cert.status == "counterexample"
    assert cert.witness == {
        "failed_check": "G(4;d,5) < G(5;d) for every integer d in [36, 50]",
        "failure_at": 40,
    }


R5_PROFILE_LABEL = (
    "propagated profile dominates the G(4;d,5) profile pointwise and its"
    " genus bound is <= G(4;d,5) for d in [36, 50]"
)


@pytest.mark.parametrize(
    "split, value",
    [
        ((6, 4, 5), 35),  # 4, 9, ..., 29, then 35 at i = 7: raised above 34
        ((6, 4, 0), 40),  # 4, 9, ..., 29, then d from i = 7 on: stabilizes early
    ],
)
def test_r5_profile_sweep_reports_a_dominated_value(monkeypatch, split, value):
    # At d = 40 the seed (4, 9, 16) propagates to 34 at i = 7; a profile
    # that rises above it there fails the claim. The doctored (n, v, w) split
    # makes the G(4;d,5) profile 5i - 1 for i <= n, d - w at i = n + 1, then d.
    real = verify.pi2_split
    monkeypatch.setattr(verify, "pi2_split", lambda d: split if d == 40 else real(d))
    cert = verify._r5_profile((4, 9, 16), 36, 50)
    assert cert.status == "counterexample"
    assert cert.witness == {
        "failed_check": R5_PROFILE_LABEL,
        "failure": f"d=40: propagated value 34 < profile value {value} at i=7",
    }


def test_r5_profile_sweep_reports_a_genus_bound_above_pi2(monkeypatch):
    # the integer check is handed G(4;d,5) = 0 at d = 40
    real = verify._r5_profile_int_check
    monkeypatch.setattr(
        verify, "_r5_profile_int_check",
        lambda seed, g4, d: real(seed, (Poly.zero(),) * 5 if d == 40 else g4, d),
    )
    cert = verify._r5_profile((4, 10, 19), 36, 50)
    assert cert.status == "counterexample"
    assert cert.witness == {
        "failed_check": R5_PROFILE_LABEL,
        "failure": "d=40: propagated genus bound exceeds G(4;d,5)",
    }


# the integer per-degree checks against the scalar route ------------------------

G4 = tuple(map(pi2_poly, range(5)))


@pytest.mark.parametrize("seed", [(4, 9, 16), (4, 10, 19), (4, 8, 12), (4, 9, 15), (2, 3, 4)])
def test_r5_profile_closed_form_matches_the_built_profiles(seed):
    # failure strings included: the last three seeds fail at many degrees
    failing = 0
    for d in range(31, 3001):
        closed = verify._r5_profile_int_check(seed, G4, d)
        assert closed == verify._r5_profile_check_one(seed, d), d
        failing += closed is not None
    assert (failing == 0) == (seed in ((4, 9, 16), (4, 10, 19)))


VALID_SEEDS = st.lists(st.integers(1, 40), min_size=3, max_size=3).map(sorted).filter(
    lambda seed: seed[2] >= 2
)


@given(VALID_SEEDS, st.integers(0, 400))
def test_r5_profile_closed_form_matches_for_any_valid_seed(seed, extra):
    # nondecreasing seeds with h3 >= 2, and d >= h3 so that no value exceeds d
    seed, d = tuple(seed), seed[2] + extra
    assert verify._r5_profile_int_check(seed, G4, d) == verify._r5_profile_check_one(seed, d)


def test_r5_profile_closed_form_matches_on_every_small_seed():
    # seeds equal to d at small d meet every segment boundary of the closed form
    seeds = [seed for seed in combinations_with_replacement(range(1, 13), 3) if seed[2] >= 2]
    for seed in seeds:
        for d in range(seed[2], 61):
            assert verify._r5_profile_int_check(seed, G4, d) == verify._r5_profile_check_one(seed, d)


@given(VALID_SEEDS, st.integers(0, 400))
def test_r5_profile_closed_form_genus_is_the_defect_sum(seed, extra):
    # a dominating profile's genus never exceeds G(4;d,5), so the comparison
    # is probed with G(4;d,5) set to the propagated defect sum and one below
    seed, d = tuple(seed), seed[2] + extra
    genus = genus_from_profile(propagate_profile(seed, d))
    if verify._r5_profile_int_check(seed, G4, d) is None:
        assert verify._r5_profile_int_check(seed, (Poly.of(genus),) * 5, d) is None
        assert verify._r5_profile_int_check(seed, (Poly.of(genus - 1),) * 5, d) == (
            f"d={d}: propagated genus bound exceeds G(4;d,5)"
        )


R4_MARGINS = {
    5: tuple(r4_margin_poly(halphen_poly(5, e), 1 - halphen_poly(5, e)) for e in range(5)),
    2: tuple(r4_margin_poly(halphen_poly(2, e), 1) for e in range(2)),
    3: tuple(r4_margin_poly(halphen_poly(3, e), 1) for e in range(3)),
}


@pytest.mark.parametrize("s", [5, 2, 3])
def test_r4_integer_checks_match_the_scalar_ones(s):
    # from the first degree Halphen's bound is asserted for, so that the
    # range holds failing degrees too
    scalar = verify._r4_reduce_check_one if s == 5 else partial(verify._r4_s_check_one, s)
    ds = range(s * s - s + 1, 5001)
    results = [verify._r4_margin_int_check(R4_MARGINS[s], d) for d in ds]
    assert results == list(map(scalar, ds))
    assert any(results)


def test_r5_abs_and_deg4_integer_checks_match_the_scalar_ones():
    ds = range(5, 5001)
    g5 = tuple(castelnuovo_poly(5, e) for e in range(4))
    abs_results = [verify._r5_abs_int_check(G4, g5, d) for d in ds]
    assert abs_results == list(map(verify._r5_abs_check_one, ds))
    assert max(filter(None, abs_results)) == 18
    deg4 = tuple(map(weighted_defect_poly, range(4))), tuple(map(pi1_poly, range(4)))
    deg4_results = [verify._r5_deg4_int_check(*deg4, d) for d in ds]
    assert deg4_results == list(map(verify._r5_deg4_check_one, ds))
    assert any(deg4_results)


def test_integer_checks_raise_on_a_non_integer_genus_bound():
    half = Poly.of(Fraction(1, 2))
    with pytest.raises(InconsistencyError, match=r"G\(5;41\) is not an integer: 1/2"):
        verify._r5_abs_int_check(G4, (half,) * 4, 41)
    with pytest.raises(InconsistencyError, match=r"G\(4;41,5\) is not an integer"):
        verify._r5_profile_int_check((4, 9, 16), (half,) * 5, 41)


def test_each_sweep_rechecks_its_last_degree_through_the_scalar_api(monkeypatch):
    seen = []
    real = verify.halphen_bound
    monkeypatch.setattr(verify, "halphen_bound", lambda d, s: seen.append((d, s)) or real(d, s))
    verify_r4(36, 50)
    assert seen == [(50, 5), (50, 2), (50, 3)]


def flip_at(monkeypatch, name, hi):
    """Make the integer check `name` report the opposite verdict at d = hi."""
    real = getattr(verify, name)

    def wrong(*args):
        got = real(*args)
        return got if args[-1] != hi else "wrong" if got is None else None

    monkeypatch.setattr(verify, name, wrong)


@pytest.mark.parametrize("name, build, claim", [
    ("_r4_margin_int_check", lambda: verify._r4_reduce(36, 50), "R4.reduce"),
    ("_r4_margin_int_check", lambda: verify._r4_s(36, 50, 3), "R4.s3"),
    ("_r5_abs_int_check", lambda: verify._r5_abs(36, 50), "R5.abs"),
    ("_r5_profile_int_check", lambda: verify._r5_profile((4, 10, 19), 36, 50), "R5.profile.seed-4-10-19"),
    ("_r5_deg4_int_check", lambda: verify._r5_deg4(36, 50), "R5.deg4.cubic"),
])
def test_a_wrong_integer_check_at_the_last_degree_raises(monkeypatch, name, build, claim):
    flip_at(monkeypatch, name, 50)
    with pytest.raises(InconsistencyError, match=f"^{claim} at d=50: the per-degree check gives"):
        build()


#: Each sweep with an oracle: its per-degree check, its oracle, a builder
#: over [36, 50], and the witness key of a failure.
ORACLE_SWEEPS = {
    "R4.reduce": ("_r4_margin_int_check", "_r4_reduce_check_one", lambda: verify._r4_reduce(36, 50), "failure_at"),
    "R4.s3": ("_r4_margin_int_check", "_r4_s_check_one", lambda: verify._r4_s(36, 50, 3), "failure_at"),
    "R5.abs": ("_r5_abs_int_check", "_r5_abs_check_one", lambda: verify._r5_abs(36, 50), "failure_at"),
    "R5.profile": ("_r5_profile_int_check", "_r5_profile_check_one",
                   lambda: verify._r5_profile((4, 10, 19), 36, 50), "failure"),
    "R5.deg4": ("_r5_deg4_int_check", "_r5_deg4_check_one", lambda: verify._r5_deg4(36, 50), "failure_at"),
    "SHARPNESS": ("_sharpness_check_one", "_sharpness_ring_check", lambda: verify_sharpness(36, 50), "failure"),
}


def spy(monkeypatch, name, calls, fail_at=None):
    """Record the degree of each call of `name`; report a failure at fail_at."""
    real = getattr(verify, name)

    def recorded(*args):
        calls.append(args[-1])
        return "wrong" if args[-1] == fail_at else real(*args)

    monkeypatch.setattr(verify, name, recorded)


@pytest.mark.parametrize("check, oracle, build, key", ORACLE_SWEEPS.values(), ids=ORACLE_SWEEPS)
def test_a_passing_sweep_runs_each_degree_once(monkeypatch, check, oracle, build, key):
    # no failure: the oracle at d = 50 is compared with the map's None there
    checked, direct = [], []
    spy(monkeypatch, check, checked)
    spy(monkeypatch, oracle, direct)
    assert build().status == "verified"
    assert checked == list(range(36, 51))
    assert direct == [50]


@pytest.mark.parametrize("check, oracle, build, key", ORACLE_SWEEPS.values(), ids=ORACLE_SWEEPS)
def test_a_sweep_stops_at_its_first_failure(monkeypatch, check, oracle, build, key):
    # the lazy map stops at d = 40; the check runs once more at d = 50 only
    # to be compared with its oracle there
    checked, direct = [], []
    spy(monkeypatch, check, checked, fail_at=40)
    spy(monkeypatch, oracle, direct)
    cert = build()
    assert cert.status == "counterexample"
    assert cert.witness[key] == "wrong"
    assert checked == [*range(36, 41), 50]
    assert direct == [50]


def test_a_wrong_integer_check_below_the_last_degree_is_a_counterexample(monkeypatch):
    # the scalar route re-checks only d = hi: below it the sweep's own
    # verdict is the claim's
    flip_at(monkeypatch, "_r5_deg4_int_check", 49)
    assert verify._r5_deg4(36, 50).witness["failure_at"] == "wrong"


# aggregate ----------------------------------------------------------------------

def test_verify_theorem_small_range():
    verdict = verify_theorem(36, 80)
    assert verdict.overall
    ids = {c.claim_id for c in verdict.certificates}
    assert ids == set(CLAIM_ANCHORS)
    # the twelve named claims all appear
    required = {
        "R4.reduce", "R4.s2", "R4.s3", "R4.s4.x>6",
        "R6.spanned.quadratic", "R6.scroll.psi", "R5.remark.psi", "R5.abs",
        "R5.profile.seed-4-9-16", "R5.deg4.cubic", "APPENDIX.min", "SHARPNESS",
    }
    assert required <= ids


def test_verify_theorem_below_threshold_marks_ranges():
    verdict = verify_theorem(20, 30)
    by_id = {}
    for c in verdict.certificates:
        by_id.setdefault(c.claim_id, []).append(c)
    assert all(c.status == "out-of-asserted-range" for c in by_id["R4.reduce"])
    assert all(c.status == "out-of-asserted-range" for c in by_id["SHARPNESS"])
    # the appendix range starts at 18, so it is asserted here
    assert all(c.status == "verified" for c in by_id["APPENDIX.min"])
    assert verdict.overall  # nothing failed; some claims were not asserted


def test_claim_map_is_complete_and_uniquely_generated():
    assert all(isinstance(v, str) and v for v in CLAIM_ANCHORS.values())
    certs = verify_theorem(36, 60).certificates
    assert {c.claim_id for c in certs} == set(CLAIM_ANCHORS)
    assert all(c.anchor == CLAIM_ANCHORS[c.claim_id] for c in certs)
    # the merge key is unique, so the merged order cannot depend on the
    # order in which the cases are generated
    keys = [c.sort_key() for c in certs]
    assert len(set(keys)) == len(keys) == 21


def test_case_table_partitions_the_claims():
    ids = {case: {c.claim_id for c in make(36, 60)} for case, make in CASES.items()}
    assert sum(len(v) for v in ids.values()) == len(set().union(*ids.values()))
    assert set().union(*ids.values()) == set(CLAIM_ANCHORS)


def test_ranged_claims_are_out_of_range_below_and_verified_inside():
    for d_from, d_to, status in ((1, 5, "out-of-asserted-range"), (36, 40, "verified")):
        ranged = [c for c in verify_theorem(d_from, d_to).certificates if "asserted_from" in c.params]
        assert len(ranged) == 11
        assert {c.status for c in ranged} == {status}, (d_from, d_to)


def test_verdict_json_is_deterministic():
    a = verify_theorem(36, 60).to_json()
    b = verify_theorem(36, 60).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["overall"] is True
    assert "generated_at" not in payload
    stamped = json.loads(verify_theorem(36, 60).to_json(timestamp="2024-01-01T00:00:00+00:00"))
    assert stamped["generated_at"] == "2024-01-01T00:00:00+00:00"


def test_verdict_json_schema_fields():
    verdict = verify_theorem(36, 50)
    payload = verdict.to_json_dict()
    assert set(payload) == {"d_from", "d_to", "overall", "certificates"}
    for cert in payload["certificates"]:
        assert set(cert) == {
            "claim_id", "params", "status", "witness", "sign_certificates", "anchor",
        }
        for s in cert["sign_certificates"]:
            assert {"polynomial", "from", "asserted_sign", "tail_bound",
                    "scanned_range", "counterexample"} <= set(s)


def test_tail_bound_is_start_or_cauchy_bound():
    for cert in verify_theorem(36, 40).certificates:
        for s in cert.sign_certificates:
            assert s.tail_bound == max(s.start, s.polynomial.cauchy_tail_bound()), s.label
            assert s.to_json_dict()["scanned_range"] == [s.start, s.tail_bound]


def test_cases_is_keyword_only():
    # a positional third argument is a TypeError, not a run over an int
    with pytest.raises(TypeError):
        verify_theorem(36, 40, 2)


def test_soundness_rescan_against_independent_evaluation():
    # no verified sign certificate coexists with a brute-force counterexample
    verdict = verify_theorem(36, 60)
    holds = {
        "positive": lambda v: v > 0,
        "nonnegative": lambda v: v >= 0,
        "negative": lambda v: v < 0,
        "nonpositive": lambda v: v <= 0,
    }
    for cert in verdict.certificates:
        if cert.status != "verified":
            continue
        for s in cert.sign_certificates:
            pred = holds[s.asserted_sign]
            for x in range(s.start, s.tail_bound + 50):
                assert pred(s.polynomial(x)), (cert.claim_id, s.label, x)
