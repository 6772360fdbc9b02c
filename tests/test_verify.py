import json
import re
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product
from operator import add, le
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kbound.bounds import (
    HilbertProfile,
    chi_bound_poly,
    double_point_2k2,
    castelnuovo_bound,
    castelnuovo_polys,
    castelnuovo_profile,
    genus_from_profile,
    halphen_polys,
    pi1_polys,
    pi1_profile,
    pi2_bound,
    pi2_polys,
    pi2_profile,
    propagate_profile,
    weighted_defect_direct,
    weighted_defect_polys,
)
from kbound.exact import InconsistencyError, Poly, rat_str, sign_certificate
import kbound.bounds as bounds
import kbound.cli as cli
import kbound.scroll as scroll
import kbound.verify as verify
from kbound.scroll import DivisorClass, KsqMinimum, _k2_raw
from kbound.verify import (
    CASES,
    CLAIM_ANCHORS,
    abs_diff_poly,
    appendix_table,
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
from test_routes import walked_phi_prime_signs


# symbolic building blocks match independent oracles ---------------------------

def test_residue_class_polys_match_bound_functions():
    # The scalar bounds evaluate these very polynomials, so they are checked
    # against oracles that share no formula with them, on every residue class:
    # Hilbert-profile defect sums, the term-by-term weighted sum and the
    # Halphen formula written out inline. Each tuple's length is checked
    # against the modulus of its split, written out here once more.
    for r in range(3, 9):
        assert len(castelnuovo_polys(r)) == r - 1
        for d in range(r, 400):
            assert castelnuovo_polys(r)[(d - 1) % (r - 1)](d) == castelnuovo_profile(r, d).defect_sum(), (r, d)
    assert (len(pi2_polys()), len(pi1_polys()), len(weighted_defect_polys())) == (5, 4, 4)
    for d in range(2, 400):
        assert pi2_polys()[(d - 1) % 5](d) == pi2_profile(d).defect_sum(), d
        assert pi1_polys()[(d - 1) % 4](d) == pi1_profile(d).defect_sum(), d
    for d in range(5, 400):
        p, q = divmod(d - 1, 4)
        assert weighted_defect_polys()[q](p) == weighted_defect_direct(d), d
    for s in range(2, 7):
        assert len(halphen_polys(s)) == s
        for d in range(s * s - s + 1, 300):
            eps = (d - 1) % s
            inline = (
                Fraction(d * d, 2 * s) + Fraction(d * (s - 4), 2) + 1
                - Fraction((s - 1 - eps) * (eps + 1) * (s - 1), 2 * s)
            )
            assert halphen_polys(s)[eps](d) == inline, (s, d)
    assert list(scroll.FRAME_RESIDUES) == [0, 1, 2]
    for d in range(4, 400):
        assert scroll._split3(d) == divmod(d - 1, 3), d


def resized(t, by):
    """t with its last residue dropped (by = -1) or its first repeated (by = 1)."""
    if isinstance(t, range):
        return range(len(t) + by)
    return t[:by] if by < 0 else t + t[:by]


@pytest.mark.parametrize("by", [-1, 1], ids=["shortened", "lengthened"])
@pytest.mark.parametrize("name", [
    "castelnuovo_polys",
    "halphen_polys",
    "pi2_polys",
    "pi1_polys",
    "weighted_defect_polys",
    "FRAME_RESIDUES",
])
def test_a_resized_residue_declaration_fails_the_theorem(monkeypatch, name, by):
    # The declaration is patched where it is defined and in verify, which
    # imports it by name. The weighted defect tuple takes its length from
    # pi1_polys, so its cache is cleared around the run.
    module = scroll if name == "FRAME_RESIDUES" else bounds
    real = getattr(module, name)
    fake = resized(real, by) if isinstance(real, range) else lambda *args: resized(real(*args), by)
    for mod in (module, verify):
        monkeypatch.setattr(mod, name, fake)
    weighted_defect_polys.cache_clear()
    try:
        verdict = verify_theorem(36, 200)
    except (InconsistencyError, LookupError):
        return
    finally:
        weighted_defect_polys.cache_clear()
    assert not verdict.overall


def test_spanned_quadratic_identity():
    for r in range(5, 12):
        for eps in range(r - 2):
            assert spanned_quadratic_poly(r, eps) == spanned_from_bounds_poly(r, eps)


def test_psi_identity_and_remark_constants():
    for r in range(6, 12):
        for eps in range(r - 1):
            assert psi_from_bounds_poly(r, eps) == psi_quoted_poly(r, eps)
    # the numerators over r - 1 are the quoted Fraction coefficients
    for r in range(5, 41):
        for eps in range(r - 1):
            lead = Fraction(r - 5, r - 1)
            const = Fraction(-4, r - 1) * (-r + 2 - eps - eps * eps + eps * r)
            assert psi_quoted_poly(r, eps) == Poly.of(const, -2 * lead, lead), (r, eps)
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
    xs = verify.X_SAMPLES  # x = a/b as the integer pairs (a, b)
    assert len({Fraction(a, b) for a, b in xs}) == len(xs)
    assert all(type(a) is type(b) is int and 6 * b < a <= 9 * b and b in (2, 4, 8, 16) for a, b in xs)
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
    # the quoted forms over one denominator are the paper's Fraction coefficients
    assert verify.S4_RHS_QUOTED == Poly.of(Fraction(-999, 4), Fraction(-47, 2), Fraction(-9, 4), Fraction(1, 8))
    weak_bounds = {
        "R4.reduce": Poly.of(1, Fraction(1, 2), Fraction(1, 10)),
        "R4.s2": Poly.of(1, -1, Fraction(1, 4)),
        "R4.s3": Poly.of(1, Fraction(-1, 2), Fraction(1, 6)),
        "R4.s4.x<=6": weak,
    }
    for cert in verify_r4(36, 40):
        if cert.claim_id in weak_bounds:
            g = weak_bounds[cert.claim_id]
            chi = 1 - g if cert.claim_id in ("R4.reduce", "R4.s4.x<=6") else 1
            assert cert.sign_certificates[0].polynomial == r4_margin_poly(g, chi), cert.claim_id


#: Each r = 4 chain's chi(O_S) bound in terms of the genus bound g, by s:
#: 1 - g for R4.reduce (s = 5), 1 for R4.s2 and R4.s3.
R4_CHI = {5: lambda g: 1 - g, 2: lambda g: 1, 3: lambda g: 1}


def test_r4_per_degree_checks_report_a_failing_degree(monkeypatch):
    # the scalar per-degree checks must see the genus bound: a bound far above
    # Halphen's at one degree makes 2K^2 too small there
    real = verify.halphen_bound
    monkeypatch.setattr(
        verify, "halphen_bound",
        lambda d, s: bounds.GenusBoundResult("halphen", d, d * d, {}) if d == 44 else real(d, s),
    )
    assert verify._r4_check_one(5, R4_CHI[5], 43) is None
    assert verify._r4_check_one(5, R4_CHI[5], 44) == 44
    assert verify._r4_check_one(2, R4_CHI[2], 44) == 44
    assert verify._r4_check_one(3, R4_CHI[3], 45) is None


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


@pytest.mark.parametrize("index", range(7))
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
    if (index, change) == (2, "+1"):
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
        assert verify._sharpness_scan(d) == k2s, d


def spy_proofs(monkeypatch) -> dict[str, tuple]:
    """Each proof's verdicts by name, on the tuples its builder hands verify._gate in later builds."""
    verdicts, real = {}, verify._gate
    monkeypatch.setattr(verify, "_gate", lambda claim, *tuples: verdicts.update(
        (proof.__name__, proof(*tuples)) for proof in verify.PROOFS[claim]) or real(claim, *tuples))
    return verdicts


def test_walk_mismatch_is_reported_as_counterexample(monkeypatch):
    # A K^2 route that is not cubic in alpha derails the ring walk, fails
    # the factorization, and leaves phi at the first of its five classes
    # (phi(-m) = 8): decide rejects, locate names the class, and neither
    # crashes.
    monkeypatch.setattr(verify, "_k2_raw", lambda c: c.alpha * c.alpha * c.alpha * c.alpha)
    with pytest.raises(InconsistencyError, match="^forward-difference walk"):
        verify._sharpness_scan(40)
    failure = "the intersection ring gives K^2 = 1 at alpha=1, phi gives 8"
    assert verify._sharpness_ring_check(40) == f"d=40: {failure}"
    proofs, cert = spy_proofs(monkeypatch), verify_sharpness(36, 40)
    assert proofs == {"_sharpness_proof": (False,) * 3, "_ring_proof": (False,) * 3}  # so decide rejects every degree
    assert cert.status == "counterexample"
    assert cert.witness["failure"] == f"d=36: {failure}"


def test_phi_prime_walk_mismatch_is_reported(monkeypatch):
    monkeypatch.setattr(verify, "phi_derivative", lambda d, a: a**3 - 1000)
    failure = verify._appendix_check_one(verify.minimize_k2, 100)
    assert failure.startswith("d=100: forward-difference walk")


def doctor_walk(monkeypatch, d, lo, index, value):
    """Make the verify.forward_walk of phi' at degree d from lo return value
    at index; the walk is handed partial(phi_derivative, d)."""
    real = verify.forward_walk

    def walk(f, start, hi, degree):
        values = real(f, start, hi, degree)
        if getattr(f, "args", None) == (d,) and start == lo:
            values[index] = value
        return values

    monkeypatch.setattr(verify, "forward_walk", walk)


def unsettle_phi_prime(monkeypatch, d):
    """Make the O(1) sign test settle neither phi' range at degree d."""
    real, m = verify._phi_prime_settled, scroll._split3(d)[0]
    at_d = (m, scroll.phi_derivative_coefficients(*scroll._split3(d)))
    monkeypatch.setattr(
        verify, "_phi_prime_settled", lambda m, dphi: (False, False) if (m, dphi) == at_d else real(m, dphi)
    )


# At d = 40 (m = 13, e = 0, a* = 6) phi' is walked over [-11, -1], where it
# must be positive, and over [1, 7], where it must be negative; d = 41 walks
# the same ranges. The ends and the curvature settle both ranges on a
# passing degree, so a sweep also unsettles them at d = 40 for decide to
# reject it there.
@pytest.mark.parametrize("index, a", [(0, -11), (4, -7), (10, -1)])
def test_appendix_reports_phi_prime_not_positive(monkeypatch, index, a):
    unsettle_phi_prime(monkeypatch, 40)
    doctor_walk(monkeypatch, 40, -11, index, 0)
    failure = f"d=40: phi' not positive at a={a} in [-m+2, -1]"
    assert verify._appendix_check_one(verify.minimize_k2, 40) == failure
    assert verify._appendix_check_one(verify.minimize_k2, 41) is None
    assert verify._appendix_check_one(verify.minimize_k2, 43) is None  # m = 14: its walk starts at -12
    cert = verify_appendix(39, 41)
    assert cert.status == "counterexample"
    assert cert.witness["failure"] == failure


@pytest.mark.parametrize("index, a", [(0, 1), (6, 7)])
def test_appendix_reports_phi_prime_not_negative(monkeypatch, index, a):
    doctor_walk(monkeypatch, 40, 1, index, 0)
    assert verify._appendix_check_one(verify.minimize_k2, 40) == f"d=40: phi' not negative at a={a} >= 1"


@pytest.mark.parametrize("d", [7, 40, 41])
def test_phi_prime_settled_is_sound_for_any_quadratic(d):
    # On every small quadratic (C, B, A), convex and linear ones included, a
    # range that the O(1) test settles passes its walk.
    m, eps = scroll._split3(d)
    verdicts = set()
    for C, B, A in product(range(-20, 21, 5), range(-20, 21, 5), (-5, -1, 0, 1)):
        def dphi(d, a):
            return (A * a + B) * a + C

        walked = walked_phi_prime_signs(partial(dphi, d), m, eps)
        settled = verify._phi_prime_settled(m, (C, B, A))
        assert all(map(le, settled, walked)), (C, B, A)
        verdicts.update(zip(settled, walked))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_a_passing_appendix_sweep_walks_phi_prime_at_its_last_degree(monkeypatch):
    # The frame scan goes through scroll, so on a passing sweep only locate
    # calls verify.forward_walk: at d = hi, once per phi' sign range.
    calls = []
    real = verify.forward_walk
    monkeypatch.setattr(
        verify, "forward_walk",
        lambda f, lo, hi, degree: calls.append((f.args, lo, hi)) or real(f, lo, hi, degree),
    )
    assert verify_appendix(1500, 1519).status == "verified"
    m, eps = scroll._split3(1519)
    assert calls == [((1519,), -m + 2, -1), ((1519,), 1, scroll._a_star(m, eps) + 1)]


# The certificates signed at one fixed residue, by label: the appendix_table
# entry each carries and the sign it is carried with.
WORST_RESIDUE_ENTRIES = {
    "(phi(0) factor": (2, 1), "(phi(1) factor": (3, 1), "(phi'(-m+2)": (5, 1),
    "(phi'(-1)": (6, 1), "(phi'(1)": (4, -1),
}


def test_appendix_worst_residues_come_from_the_frame_residues():
    m = Poly.variable()
    signs = verify_appendix(36, 36).sign_certificates
    for tag, (k, sign) in WORST_RESIDUE_ENTRIES.items():
        [cert] = [c for c in signs if tag in c.label]
        entries = {e: sign * appendix_table(m, e)[k] for e in scroll.FRAME_RESIDUES}
        worst = [e for e, p in entries.items() if p == cert.polynomial]
        assert worst, cert.label
        for e, p in entries.items():
            if e != worst[0]:
                margin = sign_certificate(p - cert.polynomial, cert.start, "nonnegative", variable="m")
                assert margin.ok, (cert.label, e)


#: The K^2 lists of a degree's classes, alpha = 1, 2, ... at index 0, 1, ...:
#: the frame scan of phi, which minimize_k2 reads, and the ring walk of
#: SHARPNESS's locate.
CLASS_SCANS = {"frame": (scroll, "frame_k2"), "ring": (verify, "_sharpness_scan")}


def doctor_scans(monkeypatch, d, index, value, scans):
    """Make each named K^2 list of degree d hold value at index."""
    for name in scans:
        module, attr = CLASS_SCANS[name]
        real = getattr(module, attr)

        def scan(n, real=real):
            values = real(n)
            if n == d:
                values[index] = value
            return values

        monkeypatch.setattr(module, attr, scan)


@pytest.mark.parametrize("index, attained", [(0, [1, 20]), (4, [5, 20])])
def test_sharpness_reports_a_second_attainer(monkeypatch, index, attained):
    # The frame of d = 40 is a = -13 .. 6, alpha = a + 14 = 1 .. 20: a second
    # class with K^2 = -d(d-6) = -1360 in the ring walk breaks the
    # uniqueness. The factorization rules such a class out, so a sweep's
    # decide rejects d = 40 only once the proof fails; locate writes the
    # failure there.
    doctor_scans(monkeypatch, 40, index, -1360, scans=("ring",))
    failure = f"d=40: -d(d-6) attained at alpha in {attained}, not only d/2"
    assert verify._sharpness_ring_check(40) == failure
    monkeypatch.setitem(verify.PROOFS, "SHARPNESS", (lambda cubics: (False,) * 3,))
    cert = verify_sharpness(40, 40)
    assert (cert.status, cert.witness["failure"]) == ("counterexample", failure)


def test_sharpness_reports_an_odd_degree_attainer(monkeypatch):
    # d = 41 (frame a = -13 .. 6): a class reaching -d(d-6) = -1435, and one
    # below it without the even minimum reached
    doctor_scans(monkeypatch, 41, 3, -1435, scans=("ring",))
    assert verify._sharpness_ring_check(41) == "d=41: odd degree attains the even-degree minimum"
    doctor_scans(monkeypatch, 41, 3, -1436, scans=("ring",))
    failure = "d=41: odd-degree minimum -1436 fails to exceed -1435"
    assert verify._sharpness_ring_check(41) == failure
    monkeypatch.setitem(verify.PROOFS, "SHARPNESS", (lambda cubics: (False,) * 3,))
    cert = verify_sharpness(41, 41)
    assert (cert.status, cert.witness["failure"]) == ("counterexample", failure)


@pytest.mark.parametrize("extra", [
    lambda a: (a - 1) * (a - 2) * (a - 3),  # agrees at three of the four seeds
    lambda a: -(a - 1) * (a - 2) * (a - 3),
    lambda a: (a - 1) * (a - 2) * (a - 3) * (a - 4),  # agrees at all four seeds
])
def test_sharpness_fails_a_ring_route_that_leaves_phi(monkeypatch, extra):
    real = verify._k2_raw
    monkeypatch.setattr(verify, "_k2_raw", lambda c: real(c) + extra(c.alpha))
    proofs, cert = spy_proofs(monkeypatch), verify_sharpness(36, 60)
    assert proofs["_ring_proof"] == (False,) * 3  # so decide rejects every degree
    assert cert.status == "counterexample"
    alpha = 18 if extra(4) == 0 else 4  # the first class where the routes differ
    ring = -36 * 30 + extra(alpha) if alpha == 18 else real(DivisorClass(4, 24)) + extra(4)
    assert cert.witness["failure"] == (
        f"d=36: the intersection ring gives K^2 = {ring} at alpha={alpha},"
        f" phi gives {ring - extra(alpha)}"
    )


def test_the_ring_factors_at_every_class():
    # the identity _sharpness_proof settles from u = 0..3, at every class
    # alpha = s = 1 .. d // 2 of every degree d in [8, 400], u = d - 2s
    for d in range(8, 401):
        for s in range(1, d // 2 + 1):
            u = d - 2 * s
            assert _k2_raw(DivisorClass(s, d - 3 * s)) + d * (d - 6) == u * (3 * s * s - 8 * s + 3 + u), (d, s)


@pytest.mark.parametrize("module, name, doctor", [
    (scroll, "H2W", lambda real: real + 1),
    (scroll, "CANONICAL", lambda real: real + scroll.RULING),
    (verify, "_k2_raw", lambda real: lambda c: real(c) + c.alpha * c.alpha * c.alpha * c.alpha),
], ids=["H2W + 1", "K_T + W", "K^2 + alpha^4"])
def test_a_wrong_ring_fails_the_factorization(monkeypatch, module, name, doctor):
    monkeypatch.setattr(module, name, doctor(getattr(module, name)))
    proofs, cert = spy_proofs(monkeypatch), verify_sharpness(36, 60)
    assert proofs["_sharpness_proof"] == (False,) * 3
    assert cert.status == "counterexample"
    assert cert.witness["failure"].startswith("d=36: the intersection ring gives K^2 = ")


@pytest.mark.parametrize("wrong", [(1, 0, 0, 0), (0, 1, 0, 0)])  # phi + 1, phi + a
def test_a_wrong_phi_fails_both_claims(monkeypatch, wrong):
    # phi, phi' and the per-degree checks all read phi_coefficients, so the
    # doctoring goes there, wherever it is looked up
    real = scroll.phi_coefficients
    for module in (scroll, verify):
        monkeypatch.setattr(module, "phi_coefficients", lambda m, e: tuple(map(add, real(m, e), wrong)))
    verdict = verify_theorem(36, 60, cases=("appendix", "sharpness"))
    assert [c.status for c in verdict.certificates] == ["counterexample"] * 2
    assert all(c.witness["failure"].startswith("d=36: ") for c in verdict.certificates)


def test_serializing_a_run_builds_no_fraction(monkeypatch):
    # Poly.to_json and Poly.text render each coefficient from its integer
    # numerator and the denominator
    verdict = verify_theorem(36, 60)
    built = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args: built.append(args) or real(cls, *args))
    verdict.to_json()
    assert built == []
    Fraction(1, 2)
    assert built == [(1, 2)]  # the spy does see a Fraction being built


def test_building_the_closed_forms_makes_no_fraction(monkeypatch):
    # each closed form is written as integer numerators over one denominator
    built = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or real(cls, *args, **kw))
    for polys in (castelnuovo_polys, halphen_polys, pi2_polys, pi1_polys):
        polys.cache_clear()
    for r in range(3, 13):
        castelnuovo_polys(r)
        halphen_polys(r)
    pi2_polys()
    pi1_polys()
    for r in range(5, 13):
        for eps in range(r - 1):
            psi_quoted_poly(r, eps)
    assert built == []
    Fraction(1, 2)
    assert built == [(1, 2)]


def test_sharpness_certificate_alone_equals_the_full_runs():
    def sharpness(verdict):
        (cert,) = (c for c in verdict.certificates if c.claim_id == "SHARPNESS")
        return cert.to_json_dict()

    alone = sharpness(verify_theorem(36, 400, cases=("sharpness",)))
    assert alone == sharpness(verify_theorem(36, 400))
    assert alone == verify_sharpness(36, 400).to_json_dict()


def spy_minima(monkeypatch) -> dict[str, list]:
    """Records the degrees of every frame_k2 and every minimize_k2 that
    verify calls, and each frame walk window as [lo, hi, frames read]."""
    calls = {"frame_k2": [], "minimize_k2": [], "walks": []}
    real_frame, real_minimize, real_walk = scroll.frame_k2, verify.minimize_k2, verify.frame_walk

    def walk(lo, hi):
        calls["walks"].append(record := [lo, hi, 0])
        for degree in real_walk(lo, hi):
            record[2] += 1
            yield degree

    monkeypatch.setattr(scroll, "frame_k2", lambda d, n=0: calls["frame_k2"].append(d) or real_frame(d, n))
    monkeypatch.setattr(verify, "minimize_k2", lambda d: calls["minimize_k2"].append(d) or real_minimize(d))
    monkeypatch.setattr(verify, "frame_walk", walk)
    return calls


def test_one_frame_minimum_per_degree_in_a_run(monkeypatch):
    calls = spy_minima(monkeypatch)
    verify_theorem(36, 100)
    # APPENDIX.min's decide walks 36 .. 100 in a chain of windows, each of
    # max(d // 4, 16) degrees on from its first degree d and packed from one
    # frame_k2 there, the last cut at 100; its locate minimizes 100 itself
    assert calls == {"frame_k2": [36, 53, 70, 88, 100], "minimize_k2": [100],
                     "walks": [[36, 52, 17], [53, 69, 17], [70, 87, 18], [88, 100, 13]]}
    # SHARPNESS reads no minimum: its decide rests on the factorization,
    # and locate at d = 40 walks the intersection ring, not the frame
    calls = spy_minima(monkeypatch)
    verify_sharpness(36, 40)
    assert calls == {"frame_k2": [], "minimize_k2": [], "walks": []}


def test_the_run_memo_advances_its_walk_only_to_the_next_degree(monkeypatch):
    calls = spy_minima(monkeypatch)
    minimum = verify._walked_minima(100)
    for d in (*range(40, 60), 41, 100, 101, 45, 60, 102):
        assert minimum(d) == scroll.minimize_k2(d), d
    # 40 .. 59 cross from the window [40, 56] into the next, and 41 and 45
    # are remembered; 100 starts a chain whose window ends at the sweep's
    # last degree, and 101, past it, moves the chain into a window of
    # 101 // 4 degrees on; 60 is not 101's successor, nor 102 60's
    assert calls["walks"] == [[40, 56, 17], [57, 73, 3], [100, 100, 1], [101, 126, 1], [60, 76, 1], [102, 127, 1]]


def test_the_run_memo_restarts_a_walk_that_raised(monkeypatch):
    # the step of the class alpha = 20 is off by one from d = 40 to 41,
    # which the window's end check at d = 41 finds
    real = scroll.k2_step
    monkeypatch.setattr(scroll, "k2_step", lambda alpha: real(alpha) + (alpha == 20))
    calls = spy_minima(monkeypatch)
    minimum = verify._walked_minima(60)
    assert minimum(40) == scroll.minimize_k2(40)
    with pytest.raises(InconsistencyError, match="^frame walk gives .* at d=41"):
        minimum(41)
    assert minimum(41) == scroll.minimize_k2(41)  # the first degree of a new window
    assert calls["walks"] == [[40, 56, 1], [41, 57, 1]]


def test_a_walk_that_breaks_mid_run_raises_its_own_fault(monkeypatch, capsys):
    # the walk alone takes a wrong step for the class alpha = 20, which is
    # admissible from d = 40 on but walked from the window's first degree
    # 36; the proof reads verify's k2_step and holds, so the lanes' sum at
    # d = 37 raises out of decide, and the run exits 1
    real = scroll.k2_step
    monkeypatch.setattr(scroll, "k2_step", lambda alpha: real(alpha) + (alpha == 20))
    proofs = spy_proofs(monkeypatch)
    message = "frame walk's lanes do not sum to -76167 mod 2^24 - 1 at d=37"
    with pytest.raises(InconsistencyError, match=f"^{re.escape(message)}$"):
        verify_theorem(36, 60, cases=("appendix",))
    assert proofs["_step_proof"] == (True,) * 3
    assert cli.main(["verify", "appendix", "--from", "36", "--to", "60"]) == 1
    assert capsys.readouterr().err == f"inconsistency: {message}\n"


STEP_DOCTORS = {
    "step off at alpha = 2": (lambda alpha: (alpha == 2), None),
    "step off past alpha = 4": (lambda alpha: (alpha - 1) * (alpha - 2) * (alpha - 3) * (alpha - 4), None),
    "phi + a": (lambda alpha: 0, (0, 1, 0, 0)),  # breaks only where m moves, which a walk crosses
}


@pytest.mark.parametrize("name", STEP_DOCTORS)
def test_a_broken_step_identity_rejects_every_degree(monkeypatch, name):
    # decide rejects d = 36 and 60 before any walk, and each locate reads a
    # new window's first frame, the one at 60 cut there: a wrong step alone
    # leaves d = 36 passing, and the run raises there; a wrong phi fails
    # both claims there
    extra, wrong = STEP_DOCTORS[name]
    real_step, real_phi = scroll.k2_step, scroll.phi_coefficients
    for module in (scroll, verify):
        monkeypatch.setattr(module, "k2_step", lambda alpha: real_step(alpha) + extra(alpha))
        if wrong:
            monkeypatch.setattr(module, "phi_coefficients", lambda m, e: tuple(map(add, real_phi(m, e), wrong)))
    proofs, calls = spy_proofs(monkeypatch), spy_minima(monkeypatch)
    if not wrong:
        with pytest.raises(InconsistencyError, match="^APPENDIX.min at d=36: decide rejects, locate gives None$"):
            verify_theorem(36, 60, cases=("appendix", "sharpness"))
    else:
        appendix, sharpness = verify_theorem(36, 60, cases=("appendix", "sharpness")).certificates
        assert appendix.witness["failure"] == "d=36: minimum -1074 != closed form -1080"
        assert sharpness.witness["failure"].startswith("d=36: the intersection ring gives K^2 = ")
    assert calls["walks"] == [[36, 52, 1], [60, 60, 1]]
    assert proofs["_step_proof"] == (False,) * 3


BUILDS = {"APPENDIX.min": lambda: verify_appendix(36, 60), "SHARPNESS": lambda: verify_sharpness(36, 60)}


@pytest.mark.parametrize("claim, proof, build", [(c, p.__name__, BUILDS[c]) for c, row in verify.PROOFS.items() for p in row])
def test_a_proof_failing_on_one_residue_rejects_its_degrees(monkeypatch, claim, proof, build):
    # residue 1 first holds d = 38 (d - 1 = 3*12 + 1); nothing is wrong
    # there, so locate passes it and the sweep raises
    row = tuple((lambda *tuples: (True, False, True)) if p.__name__ == proof else p for p in verify.PROOFS[claim])
    monkeypatch.setitem(verify.PROOFS, claim, row)
    with pytest.raises(InconsistencyError, match=f"^{re.escape(claim)} at d=38: decide rejects, locate gives None$"):
        build()


def test_appendix_locate_raises_where_the_runs_minimum_differs(monkeypatch):
    # the run's walk claims a second attainer at d = 101, which no odd
    # degree's decide reads; locate's own minimize_k2 does not
    real = verify.frame_walk

    def frame_walk(lo, hi):
        for res, *frame in real(lo, hi):
            yield KsqMinimum(res.d, res.a_min, res.k2_min, res.unique and res.d != 101), *frame

    monkeypatch.setattr(verify, "frame_walk", frame_walk)
    with pytest.raises(InconsistencyError, match=r"^d=101: the run's frame minimum KsqMinimum\(d=101, .*unique=False\) differs"):
        verify_theorem(100, 101, cases=("appendix",))


def test_sweep_failure_is_recorded_at_its_degree(monkeypatch):
    # A per-degree failure in a failure_at sweep is reported as the first
    # failing degree, under the check's label, and fails the claim. The
    # integer check is handed G(5;d) = 0 at d = 40 and 45, and the scalar
    # route G(5;40) = 0.
    real = verify._r5_abs_int_check
    monkeypatch.setattr(
        verify, "_r5_abs_int_check",
        lambda g4, g5, d: real(g4, (Poly.zero(),) * 4 if d in (40, 45) else g5, d),
    )
    scalar = verify.castelnuovo_bound
    monkeypatch.setattr(
        verify, "castelnuovo_bound", lambda r, d: SimpleNamespace(bound_int=0) if d == 40 else scalar(r, d)
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
    # makes the G(4;d,5) profile 5i - 1 for i <= n, d - w at i = n + 1, then d,
    # and the scalar route builds that profile.
    n, _, w = split
    real = verify.pi2_split
    monkeypatch.setattr(verify, "pi2_split", lambda d: split if d == 40 else real(d))
    built = verify.pi2_profile
    monkeypatch.setattr(
        verify, "pi2_profile",
        lambda d: HilbertProfile("doctored", d, (*range(4, 5 * n, 5), d - w)) if d == 40 else built(d),
    )
    cert = verify._r5_profile((4, 9, 16), 36, 50)
    assert cert.status == "counterexample"
    assert cert.witness == {
        "failed_check": R5_PROFILE_LABEL,
        "failure": f"d=40: propagated value 34 < profile value {value} at i=7",
    }


def test_r5_profile_sweep_reports_a_genus_bound_above_pi2(monkeypatch):
    # the integer check is handed G(4;d,5) = 0 at d = 40, and so is the
    # scalar route
    real = verify._r5_profile_int_check
    monkeypatch.setattr(
        verify, "_r5_profile_int_check",
        lambda seed, g4, d: real(seed, (Poly.zero(),) * 5 if d == 40 else g4, d),
    )
    scalar = verify.pi2_bound
    monkeypatch.setattr(verify, "pi2_bound", lambda d: SimpleNamespace(bound_int=0) if d == 40 else scalar(d))
    cert = verify._r5_profile((4, 10, 19), 36, 50)
    assert cert.status == "counterexample"
    assert cert.witness == {
        "failed_check": R5_PROFILE_LABEL,
        "failure": "d=40: propagated genus bound exceeds G(4;d,5)",
    }


# the per-degree identities, proved once per claim from four values of m ---------

M = Poly.variable()


def m_degree(c):
    return c.degree if isinstance(c, Poly) else 0


@pytest.mark.parametrize("eps", scroll.FRAME_RESIDUES)
def test_the_skipped_identities_have_degree_at_most_3_in_m(eps):
    assert [m_degree(c) for c in scroll.phi_coefficients(M, eps)] == [3, 1, 1, 0]
    assert [m_degree(c) for c in scroll.phi_derivative_coefficients(M, eps)] == [1, 1, 0]
    assert [m_degree(c) for c in appendix_table(M, eps)] == [0, 1, 2, 2, 1, 1, 1]
    # the ring's K^2 is a trilinear triple product: cubic in m for a fixed
    # frame index a, and of degree at most 3 for each fixed seed alpha
    for a in range(4):
        assert _k2_raw(DivisorClass(M + 1 + a, eps - 2 - 3 * a)).degree == 3
    for alpha in (1, 2, 3, 4):
        assert m_degree(_k2_raw(DivisorClass(alpha, 3 * M + eps + 1 - 3 * alpha))) <= 3


def test_both_proofs_hold_on_every_residue(monkeypatch):
    # every row of verify.PROOFS, so no degree of a run is rejected for a failed proof
    proofs = spy_proofs(monkeypatch)
    verify_theorem(36, 36)
    assert proofs == {proof.__name__: (True,) * 3 for row in verify.PROOFS.values() for proof in row}


def test_the_factorization_is_checked_on_integer_classes(monkeypatch):
    # the 16 classes of s = 1..4 and u = 0..3, none with Poly coordinates
    built, real = [], verify.DivisorClass
    monkeypatch.setattr(verify, "DivisorClass", lambda alpha, beta: built.append((alpha, beta)) or real(alpha, beta))
    assert verify._sharpness_proof([verify.phi_coefficients(M, e) for e in scroll.FRAME_RESIDUES]) == (True,) * 3
    assert sorted(built) == sorted((s, u - s) for s in range(1, 5) for u in range(4))
    assert {type(x) for pair in built for x in pair} == {int}


def test_proved_checks_run_at_the_four_points_and_at_the_last_degree(monkeypatch):
    # On a passing run each claim checks its identities at the 12 degrees
    # d = 3m + eps + 1 with m in 1..4, and locate checks all at d = hi.
    tabulated, ring = [], []
    real_tab, real_ring = verify._tabulated_fault, verify._ring_mismatch
    monkeypatch.setattr(verify, "_tabulated_fault", lambda m, e: tabulated.append(3 * m + e + 1) or real_tab(m, e))
    monkeypatch.setattr(verify, "_ring_mismatch", lambda d: ring.append(d) or real_ring(d))
    assert verify_theorem(1500, 1699).overall
    points = [4, 7, 10, 13, 5, 8, 11, 14, 6, 9, 12, 15]
    assert tabulated == ring == [*points, 1699]


APPENDIX_LABEL = (
    "brute-force minimization over [-m, a*] matches the closed forms,"
    " uniqueness and parity for every d in [18, 60]"
)

#: For each tabulated check, a change of degree at most 3 in m that breaks
#: it alone: added to the appendix_table entries, or, as a cubic in a that
#: vanishes where the earlier checks evaluate phi, to phi_coefficients as
#: verify reads it (the frame and phi' read scroll's).
TABULATED_BREAKS = {
    "phi(-m) != 8": ("appendix_table", lambda m: (1, 0, 0, 0, 0, 0, 0)),
    "phi(-m+1) != -9m + 17 - 3e": ("phi_coefficients", lambda m: (m, 1, 0, 0)),  # + (a + m)
    "phi(-m+2) != 0": ("phi_coefficients", lambda m: (m * m - m, 2 * m - 1, 1, 0)),  # + (a + m)(a + m - 1)
    "phi(0) factorization fails": ("appendix_table", lambda m: (0, 0, m, 0, 0, 0, 0)),
    "phi(1) factorization fails": ("appendix_table", lambda m: (0, 0, 0, m, 0, 0, 0)),
    "phi'(1) != 2 - 26m + 6me": ("appendix_table", lambda m: (0, 0, 0, 0, m, 0, 0)),
    "phi'(-m+2) != 18m + 6e - 42": ("appendix_table", lambda m: (0, 0, 0, 0, 0, m, 0)),
    "phi'(-1) != 10m + 6me - 12e - 18": ("appendix_table", lambda m: (0, 0, 0, 0, 0, 0, m)),
}


@pytest.mark.parametrize("failure", sorted(TABULATED_BREAKS))
def test_a_broken_tabulated_identity_fails_at_its_first_degree(monkeypatch, failure):
    # the four points find the break on every residue, so decide rejects
    # every degree, and locate names the failure at the first, d = 18
    name, extra = TABULATED_BREAKS[failure]
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda m, e: tuple(map(add, real(m, e), extra(m))))
    proofs, cert = spy_proofs(monkeypatch), verify_appendix(18, 60)
    assert proofs["_tabulated_proof"] == (False,) * 3
    assert cert.witness == {"failed_check": APPENDIX_LABEL, "failure": f"d=18: {failure}"}


@pytest.mark.parametrize("index, extra, read_by_poly", [
    (2, lambda m: (m - 1) * (m - 2) * (m - 3) * (m - 4), True),
    (2, lambda m: (m - 1) * (m - 3) * (m - 4), True),  # times m - 2 in the identity
    (1, lambda m: (m - 1) * (m - 2) * (m - 3) * (m - 4), True),
    (2, lambda m: (m - 1) * (m - 2) * (m - 3) * (m - 4), False),
    ("factor", (24, -50, 35, -10, 1), True),  # (m-1)(m-2)(m-3)(m-4) added to m - 2
])
def test_a_break_vanishing_at_the_four_points(monkeypatch, index, extra, read_by_poly):
    # The breaks of phi(0) = (m - 2)*phi0, of its factor m - 2 and of
    # phi(-m+1)'s entry vanish at the four points. Read from a Poly in m,
    # they raise the identity's degree to at least 4, so nothing is proved,
    # decide rejects every degree and the sweep fails at its first. Added
    # for int m only, a break escapes the degree read: decide skips the
    # check, and locate, which runs every check at the last degree, raises
    # there.
    real = verify.appendix_table
    failure = {1: "phi(-m+1) != -9m + 17 - 3e"}.get(index, "phi(0) factorization fails")

    def wrong(m, eps):
        values = list(real(m, eps))
        if read_by_poly or isinstance(m, int):
            values[index] += extra(m)
        return tuple(values)

    if index == "factor":
        factor = tuple(map(add, verify.PHI_FACTORS[0] + (0, 0, 0), extra))
        monkeypatch.setattr(verify, "PHI_FACTORS", (factor, verify.PHI_FACTORS[1]))
    else:
        monkeypatch.setattr(verify, "appendix_table", wrong)
    if read_by_poly:
        cert = verify_appendix(18, 60)
        assert cert.witness == {"failed_check": APPENDIX_LABEL, "failure": f"d=18: {failure}"}
    else:
        with pytest.raises(InconsistencyError, match=re.escape(
            f"APPENDIX.min at d=60: decide passes, locate gives 'd=60: {failure}'"
        )):
            verify_appendix(18, 60)


@pytest.mark.parametrize("index, value", [
    (5, -1361),  # a minimum away from a*
    (19, 0),  # a* raised above the rest
    (5, -1360),  # the minimum repeated at a*
    (18, -1360),
])
def test_minimize_k2_is_the_first_least_value_and_whether_it_repeats(monkeypatch, index, value):
    # d = 40 (frame a = -13 .. 6, minimum -1360 at a* = 6, index 19): where
    # the last value is not below all the others, minimize_k2 is the first
    # least value and whether it repeats
    doctor_scans(monkeypatch, 40, index, value, scans=("frame",))
    values = scroll.frame_k2(40)
    best = min(values)
    assert scroll.minimize_k2(40) == KsqMinimum(40, -13 + values.index(best), best, values.count(best) == 1)


# the fast route of each sweep (decide) against its slow route (locate) ---------

G4 = pi2_polys()


@pytest.mark.parametrize("seed", [(4, 8, 12), (4, 9, 15), (2, 3, 4)])
def test_r5_profile_closed_form_matches_the_built_profiles(seed):
    # seeds that fail at many degrees; tests/test_routes.py compares the
    # two valid seeds that R5.profile sweeps
    failing = 0
    for d in range(31, 3001):
        closed = verify._r5_profile_int_check(seed, G4, d)
        assert closed == (verify._r5_profile_check_one(seed, d) is None), d
        failing += not closed
    assert failing > 0


VALID_SEEDS = st.lists(st.integers(1, 40), min_size=3, max_size=3).map(sorted).filter(
    lambda seed: seed[2] >= 2
)


@given(VALID_SEEDS, st.integers(0, 400))
def test_r5_profile_closed_form_matches_for_any_valid_seed(seed, extra):
    # nondecreasing seeds with h3 >= 2, and d >= h3 so that no value exceeds d
    seed, d = tuple(seed), seed[2] + extra
    assert verify._r5_profile_int_check(seed, G4, d) == (verify._r5_profile_check_one(seed, d) is None)


def test_r5_profile_closed_form_matches_on_every_small_seed():
    # seeds equal to d at small d meet every segment boundary of the closed form
    seeds = [seed for seed in combinations_with_replacement(range(1, 13), 3) if seed[2] >= 2]
    for seed in seeds:
        for d in range(seed[2], 61):
            located = verify._r5_profile_check_one(seed, d)
            assert verify._r5_profile_int_check(seed, G4, d) == (located is None)


@given(VALID_SEEDS, st.integers(0, 400))
def test_r5_profile_closed_form_genus_is_the_defect_sum(seed, extra):
    # a dominating profile's genus never exceeds G(4;d,5), so both routes
    # are probed with G(4;d,5) set to the propagated defect sum and one below
    seed, d = tuple(seed), seed[2] + extra
    genus = genus_from_profile(propagate_profile(seed, d))
    if verify._r5_profile_int_check(seed, G4, d):
        for bound, failure in ((genus, None), (genus - 1, f"d={d}: propagated genus bound exceeds G(4;d,5)")):
            assert verify._r5_profile_int_check(seed, (Poly.of(bound),) * 5, d) == (failure is None)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "pi2_bound", lambda n: SimpleNamespace(bound_int=bound))
                assert verify._r5_profile_check_one(seed, d) == failure


def test_integer_checks_raise_on_a_non_integer_genus_bound():
    half = Poly.of(Fraction(1, 2))
    with pytest.raises(InconsistencyError, match=r"G\(5;41\) is not an integer: 1/2"):
        verify._r5_abs_int_check(G4, (half,) * 4, 41)
    with pytest.raises(InconsistencyError, match=r"G\(4;41,5\) is not an integer"):
        verify._r5_profile_int_check((4, 9, 16), (half,) * 5, 41)


@pytest.mark.parametrize("check, message", [
    (lambda half: verify._r5_abs_int_check((half,) * 5, castelnuovo_polys(5), 41), "G(4;41,5)"),
    (lambda half: verify._r5_abs_int_check(G4, (half,) * 4, 41), "G(5;41)"),
    (lambda half: verify._r5_profile_int_check((4, 9, 16), (half,) * 5, 41), "G(4;41,5)"),
    (lambda half: verify._r5_deg4_int_check((half,) * 4, pi1_polys(), 41), "weighted defect sum at d=41"),
    (lambda half: verify._r5_deg4_int_check(weighted_defect_polys(), (half,) * 4, 41), "G(4;41,4)"),
    (lambda half: verify._int_at(half, 41, "-d(d-6)"), "-d(d-6)"),
])
def test_a_non_integer_value_is_named_in_full(check, message):
    # each decide hands _int_at its label as a format and the degree
    with pytest.raises(InconsistencyError) as exc:
        check(Poly.of(Fraction(1, 2)))
    assert str(exc.value) == f"{message} is not an integer: 1/2"


def test_each_sweep_rechecks_its_last_degree_through_the_scalar_api(monkeypatch):
    seen = []
    real = verify.halphen_bound
    monkeypatch.setattr(verify, "halphen_bound", lambda d, s: seen.append((d, s)) or real(d, s))
    verify_r4(36, 50)
    assert seen == [(50, 5), (50, 2), (50, 3)]


def test_a_doctored_ring_walk_at_the_last_degree_alone_raises(monkeypatch):
    # a second attainer at d = 42 in the ring walk that locate reads, which
    # the factorization that decide rests on rules out
    doctor_scans(monkeypatch, 42, 0, -1512, scans=("ring",))
    with pytest.raises(
        InconsistencyError,
        match=r"^SHARPNESS at d=42: decide passes, locate gives 'd=42: -d\(d-6\) attained at alpha in \[1, 21\]",
    ):
        verify_sharpness(39, 42)


def test_a_doctored_phi_prime_walk_at_the_last_degree_alone_raises(monkeypatch):
    # decide settles phi' at d = 41 in O(1); locate walks it there and finds
    # the doctored value
    doctor_walk(monkeypatch, 41, -11, 4, 0)
    with pytest.raises(
        InconsistencyError,
        match="^APPENDIX.min at d=41: decide passes, locate gives \"d=41: phi' not positive at a=-7 in",
    ):
        verify_appendix(39, 41)


#: Each sweep by claim id: its decide, its locate, a builder over [36, 50],
#: and the witness key of a failure.
SWEEPS = {
    "R4.reduce": ("_r4_margin_int_check", "_r4_check_one", lambda: verify._r4_reduce(36, 50), "failure_at"),
    "R4.s3": ("_r4_margin_int_check", "_r4_check_one", lambda: verify._r4_s(36, 50, 3), "failure_at"),
    "R5.abs": ("_r5_abs_int_check", "_r5_abs_check_one", lambda: verify._r5_abs(36, 50), "failure_at"),
    "R5.profile.seed-4-10-19": ("_r5_profile_int_check", "_r5_profile_check_one",
                                lambda: verify._r5_profile((4, 10, 19), 36, 50), "failure"),
    "R5.deg4.cubic": ("_r5_deg4_int_check", "_r5_deg4_check_one", lambda: verify._r5_deg4(36, 50), "failure_at"),
    "SHARPNESS": ("_sharpness_check_one", "_sharpness_ring_check", lambda: verify_sharpness(36, 50), "failure"),
    "APPENDIX.min": ("_appendix_settled", "_appendix_check_one", lambda: verify_appendix(36, 50), "failure"),
}


def spy(monkeypatch, name, calls, fail_at=None, failure=None):
    """Record the degree of each call of `name`; give failure at fail_at."""
    real = getattr(verify, name)

    def recorded(*args):
        calls.append(args[-1])
        return failure if args[-1] == fail_at else real(*args)

    monkeypatch.setattr(verify, name, recorded)


@pytest.mark.parametrize("decide, locate, build, key", SWEEPS.values(), ids=SWEEPS)
def test_a_passing_sweep_runs_each_degree_once(monkeypatch, decide, locate, build, key):
    # no failure: locate runs at d = 50 only, to agree with decide there
    decided, located = [], []
    spy(monkeypatch, decide, decided)
    spy(monkeypatch, locate, located)
    assert build().status == "verified"
    assert decided == list(range(36, 51))
    assert located == [50]


@pytest.mark.parametrize("decide, locate, build, key", SWEEPS.values(), ids=SWEEPS)
def test_a_sweep_stops_at_its_first_failure(monkeypatch, decide, locate, build, key):
    # the lazy map stops at d = 40, where locate writes the failure; both
    # routes run once more at d = 50, to agree there
    decided, located = [], []
    spy(monkeypatch, decide, decided, fail_at=40, failure=False)
    spy(monkeypatch, locate, located, fail_at=40, failure="wrong")
    cert = build()
    assert cert.status == "counterexample"
    assert cert.witness[key] == "wrong"
    assert decided == [*range(36, 41), 50]
    assert located == [40, 50]


def test_a_decide_raising_stop_iteration_raises_out_of_the_sweep():
    # a StopIteration from decide at d = 50 must not end the sweep's scan
    # there, which would pass d = 55 unchecked and verify the claim
    def decide(d):
        if d == 50:
            next(iter(()))
        return d != 55

    b = verify._Builder("SHARPNESS", (36, 100), 36)
    with pytest.raises(RuntimeError, match="StopIteration"):
        b.sweep("every degree", decide, lambda d: "wrong" if d == 55 else None)
    assert "checks" not in b.params


@pytest.mark.parametrize("route, d, failure, disagreement", [
    (0, 50, False, "decide rejects, locate gives None"),
    (0, 40, False, "decide rejects, locate gives None"),  # locate runs where decide rejects
    (1, 50, "wrong", "decide passes, locate gives 'wrong'"),
])
@pytest.mark.parametrize("claim", SWEEPS)
def test_a_route_failing_alone_raises_at_its_degree(monkeypatch, claim, route, d, failure, disagreement):
    spy(monkeypatch, SWEEPS[claim][route], [], fail_at=d, failure=failure)
    with pytest.raises(InconsistencyError, match=f"^{re.escape(claim)} at d={d}: {disagreement}$"):
        SWEEPS[claim][2]()


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


def test_certificates_of_one_claim_id_are_ordered_by_their_params(monkeypatch):
    # R6's claim ids are made once per r, and their params break the tie in
    # the merge, whatever order the cases and their certificates come in
    want = verify_theorem(36, 60).to_json()
    real = CASES["r6"]
    monkeypatch.setitem(CASES, "r6", lambda d_from, d_to: real(d_from, d_to)[::-1])
    assert verify_theorem(36, 60, cases=reversed(tuple(CASES))).to_json() == want


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
