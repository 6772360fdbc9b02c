"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is produced by an oracle independent of the code path
it checks: brute-force enumeration of divisor classes with the raw
intersection-ring expansion, term-by-term profile defect sums, and exact
closed forms evaluated separately.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from kbound.bounds import (
    castelnuovo_bound,
    double_point_k2,
    genus_from_profile,
    pi1_bound,
    pi1_profile,
    pi2_bound,
    pi2_profile,
    weighted_defect_closed_form,
    weighted_defect_direct,
)
from kbound.exact import InconsistencyError, sign_certificate
from kbound.scroll import (
    DivisorClass,
    ScrollFrame,
    class_from_frame,
    extremal_class,
    k2_intersection,
    phi,
    phi_derivative,
    sectional_genus,
)
from kbound.verify import (
    abs_diff_poly,
    verify_r4,
    verify_r5_exclusion,
    verify_r5_remark,
    verify_r_ge6_scroll,
    verify_r_ge6_spanned,
)


def _passed(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def _brute_force_class_min(d: int):
    """Oracle: enumerate every admissible class of degree d and compute K^2
    directly from the adjunction triple product on the scroll."""
    best = None
    attained = []
    for alpha in range(1, d // 2 + 1):
        beta = d - 3 * alpha
        k2 = (
            3 * alpha * (alpha - 3) ** 2
            + beta * (alpha - 3) ** 2
            + 2 * alpha * (alpha - 3) * (beta + 1)
        )
        if best is None or k2 < best:
            best = k2
            attained = [(alpha, beta)]
        elif k2 == best:
            attained.append((alpha, beta))
    return best, attained


def test_criterion_01_sharpness_even_degrees():
    t0 = time.time()
    for d in range(36, 2001, 2):
        best, attained = _brute_force_class_min(d)
        assert best == -d * (d - 6), d
        assert attained == [(d // 2, -d // 2)], d
    elapsed = time.time() - t0
    assert elapsed < 30, f"sharpness sweep took {elapsed:.1f}s"
    _passed(1, f"even d in [36, 2000]: min K^2 = -d(d-6) uniquely at (d/2, -d/2) ({elapsed:.1f}s)")


def test_criterion_02_odd_degree_gap():
    t0 = time.time()
    for d in range(37, 2002, 2):
        best, attained = _brute_force_class_min(d)
        # the q = 1 closed form -d^2/4 + d/2 + 35/4 is an integer for odd d
        expected4 = -d * d + 2 * d + 35
        assert expected4 % 4 == 0, d
        assert best == expected4 // 4, d
        assert best > -d * (d - 6), d
    elapsed = time.time() - t0
    assert elapsed < 30
    _passed(2, f"odd d in [37, 2001]: min K^2 = -d^2/4 + d/2 + 35/4 > -d(d-6) ({elapsed:.1f}s)")


def test_criterion_03_phi_intersection_agreement():
    checked = 0
    for d in range(4, 501):
        m, eps = divmod(d - 1, 3)
        for a in range(-m, (m + eps - 1) // 2 + 1):
            c = class_from_frame(ScrollFrame(d, a))
            assert phi(d, a) == k2_intersection(c), (d, a)
            checked += 1
    _passed(3, f"phi(d,a) = K^2 via the intersection ring on all {checked} admissible classes of degree <= 500")


def test_criterion_04_appendix_value_table():
    for d in range(12, 2001):
        m, e = divmod(d - 1, 3)
        assert phi(d, -m) == 8, d
        assert phi(d, -m + 1) == -9 * m + 17 - 3 * e, d
        assert phi(d, -m + 2) == 0, d
        assert phi(d, 0) == (m - 2) * (3 * m * m - 7 * m + 3 * m * e - 4), d
        assert phi(d, 1) == (m - 1) * (3 * m * m - 10 * m + 3 * m * e + 3 * e - 17), d
        assert phi_derivative(d, 1) == 2 - 26 * m + 6 * m * e, d
    _passed(4, "phi value table and phi'(1) exact for all d in [12, 2000]")


def test_criterion_05_profile_identities():
    t0 = time.time()
    for d in range(6, 10001):
        assert pi2_bound(d).bound_int == genus_from_profile(pi2_profile(d)), d
        assert pi1_bound(d).bound_int == genus_from_profile(pi1_profile(d)), d
    for d in range(5, 10001):
        direct = weighted_defect_direct(d)
        p, q = divmod(d - 1, 4)
        t = 1 if q == 3 else 0
        assert direct == math.comb(p, 2) * d - 8 * math.comb(p + 1, 3) + t * p, d
        assert direct == weighted_defect_closed_form(d), d
    elapsed = time.time() - t0
    assert elapsed < 60, f"profile identity sweep took {elapsed:.1f}s"
    _passed(5, f"profile and weighted-defect identities exact on [5, 10^4] ({elapsed:.1f}s)")


def test_criterion_06_abs_inequality_with_tail():
    for d in range(19, 10001):
        assert pi2_bound(d).bound_int < castelnuovo_bound(5, d).bound_int, d
    tail_count = 0
    for c in range(20):
        poly_k, k_from = abs_diff_poly(c)
        cert = sign_certificate(poly_k, k_from, "negative", variable="k")
        assert cert.ok, c
        tail_count += 1
    _passed(6, f"G(4;d,5) < G(5;d) for 18 < d <= 10^4, plus {tail_count} residue-class tail certificates")


def test_criterion_07_case_analysis_certificates():
    certs = []
    certs.extend(verify_r4(36, 300))
    for r in (5, 6, 7, 8):
        certs.append(verify_r_ge6_spanned(r))
    certs.append(verify_r_ge6_spanned(9))
    certs.append(verify_r_ge6_scroll(6))
    certs.append(verify_r_ge6_scroll(7))
    certs.append(verify_r5_remark())
    certs.extend(verify_r5_exclusion(31, 300))
    for cert in certs:
        assert cert.status == "verified", cert.claim_id
        has_tail = bool(cert.sign_certificates) and all(s.ok for s in cert.sign_certificates)
        has_identity = any(rec["holds"] for rec in cert.params.get("identities", []))
        assert has_tail or has_identity, cert.claim_id
    spanned = [c for c in certs if c.claim_id == "R6.spanned.quadratic" and isinstance(c.params.get("r"), int) and c.params["r"] <= 8]
    assert {c.params["r"] for c in spanned} == {5, 6, 7, 8}
    for c in spanned:
        assert len(c.sign_certificates) == c.params["r"] - 2  # every residue
    remark = next(c for c in certs if c.claim_id == "R5.remark.psi")
    assert [rec["value"] for rec in remark.params["checks"]] == [3, 0, -1, 0]
    cubic = next(c for c in certs if c.claim_id == "R5.deg4.cubic")
    assert len(cubic.sign_certificates) == 4
    assert all(s.tail_bound >= s.start for s in cubic.sign_certificates)
    _passed(7, f"{len(certs)} case certificates verified, each with a tail bound or exact identity")


def test_criterion_08_extremal_invariants_two_routes():
    for d in range(8, 2001, 2):
        ext = extremal_class(d)
        # route 1: the cubic phi at the frame endpoint
        m, eps = divmod(d - 1, 3)
        a_star = (m + eps - 1) // 2
        assert phi(d, a_star) == ext.k2 == -d * (d - 6), d
        # route 2: intersection ring (inline expansion, no library call)
        alpha, beta = d // 2, -d // 2
        k2 = 3 * alpha * (alpha - 3) ** 2 + beta * (alpha - 3) ** 2 + 2 * alpha * (alpha - 3) * (beta + 1)
        assert k2 == ext.k2, d
        # genus via adjunction and via the closed form
        doubled = 3 * alpha * (alpha - 2) + (alpha - 2) * beta + (beta + 1) * alpha
        assert doubled == 2 * ext.genus - 2, d
        assert 8 * ext.genus == d * d - 6 * d + 8, d
        assert sectional_genus(DivisorClass(alpha, beta)) == ext.genus, d
    _passed(8, "extremal class invariants agree through phi, the intersection ring, and closed forms on even d in [8, 2000]")


def test_criterion_09_double_point_spot_checks():
    assert double_point_k2(3, 0, 1) == 8
    assert double_point_k2(5, 1, 0) == 0
    assert double_point_k2(4, 0, 1) == 9
    with pytest.raises(InconsistencyError):
        double_point_k2(4, 0, 0)
    _passed(9, "double point formula spot checks and the (4,0,0) inconsistency error")


def test_criterion_10_cli_determinism():
    cmd = [
        sys.executable, "-m", "kbound", "verify", "all",
        "--from", "36", "--to", "500", "--format", "json", "--no-timestamp",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["overall"] is True
    assert "generated_at" not in payload
    _passed(10, "verify all --from 36 --to 500 produces byte-identical JSON across runs")
