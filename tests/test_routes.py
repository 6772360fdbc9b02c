"""Each sweep's fast route, decide, against its slow route, locate, at
every degree of a range.

A sweep (``verify._Builder.sweep``) trusts decide at every degree but its
last, so a decide that passes a failing degree goes unseen in a run; only
the direct comparison here tells. The routes are taken from the builders,
so a sweep that a builder adds is compared too. Tier-1 compares up to
d = 5000; CI goes on to d = 10000 with

    PYTHONPATH=src:tests python -c "import test_routes; print(test_routes.disagreements(10000))"
"""

from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from unittest import mock

import pytest

import kbound.scroll as scroll
import kbound.verify as verify
from kbound.bounds import double_point_2k2, pi1_bound, pi2_polys
from kbound.exact import Poly

#: The first compared degree of each sweep whose decide rejects below its
#: asserted start: Halphen's first degree s(s - 1) + 1 for the r = 4 chains,
#: and 5 for R5.abs and R5.deg4.cubic. Every other sweep starts at its
#: asserted start.
STARTS = {"R4.reduce": 5 * 4 + 1, "R4.s2": 2 * 1 + 1, "R4.s3": 3 * 2 + 1, "R5.abs": 5, "R5.deg4.cubic": 5}

SWEEP_CLAIMS = [
    "R4.reduce", "R4.s2", "R4.s3", "R5.abs", "R5.profile.seed-4-9-16", "R5.profile.seed-4-10-19",
    "R5.deg4.cubic", "APPENDIX.min", "SHARPNESS",
]


def routes() -> list[tuple]:
    """(claim_id, asserted_from, decide, locate) for each sweep of
    verify_theorem(36, 36), as its builder hands them to the sweep."""
    captured, real = [], verify._Builder.sweep

    def sweep(builder, label, decide, locate, *args, **kwargs):
        captured.append((builder.claim_id, builder.params["asserted_from"], decide, locate))
        return real(builder, label, decide, locate, *args, **kwargs)

    with mock.patch.object(verify._Builder, "sweep", sweep):
        verify.verify_theorem(36, 36)
    return captured


def walked_phi_prime_signs(dphi, m, eps):
    """The verdicts of APPENDIX.min's two walks of phi' = dphi(a):
    positive on [-m+2, -1], negative on [1, max(a*, 1) + 1]."""
    rising = verify.forward_walk(dphi, -m + 2, -1, 2)
    falling = verify.forward_walk(dphi, 1, max(scroll._a_star(m, eps), 1) + 1, 2)
    return min(rising, default=1) > 0, max(falling) < 0


def disagreements(hi: int) -> list[tuple[str, int | None]]:
    """(name, d) for each check that fails at a degree d <= hi, and
    (name, None) for each failing proof, in the order found:

    - each captured sweep's decide(d) against locate(d) is None, from its
      start in STARTS or its asserted start;
    - from d = 4, the O(1) phi' decision against both phi' walks, and
      minimize_k2 against three passes over the ring's K^2 of the frame;
    - from d = 18, the tabulated identities and the ring's match with phi,
      which no decide runs: each rests on its four-point proof, and a
      failed proof rejects every degree of its residue.

    A fault in a route's own machinery is not listed but raised out of
    here: an InconsistencyError of APPENDIX.min's frame walk raises from its
    decide, as _int_at's does from the R5 decides."""
    cubics = [scroll.phi_coefficients(Poly.variable(), e) for e in scroll.FRAME_RESIDUES]
    tables = [verify.appendix_table(Poly.variable(), e) for e in scroll.FRAME_RESIDUES]
    proofs = {
        "_tabulated_proof": all(verify._tabulated_proof(tables, cubics)),
        "_ring_proof": all(verify._ring_proof()),
        "_step_proof": all(verify._step_proof(cubics)),
        "_sharpness_proof": verify._sharpness_proof() is True,
    }
    bad = [(name, None) for name, holds in proofs.items() if not holds]
    pairs = [(claim, STARTS.get(claim, asserted), decide, locate) for claim, asserted, decide, locate in routes()]
    for d in range(min(start for _, start, _, _ in pairs), hi + 1):
        bad += [(claim, d) for claim, start, decide, locate in pairs
                if d >= start and decide(d) != (locate(d) is None)]
        if d < 4:
            continue
        m, eps = scroll._split3(d)
        walked = walked_phi_prime_signs(partial(scroll.phi_derivative, d), m, eps)
        if verify._phi_prime_settled(m, scroll.phi_derivative_coefficients(m, eps)) != walked:
            bad.append(("_phi_prime_settled", d))
        values = verify._sharpness_scan(d)  # the class alpha = a + m + 1 for a in [-m, a*]
        best, res = min(values), scroll.minimize_k2(d)
        if (res.a_min, res.k2_min, res.unique) != (values.index(best) - m, best, values.count(best) == 1):
            bad.append(("minimize_k2", d))
        if d >= scroll.ASSERTED_FROM and verify._tabulated_fault(m, eps) is not None:
            bad.append(("_tabulated_fault", d))
        if d >= scroll.ASSERTED_FROM and verify._ring_mismatch(d) is not None:
            bad.append(("_ring_mismatch", d))
    return bad


def test_every_decide_agrees_with_its_locate_up_to_5000():
    assert disagreements(5000) == []


def test_the_routes_are_those_of_the_nine_sweeps():
    assert [claim for claim, *_ in routes()] == SWEEP_CLAIMS


def test_each_decide_rejects_only_below_its_asserted_start():
    # nowhere from the asserted start to d = 5000, and somewhere in each
    # range that STARTS opens below it
    for claim, asserted, decide, _ in routes():
        failing = [d for d in range(STARTS.get(claim, asserted), 5001) if not decide(d)]
        assert all(d < asserted for d in failing) and bool(failing) == (claim in STARTS), claim
        if claim == "R5.abs":
            assert failing[-1] == 18


@pytest.mark.parametrize("claim", SWEEP_CLAIMS)
def test_a_decide_flipped_at_one_degree_is_reported_there_alone(monkeypatch, claim):
    captured = routes()

    def flipped():
        return [(c, asserted, (lambda d, decide=decide: decide(d) != (d == 50)) if c == claim else decide, locate)
                for c, asserted, decide, locate in captured]

    monkeypatch.setitem(globals(), "routes", flipped)
    assert disagreements(60) == [(claim, 50)]


# each fast route at its threshold and one step either side ---------------------


def r4_margin(monkeypatch, k, d=40):
    # R4.reduce, chi(O_S) >= 1 - g: the genus bound g at which the margin
    # 2K^2 + 2d(d-6), affine in g, is k
    chi = lambda g: 1 - g
    margin = lambda g: double_point_2k2(d, g, chi(g)) + 2 * d * (d - 6)
    g = Fraction(k - margin(0), margin(1) - margin(0))
    monkeypatch.setattr(verify, "halphen_bound", lambda d, s: SimpleNamespace(bound=g))
    margins = (verify.r4_margin_poly(Poly.of(g), chi(Poly.of(g))),) * 5
    return verify._r4_margin_int_check(margins, d), verify._r4_check_one(5, chi, d)


def r5_abs(monkeypatch, k, d=40):
    # G(4;d,5) set to G(5;d) + k on both routes
    g5 = verify.castelnuovo_bound(5, d).bound_int
    monkeypatch.setattr(verify, "pi2_bound", lambda d: SimpleNamespace(bound_int=g5 + k))
    return verify._r5_abs_int_check((Poly.of(g5 + k),) * 5, verify.castelnuovo_polys(5), d), verify._r5_abs_check_one(d)


def r5_deg4(monkeypatch, k, d=42):
    # the weighted defect sum W set so that (d-3)(d^2/8 - 3d/4 + 1), an
    # integer at d = 42, exceeds -W + (d-4)G(4;d,4) by k
    w = (d - 4) * pi1_bound(d).bound - (d - 3) * scroll.EXTREMAL_GENUS(d) + k
    monkeypatch.setattr(verify, "weighted_defect_closed_form", lambda d: w)
    return verify._r5_deg4_int_check((Poly.of(w),) * 4, verify.pi1_polys(), d), verify._r5_deg4_check_one(d)


def r5_profile(seed, d):
    return lambda monkeypatch, k: (
        verify._r5_profile_int_check(seed(k), pi2_polys(), d), verify._r5_profile_check_one(seed(k), d)
    )


def phi_prime(verdict, ends):
    # phi' at d = 40 shifted by a constant so that its least value at the
    # ends(m) of a sign range is k: verdict 0 is the rising range [-m+2, -1],
    # verdict 1 the falling one from a = 1
    def doctor(monkeypatch, k, d=40):
        m, eps = scroll._split3(d)
        C, B, A = scroll.phi_derivative_coefficients(m, eps)
        dphi = (C - min(scroll.phi_derivative(d, a) for a in ends(m)) + k, B, A)
        walked = walked_phi_prime_signs(lambda a: verify._horner(dphi, a), m, eps)[verdict]
        return verify._phi_prime_settled(m, dphi)[verdict], None if walked else "walk fails"
    return doctor


#: Each fast route by name: how to doctor its input so that its quantity is
#: k, and for which k it passes.
THRESHOLDS = {
    "R4 margin numerator": (r4_margin, lambda k: k > 0),
    "R5.abs sides": (r5_abs, lambda k: k < 0),
    "R5.deg4.cubic sides": (r5_deg4, lambda k: k > 0),
    # column 1's gap h1 - 4 + k'(step - 15): least at k' = 0 when step >= 15,
    # at the last k' = (n - 1) // 3 = 1 of d = 30 (n = 5) when step = 14
    "R5.profile gap at k = 0": (r5_profile(lambda k: (4 + k, 10, 19), 40), lambda k: k >= 0),
    "R5.profile gap at the last k": (r5_profile(lambda k: (5 + k, 12, 15), 30), lambda k: k >= 0),
    "phi' at the rising range's ends": (phi_prime(0, lambda m: (-m + 2, -1)), lambda k: k > 0),
    "phi' at a = 1": (phi_prime(1, lambda m: (1,)), lambda k: k < 0),
}


@pytest.mark.parametrize("k", (-1, 0, 1))
@pytest.mark.parametrize("route", THRESHOLDS)
def test_decide_agrees_with_locate_at_its_threshold(monkeypatch, route, k):
    doctor, passes = THRESHOLDS[route]
    decided, located = doctor(monkeypatch, k)
    assert decided == (located is None) == passes(k)
