"""Machine checks, as serializable certificates, for the lower bound

    K^2 >= -d(d-6)

for smooth irreducible complex projective surfaces of degree d > 35, with
sharpness exactly at the even-degree classes (d/2)(H - W) on the degree-3
rational normal scroll in P^5.

The proof is a case split on r + 1 = h^0 of the polarization. Every case is
re-executed here as a named claim producing a :class:`Certificate`:

    R2.base                   r = 2: S = P^2, d = 1, K^2 = 9
    R3.direct                 r = 3: K^2 = d(d-4)^2
    R4.reduce                 r = 4, no hypersurface of degree < 5 through S
    R4.s2 / R4.s3             r = 4, S on a quadric / cubic hypersurface
    R4.s4.x<=6 / R4.s4.x>6    r = 4, S on a quartic, split on the genus
                              defect parameter x
    R6.spanned.quadratic      r >= 5, K_S + H spanned
    R6.scroll.psi             r >= 6, S a scroll
    R5.remark.psi             r = 5 scroll margin by residue of d - 1 mod 4
    R5.abs                    G(4;d,5) < G(5;d) for d > 18
    R5.profile.seed-4-9-16    Hilbert seed propagation dominating G(4;d,5)
    R5.profile.seed-4-10-19
    R5.deg4.cubic             no extremal scroll on a quartic 3-fold, d > 24
    APPENDIX.min              minimization of phi over admissible classes
    SHARPNESS                 unique attainment at (d/2)(H - W), even d

"For all d > N" claims are never certified by finite sampling alone: each
reduces to tail-bounded :class:`~kbound.exact.SignCertificate` objects (on
residue classes of d where the split parameters enter). Where a claim rests
on a geometric hypothesis (existence of the surface, spannedness, being a
scroll, general type), the certificate records the hypothesis in
``params["assumes"]``: the package verifies arithmetic, not geometry.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import compress, count, repeat
from math import lcm
from operator import eq, ge, le

from .bounds import (
    castelnuovo_bound,
    castelnuovo_polys,
    chi_bound_poly,
    double_point_2k2,
    genus_from_profile,
    halphen_bound,
    halphen_polys,
    pi1_bound,
    pi1_polys,
    pi1_t,
    pi2_bound,
    pi2_polys,
    pi2_profile,
    pi2_split,
    pi2_w,
    propagate_profile,
    weighted_defect_closed_form,
    weighted_defect_polys,
)
from .exact import (
    InconsistencyError,
    Poly,
    Record,
    SignCertificate,
    _horner,
    _int_at,
    dumps,
    forward_walk,
    rat_str,
    sign_certificate,
)
from .scroll import (
    ASSERTED_FROM,
    EVEN_MINIMUM,
    EXTREMAL_GENUS,
    FRAME_RESIDUES,
    ODD_MINIMUM,
    DivisorClass,
    KsqMinimum,
    _a_star,
    _k2_raw,
    _split3,
    derivative,
    discriminant,
    extremal_class,
    frame_walk,
    k2_min_form,
    k2_step,
    minimize_k2,
    phi,
    phi_coefficients,
    phi_derivative,
    phi_derivative_coefficients,
)

CLAIM_ANCHORS = {
    "R2.base": "case r = 2: the surface is P^2 embedded by O(1), d = 1, K^2 = 9",
    "R3.direct": "case r = 3: a degree-d hypersurface in P^3 has K^2 = d(d-4)^2",
    "R4.reduce": (
        "case r = 4, S on no hypersurface of degree < 5: double point formula,"
        " chi >= 1 - g, and the s = 5 space-curve genus bound reduce the claim"
        " to 22(g-1) < 3d^2 - 17d"
    ),
    "R4.s2": (
        "case r = 4, S on an irreducible quadric: general type gives chi >= 1,"
        " so 10(g-1) < 3d^2 - 17d + 12 suffices, with g <= d^2/4 - d + 1"
    ),
    "R4.s3": (
        "case r = 4, S on an irreducible cubic: as for s = 2 with"
        " g <= d^2/6 - d/2 + 1"
    ),
    "R4.s4.x<=6": (
        "case r = 4, S on an irreducible quartic, genus defect x <= 6:"
        " g <= d^2/8 - 3d/8 + 1 feeds 22(g-1) < 3d^2 - 17d"
    ),
    "R4.s4.x>6": (
        "case r = 4, S on an irreducible quartic, genus defect 6 < x <= 9:"
        " the cubic chi lower bound feeds the double point formula"
    ),
    "R6.spanned.quadratic": (
        "case r >= 5 with K_S + H spanned: (K_S + H)^2 >= 0 and the genus"
        " bound in P^(r-1) make (r-4)d^2 - (3r-10)d + 2(r+e^2-er+2e-3)"
        " positive"
    ),
    "R6.scroll.psi": (
        "case r >= 6, S a scroll: K^2 = 8(1-g), g <= G(r;d), and"
        " psi(r,d) = 8(1 - G(r;d)) + d(d-6) is positive"
    ),
    "R5.remark.psi": (
        "r = 5 scroll margin: psi(5,d) = e^2 - 4e + 3 depends only on the"
        " residue e of d - 1 mod 4, with values 3, 0, -1, 0"
    ),
    "R5.abs": "r = 5 exclusion step: G(4;d,5) - G(5;d) < 0 for every d > 18",
    "R5.profile.seed-4-9-16": (
        "r = 5 exclusion step: Hilbert values 4, 9, 16 propagate to a profile"
        " dominating the G(4;d,5) profile, so g <= G(4;d,5)"
    ),
    "R5.profile.seed-4-10-19": (
        "r = 5 exclusion step: Hilbert values 4, 10, 19 propagate to a profile"
        " dominating the G(4;d,5) profile, so g <= G(4;d,5)"
    ),
    "R5.deg4.cubic": (
        "r = 5 exclusion step: an extremal scroll on a quartic 3-fold forces"
        " a cubic inequality in d that fails for every d > 24"
    ),
    "APPENDIX.min": (
        "on the degree-3 scroll, phi(a) >= -d(d-6) for -m <= a <= (m+e-1)/2,"
        " with equality exactly at a* = (m+e-1)/2 for even d"
    ),
    "SHARPNESS": (
        "for even d the class (d/2)(H - W) attains K^2 = -d(d-6) with genus"
        " d^2/8 - 3d/4 + 1, and no other admissible class of that degree does"
    ),
}

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
OUT_OF_RANGE = "out-of-asserted-range"


class Certificate(Record):
    """Machine-checkable verdict for one named claim.

    ``status`` is ``verified`` only if every embedded sign certificate,
    identity and scan succeeded; a ``counterexample`` status always carries
    an explicit witness; ``out-of-asserted-range`` marks a claim whose
    asserted range does not meet the requested one (reported, not asserted).
    ``sign_certificates`` defaults to a new empty list. The claim id must be
    a key of :data:`CLAIM_ANCHORS` (ValueError), which gives the anchor.
    """

    __slots__ = ("claim_id", "params", "status", "witness", "sign_certificates")

    def __init__(self, claim_id: str, params: dict, status: str,
                 witness: dict | None = None, sign_certificates: list[SignCertificate] | None = None):
        if claim_id not in CLAIM_ANCHORS:
            raise ValueError(f"unknown claim id {claim_id!r}")
        self.claim_id = claim_id
        self.params = params
        self.status = status
        self.witness = witness
        self.sign_certificates = [] if sign_certificates is None else sign_certificates

    @property
    def anchor(self) -> str:
        return CLAIM_ANCHORS[self.claim_id]

    def sort_key(self) -> tuple:
        return (self.claim_id, dumps(self.params))

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "sign_certificates": [s.to_json_dict() for s in self.sign_certificates],
            "anchor": self.anchor,
        }


class _Builder:
    """Accumulates sign certificates, exact identities and scan checks for
    one claim, then freezes them into a Certificate with the right status.

    A claim asserted only from some degree on is given the requested range
    and ``asserted_from``: its sweeps cover [lo, hi] = [max(d_from,
    asserted_from), d_to], and an empty [lo, hi] makes it out of range."""

    def __init__(self, claim_id: str, requested: tuple[int, int] | None = None,
                 asserted_from: int | None = None, **params):
        self.claim_id = claim_id
        self.params = dict(params)
        self.signs: list[SignCertificate] = []
        self.witness: dict | None = None
        self.lo = self.hi = None
        if requested is not None:
            d_from, d_to = requested
            self.params["requested_range"] = [d_from, d_to]
            self.params["asserted_from"] = asserted_from
            if d_from < asserted_from:
                self.params["below_asserted_range"] = [d_from, min(d_to, asserted_from - 1)]
            self.lo, self.hi = max(d_from, asserted_from), d_to

    def sign(self, poly: Poly, start: int, sign: str, *, variable: str = "d", label: str = "") -> SignCertificate:
        cert = sign_certificate(poly, start, sign, variable=variable, label=label)
        self.signs.append(cert)
        if not cert.ok and self.witness is None:
            self.witness = {
                "failed_sign_certificate": label or cert.polynomial.text(variable),
                "counterexample": cert.counterexample,
            }
        return cert

    def identity(self, label: str, lhs: Poly, rhs: Poly) -> None:
        holds = lhs == rhs
        self.params.setdefault("identities", []).append({"label": label, "holds": holds})
        if not holds and self.witness is None:
            self.witness = {
                "failed_identity": label,
                "lhs": lhs.text(),
                "rhs": rhs.text(),
            }

    def check(self, label: str, ok, **detail) -> None:
        rec = {"label": label, "holds": bool(ok)}
        rec.update(detail)
        self.params.setdefault("checks", []).append(rec)
        if not ok and self.witness is None:
            self.witness = {"failed_check": label, **detail}

    def sweep(self, label: str, decide: Callable[[int], bool], locate: Callable[[int], object],
              key: str = "failure") -> None:
        """Check every degree of [lo, hi] by two routes. decide, the fast
        route, is mapped lazily and stops at the first degree it rejects.
        locate, the slow route, gives the failure at one degree, None if
        there is none: it runs at the rejected degree and at hi, and
        InconsistencyError is raised wherever it disagrees with decide. The
        first failure is recorded under ``key``, and only locate writes it."""
        if self.lo > self.hi:
            return
        rejected = next((d for d in range(self.lo, self.hi + 1) if not decide(d)), None)  # a StopIteration raises (PEP 479)
        verdicts = {self.hi: True} if rejected is None else {rejected: False}
        if self.hi not in verdicts:
            verdicts[self.hi] = decide(self.hi)
        failures = {d: locate(d) for d in verdicts}
        for d, passed in verdicts.items():
            if passed != (failures[d] is None):
                raise InconsistencyError(
                    f"{self.claim_id} at d={d}: decide {'passes' if passed else 'rejects'},"
                    f" locate gives {failures[d]!r}"
                )
        self.check(label, rejected is None, **{key: failures.get(rejected)})

    def note(self, text: str) -> None:
        self.params.setdefault("notes", []).append(text)

    def assume(self, text: str) -> None:
        self.params.setdefault("assumes", []).append(text)

    def done(self, summary: dict | None = None) -> Certificate:
        """Freeze the claim; a verified certificate takes summary as its
        witness, any other keeps the witness of its first failure."""
        if self.witness is not None or any(not s.ok for s in self.signs):
            status = COUNTEREXAMPLE  # a failure is never masked by range bookkeeping
        elif self.lo is not None and self.lo > self.hi:
            status = OUT_OF_RANGE
        else:
            status = VERIFIED
        return Certificate(
            claim_id=self.claim_id,
            params=self.params,
            status=status,
            witness=summary if status == VERIFIED else self.witness,
            sign_certificates=self.signs,
        )


# ---------------------------------------------------------------------------
# symbolic building blocks (polynomials in d for fixed split residues)

D = Poly.of(0, 1)


def spanned_quadratic_poly(r: int, eps: int) -> Poly:
    """(r-4)d^2 - (3r-10)d + 2(r + e^2 - er + 2e - 3)."""
    return Poly.of(
        2 * (r + eps * eps - eps * r + 2 * eps - 3), -(3 * r - 10), r - 4
    )


def spanned_from_bounds_poly(r: int, eps: int) -> Poly:
    """(r-2) * [d - 4(G(r-1;d) - 1) + d(d-6)], the route through the bounds."""
    g = castelnuovo_polys(r - 1)[eps]
    return (r - 2) * (D - 4 * (g - 1) - EVEN_MINIMUM)


def psi_quoted_poly(r: int, eps: int) -> Poly:
    """psi(r,d) = ((r-5)/(r-1))(d^2 - 2d) - (4/(r-1))(-r + 2 - e - e^2 + er)."""
    return Poly((4 * (r - 2 + eps + eps * eps - eps * r), -2 * (r - 5), r - 5), r - 1)


def psi_from_bounds_poly(r: int, eps: int) -> Poly:
    """8(1 - G(r;d)) + d(d-6), the defining route for psi."""
    return 8 * (Poly.of(1) - castelnuovo_polys(r)[eps]) - EVEN_MINIMUM


def deg4_cubic_poly(q: int) -> Poly:
    """-d^3 + 24d^2 + (-9q^2+18q-125+72t)d - 2q^3 + 42q^2 - 70q + 174 - 360t + 24tq."""
    t = pi1_t(q)
    return Poly.of(
        -2 * q**3 + 42 * q * q - 70 * q + 174 - 360 * t + 24 * t * q,
        -9 * q * q + 18 * q - 125 + 72 * t,
        24,
        -1,
    )


def deg4_excess_poly_in_k(q: int) -> Poly:
    """96 * [ -W + (d-4)G(4;d,4) - (d-3)(d^2/8 - 3d/4 + 1) ] as a polynomial
    in k, where d = 4k + q + 1 (so p = k) and W is the weighted defect sum
    C(p,2)d - 8C(p+1,3) + tp."""
    defects = weighted_defect_polys()
    dd = Poly.of(q + 1, len(defects))
    g44 = pi1_polys()[q](dd)
    g_floor = EXTREMAL_GENUS(dd)
    return 96 * (-defects[q] + (dd - 4) * g44 - (dd - 3) * g_floor)


def abs_period() -> int:
    """The period M in d of G(4;d,5) - G(5;d): the lcm of both splits' moduli."""
    return lcm(len(pi2_polys()), len(castelnuovo_polys(5)))


def abs_diff_poly(c: int) -> tuple[Poly, int]:
    """G(4;d,5) - G(5;d) restricted to d = Mk + c, M = :func:`abs_period`,
    as a polynomial in k, plus the least k >= 0 with Mk + c > 18."""
    g4, g5, period = pi2_polys(), castelnuovo_polys(5), abs_period()
    diff = g4[(c - 1) % len(g4)] - g5[(c - 1) % len(g5)]
    k_from = next(k for k in count() if period * k + c > 18)
    return diff(Poly.of(c, period)), k_from


def r4_margin_poly(g: Poly | int, chi: Poly | int) -> Poly:
    """2K^2 - 2(-d(d-6)) by the double point formula, with a genus bound g
    and an Euler characteristic bound chi substituted: every r = 4 chain
    is this polynomial, and K^2 > -d(d-6) wherever it is positive."""
    return double_point_2k2(D, g, chi) - 2 * EVEN_MINIMUM


# The r = 4 double point targets as the paper writes them out.
REDUCE_RHS = Poly.of(0, -17, 3)  # 3d^2 - 17d
REDUCE2_RHS = Poly.of(12, -17, 3)  # 3d^2 - 17d + 12
S4_RHS_QUOTED = Poly((-1998, -188, -18, 1), 8)  # d^3/8 - 9d^2/4 - 47d/2 - 999/4


#: r^3 - 10r^2 + 27r - 23, which (r-1)psi(r,r-1) reduces to for r >= 7 once
#: 4e and (r-2e)^2 are dropped; R6.scroll.psi certifies it positive.
SCROLL_CUBIC = Poly.of(-23, 27, -10, 1)


def genus_defect_poly(x: int | Fraction, den: int = 1) -> Poly:
    """g = d^2/8 + d(x-9)/8 + 1 for the defect parameter x / den = a/b."""
    a, b = x.numerator, x.denominator * den
    return Poly((8 * b, a - 9 * b, b), 8 * b)


# Fixed sample points, recorded in the certificates: distinct x = a/b in
# (6, 9], as pairs (a, b) with b in {2, 4, 8, 16}, for R4.s4.x>6, and (r, e) with
# 7 <= r < 60, 0 <= e < r - 1 for R6.scroll.psi. The general claims rest on
# the sign certificates; the samples are spot checks.
X_SAMPLES = ((17, 2), (49, 8), (51, 8))
SQUARE_COMPLETION_SAMPLES = ((55, 22), (51, 20), (55, 49), (28, 12), (22, 4), (10, 2))


# ---------------------------------------------------------------------------
# r = 2 and r = 3

def verify_r2() -> Certificate:
    b = _Builder("R2.base")
    b.check("K^2 = 9 > 5 = -d(d-6) at d = 1", 9 > _int_at(EVEN_MINIMUM, 1, "-d(d-6)"), k2=9, bound=5)
    return b.done()


def verify_r3() -> Certificate:
    b = _Builder("R3.direct")
    rhs = D * (D - 2) * (D - 5)
    b.identity("d(d-4)^2 + d(d-6) = d(d-2)(d-5)", Poly.of(0, 16, -8, 1) - EVEN_MINIMUM, rhs)
    b.sign(rhs, 6, "positive", label="d(d-2)(d-5) > 0 for d > 5")
    return b.done()


# ---------------------------------------------------------------------------
# r = 4

def _r4_margin_int_check(margins: tuple[Poly, ...], d: int) -> bool:
    """R4's decide at d, where margins[e] is an r4_margin_poly on the residue
    (d - 1) mod s = e, with s = len(margins). It rests on the residue's
    polynomial having a positive denominator, which leaves the sign to its
    integer numerators: the check is one integer Horner evaluation."""
    return _horner(margins[(d - 1) % len(margins)].num, d) > 0


def _r4_check_one(s: int, chi: Callable, d: int) -> int | None:
    # the scalar route: 2K^2 > -2d(d-6) at g = G(3;d,s), held as a constant Poly
    g = halphen_bound(d, s)._value
    margin = double_point_2k2(d, g, chi(g)) - 2 * _int_at(EVEN_MINIMUM, d, "-d(d-6)")
    return None if _horner(margin.num, 0) > 0 else d  # the numerator, over margin.den > 0


def _r4_halphen_margins(b: _Builder, s: int, weak: Poly, weak_text: str, chi: Callable) -> tuple[Poly, ...]:
    """Checks G(3;d,s) <= weak by a constant gap on each residue of Halphen's
    split d - 1 = ms + eps; returns each residue's r4_margin_poly(g, chi(g))."""
    polys = halphen_polys(s)
    if len(polys) != s:
        raise InconsistencyError(f"halphen_polys({s}) has {len(polys)} entries, not one per residue of d - 1 mod {s}")
    for eps, g in enumerate(polys):
        gap = weak - g
        b.check(  # the value at 0, in integers: its numerator over gap.den > 0
            f"G(3;d,{s}) <= {weak_text} on residue eps={eps} (gap constant)",
            gap.degree <= 0 and _horner(gap.num, 0) >= 0,
            gap=rat_str(_horner(gap.num, 0), gap.den),
        )
    return tuple(r4_margin_poly(g, chi(g)) for g in polys)


def _r4_reduce(d_from: int, d_to: int) -> Certificate:
    b = _Builder("R4.reduce", (d_from, d_to), 36)
    b.assume("S lies on no hypersurface of degree < 5 in P^4")
    b.assume("d > 14, so the general curve section lies on no surface of degree < 5 in P^3")
    chi = lambda g: 1 - g  # chi(O_S) >= 1 - g
    b.identity(
        "d(d-5) + 2d(d-6) = 3d^2 - 17d (double point target)",
        r4_margin_poly(1, chi(1)),
        REDUCE_RHS,
    )
    g_weak = Poly((10, 5, 1), 10)  # d^2/10 + d/2 + 1
    margins = _r4_halphen_margins(b, 5, g_weak, "d^2/10 + d/2 + 1", chi)
    b.sign(
        r4_margin_poly(g_weak, chi(g_weak)),
        36,
        "positive",
        label="3d^2 - 17d - 22(d^2/10 + d/2) = 4d^2/5 - 28d > 0 for d > 35",
    )
    b.sweep(
        f"22(G(3;d,5)-1) < 3d^2 - 17d for d in [{b.lo}, {b.hi}]",
        partial(_r4_margin_int_check, margins), partial(_r4_check_one, 5, chi), "failure_at",
    )
    return b.done()


def _r4_s(d_from: int, d_to: int, s: int) -> Certificate:
    weak = {2: Poly((4, -4, 1), 4), 3: Poly((6, -3, 1), 6)}[s]  # d^2/4 - d + 1, d^2/6 - d/2 + 1
    asserted = {2: 13, 3: 8}[s]
    b = _Builder(f"R4.s{s}", (d_from, d_to), asserted)
    b.assume(f"S lies on an irreducible reduced hypersurface of degree {s}")
    b.assume("d > 12, so S is of general type and chi(O_S) >= 1")
    chi = lambda g: 1  # chi(O_S) >= 1
    b.identity(
        "d(d-5) + 12 + 2d(d-6) = 3d^2 - 17d + 12",
        r4_margin_poly(1, chi(1)),
        REDUCE2_RHS,
    )
    margins = _r4_halphen_margins(b, s, weak, "weakened bound", chi)
    b.sign(
        r4_margin_poly(weak, chi(weak)),
        asserted,
        "positive",
        label=f"3d^2 - 17d + 12 - 10(g-1) > 0 with the s={s} genus bound",
    )
    b.sweep(
        f"10(G(3;d,{s})-1) < 3d^2 - 17d + 12 for d in [{b.lo}, {b.hi}]",
        partial(_r4_margin_int_check, margins), partial(_r4_check_one, s, chi), "failure_at",
    )
    return b.done()


def _r4_s4_low(d_from: int, d_to: int) -> Certificate:
    b = _Builder("R4.s4.x<=6", (d_from, d_to), 36)
    b.assume("S lies on an irreducible reduced quartic hypersurface")
    b.assume("genus defect parameter x in [0, 6], so g <= d^2/8 - 3d/8 + 1")
    weak = Poly((8, -3, 1), 8)  # d^2/8 - 3d/8 + 1
    b.identity(
        "g bound at x = 6 equals d^2/8 - 3d/8 + 1",
        genus_defect_poly(6),
        weak,
    )
    b.sign(
        r4_margin_poly(weak, 1 - weak),
        36,
        "positive",
        label="3d^2 - 17d - 22(d^2/8 - 3d/8) = (d^2 - 35d)/4 > 0 for d > 35",
    )
    return b.done()


def _r4_s4_high(d_from: int, d_to: int) -> Certificate:
    start = 36
    tight = start - 1
    b = _Builder("R4.s4.x>6", (d_from, d_to), start)
    b.assume("S lies on an irreducible reduced quartic hypersurface")
    b.assume("genus defect parameter x in (6, 9]")
    b.note("the constant -333/16 in the chi lower bound is an external input")
    b.identity(
        "3d^2 - 17d + 12*(d^3/96 - 7d^2/16 - 13d/24 - 333/16)"
        " = d^3/8 - 9d^2/4 - 47d/2 - 999/4",
        r4_margin_poly(1, chi_bound_poly(6)),
        S4_RHS_QUOTED,
    )
    main = r4_margin_poly(genus_defect_poly(9), chi_bound_poly(6))
    b.sign(
        main,
        start,
        "positive",
        label=f"RHS - 10(g-1) with g <= d^2/8 + 1, positive for d > {tight}",
    )
    b.check(
        f"the same polynomial is negative at d = {tight}, so the threshold d > {tight} is tight",
        _horner(main.num, tight) < 0,  # the numerator, over main.den > 0
        **{f"value_at_{tight}": rat_str(_horner(main.num, tight), main.den)},
    )
    # Symbolic-x route: for fixed rational x the exact genus and chi bound
    # combine into a cubic that must be positive from d = start. x = 9 is the
    # weakest point of the chi bound; x -> 6+ is the branch boundary.
    xs = [(9, 1), (6, 1), *X_SAMPLES]
    b.params["x_samples"] = [rat_str(*x) for x in xs]
    for x in xs:
        p_x = r4_margin_poly(genus_defect_poly(*x), chi_bound_poly(*x))
        b.sign(p_x, start, "positive", label=f"exact chain at x = {rat_str(*x)}")
        if x[0] > 6 * x[1]:
            b.sign(chi_bound_poly(*x) - chi_bound_poly(6), 4, "positive",
                   label=f"chi bound at x = {rat_str(*x)} strictly beats the weak bound")
    return b.done()


def verify_r4(d_from: int, d_to: int) -> list[Certificate]:
    """The whole r = 4 case: one certificate per sub-case, each reduced to
    tail-bounded sign certificates plus an exact sweep of the requested range."""
    return [
        _r4_reduce(d_from, d_to),
        _r4_s(d_from, d_to, 2),
        _r4_s(d_from, d_to, 3),
        _r4_s4_low(d_from, d_to),
        _r4_s4_high(d_from, d_to),
    ]


# ---------------------------------------------------------------------------
# r >= 6 (and the spanned case for r = 5)

def verify_r_ge6_spanned(r: int) -> Certificate:
    """Positivity of (r-4)d^2 - (3r-10)d + 2(r+e^2-er+2e-3) for d >= r-1.

    For 5 <= r <= 8 every residue e gets its own tail-bounded certificate
    (d > 5 for r = 5). For r >= 9 the positivity follows from
    d >= r-1 >= (5r-10)/(r-4), and the certificate carries the sign
    certificates quantifying that argument over every r >= 9.
    """
    if r < 5:
        raise ValueError("the spanned-case certificate needs r >= 5")
    b = _Builder("R6.spanned.quadratic", r=r)
    b.assume("O_S(K_S + H) is spanned, so (K_S + H)^2 >= 0")
    b.assume("the general curve section is integral and nondegenerate in P^(r-1)")
    if r <= 8:
        d0 = 6 if r == 5 else r - 1
        b.params["d_from"] = d0
        for eps in range(len(castelnuovo_polys(r - 1))):
            quad = spanned_quadratic_poly(r, eps)
            b.identity(
                f"quadratic route check at eps={eps}:"
                " equals (r-2)[d - 4(G(r-1;d)-1) + d(d-6)]",
                quad,
                spanned_from_bounds_poly(r, eps),
            )
            b.sign(quad, d0, "positive", label=f"r={r}, eps={eps}, d >= {d0}")
    else:
        b.params["d_from"] = r - 1
        b.check(
            f"(r-1)(r-4) >= 5r - 10 at r = {r}",
            (r - 1) * (r - 4) >= 5 * r - 10,
            lhs=(r - 1) * (r - 4),
            rhs=5 * r - 10,
        )
        b.params["covers"] = "every r >= 9"
        b.sign(
            Poly.of(14, -10, 1),
            9,
            "positive",
            variable="r",
            label="r^2 - 10r + 14 > 0, i.e. r-1 >= (5r-10)/(r-4), for all r >= 9",
        )
        b.sign(
            Poly.of(0, 2, 1),
            0,
            "nonnegative",
            variable="e",
            label="e^2 + 2e >= 0: dropping 2(r+e^2-er+2e-3) to -2er only needs r >= 3",
        )
        b.note("2r(d - e) > 0 because e <= r - 3 < r - 1 <= d")
    return b.done()


def verify_r_ge6_scroll(r: int) -> Certificate:
    """Positivity of psi(r,d) = 8(1 - G(r;d)) + d(d-6) for r >= 6, d >= r-1.

    r = 6 is handled per residue; r >= 7 goes through psi(r,d) >= psi(r,r-1)
    and the cubic r^3 - 10r^2 + 27r - 23 after completing the square, with
    sign certificates that cover every r >= 7.
    """
    if r < 6:
        raise ValueError("the scroll-case certificate needs r >= 6")
    b = _Builder("R6.scroll.psi", r=r)
    b.assume("O_S(K_S + H) is not spanned, so S is a scroll and K^2 = 8(1-g)")
    b.assume("g equals the irregularity of S and satisfies g <= G(r;d)")
    residues = range(len(castelnuovo_polys(r)))
    for eps in residues:
        b.identity(
            f"psi route check at eps={eps}: 8(1-G(r;d)) + d(d-6) equals the"
            " displayed rational quadratic",
            psi_from_bounds_poly(r, eps),
            psi_quoted_poly(r, eps),
        )
    if r == 6:
        for eps in residues:
            b.sign(
                psi_quoted_poly(r, eps),
                5,
                "positive",
                label=f"psi(6,d) > 0 on residue eps={eps}, d >= 5",
            )
    else:
        cubic = SCROLL_CUBIC
        at_r = _int_at(cubic, r, "r^3 - 10r^2 + 27r - 23")
        b.check(f"r^3 - 10r^2 + 27r - 23 = {at_r} > 0 at r = {r}", at_r > 0, value=str(at_r))
        for rr, ee in SQUARE_COMPLETION_SAMPLES:
            lhs = rr**3 - 9 * rr * rr + 27 * rr - 23 + 4 * ee * ee - 4 * ee * rr
            rhs = _int_at(cubic, rr, "r^3 - 10r^2 + 27r - 23") + (rr - 2 * ee) ** 2
            b.check(f"square completion at (r,e)=({rr},{ee})", lhs == rhs, lhs=lhs, rhs=rhs)
            psi_min = _int_at((rr - 1) * psi_quoted_poly(rr, ee), rr - 1, "(r-1)psi(r,r-1)")
            b.check(
                f"(r-1)*psi(r,r-1) = r^3 - 9r^2 + 27r - 23 + 4e + 4e^2 - 4er"
                f" at (r,e)=({rr},{ee})",
                psi_min == lhs + 4 * ee,
                value=rat_str(psi_min),
            )
        b.params["square_completion_samples"] = [list(p) for p in SQUARE_COMPLETION_SAMPLES]
        b.params["covers"] = "every r >= 7"
        b.sign(cubic, 7, "positive", variable="r", label="r^3 - 10r^2 + 27r - 23 > 0 for all r >= 7")
        psi = psi_quoted_poly(r, 0)
        q = Poly((0, *psi.num[1:]), psi.num[-1])  # d^2 - 2d, the d-part of psi over its leading coefficient
        b.sign(
            q(D + 1) - q,
            1,
            "positive",
            label="d^2 - 2d is strictly increasing for d >= 1 (forward difference 2d - 1)",
        )
        b.note("psi(r,d) >= psi(r,r-1) uses d >= r-1 and (r-5)/(r-1) > 0 for r >= 6")
        b.note("4e >= 0 and (r-2e)^2 >= 0 are dropped exactly as written")
    return b.done()


def verify_r5_remark() -> Certificate:
    """psi(5,d) = e^2 - 4e + 3 where e = (d-1) mod 4; table 3, 0, -1, 0."""
    b = _Builder("R5.remark.psi")
    table = {0: 3, 1: 0, 2: -1, 3: 0}
    for eps in range(len(castelnuovo_polys(5))):
        value = eps * eps - 4 * eps + 3
        b.identity(
            f"8(1 - G(5;d)) + d(d-6) is the constant e^2 - 4e + 3 on residue eps={eps}",
            psi_from_bounds_poly(5, eps),
            Poly.of(value),
        )
        b.check(f"table value at eps={eps}", value == table[eps], value=value)
    b.note(
        "psi(5,d) <= 0 only for eps in {1, 2, 3}: any r = 5 exception to the"
        " bound is a scroll with g = G(5;d) and d != 1 mod 4"
    )
    return b.done()


# ---------------------------------------------------------------------------
# r = 5 exclusion chain

def _r5_abs_int_check(g4: tuple[Poly, ...], g5: tuple[Poly, ...], d: int) -> bool:
    """R5.abs's decide at d, where g4[v] is G(4;d,5) on (d - 1) mod 5 = v and
    g5[e] is G(5;d) on (d - 1) mod 4 = e. It rests on each residue's polynomial
    having a positive denominator, which leaves each side to its integer numerators."""
    lhs = _int_at(g4[(d - 1) % len(g4)], d, "G(4;{},5)", d)
    return lhs < _int_at(g5[(d - 1) % len(g5)], d, "G(5;{})", d)


def _r5_abs_check_one(d: int) -> int | None:
    # the scalar route
    return None if pi2_bound(d).bound_int < castelnuovo_bound(5, d).bound_int else d


def _r5_abs(d_from: int, d_to: int) -> Certificate:
    b = _Builder("R5.abs", (d_from, d_to), 19)
    p18 = pi2_bound(18).bound_int
    c18 = castelnuovo_bound(5, 18).bound_int
    b.params["boundary_d18"] = {
        "pi2": p18,
        "castelnuovo5": c18,
        "note": "equal at d = 18; the strict inequality is asserted only for d > 18",
    }
    period = abs_period()
    for c in range(period):
        poly_k, k_from = abs_diff_poly(c)
        b.sign(
            poly_k,
            k_from,
            "negative",
            variable="k",
            label=f"G(4;d,5) - G(5;d) on d = {period}k + {c} (all d > 18 in the class)",
        )
    b.sweep(
        f"G(4;d,5) < G(5;d) for every integer d in [{b.lo}, {b.hi}]",
        partial(_r5_abs_int_check, pi2_polys(), castelnuovo_polys(5)), _r5_abs_check_one, "failure_at",
    )
    return b.done()


def _column_dominates(h: int, j: int, step: int, d: int, n: int, w: int) -> bool:
    """Whether column j of a propagated profile, h + k*step at i = 3k + j,
    stays at or above the G(4;d,5) profile value at every i."""
    # i <= n, value 5i - 1: the gap (h - 5j + 1) + k(step - 15) is linear in
    # k, so it is least at k = 0 or at the last k with 3k + j <= n
    gap, last = h - 5 * j + 1, (n - j) // 3
    if last >= 0 and min(gap, gap + last * (step - 15)) < 0:
        return False
    # i = n + 1, value d - w; i > n + 1, value d, which the growing column
    # can fall below only at its first index there
    k = last + 1  # the least k with 3k + j > n
    if 3 * k + j == n + 1:
        if h + k * step < d - w:
            return False
        k += 1
    return h + k * step >= d


def _r5_profile_int_check(seed: tuple[int, int, int], g4: tuple[Poly, ...], d: int) -> bool:
    """R5.profile's decide: whether :func:`_r5_profile_check_one` passes, in
    O(1) integer steps, for any valid seed. Column j = 1, 2, 3 of the propagated
    profile is h(3k + j) = min(d, seed_j + k*step) with step = seed_3 - 1 >= 1,
    and the G(4;d,5) profile is 5i - 1 for i <= n, d - w at i = n + 1 and d
    after: no column may fall below it in any segment, which rests on the gap
    to 5i - 1 being linear in k (:func:`_column_dominates`), and the genus
    bound is each column's defect sum, an arithmetic series."""
    n, v, w = pi2_split(d)
    step = seed[2] - 1
    if not all(_column_dominates(h, j, step, d, n, w) for j, h in enumerate(seed, 1)):
        return False
    genus = 0
    for h in seed:
        c = -((h - d) // step)  # the column's values below d: h + k*step for k < c
        genus += c * (d - h) - step * c * (c - 1) // 2
    return genus <= _int_at(g4[v], d, "G(4;{},5)", d)


def _r5_profile_check_one(seed: tuple[int, int, int], d: int) -> str | None:
    # the scalar route: both profiles built and compared index by index
    prof, ref = propagate_profile(seed, d), pi2_profile(d)
    for i in range(1, max(len(prof.prefix), len(ref.prefix)) + 1):
        if (h := prof.value_at(i)) < (n := ref.value_at(i)):
            return f"d={d}: propagated value {h} < profile value {n} at i={i}"
    if genus_from_profile(prof) > pi2_bound(d).bound_int:
        return f"d={d}: propagated genus bound exceeds G(4;d,5)"
    return None


def _r5_profile(seed: tuple[int, int, int], d_from: int, d_to: int) -> Certificate:
    claim = f"R5.profile.seed-{seed[0]}-{seed[1]}-{seed[2]}"
    b = _Builder(claim, (d_from, d_to), 31, seed=list(seed))
    b.assume("the general plane section of the curve section has Hilbert"
             f" function >= {seed} at degrees 1, 2, 3")
    step = seed[2] - 1
    for j in (1, 2, 3):
        diff = Poly.of(seed[j - 1] - 5 * j + 1, step - 15)
        label = (
            f"propagated value at i = 3k + {j} minus (5i - 1), before the min with d"
        )
        if diff.is_zero:
            b.identity(label + " (identically 0)", diff, Poly.zero())
        else:
            b.sign(diff, 0, "nonnegative", variable="k", label=label)
    gaps = [v - pi2_w(v) for v in range(len(pi2_polys()))]
    b.check(
        "profile value at i = n + 1 is d - w <= 5i - 1 (v - w <= 3 for v = 0..4)",
        all(gap <= 3 for gap in gaps),
        gaps=gaps,
    )
    b.sweep(
        f"propagated profile dominates the G(4;d,5) profile pointwise and its"
        f" genus bound is <= G(4;d,5) for d in [{b.lo}, {b.hi}]",
        partial(_r5_profile_int_check, seed, pi2_polys()),
        partial(_r5_profile_check_one, seed),
    )
    return b.done()


def _r5_deg4_int_check(defects: tuple[Poly, ...], g44: tuple[Poly, ...], d: int) -> bool:
    """R5.deg4.cubic's decide at d = 4p + q + 1, where defects[q] is the
    weighted defect sum W in p and g44[q] is G(4;d,4). It rests on each residue's polynomial
    having a positive denominator, which leaves each value to its integer
    numerators; EXTREMAL_GENUS's, also positive, multiplies the right side."""
    p, q = divmod(d - 1, len(defects))
    w = _int_at(defects[q], p, "weighted defect sum at d={}", d)
    rhs = -w + (d - 4) * _int_at(g44[(d - 1) % len(g44)], d, "G(4;{},4)", d)
    return (d - 3) * _horner(EXTREMAL_GENUS.num, d) > rhs * EXTREMAL_GENUS.den


def _r5_deg4_check_one(d: int) -> int | None:
    # the scalar route, times EXTREMAL_GENUS's positive denominator
    lhs = (d - 3) * _horner(EXTREMAL_GENUS.num, d)
    rhs = -weighted_defect_closed_form(d) + (d - 4) * pi1_bound(d).bound_int
    return None if lhs > rhs * EXTREMAL_GENUS.den else d


def _r5_deg4(d_from: int, d_to: int) -> Certificate:
    b = _Builder("R5.deg4.cubic", (d_from, d_to), 25)
    b.assume("S is a scroll with K^2 = 8(1-g), g = G(5;d), lying on an"
             " irreducible quartic 3-fold in P^5")
    for eps in range(1, len(castelnuovo_polys(5))):
        b.check(
            f"g = G(5;d) >= d^2/8 - 3d/4 + 1 on residue eps={eps}:"
            " (5-e)(1+e) >= 8",
            (5 - eps) * (1 + eps) >= 8,
            value=(5 - eps) * (1 + eps),
        )
    defects = weighted_defect_polys()
    for q in range(len(defects)):
        cubic = deg4_cubic_poly(q)
        b.identity(
            f"q={q}: 96*[-W + (d-4)G(4;d,4) - (d-3)(d^2/8-3d/4+1)] equals the"
            " displayed cubic on d = 4k + q + 1",
            deg4_excess_poly_in_k(q),
            cubic(Poly.of(q + 1, len(defects))),
        )
        b.sign(
            cubic,
            25,
            "negative",
            label=f"the q={q} cubic is negative for every integer d > 24",
        )
    b.sweep(
        f"(d-3)(d^2/8 - 3d/4 + 1) > -W + (d-4)G(4;d,4) for d in [{b.lo}, {b.hi}]"
        " (the required inequality fails, as claimed)",
        partial(_r5_deg4_int_check, defects, pi1_polys()), _r5_deg4_check_one, "failure_at",
    )
    return b.done()


def verify_r5_exclusion(d_from: int, d_to: int) -> list[Certificate]:
    """The r = 5 exclusion chain: (abs), both profile seeds, and the
    degree-4 threefold cubic."""
    return [
        _r5_abs(d_from, d_to),
        _r5_profile((4, 9, 16), d_from, d_to),
        _r5_profile((4, 10, 19), d_from, d_to),
        _r5_deg4(d_from, d_to),
    ]


# ---------------------------------------------------------------------------
# appendix minimization and sharpness

def appendix_table(m: int | Poly, eps: int) -> tuple:
    """The values the appendix tabulates for the frame d - 1 = 3m + eps:
    phi(-m), phi(-m+1), phi(0)/(m-2), phi(1)/(m-1), phi'(1), phi'(-m+2) and
    phi'(-1). ``m`` may be an int or a :class:`Poly` in m."""
    return (
        8,
        -9 * m + (17 - 3 * eps),
        (3 * m + (3 * eps - 7)) * m - 4,
        (3 * m + (3 * eps - 10)) * m + (3 * eps - 17),
        (6 * eps - 26) * m + 2,
        18 * m + (6 * eps - 42),
        (6 * eps + 10) * m - (12 * eps + 18),
    )


#: The factors m - 2 of phi(0) and m - 1 of phi(1) that :func:`appendix_table`
#: divides out, as coefficient tuples in m, lowest power first.
PHI_FACTORS = ((-2, 1), (-1, 1))


def _walked_minima(hi: int) -> Callable[[int], KsqMinimum]:
    """minimize_k2's values, memoized and read off a chain of frame_walk
    windows: a new degree one past the chain's last advances it, any other
    starts a new chain. A window from d runs max(d // 4, 16) degrees on, cut
    at the sweep's last degree hi unless d is past it."""
    memo, walks = {}, {}  # walks holds the live chain under its next degree
    def chain(d: int) -> Iterator[tuple]:
        while True:
            end = d + max(d // 4, 16)
            end = min(end, hi) if d <= hi else end
            yield from frame_walk(d, end)
            d = end + 1
    def minimum(d: int) -> KsqMinimum:
        if d not in memo:
            walk = walks.pop(d, None) or chain(d)
            walks.clear()
            memo[d] = next(walk)[0]
            walks[d + 1] = walk
        return memo[d]
    return minimum


def _step_proof(cubics: list[tuple], *_) -> tuple[bool, ...]:
    """Whether phi(d + 1, alpha - m' - 1) - phi(d, alpha - m - 1) =
    k2_step(alpha) at every d = 3m + eps + 1: one verdict, on every
    residue, as a walk crosses residues. In m the move has the
    degree read from phi at eps and eps + 1, in alpha at most 3 (phi is
    cubic in a; k2_step's degree is read), so m, alpha in 1..4 settle it for
    every alpha: the classes a frame_walk window walks before they are
    admissible, alpha > d // 2, as well."""
    def fault(m: int, eps: int) -> int | None:
        m1, e1 = _split3(len(FRAME_RESIDUES) * m + eps + 2)
        here, there = phi_coefficients(m, eps), phi_coefficients(m1, e1)
        return next((alpha for alpha in (1, 2, 3, 4)
                     if _horner(there, alpha - m1 - 1) - _horner(here, alpha - m - 1) != k2_step(alpha)), None)
    held = k2_step(Poly.variable()).degree <= 3 and all(
        _proved(fault, eps, cubics[eps], cubics[(eps + 1) % len(cubics)]) for eps in FRAME_RESIDUES)
    return (held,) * len(cubics)


def _phi_prime_settled(m: int, dphi: tuple) -> tuple[bool, bool]:
    """Whether phi' > 0 on [-m+2, -1] and phi' < 0 on every a >= 1 follow
    from phi'(-m+2), phi'(-1), phi'(1) and its coefficients dphi = (C, B, A):
    a concave quadratic (A < 0) is least at an end of an interval, and falls
    on a >= 1 once phi''(1) = 2A + B < 0. An empty range is settled."""
    _, B, A = dphi
    rises = -m + 2 > -1 or A < 0 < min(_horner(dphi, -m + 2), _horner(dphi, -1))
    return rises, A < 0 and 2 * A + B < 0 and _horner(dphi, 1) < 0


def _tabulated_fault(m: int, eps: int) -> str | None:
    """APPENDIX.min's first failing tabulated identity in m at (m, eps), or None."""
    phi_lo, phi_lo1, phi0, phi1, dphi1, dphi_lo, dphi_m1 = appendix_table(m, eps)
    cubic = phi_coefficients(m, eps)
    dphi, (f0, f1) = derivative(cubic), (_horner(f, m) for f in PHI_FACTORS)
    if _horner(cubic, -m) != phi_lo:
        return "phi(-m) != 8"
    if _horner(cubic, -m + 1) != phi_lo1:
        return "phi(-m+1) != -9m + 17 - 3e"
    if _horner(cubic, -m + 2) != 0:
        return "phi(-m+2) != 0"
    if _horner(cubic, 0) != f0 * phi0:
        return "phi(0) factorization fails"
    if _horner(cubic, 1) != f1 * phi1:
        return "phi(1) factorization fails"
    if _horner(dphi, 1) != dphi1:
        return "phi'(1) != 2 - 26m + 6me"
    if _horner(dphi, -m + 2) != dphi_lo:
        return "phi'(-m+2) != 18m + 6e - 42"
    if _horner(dphi, -1) != dphi_m1:
        return "phi'(-1) != 10m + 6me - 12e - 18"
    return None


def _minimum_fault(res: KsqMinimum, d: int, a_star: int) -> str | None:
    """The first check that d's frame minimum res fails, written out, or None:
    not below -d(d-6), the closed form, then at a* alone (even d) or above -d(d-6) (odd d)."""
    bound = _int_at(EVEN_MINIMUM, d, "-d(d-6)")
    if res.k2_min < bound:
        return f"minimum {res.k2_min} below -d(d-6) = {bound}"
    if not (form := k2_min_form(d)).has_value(d, res.k2_min):
        return f"minimum {res.k2_min} != closed form {rat_str(_horner(form.num, d), form.den)}"
    if d % 2 == 0:
        if res.k2_min != bound or res.a_min != a_star or not res.unique:
            return f"even-degree minimum not uniquely at a* = {a_star}"
    elif res.k2_min <= bound:
        return "odd-degree minimum fails to exceed -d(d-6)"
    return None


def _tabulated_proof(cubics: list[tuple], tables: list[tuple]) -> tuple[bool, ...]:
    """Per frame residue eps, whether :func:`_tabulated_fault` finds nothing
    at any m, where tables[eps] = appendix_table(m, eps) for m =
    Poly.variable(). phi' is read as phi, whose derivative it is, and phi0
    and phi1 times their PHI_FACTORS."""
    return tuple(_proved(_tabulated_fault, eps, cubic, *((entry,) for entry in table),
                         *(tuple(c * table[k] for c in f) for k, f in zip((2, 3), PHI_FACTORS)))
                 for eps, (table, cubic) in enumerate(zip(tables, cubics)))


def _appendix_settled(proved: tuple[bool, ...], minimum: Callable[[int], KsqMinimum], d: int) -> bool:
    """APPENDIX.min's decide at d: its gate proved[eps], both phi' ranges
    settled (:func:`_phi_prime_settled`), two real roots and no
    _minimum_fault in minimum(d); a fault of the frame walk raises."""
    m, eps = _split3(d)
    dphi = phi_derivative_coefficients(m, eps)
    return (proved[eps] and all(_phi_prime_settled(m, dphi)) and discriminant(dphi) > 0
            and _minimum_fault(minimum(d), d, _a_star(m, eps)) is None)


def _appendix_check_one(minimum: Callable[[int], KsqMinimum], d: int) -> str | None:
    """APPENDIX.min's locate at d: its first failing check, written out, or
    None. It runs minimize_k2 (InconsistencyError if the run's minimum(d)
    differs) and the tabulated checks, and walks both phi' sign ranges."""
    m, eps = _split3(d)
    a_star, rise_lo = _a_star(m, eps), -m + 2
    try:
        res = minimize_k2(d)
        rising = forward_walk(partial(phi_derivative, d), rise_lo, -1, 2)
        falling = forward_walk(partial(phi_derivative, d), 1, max(a_star, 1) + 1, 2)
    except InconsistencyError as exc:
        return f"d={d}: {exc}"
    if minimum(d) != res:
        raise InconsistencyError(f"d={d}: the run's frame minimum {minimum(d)!r} differs from {res!r}")
    if fault := _minimum_fault(res, d, a_star) or _tabulated_fault(m, eps):
        return f"d={d}: {fault}"
    if min(rising, default=1) <= 0:
        a_rise = next(compress(count(rise_lo), map(le, rising, repeat(0))))
        return f"d={d}: phi' not positive at a={a_rise} in [-m+2, -1]"
    if max(falling, default=-1) >= 0:
        a_fall = next(compress(count(1), map(ge, falling, repeat(0))))
        return f"d={d}: phi' not negative at a={a_fall} >= 1"
    if discriminant(phi_derivative_coefficients(m, eps)) <= 0:
        return f"d={d}: phi' lacks two real roots"
    return None


def verify_appendix(d_from: int, d_to: int) -> Certificate:
    """Exhaustive minimization of phi over [-m, a*] for every d in range,
    checked against the closed forms, plus the tabulated phi values and the
    sign pattern of phi' that drive the minimization argument. The sweep
    reads each minimum off a chain of fixed-width frame_walk windows and
    decides the sign pattern from phi' at its range ends and its curvature,
    and a fault of the walk raises. Locate runs every check and minimize_k2
    and walks both ranges, at the last degree and a rejected one."""
    b = _Builder("APPENDIX.min", (d_from, d_to), ASSERTED_FROM)
    b.note("remainder convention: d - 1 = 3m + eps with 0 <= eps <= 2"
           " (canonical least nonnegative residue)")
    b.note("root isolation of phi' uses its exact discriminant"
           " 324m^2 - 936m + 216me + 36e^2 - 312e + 820; the tabulated"
           " variant 324m^2 - 936m + 216me + 110 + 114e + 36e^2 differs"
           " from it but is also positive for m >= 3, which is all the"
           " argument needs")
    # Closed-form comparison for odd degrees: -d^2/4 + d/2 + 35/4 > -d(d-6).
    gap = 4 * (ODD_MINIMUM - EVEN_MINIMUM)
    b.identity("4*(-d^2/4 + d/2 + 35/4 + d(d-6)) = 3d^2 - 22d + 35", gap, Poly.of(35, -22, 3))
    b.sign(gap, 6, "positive", label="-d^2/4 + d/2 + 35/4 > -d(d-6) for d > 5")
    # Small-a comparisons feeding the argument.
    m = Poly.variable()
    tables = [appendix_table(m, eps) for eps in FRAME_RESIDUES]
    cubics = [phi_coefficients(m, eps) for eps in FRAME_RESIDUES]
    phi_lo, _, phi0, phi1, _, dphi_lo, dphi_m1 = tables[0]
    b.sign(phi_lo - EVEN_MINIMUM, 5, "positive", label="phi(-m) = 8 > -d(d-6) for d > 4")
    b.sign(Poly.of(14, -9, 1), 8, "positive", label="-3(d-1) + 11 > -d(d-6) for d > 7 (covers phi(-m+1))")
    b.sign(-EVEN_MINIMUM, 7, "positive", label="phi(-m+2) = 0 > -d(d-6) for d > 6")
    # Sign pattern of phi' and the factor positivity, in the variable m, from
    # the tabulated values at the worst residue: e = 0, except e = 2 for
    # phi'(1) (3me, 6e(m-2) >= 0 are dropped).
    b.sign(phi0, 3, "positive", variable="m", label="3m^2 - 7m - 4 > 0 for m >= 3 (phi(0) factor, e = 0)")
    b.sign(phi1, 5, "positive", variable="m", label="3m^2 - 10m - 17 > 0 for m >= 5 (phi(1) factor, e = 0)")
    b.sign(dphi_lo, 3, "positive", variable="m", label="18m - 42 > 0 for m >= 3 (phi'(-m+2), e = 0)")
    b.sign(dphi_m1, 2, "positive", variable="m", label="10m - 18 > 0 for m >= 2 (phi'(-1); 6e(m-2) >= 0)")
    b.sign(-tables[2][4], 1, "positive", variable="m",
           label="14m - 2 > 0 for m >= 1 (phi'(1) = 2 - 26m + 6me <= 2 - 14m)")
    for eps in FRAME_RESIDUES:
        b.sign(discriminant(derivative(cubics[eps])), 1, "positive", variable="m",
               label=f"exact discriminant of phi' is positive for m >= 1, eps={eps}")
        b.sign(Poly.of(36 * eps * eps + 114 * eps + 110, 216 * eps - 936, 324), 3, "positive", variable="m",
               label=f"tabulated discriminant variant is positive for m >= 3, eps={eps}")
    minimum = _walked_minima(b.hi)
    b.sweep(
        f"brute-force minimization over [-m, a*] matches the closed forms,"
        f" uniqueness and parity for every d in [{b.lo}, {b.hi}]",
        partial(_appendix_settled, _gate(b.claim_id, cubics, tables), minimum),
        partial(_appendix_check_one, minimum),
    )
    return b.done({
        "checked_range": [b.lo, b.hi],
        "even_minimum": "-d(d-6), uniquely at a* = (m+eps-1)/2",
        "odd_minimum": "-d^2/4 + d/2 + 35/4 at a*, strictly above -d(d-6)",
    })


def _sharpness_scan(d: int) -> list[int]:
    """K^2 of the degree-d classes alpha*H + (d - 3alpha)W for alpha = 1,
    ..., d // 2, in order.

    K^2 = (K_T + S)^2.S comes from the intersection ring, not from phi, so
    the two routes stay independent. It is cubic in alpha, so the scan walks
    it by forward differences (InconsistencyError if the walk goes wrong).
    This O(d) walk is the locate of the SHARPNESS sweep,
    :func:`_sharpness_ring_check`.
    """
    return forward_walk(lambda alpha: _k2_raw(DivisorClass(alpha, d - 3 * alpha)), 1, d // 2, 3)


def _ring_mismatch(d: int) -> int | None:
    """The first of the classes alpha = 1, 2, 3, 4 and d // 2 where the
    intersection ring's K^2 differs from phi(d, alpha - m - 1), or None.

    For a fixed d both are cubic in alpha, so agreement at the four seeds
    makes them one cubic, and alpha = d // 2 (the frame's a*) is the end
    check of a walk. Then the ring's least K^2 over 1 <= alpha <= d/2 and
    its attainers are those of phi over [-m, a*]. On a frame residue, each
    seed's comparison is an identity in m, proved from four values of m."""
    m, eps = _split3(d)
    cubic = phi_coefficients(m, eps)
    return next((alpha for alpha in (1, 2, 3, 4, d // 2)
                 if _k2_raw(DivisorClass(alpha, d - 3 * alpha)) != _horner(cubic, alpha - m - 1)), None)


def _ring_proof(cubics: list[tuple]) -> tuple[bool, ...]:
    """Per frame residue eps, whether :func:`_ring_mismatch` finds nothing at
    any d = 3m + eps + 1. At a fixed seed alpha the ring's K^2, trilinear in
    a class affine in m, has degree 3 in m at most, and phi's degree is read;
    matched seeds make the end check at d // 2 hold as well."""
    return tuple(_proved(lambda m, eps: _ring_mismatch(len(FRAME_RESIDUES) * m + eps + 1), eps, cubic, degree=3)
                 for eps, cubic in enumerate(cubics))


def _sharpness_proof(cubics: list[tuple]) -> tuple[bool, ...]:
    """Whether the class sH + (u - s)W of degree d = 2s + u has
    K^2 + d(d-6) = u(3s^2 - 8s + 3 + u), the second factor positive for
    s >= 1 once d >= 36: one verdict, on every residue, as the identity is
    in s and u, not in eps. On alpha = s in [1, d // 2], u >= 0 is 0 only
    at alpha = d/2 of an even d, so -d(d-6) is attained there alone. K^2,
    trilinear in a class affine in s and u, has degree at most 3 in each,
    so s = 1..4 at each u = 0..3 settle the identity."""
    quad = (3, -8, 3)
    def fault(s: int, u: int) -> int | None:
        k2 = _k2_raw(DivisorClass(s, u - s))
        return None if EVEN_MINIMUM.has_value(2 * s + u, k2 - u * (_horner(quad, s) + u)) else s
    # quad(s) > 0 for s >= 3 (quad(s + 3) has positive coefficients); at s = 1, 2, u = d - 2s >= 32 > -quad(s)
    held = (min(_horner(quad, Poly.of(3, 1)).num) > 0 and min(_horner(quad, 1), _horner(quad, 2)) + 32 > 0
            and all(_proved(fault, u, quad, degree=3) for u in range(4)))
    return (held,) * len(cubics)


def _proved(check: Callable[[int, int], object], eps: int, *coeffs: tuple, degree: int = 0) -> bool:
    """Whether check(m, eps), which compares values of the given degree in m
    with sums c_i x^i, x affine in m, over coeffs of ints and Polys in m,
    finds nothing at any m: the degree is at most 3, and m = 1, 2, 3, 4 pass."""
    degree = max(degree, *((c.degree if isinstance(c, Poly) else 0) + i for cs in coeffs for i, c in enumerate(cs)))
    return degree <= 3 and all(check(m, eps) is None for m in (1, 2, 3, 4))


#: The proofs that gate each claim's decide. Each takes the tuples in m that the
#: claim's builder hands :func:`_gate`, cubics[eps] = phi_coefficients(m, eps)
#: first, and gives one verdict per frame residue. A failed verdict rejects every
#: degree of its residue, where locate, which runs every check, names the failure.
PROOFS = {
    "APPENDIX.min": (_step_proof, _tabulated_proof),
    "SHARPNESS": (_sharpness_proof, _ring_proof),
}


def _gate(claim: str, *tuples: list[tuple]) -> tuple[bool, ...]:
    """Per frame residue, whether every proof of claim in PROOFS holds there."""
    return tuple(map(all, zip(*(proof(*tuples) for proof in PROOFS[claim]))))


def _sharpness_ring_check(d: int) -> str | None:
    """SHARPNESS's locate at d: its failure, with the least K^2 and its
    attainers taken from the full ring walk of :func:`_sharpness_scan`."""
    if (alpha := _ring_mismatch(d)) is not None:
        ring, cubic = _k2_raw(DivisorClass(alpha, d - 3 * alpha)), phi(d, alpha - _split3(d)[0] - 1)
        return f"d={d}: the intersection ring gives K^2 = {ring} at alpha={alpha}, phi gives {cubic}"
    target = _int_at(EVEN_MINIMUM, d, "-d(d-6)")
    try:
        k2s = _sharpness_scan(d)
    except InconsistencyError as exc:
        return f"d={d}: {exc}"
    best = min(k2s)
    attained = list(compress(count(1), map(eq, k2s, repeat(target))))
    if d % 2 == 0:
        extremal_class(d)  # re-checks K^2 and genus through both routes
        if best != target:
            return f"d={d}: class minimum {best} != -d(d-6) = {target}"
        if attained != [d // 2]:
            return f"d={d}: -d(d-6) attained at alpha in {attained}, not only d/2"
    elif best <= target:
        if attained:
            return f"d={d}: odd degree attains the even-degree minimum"
        return f"d={d}: odd-degree minimum {best} fails to exceed {target}"
    return None


def _sharpness_check_one(proved: tuple[bool, ...], d: int) -> bool:
    """SHARPNESS's decide at d: its gate proved[eps], and at an even d the
    extremal class through both routes."""
    if (passed := proved[_split3(d)[1]]) and d % 2 == 0:
        extremal_class(d)  # re-checks K^2 and genus through both routes
    return passed


def verify_sharpness(d_from: int, d_to: int) -> Certificate:
    """Every admissible class of each degree in range: even degrees attain
    K^2 = -d(d-6) exactly at (d/2, -d/2); odd degrees never reach it.

    Decide reads the claim's gate; the full ring walk locates a failure."""
    b, m = _Builder("SHARPNESS", (d_from, d_to), 36), Poly.variable()
    b.sweep(
        f"unique even-degree attainment of -d(d-6) at (d/2, -d/2) and the"
        f" odd-degree gap, for every d in [{b.lo}, {b.hi}]",
        partial(_sharpness_check_one, _gate(b.claim_id, [phi_coefficients(m, eps) for eps in FRAME_RESIDUES])),
        _sharpness_ring_check,
    )
    ds = range(b.lo, b.hi + 1)
    evens = [d for d in ds if d % 2 == 0]
    sample = evens[:3] + evens[-3:] if len(evens) > 6 else evens
    return b.done({
        "even_degrees_checked": len(evens),
        "odd_degrees_checked": len(ds) - len(evens),
        "attainers_sample": [[d, d // 2, -d // 2] for d in sample],
    })


# ---------------------------------------------------------------------------
# aggregate

class CaseVerdict(Record):
    """All case certificates over a degree range, with the aggregate verdict
    that the bound is numerically confirmed on the checkable surface."""

    __slots__ = ("d_from", "d_to", "certificates")

    def __init__(self, d_from: int, d_to: int, certificates: list[Certificate]):
        self.d_from = d_from
        self.d_to = d_to
        self.certificates = certificates

    @property
    def overall(self) -> bool:
        return all(c.status != COUNTEREXAMPLE for c in self.certificates)

    def to_json_dict(self, timestamp: str | None = None) -> dict:
        out = {
            "d_from": self.d_from,
            "d_to": self.d_to,
            "overall": self.overall,
            "certificates": [c.to_json_dict() for c in self.certificates],
        }
        if timestamp is not None:
            out["generated_at"] = timestamp
        return out

    def to_json(self, timestamp: str | None = None) -> str:
        return dumps(self.to_json_dict(timestamp), indent=True) + "\n"


#: The proof's case split, keyed by the CLI case name: each entry maps
#: (d_from, d_to) to that case's certificates, and every claim id is
#: produced by exactly one entry. The entries call the builders by their
#: global names, so a wrapper installed on a builder is the one called.
CASES: dict[str, Callable[[int, int], list[Certificate]]] = {
    "r2": lambda d_from, d_to: [verify_r2()],
    "r3": lambda d_from, d_to: [verify_r3()],
    "r4": lambda d_from, d_to: verify_r4(d_from, d_to),
    "r5": lambda d_from, d_to: [verify_r5_remark(), *verify_r5_exclusion(d_from, d_to)],
    "r6": lambda d_from, d_to: [
        *(verify_r_ge6_spanned(r) for r in (5, 6, 7, 8)),
        verify_r_ge6_spanned(9),
        verify_r_ge6_scroll(6),
        verify_r_ge6_scroll(7),
    ],
    "appendix": lambda d_from, d_to: [verify_appendix(d_from, d_to)],
    "sharpness": lambda d_from, d_to: [verify_sharpness(d_from, d_to)],
}


def verify_theorem(d_from: int, d_to: int, *, cases: Iterable[str] = CASES) -> CaseVerdict:
    """The certificates of the named cases (by default the whole case split)
    over [d_from, d_to]; one whose asserted range misses the requested one
    is out-of-asserted-range. The merge key (claim_id, params) is unique, so
    the order the cases run in does not matter; params are rendered only
    where a claim id repeats."""
    if d_from > d_to:
        raise ValueError("empty degree range")
    made = [c for case in cases for c in CASES[case](d_from, d_to)]
    ids = [c.claim_id for c in made]
    certs = sorted(made, key=lambda c: c.sort_key() if ids.count(c.claim_id) > 1 else (c.claim_id,))
    return CaseVerdict(d_from=d_from, d_to=d_to, certificates=certs)
