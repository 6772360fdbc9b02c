"""Classical genus bounds and surface-invariant formulas.

Implements, always in exact arithmetic:

* Castelnuovo's bound G(r;d) for nondegenerate integral degree-d curves in
  P^r, together with the Hilbert profile h(i) = min{d, 1 + i(r-1)} whose
  defect sum Sum_i (d - h(i)) reproduces it (the standing cross-check).
* Halphen's bound G(3;d,s) for space curves of degree d > s^2 - s lying on
  no surface of degree < s.
* The profile-defined bounds G(4;d,5) (pi2) and G(4;d,4) (pi1) for curves in
  P^4, each with both its closed form and its explicit Hilbert profile.
* Profile propagation h(i) >= min{d, h(i-3) + h(3) - 1} from three seed
  values, and the weighted defect sum Sum (i-1)(d - k(i)) with its binomial
  closed form.
* The double point formula d(d-5) - 10(g-1) + 12*chi - 2*K^2 = 0 for smooth
  surfaces in P^4, written once as :func:`double_point_2k2`, and the Euler
  characteristic lower bound used for surfaces on a quartic hypersurface.

Each closed form is defined once, as a tuple of polynomials whose entry e
holds on the residue class (d - 1) mod len = e (the ``*_polys`` functions):
the scalar functions evaluate it and the certificates in :mod:`kbound.verify`
iterate over it; the profile sums stay its oracles. Every bound function
returns a :class:`GenusBoundResult` carrying the exact rational value plus the
split data (m/eps, n/v/w, p/q/t) that entered the formula. Every split is
``divmod(d - 1, len(polys))``, so each modulus is written once, where its tuple
is built: d - 1 = (r-1)m + eps, d - 1 = 5n + v, d - 1 = 4p + q.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache

from .exact import (
    Frozen,
    InconsistencyError,
    OutOfDomainError,
    Poly,
    Record,
    _set,
    as_int,
    rat_str,
)


class HilbertProfile(Frozen):
    """Lower-bound profile i -> value for i >= 1, stabilizing at d.

    ``prefix`` holds the values at i = 1 .. len(prefix); every later value
    equals d. The defect sum Sum_i (d - value(i)) is therefore finite by
    construction.
    """

    __slots__ = ("label", "d", "prefix")

    def __init__(self, label: str, d: int, prefix: tuple[int, ...]):
        if d < 1:
            raise ValueError("profile needs d >= 1")
        last = 0
        for v in prefix:
            if v < 1 or v > d:
                raise ValueError(f"profile value {v} outside [1, d={d}]")
            if v < last:
                raise ValueError("profile must be nondecreasing")
            last = v
        _set(self, "label", label)
        _set(self, "d", d)
        _set(self, "prefix", prefix)

    def value_at(self, i: int) -> int:
        if i < 1:
            raise ValueError("profiles are defined for i >= 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.d

    @property
    def stabilization_index(self) -> int:
        """Least index from which every value equals d."""
        i = len(self.prefix)
        while i > 0 and self.prefix[i - 1] == self.d:
            i -= 1
        return i + 1

    def defect_sum(self) -> int:
        # Sum of d - value over the explicit prefix; the tail contributes 0.
        return self.d * len(self.prefix) - sum(self.prefix)

    def to_json_dict(self) -> dict:
        return {
            "ambient_label": self.label,
            "d": self.d,
            "prefix": list(self.prefix),
            "stabilization_index": self.stabilization_index,
        }


class GenusBoundResult(Record):
    """Exact value of one named genus bound plus its split parameters."""

    __slots__ = ("formula_id", "d", "bound", "params")

    def __init__(self, formula_id: str, d: int, bound: Fraction, params: dict):
        self.formula_id = formula_id
        self.d = d
        self.bound = bound
        self.params = params

    @property
    def is_integer(self) -> bool:
        return self.bound.denominator == 1

    @property
    def bound_int(self) -> int:
        return as_int(self.bound, f"{self.formula_id}({self.d})")

    @property
    def floor(self) -> int:
        return self.bound.numerator // self.bound.denominator

    def to_json_dict(self) -> dict:
        return {
            "formula_id": self.formula_id,
            "d": self.d,
            "bound": rat_str(self.bound),
            "floor": self.floor,
            "is_integer": self.is_integer,
            "params": dict(self.params),
        }


@cache
def castelnuovo_polys(r: int) -> tuple[Poly, ...]:
    """G(r;d) over 2(r-1) as a quadratic in d, entry eps on (d-1) mod (r-1) = eps."""
    return tuple(Poly(((r - eps) * (1 + eps), -(r + 1), 1), 2 * (r - 1)) for eps in range(r - 1))


def castelnuovo_bound(r: int, d: int) -> GenusBoundResult:
    """Castelnuovo's bound for the genus of an integral nondegenerate
    degree-d curve in P^r:

        G(r;d) = d^2/(2(r-1)) - (r+1)d/(2(r-1)) + (r-eps)(1+eps)/(2(r-1)),

    with d - 1 = m(r-1) + eps, 0 <= eps <= r-2. Always an integer; equals
    the defect sum of :func:`castelnuovo_profile` (tested as an invariant).
    """
    if r < 3:
        raise ValueError("castelnuovo_bound needs r >= 3")
    if d < r:
        raise OutOfDomainError(f"no nondegenerate degree-{d} curve in P^{r}")
    m, eps = divmod(d - 1, len(castelnuovo_polys(r)))
    bound = castelnuovo_polys(r)[eps](d)
    as_int(bound, f"G({r};{d})")
    return GenusBoundResult(
        formula_id="castelnuovo",
        d=d,
        bound=bound,
        params={"r": r, "m": m, "eps": eps},
    )


def castelnuovo_profile(r: int, d: int) -> HilbertProfile:
    """Profile h(i) = min{d, 1 + i(r-1)}: the defect-sum oracle for G(r;d)."""
    if r < 3:
        raise ValueError("castelnuovo_profile needs r >= 3")
    if d < r:
        raise OutOfDomainError(f"no nondegenerate degree-{d} curve in P^{r}")
    step = r - 1
    prefix = list(range(1 + step, d, step))  # values 1 + i(r-1) below d
    prefix.append(d)
    return HilbertProfile(label=f"Castelnuovo-minimal r={r}", d=d, prefix=tuple(prefix))


@cache
def halphen_polys(s: int) -> tuple[Poly, ...]:
    """G(3;d,s) over 2s as a quadratic in d, entry eps on (d-1) mod s = eps."""
    return tuple(Poly((2 * s - (s - 1 - eps) * (eps + 1) * (s - 1), s * (s - 4), 1), 2 * s) for eps in range(s))


def halphen_bound(d: int, s: int) -> GenusBoundResult:
    """Halphen's bound for the arithmetic genus of an irreducible, reduced,
    nondegenerate space curve of degree d > s^2 - s on no surface of
    degree < s:

        G(3;d,s) = d^2/(2s) + d(s-4)/2 + 1 - (s-1-eps)(eps+1)(s-1)/(2s),

    with d - 1 = ms + eps, 0 <= eps <= s-1. The exact rational is returned
    even if it is not an integer; callers that need an integer genus bound
    should use ``floor`` (``is_integer`` flags the distinction).
    """
    if s < 2:
        raise ValueError("halphen_bound needs s >= 2")
    if d <= s * s - s:
        raise OutOfDomainError(f"Halphen bound asserted only for d > {s * s - s}")
    m, eps = divmod(d - 1, len(halphen_polys(s)))
    bound = halphen_polys(s)[eps](d)
    return GenusBoundResult(
        formula_id="halphen",
        d=d,
        bound=bound,
        params={"s": s, "m": m, "eps": eps},
    )


def pi2_w(v: int) -> int:
    """w = max{0, floor(v/2)} for the residue v of d - 1 mod 5."""
    return max(0, v // 2)


@cache
def pi2_polys() -> tuple[Poly, ...]:
    """G(4;d,5) = d^2/10 - 3d/10 + 1/5 + v/10 - v^2/10 + w, entry v on the
    residue class (d-1) mod 5 = v, over the denominator 10."""
    return tuple(Poly((2 + v - v * v + 10 * pi2_w(v), -3, 1), 10) for v in range(5))


def pi2_split(d: int) -> tuple[int, int, int]:
    """(n, v, w) with d - 1 = 5n + v, 0 <= v <= 4, w = :func:`pi2_w`."""
    n, v = divmod(d - 1, len(pi2_polys()))
    return n, v, pi2_w(v)


def pi2_bound(d: int) -> GenusBoundResult:
    """G(4;d,5), the maximal genus of a degree-d curve in P^4 whose general
    hyperplane section lies on no surface of degree < 5 in P^3, from
    :func:`pi2_polys`. Computed for every d >= 2; as a genus bound it is
    asserted for d > 143.
    """
    if d < 2:
        raise OutOfDomainError("pi2_bound needs d >= 2")
    n, v, w = pi2_split(d)
    bound = pi2_polys()[v](d)
    as_int(bound, f"G(4;{d},5)")
    return GenusBoundResult(
        formula_id="pi2",
        d=d,
        bound=bound,
        params={"n": n, "v": v, "w": w, "genus_bound_asserted_for": "d > 143"},
    )


def pi2_profile(d: int) -> HilbertProfile:
    """Profile for G(4;d,5): h(i) = 5i - 1 for i <= n, d - w at i = n + 1,
    then d. Its defect sum must equal the closed form exactly."""
    if d < 2:
        raise OutOfDomainError("pi2_profile needs d >= 2")
    n, v, w = pi2_split(d)
    prefix = list(range(4, 5 * n, 5))  # 5i - 1 for i = 1..n
    prefix.append(d - w)
    return HilbertProfile(label="h for G(4;d,5)", d=d, prefix=tuple(prefix))


def pi1_t(q: int) -> int:
    """t = 1 iff the residue q of d - 1 mod 4 is 3."""
    return 1 if q == 3 else 0


@cache
def pi1_polys() -> tuple[Poly, ...]:
    """G(4;d,4) = d^2/8 - d/2 + 3/8 + q/4 - q^2/8 + t, entry q on the
    residue class (d-1) mod 4 = q, over the denominator 8."""
    return tuple(Poly((3 + 2 * q - q * q + 8 * pi1_t(q), -4, 1), 8) for q in range(4))


def pi1_split(d: int) -> tuple[int, int, int]:
    """(p, q, t) with d - 1 = 4p + q, 0 <= q <= 3, t = :func:`pi1_t`."""
    p, q = divmod(d - 1, len(pi1_polys()))
    return p, q, pi1_t(q)


def pi1_bound(d: int) -> GenusBoundResult:
    """G(4;d,4) from :func:`pi1_polys`."""
    if d < 2:
        raise OutOfDomainError("pi1_bound needs d >= 2")
    p, q, t = pi1_split(d)
    bound = pi1_polys()[q](d)
    as_int(bound, f"G(4;{d},4)")
    return GenusBoundResult(
        formula_id="pi1",
        d=d,
        bound=bound,
        params={"p": p, "q": q, "t": t},
    )


def pi1_profile(d: int) -> HilbertProfile:
    """Profile for G(4;d,4): k(i) = 4i for i <= p; d - 1 at i = p + 1 when
    q = 3; d otherwise."""
    if d < 2:
        raise OutOfDomainError("pi1_profile needs d >= 2")
    p, _, t = pi1_split(d)
    prefix = list(range(4, 4 * p + 1, 4))
    if t:
        prefix.append(d - 1)
    return HilbertProfile(label="k for G(4;d,4)", d=d, prefix=tuple(prefix))


def genus_from_profile(profile: HilbertProfile) -> int:
    """Genus bound Sum_{i>=1} (d - h(i)) attached to a stabilizing profile."""
    return profile.defect_sum()


def propagate_profile(seed: Sequence[int], d: int) -> HilbertProfile:
    """Minimal profile with seed values h(1), h(2), h(3) and the rule

        h(i) = min{d, h(i-3) + h(3) - 1}   for i >= 4,

    appended one index at a time. The prefix keeps the seed and ends at
    the first value d. Seeds (4, 9, 16) and (4, 10, 19) drive the
    curve-in-P^4 exclusion cases.
    """
    vals = [int(v) for v in seed]
    if len(vals) != 3:
        raise ValueError("seed must have exactly three entries")
    if any(v < 1 for v in vals):
        raise ValueError("seed values must be positive")
    if vals != sorted(vals):
        raise ValueError("seed values must be nondecreasing")
    if any(v > d for v in vals):
        raise ValueError("seed values must be <= d")
    h3 = vals[2]
    if h3 < 2 and not all(v == d for v in vals):
        raise ValueError("seed cannot stabilize: value_at(3) must be >= 2")
    prefix = list(vals)  # a copy: the label shows the seed
    while prefix[-1] < d:
        prefix.append(min(d, prefix[-3] + h3 - 1))
    return HilbertProfile(label=f"propagated from {tuple(vals)}", d=d, prefix=tuple(prefix))


def weighted_defect_direct(d: int) -> int:
    """Sum_{i=1}^{d-4} (i-1)(d - k(i)) evaluated term by term."""
    if d < 5:
        raise OutOfDomainError("weighted defect sum needs d >= 5")
    p, _, t = pi1_split(d)
    # Terms with i > p + 1 vanish because k(i) = d there; for d in {5, 6}
    # the stated range i <= d - 4 is the binding one.
    top = min(d - 4, p + 1)
    total = 0
    for i in range(1, top + 1):
        if i <= p:
            k = 4 * i
        elif t:
            k = d - 1
        else:
            k = d
        total += (i - 1) * (d - k)
    return total


@cache
def weighted_defect_polys() -> tuple[Poly, ...]:
    """C(p,2)*d - 8*C(p+1,3) + t*p, the closed form of the weighted sum, as
    a cubic in p, entry q on the residue class d = kp + q + 1 (k = 4) of
    :func:`pi1_polys`: over 6 it is 3p(p-1)(kp + q + 1) - 8(p+1)p(p-1) + 6tp
    = (3k - 8)p^3 + 3(q + 1 - k)p^2 + (5 - 3q + 6t)p."""
    k = len(pi1_polys())
    return tuple(Poly((0, 5 - 3 * q + 6 * pi1_t(q), 3 * (q + 1 - k), 3 * k - 8), 6) for q in range(k))


def weighted_defect_closed_form(d: int) -> int:
    """The weighted defect sum from :func:`weighted_defect_polys`."""
    if d < 5:
        raise OutOfDomainError("weighted defect sum needs d >= 5")
    p, q = divmod(d - 1, len(weighted_defect_polys()))
    return as_int(weighted_defect_polys()[q](p), f"weighted defect sum at d={d}")


def double_point_2k2(d, g, chi):
    """2K^2 = d(d-5) - 10(g-1) + 12*chi, the double point formula solved for
    2K^2. Each of d, g, chi may be an int, a Fraction or a :class:`Poly` in d;
    the certificates substitute a genus bound for g and an Euler
    characteristic bound for chi."""
    return d * (d - 5) - 10 * (g - 1) + 12 * chi


def double_point_k2(d: int, g: int, chi: int) -> int:
    """K^2 from :func:`double_point_2k2`.

    Raises :class:`InconsistencyError` when the inputs cannot come from a
    smooth surface in P^4: an odd numerator, or chi < 1 - g (restriction of
    1-forms to a hyperplane section is injective, so h^1(O_S) <= g and
    chi(O_S) >= 1 - g).
    """
    if chi < 1 - g:
        raise InconsistencyError(
            f"chi={chi} < 1 - g = {1 - g}: no smooth surface in P^4 has these invariants"
        )
    num = double_point_2k2(d, g, chi)
    if num % 2 != 0:
        raise InconsistencyError(
            f"double point formula gives odd 2*K^2 = {num}: inconsistent invariants"
        )
    return num // 2


def chi_bound_poly(x: int | Fraction) -> Poly:
    """Euler characteristic lower bound for a degree-d surface on an
    irreducible quartic hypersurface of P^4, as a cubic in d, in terms of
    the rational genus-defect parameter 0 <= x <= 9
    (g = d^2/8 + d(x-9)/8 + 1):

        chi >= d^3/96 - d^2/16 - 5d/3 - 333/16 - (d-3)d(9-x)/8.

    The constant -333/16 is an external input to this package.
    """
    a, b = x.as_integer_ratio()  # x = a/b, b > 0
    if not 0 <= a <= 9 * b:
        raise ValueError("x must lie in [0, 9]")
    base = Poly((-1998, -160, -6, 1), 96)  # d^3/96 - d^2/16 - 5d/3 - 333/16
    return base - Poly((0, -3 * (9 * b - a), 9 * b - a), 8 * b)  # (9 - x)/8 * (d^2 - 3d)


def chi_lower_bound_s4(d: int, x) -> Fraction:
    """:func:`chi_bound_poly` at the degree d."""
    if d < 4:
        raise OutOfDomainError("chi_lower_bound_s4 needs d >= 4")
    return chi_bound_poly(x)(d)
