"""Divisor classes of surfaces on the smooth rational normal 3-fold scroll
T in P^5 (the smooth 3-dimensional variety of minimal degree 3).

Pic(T) is freely generated by the hyperplane class H and the plane W of the
ruling. The triple intersection numbers are hard-coded:

    H^3 = deg T = 3,
    H^2.W = 1   (a ruling plane meets a general codimension-2 linear
                 section of T in one point: W is a linearly embedded P^2),
    H.W^2 = 0 and W^3 = 0   (two distinct ruling planes are disjoint and
                 W moves in the ruling, so W^2 = 0 in the Chow ring).

The canonical class is K_T = -3H + W. Everything downstream of these five
constants is cross-checked against the independent cubic polynomial
``phi(d, a)`` for K^2; the agreement of the two routes guards against an
error in either.

A surface class alpha*H + beta*W of degree d = 3*alpha + beta >= 4 contains
an irreducible nonsingular nondegenerate surface iff alpha > 0,
alpha + beta >= 0 and 3*alpha + beta >= 4 (admissibility). Writing
d - 1 = 3m + eps with eps in :data:`FRAME_RESIDUES` (``divmod(d - 1, 3)``),
the admissible classes of degree d are exactly
(m + 1 + a)H + (eps + 1 - 3(a + 1))W for integers -m <= a <= (m + eps - 1)/2.
"""

from __future__ import annotations

from collections.abc import Iterator

from .exact import (
    FrameRangeError,
    Frozen,
    InconsistencyError,
    OutOfDomainError,
    Poly,
    _horner,
    _set,
    forward_walk,
)

# Triple products on T.
H3 = 3
H2W = 1
HW2 = 0
W3 = 0

#: The least degree from which APPENDIX.min, the minimization of K^2, is asserted.
ASSERTED_FROM = 18


class DivisorClass(Frozen):
    """Integer class alpha*H + beta*W in Pic(T)."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)

    def degree(self) -> int:
        """deg(S) = S.H^2 = 3*alpha + beta."""
        return 3 * self.alpha + self.beta

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.alpha + other.alpha, self.beta + other.beta)

    def text(self) -> str:
        b = self.beta
        return f"{self.alpha}H{'+' if b >= 0 else '-'}{abs(b)}W"


HYPERPLANE = DivisorClass(1, 0)
RULING = DivisorClass(0, 1)
CANONICAL = DivisorClass(-3, 1)  # K_T = -3H + W
CANONICAL_HYPERPLANE = CANONICAL + HYPERPLANE  # K_T + H, added once for _genus_raw


def triple_product(c1: DivisorClass, c2: DivisorClass, c3: DivisorClass) -> int:
    """c1.c2.c3 expanded through the four constants above."""
    a1, b1 = c1.alpha, c1.beta
    a2, b2 = c2.alpha, c2.beta
    a3, b3 = c3.alpha, c3.beta
    return (
        H3 * a1 * a2 * a3
        + H2W * (a1 * a2 * b3 + a1 * b2 * a3 + b1 * a2 * a3)
        + HW2 * (a1 * b2 * b3 + b1 * a2 * b3 + b1 * b2 * a3)
        + W3 * b1 * b2 * b3
    )


def inadmissible_reasons(c: DivisorClass) -> list[str]:
    """The admissibility conditions alpha > 0, alpha + beta >= 0 and
    3*alpha + beta >= 4 that c breaks, each as a short text."""
    reasons = []
    if c.alpha <= 0:
        reasons.append("alpha <= 0")
    if c.alpha + c.beta < 0:
        reasons.append("alpha + beta < 0")
    if c.degree() < 4:
        reasons.append(f"degree {c.degree()} < 4 (degenerate: the class would be a hyperplane section or worse)")
    return reasons


def is_admissible(c: DivisorClass) -> bool:
    """True iff |alpha*H + beta*W| contains an irreducible nonsingular
    nondegenerate surface, i.e. c breaks none of the conditions above."""
    return not inadmissible_reasons(c)


def is_extremal(c: DivisorClass) -> bool:
    """True iff c is the sharp class (d/2)(H - W) of an even degree d >= 4,
    i.e. an admissible class with beta = -alpha."""
    return is_admissible(c) and c.alpha + c.beta == 0


def _k2_raw(c: DivisorClass) -> int:
    """(K_T + S)^2 . S with no admissibility gate (for oracles and scans)."""
    adj = c + CANONICAL
    return triple_product(adj, adj, c)


def k2_intersection(c: DivisorClass) -> int:
    """K^2 of the smooth surface in |c| via adjunction on T:
    K_S = (K_T + S)|_S, so K^2 = (K_T + S)^2 . S."""
    if not is_admissible(c):
        raise OutOfDomainError(f"class {c.text()} is not admissible")
    return _k2_raw(c)


def sectional_genus(c: DivisorClass) -> int:
    """Genus of the general hyperplane section, from 2g - 2 = H.(H + K_S)
    computed on T as (K_T + S + H).S.H."""
    if not is_admissible(c):
        raise OutOfDomainError(f"class {c.text()} is not admissible")
    return _genus_raw(c)


def _genus_raw(c: DivisorClass) -> int:
    """:func:`sectional_genus` with no admissibility gate."""
    t = triple_product(c + CANONICAL_HYPERPLANE, c, HYPERPLANE)
    if t % 2 != 0:
        raise InconsistencyError(f"odd 2g - 2 = {t} for class {c.text()}")
    g = (t + 2) // 2
    if g < 0:
        raise InconsistencyError(f"negative sectional genus for class {c.text()}")
    return g


#: The residues eps of the frame d - 1 = 3m + eps.
FRAME_RESIDUES = range(3)


def _split3(d: int) -> tuple[int, int]:
    if d < 4:
        raise OutOfDomainError("scroll surfaces have degree d >= 4")
    return divmod(d - 1, len(FRAME_RESIDUES))


def _a_star(m: int, eps: int) -> int:
    """Right endpoint floor((m + eps - 1)/2) of the admissible range of a."""
    return (m + eps - 1) // 2


class ScrollFrame(Frozen):
    """The degree-d class on T indexed by a, where d - 1 = 3m + eps; needs
    d >= 4 (OutOfDomainError) and -m <= a <= a* (FrameRangeError)."""

    __slots__ = ("d", "a")

    def __init__(self, d: int, a: int):
        m, eps = _split3(d)
        if not -m <= a <= _a_star(m, eps):
            raise FrameRangeError(f"a={a} outside [{-m}, {_a_star(m, eps)}] for d={d}")
        _set(self, "d", d)
        _set(self, "a", a)

    @property
    def m(self) -> int:
        return _split3(self.d)[0]

    @property
    def eps(self) -> int:
        return _split3(self.d)[1]

    @property
    def a_star(self) -> int:
        """Right endpoint floor((m + eps - 1)/2) of the admissible range."""
        return _a_star(self.m, self.eps)

    @property
    def q_parity(self) -> int:
        """m + eps - 1 = 2p + q with 0 <= q <= 1; q = 0 iff d is even."""
        return (self.m + self.eps - 1) % 2


def class_from_frame(f: ScrollFrame) -> DivisorClass:
    return DivisorClass(f.m + 1 + f.a, f.eps + 1 - 3 * (f.a + 1))


def frame_from_class(c: DivisorClass, expect_d: int) -> ScrollFrame:
    """Unique frame of the class; errors if the degree disagrees with
    expect_d or a falls outside the admissible range."""
    d = c.degree()
    if d != expect_d:
        raise FrameRangeError(f"class {c.text()} has degree {d}, expected {expect_d}")
    # alpha = m + 1 + a; beta is then forced: eps + 1 - 3(a + 1) = d - 3*alpha.
    return ScrollFrame(d, c.alpha - _split3(d)[0] - 1)


def phi_coefficients(m: int | Poly, e: int) -> tuple:
    """Coefficients (c0, c1, c2, c3) of phi = c3*a^3 + c2*a^2 + c1*a + c0
    for the frame d - 1 = 3m + eps:

        phi(a) = -6a^3 + a^2(-9m + 5 + 3eps) + a(2m(3eps - 4) - 6eps + 10)
                 + 3m^3 + m^2(3eps - 13) + m(10 - 6eps) + 8.

    ``m`` may be an int or a :class:`Poly` in m; phi, phi' and the
    discriminant of phi' are all derived from these four coefficients.
    """
    return (
        ((3 * m + (3 * e - 13)) * m + (10 - 6 * e)) * m + 8,
        (6 * e - 8) * m + (10 - 6 * e),
        -9 * m + (5 + 3 * e),
        -6,
    )


def phi_derivative_coefficients(m: int | Poly, e: int) -> tuple:
    """Coefficients (C, B, A) of phi' = A*a^2 + B*a + C (A = -18)."""
    return derivative(phi_coefficients(m, e))


def derivative(cubic: tuple) -> tuple:
    """The derivative (c1, 2*c2, 3*c3) of the cubic (c0, c1, c2, c3)."""
    _, c1, c2, c3 = cubic
    return c1, 2 * c2, 3 * c3


def discriminant(quadratic: tuple) -> int | Poly:
    """B^2 - 4AC of the quadratic (C, B, A), such as phi''s; an int, or a
    Poly in m when the coefficients are."""
    C, B, A = quadratic
    return B * B - 4 * A * C


def phi(d: int, a: int) -> int:
    """K^2 of the degree-d surface class indexed by a, as the exact cubic
    of :func:`phi_coefficients`.

    Defined for every integer a (the admissible range is not enforced here;
    endpoint scans evaluate phi just outside it on purpose). Must agree with
    :func:`k2_intersection` on every admissible class. Its third forward
    difference in a is the constant -36.
    """
    return _horner(phi_coefficients(*_split3(d)), a)


def phi_derivative(d: int, a: int) -> int:
    """phi'(a) = -18a^2 + 2a(-9m + 5 + 3eps) + 2m(3eps - 4) - 6eps + 10, from
    :func:`phi_derivative_coefficients`.

    Its second forward difference in a is the constant -36.
    """
    return _horner(phi_derivative_coefficients(*_split3(d)), a)


class KsqMinimum(Frozen):
    """Result of the exhaustive minimization of phi over -m <= a <= a*."""

    __slots__ = ("d", "a_min", "k2_min", "unique")

    def __init__(self, d: int, a_min: int, k2_min: int, unique: bool):
        _set(self, "d", d)
        _set(self, "a_min", a_min)
        _set(self, "k2_min", k2_min)
        _set(self, "unique", unique)

    @property
    def in_asserted_range(self) -> bool:
        return self.d >= ASSERTED_FROM

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "a_min": self.a_min,
            "k2_min": self.k2_min,
            "unique": self.unique,
            "in_asserted_range": self.in_asserted_range,
        }


def frame_k2(d: int, n: int = 0) -> list[int]:
    """[phi(d, -m), ..., phi(d, a*)], the K^2 of every admissible class
    alpha = 1 .. d // 2 of degree d, or of alpha = 1 .. n for n > 0, by an
    exact forward-difference walk of one phi_coefficients tuple, re-checked
    against :func:`phi` at its last a (InconsistencyError if not)."""
    m, eps = _split3(d)
    last, cubic = (n or d // 2) - 1 - m, phi_coefficients(m, eps)
    return forward_walk(lambda a: phi(d, a) if a == last else _horner(cubic, a), -m, last, 3)


def k2_step(alpha: int) -> int:
    """K^2 of alpha*H + (d + 1 - 3alpha)W less that of alpha*H + (d - 3alpha)W:
    K^2 = (K_T + S)^2.S is linear in beta, with this slope."""
    return 3 * (alpha - 1) * (alpha - 3)


def _cubic_sum(cubic: tuple, lo: int, hi: int) -> int:
    """The sum of the cubic (c0, c1, c2, c3) over [lo, hi], from the sums x,
    t = x(x + 1)/2, t(2x + 1)/3 and t^2 of a^k over 1 <= a <= x, k <= 3:
    polynomials in x, true at every integer x, here at hi and lo - 1."""
    c0, c1, c2, c3 = cubic
    t, s = hi * (hi + 1) // 2, lo * (lo - 1) // 2
    return c0 * (hi - lo + 1) + c1 * (t - s) + c2 * (t * (2 * hi + 1) - s * (2 * lo - 1)) // 3 + c3 * (t * t - s * s)


def unpack_frame(packed: int, w: int, n: int) -> list[int]:
    """The n lanes of a :func:`frame_walk` frame packed in w-bit lanes."""
    raw, k = packed.to_bytes(n * w // 8, "little"), w // 8
    return [int.from_bytes(raw[i:i + k], "little") - (1 << w - 2) for i in range(0, len(raw), k)]


def _packed_frame(values: list[int], span: int) -> tuple[int, int, int, int, int]:
    """(w, frame, steps, guards, ones): values and their classes' k2_step,
    each + 2^(w - 2) below its guard bit w - 1 in a lane of the least width
    w = 8k that holds both and every value moved span steps on, and the
    lanes' guard bits and bits 0."""
    steps = list(map(k2_step, range(1, len(values) + 1)))
    lanes = values + steps + [v + span * step for v, step in zip(values, steps)]
    w = (max(-min(lanes) - 1, max(lanes)).bit_length() + 9) // 8 * 8
    bias, n = 1 << w - 2, len(values)
    both = int.from_bytes(b"".join((x + bias).to_bytes(w // 8, "little") for x in lanes[:2 * n]), "little")
    ones = int.from_bytes((b"\1" + bytes(w // 8 - 1)) * n, "little")
    return w, both & (1 << w * n) - 1, (both >> w * n) - bias * ones, ones << w - 1, ones


def frame_walk(lo: int, hi: int) -> Iterator[tuple[KsqMinimum, int, int, int]]:
    """For d = lo, ..., hi: d's :class:`KsqMinimum`, its frame packed in
    w-bit lanes (:func:`unpack_frame`), w and the frame's residue mod
    2^w - 1. The frame holds every class alpha = 1 .. hi // 2 from lo on,
    admissible or not yet, in one lane width: at a fixed alpha K^2 is affine
    in d, so its extremes over the window lie at lo and hi. Each degree adds
    every class's k2_step in one integer addition, and the residue by the
    steps' residue. A set guard bit, a class at a* other than phi, or a lanes'
    sum other than _cubic_sum's mod 2^w - 1 raises InconsistencyError."""
    n, cap = lo // 2, hi // 2  # the admissible classes of d, and all of the window's
    w, frame, steps, guards, ones = _packed_frame(frame_k2(lo, cap), hi - lo)
    bias, mod = 1 << w - 2, (1 << w) - 1  # mod is also one lane's bits
    below = guards & (1 << w * n - w) - 1  # the guard bits of the lanes below a*'s
    residue, moved, last = frame % mod, steps % mod, (frame >> w * (n - 1) & mod) - bias
    for d in range(lo, hi + 1):
        m, eps = _split3(d)
        if d > lo:
            cubic, frame, residue = phi_coefficients(m, eps), frame + steps, (residue + moved) % mod
            if frame & guards:
                raise InconsistencyError(f"frame walk leaves its {w}-bit lanes at d={d}")
            if d % 2 == 0:  # d // 2 grew: the class n + 1 is admissible, and n's lane is below a*'s
                below, n = below | 1 << w * n - 1, n + 1
            if (last := (frame >> w * (n - 1) & mod) - bias) != (direct := _horner(cubic, n - 1 - m)):
                raise InconsistencyError(f"frame walk gives {last} at d={d}, direct evaluation {direct}")
            if residue != ((total := _cubic_sum(cubic, -m, cap - 1 - m)) + cap * bias) % mod:
                raise InconsistencyError(f"frame walk's lanes do not sum to {total} mod 2^{w} - 1 at d={d}")
        # one pass: each lane holds K^2 - last - 1 + 2^(w-1), its guard bit set where K^2 > last
        if (frame + (bias - 1 - last) * ones) & below == below:
            yield KsqMinimum(d, n - 1 - m, last, True), frame, w, residue
        else:
            yield frame_minimum(d, unpack_frame(frame, w, cap)[:n]), frame, w, residue


def frame_minimum(d: int, values: list[int]) -> KsqMinimum:
    """The least of d's frame values, its least a and whether it is unique."""
    best = min(values)
    first = values.index(best)
    return KsqMinimum(d=d, a_min=first - _split3(d)[0], k2_min=best, unique=best not in values[first + 1:])


def minimize_k2(d: int) -> KsqMinimum:
    """Brute-force minimum of phi over every integer a in [-m, a*], from
    :func:`frame_k2`: O(d) exact points, the trustworthy oracle against
    which the closed forms (-d(d-6) for even d, -d^2/4 + d/2 + 35/4 for odd
    d) are claims."""
    return frame_minimum(d, frame_k2(d))


#: K^2 = -d(d-6) of the extremal class, the bound the package certifies.
EVEN_MINIMUM = Poly.of(0, 6, -1)
#: min K^2 = -d^2/4 + d/2 + 35/4 over the classes of an odd degree d.
ODD_MINIMUM = Poly((35, 2, -1), 4)
#: Sectional genus d^2/8 - 3d/4 + 1 of the extremal class (d/2)(H - W).
EXTREMAL_GENUS = Poly((8, -6, 1), 8)


def k2_min_form(d: int) -> Poly:
    """The closed form of phi(a*) by parity of m + eps - 1:
    :data:`EVEN_MINIMUM` when q = 0 (d even), :data:`ODD_MINIMUM` when q = 1
    (d odd)."""
    m, eps = _split3(d)
    return EVEN_MINIMUM if (m + eps - 1) % 2 == 0 else ODD_MINIMUM


def k2_min_closed_form(d: int) -> Fraction:
    """phi(a*) from :func:`k2_min_form`."""
    return k2_min_form(d)(d)


class ExtremalSurface(Frozen):
    __slots__ = ("cls", "k2", "genus")

    def __init__(self, cls: DivisorClass, k2: int, genus: int):
        _set(self, "cls", cls)
        _set(self, "k2", k2)
        _set(self, "genus", genus)


def extremal_class(d: int) -> ExtremalSurface:
    """The unique minimizing class for even d: S ~ (d/2)(H - W), with
    K^2 = -d(d-6) and sectional genus d^2/8 - 3d/4 + 1.

    Both invariants are recomputed through the intersection ring and checked
    against the closed forms before returning.
    """
    if d % 2 != 0:
        raise ValueError("extremal_class is defined for even d only")
    if d < 4:
        raise OutOfDomainError("extremal_class needs even d >= 4")
    c = DivisorClass(d // 2, -d // 2)
    if not is_extremal(c):  # admissible, so the ungated K^2 and genus apply
        raise InconsistencyError(f"extremal class {c.text()} is not admissible")
    k2, g = _k2_raw(c), _genus_raw(c)
    if not EVEN_MINIMUM.has_value(d, k2):
        raise InconsistencyError(f"extremal K^2 {k2} != -d(d-6) at d={d}")
    if not EXTREMAL_GENUS.has_value(d, g):
        raise InconsistencyError(f"extremal genus {g} != d^2/8 - 3d/4 + 1 at d={d}")
    m, eps = _split3(d)
    if c.alpha - m - 1 != _a_star(m, eps) or (m + eps - 1) % 2 != 0:
        raise InconsistencyError(f"extremal class not at a* with q=0 at d={d}")
    return ExtremalSurface(cls=c, k2=k2, genus=g)


def class_row(c: DivisorClass) -> dict:
    """One report record for the class c (for reports and the CLI). The
    frame index a and the genus are None unless c is admissible."""
    d = c.degree()
    admissible = is_admissible(c)
    return {
        "d": d,
        "a": frame_from_class(c, d).a if admissible else None,
        "alpha": c.alpha,
        "beta": c.beta,
        "degree": d,
        "k2": _k2_raw(c),
        "genus": sectional_genus(c) if admissible else None,
        "admissible": admissible,
        "extremal": is_extremal(c),
    }


def frame_scan(d: int) -> list[dict]:
    """One :func:`class_row` per admissible a of degree d."""
    m, eps = _split3(d)
    return [class_row(class_from_frame(ScrollFrame(d, a))) for a in range(-m, _a_star(m, eps) + 1)]
