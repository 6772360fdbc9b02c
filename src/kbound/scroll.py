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
d - 1 = 3m + eps with 0 <= eps <= 2 (``divmod(d - 1, 3)``), the admissible
classes of degree d are exactly (m + 1 + a)H + (eps + 1 - 3(a + 1))W for
integers -m <= a <= (m + eps - 1)/2.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (
    FrameRangeError,
    Frozen,
    InconsistencyError,
    OutOfDomainError,
    Poly,
    _set,
    forward_walk,
)

# Triple products on T.
H3 = 3
H2W = 1
HW2 = 0
W3 = 0


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
    t = triple_product(c + CANONICAL + HYPERPLANE, c, HYPERPLANE)
    if t % 2 != 0:
        raise InconsistencyError(f"odd 2g - 2 = {t} for class {c.text()}")
    g = (t + 2) // 2
    if g < 0:
        raise InconsistencyError(f"negative sectional genus for class {c.text()}")
    return g


def _split3(d: int) -> tuple[int, int]:
    if d < 4:
        raise OutOfDomainError("scroll surfaces have degree d >= 4")
    return divmod(d - 1, 3)


def _a_star(m: int, eps: int) -> int:
    """Right endpoint floor((m + eps - 1)/2) of the admissible range of a."""
    return (m + eps - 1) // 2


class ScrollFrame(Frozen):
    """Parameters (d, m, eps, a) with d - 1 = 3m + eps indexing a degree-d
    class on T; valid frames have -m <= a <= floor((m + eps - 1)/2)."""

    __slots__ = ("d", "m", "eps", "a")

    def __init__(self, d: int, m: int, eps: int, a: int):
        _set(self, "d", d)
        _set(self, "m", m)
        _set(self, "eps", eps)
        _set(self, "a", a)

    @staticmethod
    def for_degree(d: int, a: int) -> "ScrollFrame":
        m, eps = _split3(d)
        f = ScrollFrame(d, m, eps, a)
        if not f.in_range:
            raise FrameRangeError(
                f"a={a} outside [{-m}, {_a_star(m, eps)}] for d={d}"
            )
        return f

    @property
    def a_star(self) -> int:
        """Right endpoint floor((m + eps - 1)/2) of the admissible range."""
        return _a_star(self.m, self.eps)

    @property
    def q_parity(self) -> int:
        """m + eps - 1 = 2p + q with 0 <= q <= 1; q = 0 iff d is even."""
        return (self.m + self.eps - 1) % 2

    @property
    def in_range(self) -> bool:
        return -self.m <= self.a <= self.a_star


def class_from_frame(f: ScrollFrame) -> DivisorClass:
    return DivisorClass(f.m + 1 + f.a, f.eps + 1 - 3 * (f.a + 1))


def frame_from_class(c: DivisorClass, expect_d: int) -> ScrollFrame:
    """Unique frame of the class; errors if the degree disagrees with
    expect_d or a falls outside the admissible range."""
    d = c.degree()
    if d != expect_d:
        raise FrameRangeError(f"class {c.text()} has degree {d}, expected {expect_d}")
    m, eps = _split3(d)
    a = c.alpha - m - 1
    # beta is then forced: eps + 1 - 3(a + 1) = d - 3*alpha automatically.
    return ScrollFrame.for_degree(d, a)


def phi_coefficients(m: int | Poly, e: int) -> tuple:
    """Coefficients (c0, c1, c2, c3) of phi = c3*a^3 + c2*a^2 + c1*a + c0
    for the frame d - 1 = 3m + eps:

        phi(a) = -6a^3 + a^2(-9m + 5 + 3eps) + a(2m(3eps - 4) - 6eps + 10)
                 + 3m^3 + m^2(3eps - 13) + m(10 - 6eps) + 8.

    ``m`` may be an int or a :class:`Poly` in m; phi, phi' and the
    discriminant of phi' are all derived from these four coefficients.
    """
    return (
        3 * m * m * m + m * m * (3 * e - 13) + m * (10 - 6 * e) + 8,
        2 * m * (3 * e - 4) - 6 * e + 10,
        -9 * m + 5 + 3 * e,
        -6,
    )


def phi_derivative_coefficients(m: int | Poly, e: int) -> tuple:
    """Coefficients (C, B, A) of phi' = A*a^2 + B*a + C (A = -18)."""
    _, c1, c2, c3 = phi_coefficients(m, e)
    return c1, 2 * c2, 3 * c3


def phi_derivative_discriminant(m: int | Poly, e: int) -> int | Poly:
    """B^2 - 4AC of phi'; an int, or a Poly in m when m is one."""
    C, B, A = phi_derivative_coefficients(m, e)
    return B * B - 4 * A * C


def _phi(m: int, e: int, a: int) -> int:
    c0, c1, c2, c3 = phi_coefficients(m, e)
    return ((c3 * a + c2) * a + c1) * a + c0


def phi(d: int, a: int) -> int:
    """K^2 of the degree-d surface class indexed by a, as the exact cubic
    of :func:`phi_coefficients`.

    Defined for every integer a (the admissible range is not enforced here;
    endpoint scans evaluate phi just outside it on purpose). Must agree with
    :func:`k2_intersection` on every admissible class. Its third forward
    difference in a is the constant -36.
    """
    m, e = _split3(d)
    return _phi(m, e, a)


def _phi_derivative(m: int, e: int, a: int) -> int:
    c0, c1, c2 = phi_derivative_coefficients(m, e)
    return (c2 * a + c1) * a + c0


def phi_derivative(d: int, a: int) -> int:
    """phi'(a) = -18a^2 + 2a(-9m + 5 + 3eps) + 2m(3eps - 4) - 6eps + 10, from
    :func:`phi_derivative_coefficients`.

    Its second forward difference in a is the constant -36.
    """
    m, e = _split3(d)
    return _phi_derivative(m, e, a)


class KsqMinimum(Frozen):
    """Result of the exhaustive minimization of phi over -m <= a <= a*."""

    __slots__ = ("d", "a_min", "k2_min", "unique", "in_asserted_range")

    def __init__(self, d: int, a_min: int, k2_min: int, unique: bool, in_asserted_range: bool):
        _set(self, "d", d)
        _set(self, "a_min", a_min)
        _set(self, "k2_min", k2_min)
        _set(self, "unique", unique)
        _set(self, "in_asserted_range", in_asserted_range)  # the claim is asserted for d >= 18

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "a_min": self.a_min,
            "k2_min": self.k2_min,
            "unique": self.unique,
            "in_asserted_range": self.in_asserted_range,
        }


def minimize_k2(d: int) -> KsqMinimum:
    """Brute-force minimum of phi over every integer a in [-m, a*].

    The range has O(d) points and the arithmetic is exact, which makes this
    the trustworthy oracle against which the closed forms
    (-d(d-6) for even d, -d^2/4 + d/2 + 35/4 for odd d) are claims. The
    values come from an exact forward-difference walk of the cubic phi,
    re-checked against phi at a* (InconsistencyError on a mismatch); a_min
    is the least minimizing a.
    """
    m, eps = _split3(d)
    a_star = _a_star(m, eps)
    values = forward_walk(lambda a: _phi(m, eps, a), -m, a_star, 3)
    best = min(values)
    return KsqMinimum(
        d=d,
        a_min=-m + values.index(best),
        k2_min=best,
        unique=values.count(best) == 1,
        in_asserted_range=(d >= 18),
    )


#: K^2 = -d(d-6) of the extremal class, the bound the package certifies.
EVEN_MINIMUM = Poly.of(0, 6, -1)
#: min K^2 = -d^2/4 + d/2 + 35/4 over the classes of an odd degree d.
ODD_MINIMUM = Poly.of(Fraction(35, 4), Fraction(1, 2), Fraction(-1, 4))
#: Sectional genus d^2/8 - 3d/4 + 1 of the extremal class (d/2)(H - W).
EXTREMAL_GENUS = Poly.of(1, Fraction(-3, 4), Fraction(1, 8))


def k2_min_closed_form(d: int) -> Fraction:
    """phi(a*) by parity of m + eps - 1: :data:`EVEN_MINIMUM` when q = 0
    (d even), :data:`ODD_MINIMUM` when q = 1 (d odd)."""
    m, eps = _split3(d)
    return (EVEN_MINIMUM if (m + eps - 1) % 2 == 0 else ODD_MINIMUM)(d)


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
    if not is_extremal(c):
        raise InconsistencyError(f"extremal class {c.text()} is not admissible")
    k2 = k2_intersection(c)
    g = sectional_genus(c)
    if k2 != EVEN_MINIMUM(d):
        raise InconsistencyError(f"extremal K^2 {k2} != -d(d-6) at d={d}")
    if g != EXTREMAL_GENUS(d):
        raise InconsistencyError(f"extremal genus {g} != d^2/8 - 3d/4 + 1 at d={d}")
    f = frame_from_class(c, d)
    if f.a != f.a_star or f.q_parity != 0:
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
    a_star = _a_star(m, eps)
    return [
        class_row(class_from_frame(ScrollFrame.for_degree(d, a))) for a in range(-m, a_star + 1)
    ]
