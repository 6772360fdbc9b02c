"""Exact arithmetic substrate: univariate polynomials over the rationals,
forward-difference walks and tail-bounded sign certificates.

Everything in this module is exact; no floating point is ever used. A
:class:`Poly` stores integer numerators over one positive denominator, in
lowest terms, and computes in ints; single rational values are
``fractions.Fraction``. A :class:`SignCertificate` proves a polynomial
inequality on the whole integer ray ``[start, +oo)`` by combining a finite
exact scan with a Cauchy root bound for the tail, so "for all d > N" claims
are genuinely quantified over an infinite range rather than sampled.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress, count, islice, repeat, zip_longest
from operator import ge, gt, le, lt


class OutOfDomainError(ValueError):
    """Input lies outside the validity range of a formula."""


class InconsistencyError(ArithmeticError):
    """Exact arithmetic produced a value violating a required invariant."""


class FrameRangeError(ValueError):
    """Divisor class or frame parameter outside the admissible range."""


def rat_str(x: int | Fraction) -> str:
    """Render an exact rational as ``num/den``, omitting ``/den`` when 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def as_int(x: int | Fraction, what: str = "value") -> int:
    """Assert integrality of an exact rational and return it as an int."""
    x = Fraction(x)
    if x.denominator != 1:
        raise InconsistencyError(f"{what} is not an integer: {rat_str(x)}")
    return x.numerator


def forward_walk(f: Callable[[int], int], lo: int, hi: int, degree: int) -> list[int]:
    """``[f(lo), f(lo + 1), ..., f(hi)]`` for an integer polynomial f of at
    most the given degree, by exact forward differences.

    f is evaluated directly only at ``lo, ..., lo + degree`` (the seed of the
    difference table) and at ``hi``: every other value costs ``degree``
    integer additions. The walked value at hi must equal f(hi), otherwise
    InconsistencyError is raised, so a wrong degree or a broken walk cannot
    go unnoticed. An empty range (hi < lo) gives an empty list.
    """
    if hi < lo:
        return []
    column = [f(lo + i) for i in range(degree + 1)]
    heads = []  # heads[k] is the k-th forward difference of f at lo
    while column:
        heads.append(column[0])
        column = [b - a for a, b in zip(column, column[1:])]
    walk = repeat(heads.pop())  # the top difference is constant
    for head in reversed(heads):
        walk = accumulate(walk, initial=head)
    values = list(islice(walk, hi - lo + 1))
    direct = f(hi)
    if values[-1] != direct:
        raise InconsistencyError(
            f"forward-difference walk gives {values[-1]} at {hi}, direct evaluation {direct}"
        )
    return values


class Record:
    """Base of kbound's value classes. The fields are the public names in
    ``__slots__``, in order: ``==``, ``repr`` (``Name(field=value, ...)``)
    and pickling read them. A record equals only records of its own class,
    and is unhashable unless it is :class:`Frozen`."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


#: Sets a field of a :class:`Frozen` record, in its ``__init__``.
_set = object.__setattr__


class Frozen(Record):
    """A :class:`Record` whose fields cannot be assigned after ``__init__``
    (AttributeError); hashed by its field values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Poly(Frozen):
    """Univariate polynomial over the rationals, held as integer numerators
    over one positive denominator: ``num[i] / den`` multiplies ``x^i``.

    The constructor trims trailing zero numerators and divides out
    gcd(den, *num), so equal polynomials have equal fields; the zero
    polynomial is ``Poly(())``. Build from rationals with :meth:`of`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[int], den: int = 1):
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        num = list(num)
        while num and num[-1] == 0:
            num.pop()
        g = math.gcd(den, *num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
        _set(self, "num", tuple(num))
        _set(self, "den", den)

    @staticmethod
    def of(*coeffs: int | Fraction) -> "Poly":
        """The polynomial with coefficients ``coeffs``, lowest power first,
        over the lcm of their denominators."""
        den = math.lcm(*(c.denominator for c in coeffs))
        return Poly([c.numerator * (den // c.denominator) for c in coeffs], den)

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def variable() -> "Poly":
        return Poly((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, lowest power first."""
        return tuple(Fraction(n, self.den) for n in self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __add__(self, other: "Poly | int | Fraction") -> "Poly":
        other = _coerce(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Poly([x * a + y * b for x, y in zip_longest(self.num, other.num, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-n for n in self.num], self.den)

    def __sub__(self, other: "Poly | int | Fraction") -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Poly | int | Fraction") -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Poly | int | Fraction") -> "Poly":
        other = _coerce(other)
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return Poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __call__(self, x: int | Fraction) -> Fraction:
        return Fraction(_horner(self.num, x), self.den)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), exact; used to restrict to residue classes."""
        acc = Poly(())
        for n in reversed(self.num):
            acc = acc * inner + n
        return Poly(acc.num, acc.den * self.den)

    def cauchy_tail_bound(self) -> int:
        """Integer N >= 1 + max |c_i / c_deg|; no real root has |x| > N.

        Beyond N the polynomial keeps the sign of its leading coefficient,
        which is what makes a finite scan plus this bound a complete proof.
        """
        if self.is_zero:
            raise ValueError("zero polynomial has no root bound")
        if self.degree == 0:
            return 0
        *rest, lead = map(abs, self.num)
        return 1 - (-max(rest) // lead)  # 1 + ceil(max / lead); den cancels

    def text(self, var: str = "d") -> str:
        """Human-readable rendering like ``4/5*d^2 - 28*d``."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            mag = rat_str(abs(c))
            if i == 0:
                term = mag
            else:
                xi = var if i == 1 else f"{var}^{i}"
                term = xi if mag == "1" else f"{mag}*{xi}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]


def _horner(num: tuple[int, ...], x: int | Fraction) -> int | Fraction:
    """Value at x of the integer polynomial with ``num[i]`` multiplying ``x^i``."""
    acc = 0
    for c in reversed(num):
        acc = acc * x + c
    return acc


def _coerce(x: "Poly | int | Fraction") -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.of(x)


#: Longest scan, in integers past ``start``, that :func:`sign_certificate` runs.
MAX_SCAN = 2_000_000

#: Integers per forward-difference block of a scan, which bounds its memory.
SCAN_BLOCK = 4096

#: For each asserted sign, the operator ``op`` with ``op(v, 0)`` true exactly
#: where the value v violates it.
_SIGN_FAILS = {"positive": le, "nonnegative": lt, "negative": ge, "nonpositive": gt}


class SignCertificate(Record):
    """Verdict for ``sign(p(x))`` over every integer x >= start.

    If ``counterexample`` is None the assertion holds at every integer of
    ``[start, tail_bound]``, with tail_bound = max(start, Cauchy root bound)
    (checked exactly), and at every integer beyond (leading-term dominance).
    Otherwise ``counterexample`` is the least violating integer found.
    """

    __slots__ = ("polynomial", "start", "asserted_sign", "tail_bound", "counterexample",
                 "variable", "label")

    def __init__(self, polynomial: Poly, start: int, asserted_sign: str, tail_bound: int,
                 counterexample: int | None, variable: str = "d", label: str = ""):
        self.polynomial = polynomial
        self.start = start
        self.asserted_sign = asserted_sign
        self.tail_bound = tail_bound
        self.counterexample = counterexample
        self.variable = variable
        self.label = label

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "variable": self.variable,
            "polynomial": self.polynomial.to_json(),
            "polynomial_text": self.polynomial.text(self.variable),
            "from": self.start,
            "asserted_sign": self.asserted_sign,
            "tail_bound": self.tail_bound,
            "scanned_range": [self.start, self.tail_bound],
            "counterexample": self.counterexample,
            "verified": self.ok,
        }


def sign_certificate(
    p: Poly,
    start: int,
    asserted_sign: str,
    *,
    variable: str = "d",
    label: str = "",
) -> SignCertificate:
    """Prove or refute ``p(x) <sign> 0`` for every integer x >= start.

    The scan range is [start, N] with N the Cauchy tail bound; beyond N the
    sign equals the sign of the leading coefficient, so a matching leading
    coefficient plus a clean scan proves the claim for all integers >= start.
    A mismatching leading coefficient always yields an explicit
    counterexample just past the tail bound.

    The scan walks the numerators ``p.num`` (dividing by the positive
    ``p.den`` keeps every sign) by exact forward differences, in
    blocks of at most :data:`SCAN_BLOCK` integers, each seeded and checked
    at its end by direct evaluation (see :func:`forward_walk`).
    """
    if asserted_sign not in _SIGN_FAILS:
        raise ValueError(f"unknown sign assertion: {asserted_sign!r}")
    if p.is_zero:
        raise ValueError("cannot certify the zero polynomial")
    fails = _SIGN_FAILS[asserted_sign]
    tail = p.cauchy_tail_bound()
    scan_to = max(start, tail)
    if scan_to - start > MAX_SCAN:
        raise ValueError(
            f"scan range [{start}, {scan_to}] exceeds max_scan={MAX_SCAN}"
        )
    value_at = partial(_horner, p.num)
    counterexample: int | None = None
    for lo in range(start, scan_to + 1, SCAN_BLOCK):
        values = forward_walk(value_at, lo, min(lo + SCAN_BLOCK - 1, scan_to), p.degree)
        counterexample = next(compress(count(lo), map(fails, values, repeat(0))), None)
        if counterexample is not None:
            break
    if counterexample is None:
        lead = p.num[-1]
        lead_ok = lead > 0 if asserted_sign in ("positive", "nonnegative") else lead < 0
        if not lead_ok:
            # Beyond the root bound the sign is the leading coefficient's,
            # so the first integer past the scan is a genuine violation.
            witness = scan_to + 1
            if not fails(value_at(witness), 0):
                raise InconsistencyError(
                    f"{p.text(variable)} keeps the asserted sign at {witness},"
                    " past its root bound, against its leading coefficient"
                )
            counterexample = witness
    return SignCertificate(
        polynomial=p,
        start=start,
        asserted_sign=asserted_sign,
        tail_bound=scan_to,
        counterexample=counterexample,
        variable=variable,
        label=label,
    )
