"""Exact arithmetic substrate: univariate polynomials over the rationals,
forward-difference walks and tail-bounded sign certificates.

Everything in this module is exact; no floating point is ever used. A
:class:`Poly` stores integer numerators over one positive denominator, in
lowest terms, and computes in ints; only the calls that return a rational
value import ``fractions.Fraction``. A :class:`SignCertificate` proves a
polynomial inequality on the whole integer ray ``[start, +oo)`` by combining
a finite exact scan with a Cauchy root bound for the tail, so "for all d > N"
claims are genuinely quantified over an infinite range rather than sampled.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from functools import cache, partial
from itertools import accumulate, compress, count, repeat, zip_longest
from operator import ge, gt, le, lt


class OutOfDomainError(ValueError):
    """Input lies outside the validity range of a formula."""


class InconsistencyError(ArithmeticError):
    """Exact arithmetic produced a value violating a required invariant."""


class FrameRangeError(ValueError):
    """Divisor class or frame parameter outside the admissible range."""


def rat_str(x: int | Fraction, den: int = 1) -> str:
    """Render the exact rational x / den (den >= 1) as ``num/den`` in lowest
    terms, omitting ``/den`` when 1; reduced with one gcd, no Fraction."""
    num, den = x.numerator, x.denominator * den
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def dumps(obj, indent: bool = False) -> str:
    """The text of ``json.dumps(obj, sort_keys=True)``, or with indent of
    ``json.dumps(obj, indent=2, sort_keys=True)``, for dicts with str keys,
    lists, tuples, str, int, bool and None; TypeError for anything else."""
    out: list[str] = []
    emit, quote = out.append, cache(_quote)  # keys and most strings repeat

    def dump(obj, nl: str) -> None:  # nl: the newline and indent before a closing bracket
        t = type(obj)
        if t is str:
            emit(quote(obj))
        elif t is dict or t is list or t is tuple:
            inner = nl and nl + "  "
            lead, sep = inner, "," + inner if nl else ", "
            emit("{" if t is dict else "[")
            for key, item in sorted(obj.items()) if t is dict else enumerate(obj):
                emit(f"{lead}{quote(key)}: " if t is dict else lead)
                lead = sep
                dump(item, inner)
            emit((nl if obj else "") + ("}" if t is dict else "]"))
        elif obj is None or obj is True or obj is False:
            emit("null" if obj is None else "true" if obj else "false")
        elif isinstance(obj, int):
            emit(int.__repr__(obj))
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    dump(obj, "\n" if indent else "")
    return "".join(out)


def _quote(s: str) -> str:
    """s as a JSON string with json's ensure_ascii escapes; TypeError unless s is a str."""
    if str.isascii(s) and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_escape, s)) + '"'


def _escape(c: str) -> str:
    if (i := '"\\\n\r\t\b\f'.find(c)) >= 0:
        return "\\" + '"\\nrtbf'[i]
    units = c.encode("utf-16-be", "surrogatepass").hex()  # a surrogate pair above U+FFFF
    return c if " " <= c <= "~" else "".join("\\u" + units[k:k + 4] for k in range(0, len(units), 4))


def forward_walk(f: Callable[[int], int], lo: int, hi: int, degree: int) -> list[int]:
    """``[f(lo), f(lo + 1), ..., f(hi)]`` for an integer polynomial f of at
    most the given degree, by exact forward differences.

    f is evaluated directly only at ``lo, ..., lo + degree`` (the seed of the
    difference table) and at ``hi``: every other value costs at most
    ``degree`` integer additions. The walked value at hi must equal f(hi),
    otherwise InconsistencyError is raised, so a wrong degree or a broken
    walk cannot go unnoticed. An empty range (hi < lo) gives an empty list.
    """
    if hi < lo:
        return []
    column = [f(lo + i) for i in range(degree + 1)]
    heads = []  # heads[k] is the k-th forward difference of f at lo
    while column:
        heads.append(column[0])
        column = [b - a for a, b in zip(column, column[1:])]
    n = hi - lo + 1
    # The top difference is constant, so the row below it is a range. Each
    # row above starts with its head, so these rows end at the n-th value.
    top = heads.pop()
    if heads and top:
        head = heads.pop()
        walk = range(head, head + (n - len(heads)) * top, top)
    else:
        walk = repeat(top, n - len(heads))
    for head in reversed(heads):
        walk = accumulate(walk, initial=head)
    values = list(walk)
    del values[n:]  # the heads alone outnumber a range shorter than the seed
    direct = f(hi)
    if values[-1] != direct:
        raise InconsistencyError(
            f"forward-difference walk gives {values[-1]} at {hi}, direct evaluation {direct}"
        )
    return values


class Record:
    """Base of kbound's value classes. The fields are ``_fields``, by default
    the public names in ``__slots__``, in order: ``==``, ``repr``
    (``Name(field=value, ...)``) and pickling read them. A record equals
    only records of its own class, and is unhashable unless it is :class:`Frozen`."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
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


def _int_at(p: "Poly", x: int, what: str, *args) -> int:
    """p(x) as an int: the value of the numerators divided by the positive
    denominator, with InconsistencyError naming what.format(*args) if not."""
    value, rem = divmod(_horner(p.num, x), p.den)
    if rem:
        raise InconsistencyError(f"{what.format(*args)} is not an integer: {rat_str(_horner(p.num, x), p.den)}")
    return value


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
        g = math.gcd(den, *num) if den != 1 else 1
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
        from fractions import Fraction
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
        return self.coeffs[-1]

    def __add__(self, other: "Poly | int | Fraction", sign: int = 1, own: int = 1) -> "Poly":
        if not isinstance(other, Poly):  # own * self + sign * other, each sign 1 or -1
            num = [own * x * other.denominator for x in self.num] or [0]
            num[0] += sign * other.numerator * self.den
            return Poly(num, self.den * other.denominator)
        den = math.lcm(self.den, other.den)
        a, b = own * den // self.den, sign * den // other.den
        return Poly([x * a + y * b for x, y in zip_longest(self.num, other.num, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-n for n in self.num], self.den)

    def __sub__(self, other: "Poly | int | Fraction") -> "Poly":
        return self.__add__(other, -1)

    def __rsub__(self, other: "Poly | int | Fraction") -> "Poly":
        return self.__add__(other, 1, -1)

    def __mul__(self, other: "Poly | int | Fraction") -> "Poly":
        if not isinstance(other, Poly):
            return Poly([x * other.numerator for x in self.num], self.den * other.denominator)
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return Poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __call__(self, x: "Poly | int | Fraction") -> "Poly | Fraction":
        """The exact value at x, or for a Poly x the composition self(x(t)),
        which restricts a polynomial to a residue class."""
        if isinstance(x, Poly):
            acc = _horner(self.num, x) or Poly.zero()  # the int 0 when self is zero
            return Poly(acc.num, acc.den * self.den)
        from fractions import Fraction
        return Fraction(_horner(self.num, x), self.den)

    def has_value(self, x: int, value: int) -> bool:
        """self(x) == value for integers x and value, compared in integers:
        the numerators at x against value times the denominator."""
        return _horner(self.num, x) == value * self.den

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
        for i, n in reversed(list(enumerate(self.num))):  # den > 0 keeps the sign of n
            if n == 0:
                continue
            mag = str(abs(n)) if self.den == 1 else rat_str(abs(n), self.den)
            if i == 0:
                term = mag
            else:
                xi = var if i == 1 else f"{var}^{i}"
                term = xi if mag == "1" else f"{mag}*{xi}"
            if not parts:
                parts.append(term if n > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if n > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> list[str]:
        return list(map(str, self.num)) if self.den == 1 else [rat_str(n, self.den) for n in self.num]


def _horner(num: tuple[int, ...], x: "Poly | int | Fraction") -> "Poly | int | Fraction":
    """Value at x of the integer polynomial with ``num[i]`` multiplying ``x^i``."""
    acc = 0
    for c in reversed(num):
        acc = acc * x + c
    return acc


#: Longest scan, in integers past ``start``, that :func:`sign_certificate` runs.
MAX_SCAN = 2_000_000

#: Integers per forward-difference block of a scan, which bounds its memory.
SCAN_BLOCK = 4096

#: For each asserted sign, the operator ``op`` with ``op(v, 0)`` true exactly
#: where the value v violates it, and the extreme (min or max) of a block of
#: values that violates it if any value does.
_SIGN_FAILS = {
    "positive": (le, min), "nonnegative": (lt, min), "negative": (ge, max), "nonpositive": (gt, max),
}


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
    at its end by direct evaluation (see :func:`forward_walk`). One min or
    max decides a block; only a failing block is searched for its least
    counterexample.
    """
    if asserted_sign not in _SIGN_FAILS:
        raise ValueError(f"unknown sign assertion: {asserted_sign!r}")
    if p.is_zero:
        raise ValueError("cannot certify the zero polynomial")
    fails, extreme = _SIGN_FAILS[asserted_sign]
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
        if fails(extreme(values), 0):
            counterexample = next(compress(count(lo), map(fails, values, repeat(0))))
            break
    if counterexample is None:
        lead = p.num[-1]
        if fails(lead, 0):  # lead is nonzero: it fails exactly when its sign is the wrong one
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
