import json
import math
import random
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kbound import exact
from kbound.exact import (
    InconsistencyError,
    Poly,
    dumps,
    forward_walk,
    rat_str,
    sign_certificate,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=50
)


# rationals ------------------------------------------------------------------

def test_rat_serialization():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert rat_str(Fraction(8, 4)) == "2"
    assert rat_str(5) == "5"
    assert Fraction("22/7") == Fraction(22, 7)
    assert Fraction("-9") == Fraction(-9)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rat_str_of_a_ratio_is_its_fraction_rendering(n, den):
    assert rat_str(n, den) == str(Fraction(n, den)) == rat_str(Fraction(n, den))


@given(rationals, rationals, rationals)
def test_rat_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_rat_normalization_idempotent(a):
    again = Fraction(a.numerator, a.denominator)
    assert again.numerator == a.numerator and again.denominator == a.denominator
    assert a.denominator > 0
    assert Fraction(rat_str(a)) == a


# Poly -----------------------------------------------------------------------

def test_poly_basics():
    p = Poly.of(1, 0, -2)  # 1 - 2x^2
    assert p.degree == 2
    assert p.leading == -2
    assert p(3) == 1 - 18
    assert Poly.of(0, 0, 0).is_zero
    assert Poly.of(1, 2, 0).degree == 1  # trailing zeros trimmed


def test_poly_text():
    assert Poly.of(0, -28, Fraction(4, 5)).text() == "4/5*d^2 - 28*d"
    assert Poly.zero().text() == "0"
    assert Poly.of(-23, 27, -10, 1).text("r") == "r^3 - 10*r^2 + 27*r - 23"


@given(st.lists(rationals, min_size=0, max_size=6))
def test_poly_of_stores_numerators_over_the_lcm_of_denominators(cs):
    p = Poly.of(*cs)
    trimmed = list(cs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    den = math.lcm(*(c.denominator for c in cs))
    num = tuple(c.numerator * (den // c.denominator) for c in trimmed)
    assert (p.num, p.den) == (num, den)
    assert math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert p.coeffs == tuple(trimmed)
    assert all(type(c) is Fraction for c in p.coeffs)


def test_poly_constructor_is_canonical():
    assert Poly((1, 0)) == Poly.of(1)
    assert Poly((1, 0)).degree == 0
    assert Poly((2, 4), 2) == Poly.of(1, 2)
    assert (Poly((2, 4), 2).num, Poly((2, 4), 2).den) == ((1, 2), 1)
    assert (Poly((0, 0), 6).num, Poly((0, 0), 6).den) == ((), 1)
    assert sign_certificate(Poly((1, 0)), 0, "positive").ok
    with pytest.raises(ValueError, match="denominator must be >= 1"):
        Poly((1,), 0)


polys = st.lists(rationals, min_size=0, max_size=6).map(lambda cs: Poly.of(*cs))


@given(polys, st.one_of(st.integers(-10**6, 10**6), rationals))
def test_poly_arithmetic_with_a_number_matches_poly_of_it(p, c):
    q = Poly.of(c)
    assert p + c == p + q and c + p == q + p
    assert p - c == p - q and c - p == q - p
    assert p * c == p * q and c * p == q * p


def fraction_text(p: Poly, var: str) -> str:
    """Poly.text as rendered from the Fraction coefficients."""
    parts = []
    for i, c in reversed(list(enumerate(p.coeffs))):
        if c == 0:
            continue
        mag = str(abs(c))
        xi = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        term = mag if not xi else xi if mag == "1" else f"{mag}*{xi}"
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + term)
    return " ".join(parts) or "0"


# numerators over a denominator, so that zero and negative numerators and a
# denominator sharing a factor with only some of them all come up
raw_polys = st.builds(Poly, st.lists(st.integers(-60, 60), max_size=6), st.integers(1, 36))


@given(raw_polys, st.sampled_from(["d", "m", "r"]))
@example(Poly((6, -4, 0, 3, -9, 1), 12), "d")
def test_poly_renders_as_its_fraction_coefficients(p, var):
    assert p.to_json() == [rat_str(c) for c in p.coeffs] == [str(c) for c in p.coeffs]
    assert p.text(var) == fraction_text(p, var)


@given(polys, polys, st.one_of(st.integers(-50, 50), rationals))
def test_poly_eval_is_ring_homomorphism(p, q, x):
    assert p(x) == sum(c * x**i for i, c in enumerate(p.coeffs))
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p - q)(x) == p(x) - q(x)


@given(polys, polys, st.integers(-20, 20))
def test_poly_compose_matches_eval(p, q, x):
    assert p(q)(x) == p(q(x))


@given(polys, st.integers(-50, 50), st.integers(-2, 2))
def test_poly_has_value_matches_eval(p, x, offset):
    # near the value, so that an integer value is hit as well as missed
    value = math.floor(p(x)) + offset
    assert p.has_value(x, value) == (p(x) == value)


@pytest.mark.parametrize("p", [Poly.zero(), Poly.of(7), Poly.of(Fraction(-3, 4))])
def test_constant_poly_called_on_a_poly_is_a_poly(p):
    # Horner on a constant never multiplies by the inner polynomial, so the
    # composition must still come back as a Poly, not as a number.
    assert p(Poly.of(1, 4)) == p


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=5))
def test_cauchy_bound_dominates_integer_roots(roots):
    # p = prod (x - r): every root must lie within the computed tail bound.
    p = Poly.of(1)
    for r in roots:
        p = p * Poly.of(-r, 1)
    n = p.cauchy_tail_bound()
    assert n >= max(abs(r) for r in roots)
    # beyond the bound the sign is the leading coefficient's
    assert p(n + 1) > 0


# forward-difference walks ---------------------------------------------------

@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5),
    st.integers(0, 4),
    st.integers(-300, 300),
    st.integers(-1, 200),
)
@example([5, 0, -3], 2, -7, 20)  # negative top difference
@example([5, 0, -3], 4, -7, 20)  # zero top difference: a quadratic walked as a quartic
@example([7], 0, 3, 5)
def test_forward_walk_matches_direct_evaluation(coeffs, degree, lo, span):
    # a walk of any degree in 0..4 at least the polynomial's own
    def f(x):
        return sum(c * x**i for i, c in enumerate(coeffs))

    walked = forward_walk(f, lo, lo + span, max(degree, len(coeffs) - 1))
    assert walked == [f(x) for x in range(lo, lo + span + 1)]


def test_forward_walk_end_check_catches_a_wrong_degree():
    # x^4 walked as a cubic agrees on the seed points only
    with pytest.raises(InconsistencyError):
        forward_walk(lambda x: x**4, 0, 10, 3)
    assert forward_walk(lambda x: x**4, 0, 3, 3) == [0, 1, 16, 81]


# sign certificates ----------------------------------------------------------

def test_sign_certificate_simple_positive():
    cert = sign_certificate(Poly.of(-1, 0, 1), 2, "positive")  # d^2 - 1
    assert cert.ok
    assert cert.counterexample is None


def test_sign_certificate_cubic_in_r():
    p = Poly.of(-23, 27, -10, 1)  # r^3 - 10r^2 + 27r - 23
    assert p(7) == 19
    cert = sign_certificate(p, 7, "positive", variable="r")
    assert cert.ok
    assert cert.tail_bound >= 1 + 27  # Cauchy bound honours max |c_i/c_lead|


def test_sign_certificate_reduction_quadratic():
    # 3d^2 - 17d - 22(g - 1) with g = d^2/10 + d/2 + 1 is (4/5)d^2 - 28d
    g = Poly.of(1, Fraction(1, 2), Fraction(1, 10))
    p = Poly.of(0, -17, 3) - 22 * (g - 1)
    assert p == Poly.of(0, -28, Fraction(4, 5))
    # oracle: direct evaluation at every d in 36..100
    assert all(p(d) > 0 for d in range(36, 101))
    cert = sign_certificate(p, 36, "positive")
    assert cert.ok
    assert cert.tail_bound >= 36


def test_sign_certificate_least_counterexample():
    cert = sign_certificate(Poly.of(-100, 0, 1), 0, "positive")  # d^2 - 100
    assert cert.counterexample == 0  # least violation in the scan
    cert = sign_certificate(Poly.of(-100, 0, 1), 5, "nonnegative")
    assert cert.counterexample == 5


def test_sign_certificate_tail_mismatch_yields_witness():
    cert = sign_certificate(Poly.of(3, -1), 0, "positive")  # 3 - d
    assert not cert.ok
    assert cert.polynomial(cert.counterexample) <= 0


def test_sign_certificate_rejects_zero_poly_and_bad_sign():
    with pytest.raises(ValueError):
        sign_certificate(Poly.zero(), 0, "positive")
    with pytest.raises(ValueError):
        sign_certificate(Poly.of(1), 0, "sometimes-positive")


def test_sign_certificate_constant_polys():
    assert sign_certificate(Poly.of(5), -3, "positive").ok
    assert not sign_certificate(Poly.of(-5), 0, "nonnegative").ok


@pytest.mark.parametrize(
    "coeffs,start,sign",
    [
        ((0, -28, Fraction(4, 5)), 36, "positive"),
        ((-23, 27, -10, 1), 7, "positive"),
        ((174, -125, 24, -1), 25, "negative"),
        ((35, -22, 3), 6, "positive"),
    ],
)
def test_certified_claims_survive_random_sampling(coeffs, start, sign):
    # A certificate with no counterexample must survive brute-force
    # evaluation at 1000 random integers far beyond the scanned range.
    p = Poly.of(*coeffs)
    cert = sign_certificate(p, start, sign)
    assert cert.ok
    holds = {
        "positive": lambda v: v > 0,
        "nonnegative": lambda v: v >= 0,
        "negative": lambda v: v < 0,
        "nonpositive": lambda v: v <= 0,
    }[sign]
    rng = random.Random(20240 + start)
    for _ in range(1000):
        x = rng.randint(start, start + 10**6)
        assert holds(p(x))


def fraction_scan_counterexample(p: Poly, start: int, sign: str):
    """Reference verdict: a Fraction Horner scan to the Cauchy bound, then the
    first integer past it when the leading coefficient has the wrong sign."""
    holds = {
        "positive": lambda v: v > 0,
        "nonnegative": lambda v: v >= 0,
        "negative": lambda v: v < 0,
        "nonpositive": lambda v: v <= 0,
    }[sign]
    scan_to = max(start, p.cauchy_tail_bound())
    for x in range(start, scan_to + 1):
        if not holds(p(x)):
            return x
    if not holds(p.leading):
        return scan_to + 1
    return None


small_rationals = st.fractions(
    min_value=Fraction(-60), max_value=Fraction(60), max_denominator=12
)


@given(
    st.lists(small_rationals, min_size=1, max_size=5).filter(lambda cs: cs[-1] != 0),
    st.integers(-40, 40),
    st.sampled_from(["positive", "nonnegative", "negative", "nonpositive"]),
)
def test_integer_scan_matches_fraction_scan(coeffs, start, sign):
    p = Poly.of(*coeffs)
    cert = sign_certificate(p, start, sign)
    assert cert.counterexample == fraction_scan_counterexample(p, start, sign)


@given(
    st.lists(small_rationals, min_size=1, max_size=5).filter(lambda cs: cs[-1] != 0),
    st.integers(-40, 40),
    st.sampled_from(["positive", "nonnegative", "negative", "nonpositive"]),
)
def test_scan_in_three_integer_blocks_matches_fraction_scan(coeffs, start, sign):
    p = Poly.of(*coeffs)
    original = exact.SCAN_BLOCK
    exact.SCAN_BLOCK = 3  # many blocks, each seeded and end-checked on its own
    try:
        cert = sign_certificate(p, start, sign)
    finally:
        exact.SCAN_BLOCK = original
    assert cert.counterexample == fraction_scan_counterexample(p, start, sign)


def test_scan_walks_blocks_of_at_most_scan_block_integers(monkeypatch):
    # x - 9000 scans [0, 9001]; "negative" first fails at 9000 and
    # "nonpositive" at 9001, both in the third block.
    blocks = []
    real = exact.forward_walk

    def walk(f, lo, hi, degree):
        blocks.append((lo, hi))
        return real(f, lo, hi, degree)

    monkeypatch.setattr(exact, "forward_walk", walk)
    p = Poly.of(-9000, 1)
    assert sign_certificate(p, 0, "negative").counterexample == 9000
    assert blocks == [(0, 4095), (4096, 8191), (8192, 9001)]
    assert sign_certificate(p, 0, "nonpositive").counterexample == 9001
    assert sign_certificate(p, 9001, "positive").ok
    assert sign_certificate(-p, 5, "positive").counterexample == 9000


#: For each asserted sign, (s, c) with s * ((x - x0)^2 (x - x0 - 2)^2 - c)
#: violating it exactly at x0 and x0 + 2.
ISOLATED_FAILURES = {
    "positive": (1, 0), "nonnegative": (1, 1), "negative": (-1, 0), "nonpositive": (-1, 1),
}


@pytest.mark.parametrize("sign", sorted(ISOLATED_FAILURES))
@pytest.mark.parametrize("x0", [8, 11])  # the first and the last integer of the third block
def test_a_block_decided_by_its_extreme_gives_the_least_counterexample(monkeypatch, sign, x0):
    # Blocks of 4 from 0: [0, 3], [4, 7], [8, 11], ... The two blocks before
    # pass on their min or max alone; only the failing block is searched.
    monkeypatch.setattr(exact, "SCAN_BLOCK", 4)
    searched = []
    monkeypatch.setattr(exact, "compress", lambda data, flags: searched.append(data) or compress(data, flags))
    s, c = ISOLATED_FAILURES[sign]
    root = Poly.of(-x0, 1)
    p = s * (root * root * (root - 2) * (root - 2) - c)
    cert = sign_certificate(p, 0, sign)
    assert cert.counterexample == fraction_scan_counterexample(p, 0, sign) == x0
    assert len(searched) == 1


def test_integer_scan_wrong_leading_sign():
    # 1/3 - x/7 - x^2/5: the leading coefficient refutes "positive"; the
    # least violation lies inside the scan and both scans find it.
    p = Poly.of(Fraction(1, 3), Fraction(-1, 7), Fraction(-1, 5))
    cert = sign_certificate(p, 0, "positive")
    assert cert.counterexample == fraction_scan_counterexample(p, 0, "positive") == 1
    assert sign_certificate(p, 1, "negative").ok


def test_past_bound_witness_is_checked_explicitly(monkeypatch):
    # With a root bound that is too small, x^2 - 100 scans clean as
    # "negative" on [0, 5] but is negative again at the witness 6. The
    # witness check must raise, also under python -O (no assert).
    monkeypatch.setattr(Poly, "cauchy_tail_bound", lambda self: 5)
    with pytest.raises(InconsistencyError):
        sign_certificate(Poly.of(-100, 0, 1), 0, "negative")


def test_sign_certificate_refuses_a_scan_past_max_scan(monkeypatch):
    # x - 3000000 has its root bound past MAX_SCAN integers from 0: the
    # range check must refuse before a single integer is evaluated.
    def no_scan(coeffs, x):
        raise AssertionError("scanned before the range check")

    monkeypatch.setattr(exact, "_horner", no_scan)
    with pytest.raises(ValueError, match=r"exceeds max_scan=2000000"):
        sign_certificate(Poly.of(-3_000_000, 1), 0, "positive")


def test_sign_certificate_json_shape():
    cert = sign_certificate(Poly.of(-1, 0, 1), 2, "positive")
    payload = cert.to_json_dict()
    assert payload["from"] == 2
    assert payload["scanned_range"][0] == 2
    assert payload["asserted_sign"] == "positive"
    assert payload["counterexample"] is None
    assert payload["polynomial"] == ["-1", "0", "1"]


# the JSON writer ---------------------------------------------------------------

#: Text with json's escapes: quotes, backslashes, control characters, DEL,
#: non-ASCII and astral characters, and lone surrogates.
json_texts = st.text(st.one_of(
    st.sampled_from('"\\\n\r\t\b\f\x00\x1f\x7f\xe9\u20ac\U0001f600\ud800\udfff'),
    st.characters(exclude_categories=()),
))
json_documents = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**100, 10**100), json_texts),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_texts, children, max_size=4),
    ),
    max_leaves=20,
)


@given(json_documents)
@example({"": [], "a": {}, "b": (), "c": [True, False, None, -10**99, 10**99], "\x7f": "\ud83d"})
def test_dumps_is_json_dumps_with_sorted_keys(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True)
    assert dumps(doc, True) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [1.5, {1, 2}, {1: "one"}, [0.0], {"a": {2: "two"}}])
def test_dumps_refuses_floats_sets_and_non_str_keys(doc):
    for indent in (False, True):
        with pytest.raises(TypeError):
            dumps(doc, indent)
