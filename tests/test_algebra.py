from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidshear.algebra import (
    MissingVariableError,
    PoleError,
    Polynomial,
    PolyParseError,
    RationalFunction,
    ZeroFunctionDivision,
    poly_from_str,
    poly_gcd,
    poly_to_str,
)


def var(name):
    return RationalFunction.variable(name)


def pvar(name):
    return Polynomial.variable(name)


# -- polynomial basics ------------------------------------------------


def test_constant_and_zero_normalization():
    assert Polynomial.constant(0).is_zero
    assert Polynomial.zero() == Polynomial((), {})
    p = Polynomial(("x", "y"), {(1, 0): 0, (0, 1): 2})
    assert p.vars == ("y",)
    assert p.terms == {(1,): 2}


def test_variable_order_is_natural():
    p = pvar("a_{1,10}") + pvar("a_{1,2}") + pvar("a_{1,3}")
    assert p.vars == ("a_{1,2}", "a_{1,3}", "a_{1,10}")


def test_mul_and_pow():
    x, y = pvar("x"), pvar("y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1


def test_exact_div():
    x, y = pvar("x"), pvar("y")
    p = (x + y) * (x - y)
    assert p.exact_div(x + y) == x - y
    assert p.exact_div(x + 1) is None
    assert (2 * x).exact_div(x) == Polynomial.constant(2)


def test_evaluate_polynomial():
    x, y = pvar("x"), pvar("y")
    p = x * x + 2 * y
    assert p.evaluate({"x": 3, "y": Fraction(1, 2)}) == 10
    with pytest.raises(MissingVariableError):
        p.evaluate({"x": 1})


# -- gcd ---------------------------------------------------------------


def test_gcd_monomials_and_contents():
    x, y = pvar("x"), pvar("y")
    assert poly_gcd(2 * x, 4 * x * x) == 2 * x
    assert poly_gcd(2 * x, 4 * y) == Polynomial.constant(2)
    assert poly_gcd(Polynomial.zero(), -3 * x) == 3 * x


def test_gcd_common_factor():
    x, y = pvar("x"), pvar("y")
    g = x + y
    f1 = g * (x + 1)
    f2 = g * (y + 2)
    assert poly_gcd(f1, f2) == g
    assert poly_gcd(f1, f1) == x * g + g


def test_gcd_sign_normalization():
    x = pvar("x")
    assert poly_gcd(-x - 1, -x - 1).lead_coeff() > 0


def test_gcd_of_a_cross_sum_in_four_variables():
    # a/b + c/d over the planted operands that once sent the recursive
    # pseudo-remainder gcd past minutes; gcd(ad + cb, bd) = w + 4xyz
    a = poly_from_str("-72*w*x^2*z + 48*x")
    b = poly_from_str("4*w*x*y^2*z^2 + 4*w*x*y*z^2 + w^2*y*z + w^2*z")
    c = poly_from_str("4*w*y^2 - 2*y^2")
    d = poly_from_str(
        "24*w*x^2*y^2*z^3 - 36*w*x^3*y*z^2 + 6*w^2*x*y*z^2 - 9*w^2*x^2*z"
        " - 16*x*y^2*z^2 + 24*x^2*y*z - 4*w*y*z + 6*w*x"
    )
    f, g = a * d + c * b, b * d
    h = poly_gcd(f, g)
    assert h == poly_from_str("4*x*y*z + w")
    assert poly_gcd(f.exact_div(h), g.exact_div(h)) == Polynomial.one()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coprimality_certificate_is_sound(data):
    # the certificate must never claim coprimality for inputs sharing a
    # nonconstant factor: canonical forms silently break if it does
    from braidshear.algebra import _certified_coprime

    names = ["x", "y"]

    def small_poly(min_terms=1):
        terms = {}
        for _ in range(data.draw(st.integers(min_terms, 3))):
            exps = tuple(data.draw(st.integers(0, 2)) for _ in names)
            terms[exps] = data.draw(st.integers(-3, 3))
        return Polynomial(tuple(names), terms)

    g = small_poly(min_terms=2)
    if g.is_zero or g.is_constant:
        return
    f1 = g * small_poly()
    f2 = g * small_poly()
    if f1.is_zero or f2.is_zero:
        return
    pf1 = f1._div_int(f1.content())
    pf2 = f2._div_int(f2.content())
    if pf1.is_constant or pf2.is_constant:
        return
    common = set(pf1.vars) & set(pf2.vars)
    shared_vars_of_g = set(g.vars) & common
    if not shared_vars_of_g:
        return
    assert not _certified_coprime(pf1, pf2, common)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gcd_divides_and_cofactors_coprime(data):
    names = ["x", "y", "z"]

    def small_poly():
        terms = {}
        for _ in range(data.draw(st.integers(1, 4))):
            exps = tuple(data.draw(st.integers(0, 2)) for _ in names)
            coeff = data.draw(st.integers(-4, 4))
            terms[exps] = terms.get(exps, 0) + coeff
        return Polynomial(tuple(names), terms)

    g = small_poly()
    a = small_poly()
    b = small_poly()
    f1, f2 = g * a, g * b
    if f1.is_zero and f2.is_zero:
        return
    d = poly_gcd(f1, f2)
    assert not d.is_zero
    q1 = f1.exact_div(d)
    q2 = f2.exact_div(d)
    assert q1 is not None and q2 is not None
    if not g.is_zero:
        assert g.exact_div(poly_gcd(g, d)) is not None  # d contains g up to content
        assert d.exact_div(poly_gcd(g, d)) is not None or True
    cof = poly_gcd(q1, q2)
    assert cof.is_constant and cof.constant_value() in (0, 1)


# -- rational function canonical form ----------------------------------


def test_additive_identity():
    x = var("x")
    zero = RationalFunction.constant(0)
    assert x + zero == x


def test_ptolemy_numerator_structure():
    a, b, c, d = (var(n) for n in "abcd")
    num = a * c + b * d
    assert len(num.num.terms) == 2
    assert num.den == Polynomial.one()


def test_like_terms_add():
    x = var("x")
    f = x.inv() + x.inv()
    assert f == RationalFunction(Polynomial.constant(2), pvar("x"))


def test_inverse_and_product():
    e, b = var("e"), var("b")
    assert e.inv() == RationalFunction(Polynomial.one(), pvar("e"))
    assert b * (e / (1 + e)) == RationalFunction(
        pvar("b") * pvar("e"), pvar("e") + 1
    )
    x = var("x")
    assert x / x == RationalFunction.constant(1)
    assert (x * x.inv()).is_one


def test_division_by_zero_function():
    x = var("x")
    zero = RationalFunction.constant(0)
    with pytest.raises(ZeroFunctionDivision):
        x / zero
    with pytest.raises(ZeroFunctionDivision):
        zero.inv()


def test_cancellation_equality():
    x = var("x")
    f = (x * x - 1) / (x - 1)
    assert f == x + 1


def test_commutativity_equality():
    a, b, c, d, x = (var(n) for n in "abcdx")
    assert (a * c + b * d) / x == (b * d + a * c) / x


def test_distinct_functions_unequal():
    a, e = var("a"), var("e")
    assert a * (1 + e) != a + a * e + e


def test_is_laurent():
    a, b, c, d, e, x = (var(n) for n in "abcdex")
    assert ((a * c + b * d) / x).is_laurent()
    assert (a * (1 + e)).is_laurent()
    assert not (b * e / (1 + e)).is_laurent()
    assert ((a + b) / (2 * x)).is_laurent()  # integer coefficient allowed


def test_laurent_monomial_scaling_invariant():
    a, b, e = var("a"), var("b"), var("e")
    f = b * e / (1 + e)
    m = a * a * b
    assert f.is_laurent() == (f * m).is_laurent()
    g = (a + b) / (a * b)
    assert g.is_laurent() and (g * m).is_laurent()


def test_evaluate_rational_function():
    a, b, c, d, x = (var(n) for n in "abcdx")
    f = (a * c + b * d) / x
    assert f.evaluate({"a": 1, "b": 1, "c": 1, "d": 1, "x": 2}) == 1
    e = var("e")
    with pytest.raises(PoleError):
        e.inv().evaluate({"e": 0})
    g = a * (1 + e)
    assert g.evaluate({"a": 3, "e": 1}) == 6
    with pytest.raises(MissingVariableError):
        f.evaluate({"a": 1})


def test_pole_and_missing_are_distinct():
    e = var("e")
    f = e.inv()
    with pytest.raises(MissingVariableError):
        f.evaluate({})
    with pytest.raises(PoleError):
        f.evaluate({"e": 0})


# -- algebraic properties ----------------------------------------------


def _rf_strategy(names=("x", "y")):
    def build(draw):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = tuple(draw(st.integers(0, 2)) for _ in names)
            terms[exps] = draw(st.integers(-3, 3))
        return Polynomial(tuple(names), terms)

    @st.composite
    def rf(draw):
        num = build(draw)
        den = build(draw)
        if den.is_zero:
            den = Polynomial.one()
        return RationalFunction(num, den)

    return rf()


@settings(max_examples=40, deadline=None)
@given(_rf_strategy(), _rf_strategy(), _rf_strategy())
def test_field_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    if not f.is_zero:
        assert (f * f.inv()).is_one


@settings(max_examples=30, deadline=None)
@given(_rf_strategy(), _rf_strategy())
def test_canonical_idempotence_and_eval_agreement(f, g):
    again = RationalFunction(f.num, f.den)
    assert again.num == f.num and again.den == f.den
    points = [{"x": x, "y": y} for x, y in [(2, 3), (-5, 7), (11, -13), (17, 19)]]
    pole_free = [p for p in points if f.den.evaluate(p) and g.den.evaluate(p)]
    if f == g:
        assert all(f.evaluate(p) == g.evaluate(p) for p in pole_free)
    if any(f.evaluate(p) != g.evaluate(p) for p in pole_free):
        assert f != g


def _small_poly(draw, names=("w", "x", "y", "z"), max_terms=2, max_exp=1):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in names)
        terms[exps] = draw(st.integers(-4, 4))
    return Polynomial(tuple(names), terms)


@st.composite
def _planted_pair(draw):
    """Two reduced operands a/b and c/d whose cross gcds (a, d), (c, b) and
    whose denominators (b, d) share planted factors, so every cancellation
    branch of the arithmetic is exercised."""
    constants = st.sampled_from(
        [Fraction(-3, 4), Fraction(0), Fraction(1), Fraction(5), Fraction(-1, 6)]
    )
    h1, h2, h3 = (_small_poly(draw) for _ in range(3))
    content = st.sampled_from([1, -1, 2, -3, 6])

    def operand(top, bottom):
        if draw(st.integers(0, 5)) == 0:
            return RationalFunction.constant(draw(constants))
        num = draw(content) * top * _small_poly(draw)
        den = draw(content) * bottom * h3 * _small_poly(draw)
        if den.is_zero:
            den = Polynomial.constant(draw(content))
        return RationalFunction(num, den)

    f = operand(h1, h2)
    g = operand(h2, h1)
    pick = draw(st.integers(0, 7))
    if pick == 0:
        g = f
    elif pick == 1:
        g = -f
    return f, g


@settings(max_examples=60, deadline=None)
@given(_planted_pair(), st.integers(-3, 3))
def test_cross_cancellation_matches_full_reduction(pair, power):
    # every operation on reduced operands must give exactly what the
    # full-reduction constructor makes of the unreduced result
    f, g = pair
    a, b, c, d = f.num, f.den, g.num, g.den
    cases = [
        (f + g, a * d + c * b, b * d),
        (f - g, a * d - c * b, b * d),
        (f * g, a * c, b * d),
        (-f, -a, b),
    ]
    if not g.is_zero:
        cases.append((f / g, a * d, b * c))
        cases.append((g.inv(), d, c))
    if power >= 0:
        cases.append((f ** power, a ** power, b ** power))
    elif not f.is_zero:
        cases.append((f ** power, b ** -power, a ** -power))
    for got, raw_num, raw_den in cases:
        want = RationalFunction(raw_num, raw_den)
        assert got.num == want.num and got.den == want.den
        assert got.num.vars == want.num.vars and got.den.vars == want.den.vars


def test_int_image_agrees_with_coefficient_evaluation():
    from braidshear.algebra import _int_image

    x, y, z = pvar("x"), pvar("y"), pvar("z")
    p = (y - 3) * x ** 2 + (z - y) * x + y * z - 7
    # y = 3 kills the leading coefficient in x: no image
    assert _int_image(p, "x", {"y": 3, "z": 5}) is None
    assert _int_image(p, "x", {"y": 4, "z": 5}) == [13, 1, 1]
    assert _int_image(p, "z", {"x": 2, "y": 3}) == [-13, 5]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_int_image_random(data):
    from braidshear.algebra import _int_image

    names = ("w", "x", "y")
    p = _small_poly(data.draw, names=names, max_terms=5, max_exp=3)
    if p.is_zero or not p.vars:
        return
    v = data.draw(st.sampled_from(p.vars))
    point = {w: data.draw(st.integers(-3, 3)) for w in names if w != v}
    coeffs = p.coeffs_in(v)
    top = max(coeffs)
    want = [int(coeffs[k].evaluate(point)) if k in coeffs else 0 for k in range(top + 1)]
    got = _int_image(p, v, point)
    if coeffs[top].evaluate(point) == 0:
        assert got is None
    else:
        assert got == want


# -- rendering / parsing ------------------------------------------------


def test_render_zero_and_constants():
    assert poly_to_str(Polynomial.zero()) == "0"
    assert poly_to_str(Polynomial.constant(-7)) == "-7"


def test_render_ordering_and_signs():
    x, y = pvar("x"), pvar("y")
    p = 2 * x * x - y + 1
    assert poly_to_str(p) == "2*x^2 - y + 1"


def test_render_edge_variables():
    p = 3 * pvar("a_{1,2}") ** 2 * pvar("a_{2,3}") - pvar("a_{1,3}")
    assert poly_to_str(p) == "3*a_{1,2}^2*a_{2,3} - a_{1,3}"


def test_parse_round_trip_examples():
    for text in [
        "0",
        "-7",
        "2*x^2 - y + 1",
        "3*a_{1,2}^2*a_{2,3} - a_{1,3}",
        "x + 1",
        "-x - 1",
    ]:
        assert poly_to_str(poly_from_str(text)) == text


def test_parse_errors():
    with pytest.raises(PolyParseError):
        poly_from_str("")
    with pytest.raises(PolyParseError):
        poly_from_str("x +")
    with pytest.raises(PolyParseError):
        poly_from_str("x ^ y")
    with pytest.raises(PolyParseError):
        poly_from_str("$")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_parse_round_trip_random(data):
    names = ["u", "a_{1,2}", "a_{2,3}"]
    terms = {}
    for _ in range(data.draw(st.integers(1, 5))):
        exps = tuple(data.draw(st.integers(0, 3)) for _ in names)
        terms[exps] = data.draw(st.integers(-9, 9))
    p = Polynomial(tuple(names), terms)
    assert poly_from_str(poly_to_str(p)) == p


def test_rf_json_round_trip():
    a, e = var("a"), var("e")
    f = a * (1 + e) / (1 - e)
    data = f.to_json()
    assert RationalFunction.from_json(data) == f
