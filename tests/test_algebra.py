import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from braidshear.algebra import (
    Polynomial,
    RationalFunction,
    ZeroFunctionDivision,
    monomial,
    poly_gcd,
    poly_to_str,
)
from oracles import from_sympy, parse_canonical, to_sympy


def pvar(name):
    return Polynomial.variables((name,))[0]


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


def test_mul():
    x, y = pvar("x"), pvar("y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) * (x + 1) * (x + 1) == x * x * x + 3 * x * x + 3 * x + 1


def test_exact_div():
    x, y = pvar("x"), pvar("y")
    p = (x + y) * (x - y)
    assert p.exact_div(x + y) == x - y
    assert p.exact_div(x + 1) is None
    assert (2 * x).exact_div(x) == Polynomial.constant(2)


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
    w, x, y, z = sp.symbols("w x y z")
    a = from_sympy(-72 * w * x**2 * z + 48 * x)
    b = from_sympy(4 * w * x * y**2 * z**2 + 4 * w * x * y * z**2 + w**2 * y * z + w**2 * z)
    c = from_sympy(4 * w * y**2 - 2 * y**2)
    d = from_sympy(
        24 * w * x**2 * y**2 * z**3 - 36 * w * x**3 * y * z**2 + 6 * w**2 * x * y * z**2
        - 9 * w**2 * x**2 * z - 16 * x * y**2 * z**2 + 24 * x**2 * y * z - 4 * w * y * z
        + 6 * w * x
    )
    f, g = a * d + c * b, b * d
    h = poly_gcd(f, g)
    assert h == from_sympy(4 * x * y * z + w)
    assert poly_gcd(f.exact_div(h), g.exact_div(h)) == Polynomial.one()


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
        assert d.exact_div(g) is not None
    cof = poly_gcd(q1, q2)
    assert cof == 1


# -- rational function canonical form ----------------------------------
#
# A RationalFunction is a value: each test builds one through the reducing
# constructor on polynomials.


def test_additive_identity():
    # zero has the one canonical form 0/1, whatever the denominator
    x = pvar("x")
    zero = RationalFunction(Polynomial.zero(), 3 * x + 1)
    assert zero.is_zero
    assert zero.num == Polynomial.zero() and zero.den == Polynomial.one()
    assert zero == RationalFunction(Polynomial.zero())


def test_ptolemy_numerator_structure():
    a, b, c, d = Polynomial.variables("abcd")
    num = RationalFunction(a * c + b * d)
    assert len(num.num.terms) == 2
    assert num.den == Polynomial.one()


def test_like_terms_add():
    # 1/x + 1/x over the common denominator x^2 reduces to 2/x
    x = pvar("x")
    f = RationalFunction(x + x, x * x)
    assert f == RationalFunction(Polynomial.constant(2), x)
    assert f.num == Polynomial.constant(2) and f.den == x


def test_inverse_and_product():
    b, e, x = Polynomial.variables("bex")
    # b * (e/(1 + e)) with the factor 1 + e left in both parts
    assert RationalFunction(b * e * (1 + e), (1 + e) * (1 + e)) == RationalFunction(b * e, e + 1)
    assert RationalFunction(x, x) == RationalFunction(Polynomial.one())
    # the sign moves to the numerator: the denominator's lead is positive
    f = RationalFunction(x, -x * e)
    assert f.num == Polynomial.constant(-1) and f.den == e


def test_division_by_zero_function():
    x = pvar("x")
    with pytest.raises(ZeroFunctionDivision):
        RationalFunction(x, Polynomial.zero())
    with pytest.raises(ZeroFunctionDivision):
        RationalFunction(Polynomial.zero(), Polynomial.zero())


def test_cancellation_equality():
    x = pvar("x")
    f = RationalFunction(x * x - 1, x - 1)
    assert f == RationalFunction(x + 1)


def test_commutativity_equality():
    a, b, c, d, x = Polynomial.variables("abcdx")
    f = RationalFunction(a * c + b * d, x)
    g = RationalFunction(b * d + a * c, x)
    assert f == g and hash(f) == hash(g)


def test_distinct_functions_unequal():
    a, e = Polynomial.variables("ae")
    assert RationalFunction(a * (1 + e)) != RationalFunction(a + a * e + e)
    # a RationalFunction equals RationalFunctions only
    assert RationalFunction(a) != a
    assert RationalFunction(Polynomial.one()) != 1


def test_is_laurent():
    a, b, c, d, e, x = Polynomial.variables("abcdex")
    assert RationalFunction(a * c + b * d, x).is_laurent()
    assert RationalFunction(a * (1 + e)).is_laurent()
    assert not RationalFunction(b * e, 1 + e).is_laurent()
    assert RationalFunction(a + b, 2 * x).is_laurent()  # integer coefficient allowed


def test_laurent_monomial_scaling_invariant():
    a, b, e = Polynomial.variables("abe")
    m = a * a * b
    assert not RationalFunction(b * e * m, 1 + e).is_laurent()
    assert not RationalFunction(b * e, (1 + e) * m).is_laurent()
    g = (a + b, a * b)
    assert RationalFunction(*g).is_laurent()
    assert RationalFunction(g[0] * m, g[1]).is_laurent()
    assert RationalFunction(g[0], g[1] * m).is_laurent()


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


def _value(f, point):
    """f at an integer point, evaluated term by term (None at a pole)."""

    def at(p):
        return sum(
            c * math.prod(point[v] ** e for v, e in zip(p.vars, exps))
            for exps, c in p.terms.items()
        )

    bottom = at(f.den)
    return Fraction(at(f.num), bottom) if bottom else None


@settings(max_examples=30, deadline=None)
@given(_rf_strategy(), _rf_strategy())
def test_canonical_idempotence_and_eval_agreement(f, g):
    again = RationalFunction(f.num, f.den)
    assert again.num == f.num and again.den == f.den
    points = [{"x": x, "y": y} for x, y in [(2, 3), (-5, 7), (11, -13), (17, 19)]]
    values = [(_value(f, p), _value(g, p)) for p in points]
    pole_free = [(a, b) for a, b in values if a is not None and b is not None]
    if f == g:
        assert hash(f) == hash(g)
        assert all(a == b for a, b in pole_free)
    if any(a != b for a, b in pole_free):
        assert f != g


# -- rendering ------------------------------------------------------------
#
# Nothing in the package reads the text form back; sympy parses it, and
# the result must be the polynomial's own sympy expression.


def test_render_zero_and_constants():
    assert poly_to_str(Polynomial.zero()) == "0"
    assert poly_to_str(Polynomial.constant(-7)) == "-7"


def test_render_ordering_and_signs():
    x, y = pvar("x"), pvar("y")
    p = 2 * x * x - y + 1
    assert poly_to_str(p) == "2*x^2 - y + 1"


def test_render_edge_variables():
    p = 3 * pvar("a_{1,2}") * pvar("a_{1,2}") * pvar("a_{2,3}") - pvar("a_{1,3}")
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
        p = from_sympy(parse_canonical(text))
        assert poly_to_str(p) == text
        assert parse_canonical(poly_to_str(p)) == to_sympy(p)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_parse_round_trip_random(data):
    names = ["u", "a_{1,2}", "a_{2,3}"]
    terms = {}
    for _ in range(data.draw(st.integers(1, 5))):
        exps = tuple(data.draw(st.integers(0, 3)) for _ in names)
        terms[exps] = data.draw(st.integers(-9, 9))
    p = Polynomial(tuple(names), terms)
    assert parse_canonical(poly_to_str(p)) == to_sympy(p)


def test_rf_json_round_trip():
    a, e = Polynomial.variables("ae")
    f = RationalFunction(a * (1 + e), 1 - e)
    data = f.to_json()
    assert data == {"num": "-a*e - a", "den": "e - 1"}
    assert [parse_canonical(data[k]) for k in ("num", "den")] == [to_sympy(f.num), to_sympy(f.den)]
    # the constructor reduces before anything is written
    assert RationalFunction(2 * a * e, 4 * e).to_json() == {"num": "a", "den": "2"}


def test_monomial_is_the_generic_constructor_packed_directly():
    names = ("x", "y", "z")
    for exps in [(0, 0, 0), (1, 0, 2), (0, 5, 0), (1 << 15, 0, 1)]:
        assert monomial(names, exps) == Polynomial(names, {exps: 1})
    assert monomial(names, (0, 0, 0)).constant_coeff() == 1
    assert (monomial(names, (1, 0, 0)) + 7).constant_coeff() == 7


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    # a module owns its underscore names: no other braidshear module imports
    # one or reads one off the module, and only algebra reads a term map
    # (packed monomial keys are algebra's format)
    src = Path(__file__).resolve().parents[1] / "src" / "braidshear"
    breaches = []
    for path in sorted(src.glob("*.py")):
        own = "braidshear" if path.stem == "__init__" else f"braidshear.{path.stem}"
        tree = ast.parse(path.read_text(), str(path))
        modules = {}  # local name -> the braidshear module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module == "braidshear":
                modules.update((a.asname or a.name, f"braidshear.{a.name}") for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = "braidshear" + (f".{node.module}" if node.module else "")
                module = module if node.level else node.module
                if module.split(".")[0] == "braidshear" and module != own:
                    breaches += [
                        f"{path.name}:{node.lineno} imports {module}.{a.name}"
                        for a in node.names
                        if _private(a.name)
                    ]
            elif isinstance(node, ast.Attribute):
                owner = modules.get(ast.unparse(node.value), own)
                if owner.split(".")[0] == "braidshear" and owner != own and _private(node.attr):
                    breaches.append(f"{path.name}:{node.lineno} reads {owner}.{node.attr}")
                elif node.attr == "_packed" and path.name != "algebra.py":
                    breaches.append(f"{path.name}:{node.lineno} reads _packed")
    assert not breaches
