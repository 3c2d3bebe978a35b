"""Differential tests of the gcd, the polynomial kernel, the canonical form,
the univariate gcd and the root counts against sympy.

sympy is a test-only oracle here; nothing under ``src/`` imports it.
"""

import math

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import grlex

from braidshear import roots
from braidshear.algebra import (
    _FIELD_BITS,
    Polynomial,
    RationalFunction,
    poly_gcd,
    poly_to_str,
)
from oracles import from_sympy, parse_canonical, to_sympy

NAMES = ("x", "y", "z")
X, Y, Z = sp.symbols(NAMES)


def sparse_poly(draw, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in NAMES)
        terms[exps] = draw(st.integers(-6, 6))
    return Polynomial(NAMES, terms)


@st.composite
def sharing_pairs(draw):
    common = sparse_poly(draw, max_terms=2)
    return common * sparse_poly(draw), common * sparse_poly(draw)


def f_like(a, b):
    """The product of two F-polynomial-like factors: constant term 1 and
    positive coefficients."""
    return from_sympy(sp.expand(a * b))


@settings(max_examples=60, deadline=None)
@given(sharing_pairs())
# coprime F-like products, as the shear labels pair them: only the
# heuristic gcd tells that they are coprime
@example((f_like(1 + X, 1 + Y + X * Y), f_like(1 + Y, 1 + X + X * Y)))
@example((f_like(1 + X + X * Y, 1 + Y + Y * Z), f_like(1 + Z + X * Z, 1 + X + Y * Z)))
@example((f_like(1 + 2 * X + X**2 * Y, 1 + 3 * Y + Y * Z), f_like(1 + X + Y, 1 + 2 * Z + X * Z)))
def test_poly_gcd_matches_sympy_up_to_sign(pair):
    f, g = pair
    if f.is_zero and g.is_zero:
        return
    ours = to_sympy(poly_gcd(f, g))
    theirs = sp.gcd(to_sympy(f), to_sympy(g))
    assert sp.expand(ours - theirs) == 0 or sp.expand(ours + theirs) == 0


# -- the packed kernel --------------------------------------------------------

POOL = ("w", "x", "y", "z")
# the first total degree that no longer fits the default field width
WIDE = 1 << (_FIELD_BITS - 1)
# small exponents twice as often as exponents at and beyond a field's width
EXPONENTS = st.one_of(
    st.integers(0, 3), st.integers(0, 3), st.sampled_from([WIDE - 1, WIDE, 2 * WIDE + 1])
)


@st.composite
def kernel_polys(draw, exponents=EXPONENTS):
    """A polynomial over a random subset of POOL (so operands usually sit in
    different rings), with negative coefficients and, now and then,
    exponents at and beyond one field's width."""
    names = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=3))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(exponents) for _ in names)
        terms[exps] = draw(st.integers(-6, 6))
    return Polynomial(names, terms)


def _grlex_terms(expr, names):
    """The (exponents over ``names``, coefficient) terms of ``expr`` in
    descending grlex order.  Built from sympy's expression tree: its
    dense ``Poly`` would spend minutes on exponents of 2^16."""
    syms = [sp.Symbol(n) for n in names]
    terms = []
    for term in sp.Add.make_args(sp.expand(expr)):
        if term != 0:
            coeff, rest = term.as_coeff_Mul()
            powers = rest.as_powers_dict()
            terms.append((tuple(int(powers.get(s, 0)) for s in syms), coeff))
    return sorted(terms, key=lambda t: grlex(t[0]), reverse=True)


def _render(terms, names):
    """The canonical text form, written from sympy's ordered terms."""
    pieces = []
    for monom, coeff in terms:
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, monom) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{sign} {'*'.join(factors)}")
    if not pieces:
        return "0"
    first = pieces[0][2:] if pieces[0][0] == "+" else "-" + pieces[0][2:]
    return " ".join([first] + pieces[1:])


@settings(max_examples=80, deadline=None)
@given(kernel_polys(), kernel_polys(), st.integers(0, 3))
def test_kernel_arithmetic_matches_sympy(f, g, power):
    F, G = to_sympy(f), to_sympy(g)
    assert sp.expand(to_sympy(f + g) - (F + G)) == 0
    assert sp.expand(to_sympy(f - g) - (F - G)) == 0
    assert sp.expand(to_sympy(f * g) - F * G) == 0
    assert sp.expand(to_sympy(math.prod([f] * power, start=Polynomial.one())) - F ** power) == 0
    if not g.is_zero:
        assert (f * g).exact_div(g) == f


@settings(max_examples=80, deadline=None)
@given(kernel_polys(st.integers(0, 3)), kernel_polys(st.integers(0, 3)))
@example(from_sympy(X**3 * Z), from_sympy(X * Y**2))
@example(from_sympy(X**3 * Z + Y), from_sympy(X * Y**2 + 1))
@example(from_sympy(6 * X**2 * Y - 4 * X * Z), from_sympy(-2 * X))  # by a monomial
@example(from_sympy(6 * X**2 * Y - 3 * X * Z), from_sympy(2 * X))  # a coefficient is not
def test_kernel_exact_div_matches_sympy(f, g):
    # None exactly when g does not divide f over Z; a borrow between
    # fields (x^3*z / (x*y^2)) must not pass for divisibility.  Small
    # exponents only: sympy's cancel is dense in them (wide exponents are
    # divided in the arithmetic and field-width tests)
    if g.is_zero:
        return
    F, G = to_sympy(f), to_sympy(g)
    num, den = sp.fraction(sp.cancel(F / G))
    q = f.exact_div(g)
    if den == 1 and all(c.is_integer for _, c in _grlex_terms(num, POOL)):
        assert q is not None and sp.expand(to_sympy(q) - num) == 0
    else:
        assert q is None


@settings(max_examples=80, deadline=None)
@given(kernel_polys(), kernel_polys())
@example(from_sympy(X * Y + Z) - from_sympy(X * Y), from_sympy(Z))
def test_kernel_equality_and_hash_match_sympy(f, g):
    # values built in different rings, with cancelled variables left in
    # the ring, compare and hash by value
    F, G = to_sympy(f), to_sympy(g)
    assert (f == g) == (sp.expand(F - G) == 0)
    for same in (g + f - g, f * (g + 1) - f * g):
        assert same == f and hash(same) == hash(f)
        assert same.vars == f.vars and same.terms == f.terms


@settings(max_examples=80, deadline=None)
@given(kernel_polys(), kernel_polys())
def test_kernel_queries_and_rendering_match_sympy(f, g):
    for p in (f, g, f * g):
        expr = to_sympy(p)
        terms = _grlex_terms(expr, p.vars)
        assert p.lead_coeff() == (terms[0][1] if terms else 0)
        assert p.total_degree() == (sum(terms[0][0]) if terms else -1)
        for i, name in enumerate(p.vars):
            assert p.degree_in(name) == max(exps[i] for exps, _ in terms)
        assert p.degree_in("v") == 0
        assert poly_to_str(p) == _render(terms, p.vars)
        assert parse_canonical(poly_to_str(p)) == expr


def test_kernel_exponents_never_wrap_into_the_next_field():
    # y has the least significant field, so a carry out of it would land
    # in x's field
    x, y = Polynomial.variables(("x", "y"))
    big = Polynomial(("y",), {(WIDE - 1,): 1}) * x
    assert big.degree_in("y") == WIDE - 1 and big.degree_in("x") == 1
    wider = big * y
    assert wider.degree_in("y") == WIDE and wider.degree_in("x") == 1
    assert wider.total_degree() == WIDE + 1
    assert wider == Polynomial(("x", "y"), {(1, WIDE): 1})
    huge = wider * wider * (y + 1)
    assert huge.degree_in("y") == 2 * WIDE + 1 and huge.degree_in("x") == 2
    assert huge == Polynomial(("x", "y"), {(2, 2 * WIDE + 1): 1, (2, 2 * WIDE): 1})
    assert huge.exact_div(wider) == wider * (y + 1)
    assert wider.exact_div(Polynomial(("y",), {(WIDE,): 1})) == x
    assert wider.exact_div(x * x) is None
    assert poly_to_str(wider) == f"x*y^{WIDE}"


LABEL_NAMES = ("a_{1,2}", "a_{2,3}", "a_{3,4}", "a_{1,4}")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_label_like_functions_are_canonical(data):
    # the constructor on num = g*a and den = g*b over edge variables: the
    # result must equal sympy's cancel, be reduced, and have a positive
    # graded-lex leading denominator coefficient
    def draw(max_terms):
        terms = {}
        for _ in range(data.draw(st.integers(1, max_terms))):
            exps = tuple(data.draw(st.integers(0, 2)) for _ in LABEL_NAMES)
            terms[exps] = data.draw(st.integers(-6, 6))
        return Polynomial(LABEL_NAMES, terms)

    g, a, b = draw(2), draw(3), draw(3)
    if (g * b).is_zero:
        return
    f = RationalFunction(g * a, g * b)
    num, den = to_sympy(f.num), to_sympy(f.den)
    want_num, want_den = sp.fraction(sp.cancel(to_sympy(g * a) / to_sympy(g * b)))
    assert sp.expand(num * want_den - want_num * den) == 0
    assert sp.gcd(num, den) in (1, -1)
    gens = [sp.Symbol(name) for name in f.den.vars]
    lead = sp.Poly(den, *gens).LC(order="grlex") if gens else den
    assert lead > 0


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-9, 9), max_size=5),
    st.lists(st.integers(-9, 9), max_size=5),
    st.lists(st.integers(-5, 5), max_size=3),
)
def test_univariate_gcd_degree_matches_sympy(a, b, common):
    u = sp.Symbol("u")

    def expr(coeffs):
        return sp.Add(*(c * u ** i for i, c in enumerate(coeffs)))

    if common:
        a, b = _times(a, common), _times(b, common)
    g = sp.gcd(expr(a), expr(b))
    ours = roots.gcd(a, b)
    if g == 0:
        assert ours == []
        return
    _, prim = sp.Poly(g, u).primitive()
    want = [int(c) for c in reversed(prim.all_coeffs())]
    assert len(ours) - 1 == sp.degree(g, u)
    assert ours in (want, [-c for c in want])


fractions = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(
    rational_roots=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=5),
    bounds=st.tuples(fractions, fractions).filter(lambda b: b[0] < b[1]),
    endpoint_roots=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    extra=st.lists(st.integers(-5, 5), max_size=4).filter(any),
    scale=st.one_of(st.just(1), fractions.filter(bool)),
)
def test_root_counts_match_sympy(rational_roots, bounds, endpoint_roots, extra, scale):
    # product of (q x - p) over the rational roots, repeated and at the
    # endpoints as drawn, times an integer factor with arbitrary roots;
    # scale = 1 keeps int coefficients, otherwise they are Fractions
    lo, hi = bounds
    rs = rational_roots + [lo] * endpoint_roots[0] + [hi] * endpoint_roots[1]
    coeffs = extra
    for r in rs:
        coeffs = _times(coeffs, [-r.numerator, r.denominator])
    if scale != 1:
        coeffs = [scale * c for c in coeffs]
    x = sp.Symbol("x")
    poly = sp.Poly(sp.Add(*(sp.Rational(c) * x ** i for i, c in enumerate(coeffs))), x)
    want = poly.count_roots(sp.Rational(lo), sp.Rational(hi))
    assert roots.count_roots_closed(coeffs, lo, hi) == want
    if roots.evaluate(coeffs, lo) == 0 or roots.evaluate(coeffs, hi) == 0:
        with pytest.raises(roots.RootIsolationError):
            roots.isolate_roots(coeffs, lo, hi)
        return
    isolated = roots.isolate_roots(coeffs, lo, hi)
    assert len(isolated) == want
    edges = [lo] + [e for iso in isolated for e in iso] + [hi]
    assert edges == sorted(edges)
    for iso in isolated:
        assert poly.count_roots(sp.Rational(iso.lo), sp.Rational(iso.hi)) == 1
        assert roots.evaluate(coeffs, iso.lo) != 0
        assert roots.evaluate(coeffs, iso.hi) != 0
