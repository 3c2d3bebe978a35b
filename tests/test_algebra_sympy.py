"""Differential tests of the gcd and canonical form against sympy.

sympy is a test-only oracle here; nothing under ``src/`` imports it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidshear import roots
from braidshear.algebra import Polynomial, RationalFunction, poly_gcd

sp = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")


def to_sympy(p: Polynomial):
    syms = [sp.Symbol(name) for name in p.vars]
    return sp.Add(
        *(c * sp.Mul(*(s ** e for s, e in zip(syms, exps))) for exps, c in p.terms.items())
    )


def sparse_poly(draw, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in NAMES)
        terms[exps] = draw(st.integers(-6, 6))
    return Polynomial(NAMES, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_gcd_matches_sympy_up_to_sign(data):
    common = sparse_poly(data.draw, max_terms=2)
    f = common * sparse_poly(data.draw)
    g = common * sparse_poly(data.draw)
    if f.is_zero and g.is_zero:
        return
    ours = to_sympy(poly_gcd(f, g))
    theirs = sp.gcd(to_sympy(f), to_sympy(g))
    assert sp.expand(ours - theirs) == 0 or sp.expand(ours + theirs) == 0


E, B, C, D = (RationalFunction.variable(n) for n in ("a_{1,2}", "a_{2,3}", "a_{3,4}", "a_{1,4}"))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.permutations(range(4))), min_size=1, max_size=5))
def test_label_like_functions_are_canonical(steps):
    # shear- and Ptolemy-style updates, mirrored in sympy: the result must
    # equal sympy's value, be reduced, and have a positive graded-lex
    # leading denominator coefficient
    ours = [E, B, C, D]
    theirs = [to_sympy(f.num) / to_sympy(f.den) for f in ours]
    for rule, (i, j, k, m) in steps:
        if rule == 0:
            ours[i] = ours[j] * (1 + ours[k])
            theirs[i] = theirs[j] * (1 + theirs[k])
        elif rule == 1:
            ours[i] = ours[j] * (ours[k] / (1 + ours[k]))
            theirs[i] = theirs[j] * (theirs[k] / (1 + theirs[k]))
        elif rule == 2:
            ours[i] = (ours[i] * ours[k] + ours[j] * ours[m]) / ours[j]
            theirs[i] = (theirs[i] * theirs[k] + theirs[j] * theirs[m]) / theirs[j]
        else:
            ours[i] = ours[i].inv()
            theirs[i] = 1 / theirs[i]
    for f, expr in zip(ours, theirs):
        num, den = to_sympy(f.num), to_sympy(f.den)
        want_num, want_den = sp.fraction(sp.cancel(expr))
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
