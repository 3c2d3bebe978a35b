from fractions import Fraction

import pytest

from braidshear import roots as roots_module
from braidshear.roots import (
    RootIsolationError,
    count_roots_closed,
    deflate_at,
    evaluate,
    exact_quotient,
    gcd,
    has_common_root_in,
    isolate_roots,
    normalize,
    refine_root,
    squarefree_part,
)


def poly_from_roots(roots, extra=None):
    """(x - r1)(x - r2)... optionally times an irreducible extra factor."""
    coeffs = [Fraction(1)]
    for r in roots:
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] += -Fraction(r) * c
        coeffs = new
    if extra:
        out = [Fraction(0)] * (len(coeffs) + len(extra) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(extra):
                out[i + j] += a * Fraction(b)
        coeffs = out
    return coeffs


def test_isolation_of_known_roots():
    f = poly_from_roots([Fraction(1, 3), Fraction(1, 2)], extra=[1, 0, 1])  # x^2+1
    roots = isolate_roots(f, Fraction(0), Fraction(1))
    assert len(roots) == 2
    (a1, b1), (a2, b2) = roots
    assert a1 < Fraction(1, 3) < b1
    assert a2 < Fraction(1, 2) < b2
    assert b1 <= a2


def test_isolation_handles_multiple_roots():
    f = poly_from_roots([Fraction(1, 2), Fraction(1, 2), Fraction(2, 3)])
    roots = isolate_roots(f, Fraction(0), Fraction(1))
    assert len(roots) == 2


def test_isolation_rejects_root_endpoint():
    f = poly_from_roots([0, Fraction(1, 2)])
    with pytest.raises(RootIsolationError):
        isolate_roots(f, Fraction(0), Fraction(1))
    g = deflate_at(f, Fraction(0))
    assert len(isolate_roots(g, Fraction(0), Fraction(1))) == 1


def test_refinement_narrows_and_keeps_root():
    target = Fraction(2)
    f = [-2, 0, 1]  # x^2 - 2, root sqrt(2)
    (root,) = isolate_roots(f, Fraction(1), Fraction(2))
    width = Fraction(1, 2 ** 20)
    refined = refine_root(f, root, width)
    assert refined.hi - refined.lo < width
    assert evaluate(f, refined.lo) * evaluate(f, refined.hi) < 0


def test_refinement_of_exact_rational_root():
    f = poly_from_roots([Fraction(1, 2)])
    (root,) = isolate_roots(f, Fraction(0), Fraction(1))
    refined = refine_root(f, root, Fraction(1, 1024))
    assert refined.lo < Fraction(1, 2) < refined.hi
    assert refined.hi - refined.lo < Fraction(1, 1024)


def test_count_roots_closed_with_endpoint_roots():
    f = poly_from_roots([0, Fraction(1, 2), 1])
    assert count_roots_closed(f, Fraction(0), Fraction(1)) == 3
    assert count_roots_closed(f, Fraction(1, 4), Fraction(3, 4)) == 1
    assert count_roots_closed(f, Fraction(0), Fraction(1, 4)) == 1
    assert count_roots_closed([1, 0, 1], Fraction(-5), Fraction(5)) == 0


def test_common_root_detection():
    shared = Fraction(3, 7)
    f = poly_from_roots([shared, Fraction(1, 5)])
    g = poly_from_roots([shared, Fraction(4, 5)])
    assert has_common_root_in(f, g, Fraction(0), Fraction(1))
    h = poly_from_roots([Fraction(2, 7)])
    assert not has_common_root_in(f, h, Fraction(0), Fraction(1))


def test_negative_leading_coefficients_keep_sturm_signs():
    # -(x + 3) x (x - 3): every remainder of its chain has a negative
    # leading coefficient, so a sign slip in the integer remainders shows
    f = [0, 9, 0, -1]
    assert count_roots_closed(f, Fraction(-7, 2), Fraction(7, 2)) == 3
    assert count_roots_closed(f, Fraction(-1, 2), Fraction(7, 2)) == 2
    assert len(isolate_roots(f, Fraction(-7, 2), Fraction(7, 2))) == 3


def test_squarefree_part():
    f = poly_from_roots([Fraction(1, 2), Fraction(1, 2)])
    sf = squarefree_part(f)
    assert len(sf) == 2  # degree 1
    assert evaluate(sf, Fraction(1, 2)) == 0


def test_normalize_clears_denominators_and_content():
    assert normalize([Fraction(1, 2), Fraction(-1, 3), 0]) == [3, -2]
    assert normalize([0, -4, 6, 0]) == [0, -2, 3]
    assert normalize([0, 0]) == []


def test_exact_quotient():
    assert exact_quotient([1, 2, 1], [1, 1]) == [1, 1]
    assert exact_quotient([-2, -1, 1], [1, 1]) == [-2, 1]
    assert exact_quotient([3, 0, 6, 0, 3], [1, 0, 1]) == [3, 0, 3]
    assert exact_quotient([], [1, 1]) == []
    assert exact_quotient([5], [5]) == [1]


def test_exact_quotient_rejects_inexact_division():
    assert exact_quotient([1, 0, 1], [1, 1]) is None  # nonzero remainder
    assert exact_quotient([1, 2, 2], [1, 1]) is None
    assert exact_quotient([1, 1], [1, 0, 1]) is None  # divisor of higher degree
    assert exact_quotient([1, 1], [2]) is None  # not in Z[x]
    assert exact_quotient([1, 3], [1, 2]) is None  # leading term does not divide


def test_gcd_is_primitive_with_positive_lead():
    f = normalize(poly_from_roots([Fraction(1, 3), Fraction(2)]))
    g = normalize(poly_from_roots([Fraction(1, 3), Fraction(-1)]))
    assert gcd([-c for c in f], [2 * c for c in g]) == [-1, 3]
    assert gcd([2, 4], [3]) == [1]
    assert gcd([0, -6], []) == [0, 1]
    assert gcd([], []) == []


def test_deflate_at_non_root_raises():
    f = poly_from_roots([Fraction(1, 3), Fraction(1, 2)])
    assert evaluate(deflate_at(f, Fraction(1, 3)), Fraction(1, 2)) == 0
    with pytest.raises(RootIsolationError):
        deflate_at(f, Fraction(1, 4))
    with pytest.raises(RootIsolationError):
        deflate_at([1, 0, 1], Fraction(0))


def test_squarefree_part_raises_when_the_division_is_inexact(monkeypatch):
    # a wrong gcd (not a divisor) must surface, not be silently dropped
    monkeypatch.setattr(roots_module, "gcd", lambda a, b: [1, 1])
    with pytest.raises(RootIsolationError):
        squarefree_part(poly_from_roots([Fraction(1, 2), Fraction(1, 2)]))


def test_evaluate_is_exact_on_integer_and_fraction_coefficients():
    assert evaluate([-2, 0, 1], Fraction(3, 2)) == Fraction(1, 4)
    assert evaluate([Fraction(1, 2), 0, 1], Fraction(-1, 3)) == Fraction(11, 18)
    assert evaluate([], Fraction(5)) == 0
    assert evaluate([7], Fraction(1, 9)) == 7
