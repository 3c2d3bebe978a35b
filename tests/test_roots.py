import math
import random
from fractions import Fraction

import pytest

from braidshear import roots as roots_module
from braidshear.roots import (
    IsolatedRoot,
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
    # int and Fraction entries mixed, and int-valued Fractions
    assert normalize([1, Fraction(1, 2), 0]) == [2, 1]
    assert normalize([Fraction(4), -6]) == [2, -3]


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


def fraction_refine_root(coeffs, root, width):
    """Sign bisection on reduced ``Fraction`` midpoints of the squarefree
    part: the reference the integer ``refine_root`` must match."""
    f = squarefree_part(coeffs)
    lo, hi = root
    v_lo = evaluate(f, lo)
    if v_lo == 0 or evaluate(f, hi) == 0:
        raise RootIsolationError("isolating interval endpoint is a root")
    while hi - lo >= width:
        mid = (lo + hi) / 2
        v = evaluate(f, mid)
        if v == 0:
            delta = min(width / 4, (hi - mid) / 2, (mid - lo) / 2)
            return IsolatedRoot(mid - delta, mid + delta)
        if (v > 0) == (v_lo > 0):
            lo = mid
        else:
            hi = mid
    return IsolatedRoot(lo, hi)


def _random_root(rng):
    # dyadic roots land on bisection midpoints; the others never do
    den = rng.choice([1, 2, 4, 8, 16, 64, 3, 5, 7, 12])
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def _isolating_intervals(rng, f, roots):
    """Intervals from ``isolate_roots``, plus dyadic ones around rational
    roots r, (r - j/2^m, r + k/2^m) with j + k a power of two, on which
    bisection lands on r exactly."""
    lo = Fraction(rng.randint(-70, -60), rng.choice([16, 17]))
    hi = Fraction(rng.randint(60, 70), rng.choice([16, 19]))
    out = []
    if evaluate(f, lo) and evaluate(f, hi):
        out += isolate_roots(f, lo, hi)
    for r in set(roots):
        step = Fraction(1, 2 ** rng.randint(4, 9))
        j = rng.randint(1, 7)
        a, b = r - j * step, r + (8 - j) * step
        if evaluate(f, a) and evaluate(f, b) and count_roots_closed(f, a, b) == 1:
            out.append(IsolatedRoot(a, b))
    return out


def test_integer_refine_root_matches_fraction_bisection():
    rng = random.Random(11)
    checked = centred_on_root = repeated = 0
    for _ in range(80):
        roots = [_random_root(rng) for _ in range(rng.randint(1, 4))]
        roots += rng.choices(roots, k=rng.randint(0, 2))  # even or odd multiplicities
        extra = rng.choice([None, [1, 0, 1], [-2, 0, 1], [3, -1, 0, 5]])
        scale = rng.choice([1, -1, Fraction(2, 3)])
        f = [c * scale for c in poly_from_roots(roots, extra)]
        for iso in _isolating_intervals(rng, f, roots):
            for width in (Fraction(1, 2 ** 20), Fraction(1, 100), Fraction(3, 7), Fraction(5)):
                expected = fraction_refine_root(f, iso, width)
                assert refine_root(f, iso, width) == expected
                assert refine_root(normalize(f), iso, width) == expected
                checked += 1
                centred_on_root += (expected.lo + expected.hi) / 2 in roots
        repeated += len(set(roots)) < len(roots)
    assert checked > 1000 and centred_on_root > 200 and repeated > 30


def test_refine_root_exact_midpoint_root():
    # the first midpoint of (0, 1) is the root: the v == 0 branch
    f = poly_from_roots([Fraction(1, 2)], extra=[1, 0, 1])
    width = Fraction(1, 1024)
    (iso,) = isolate_roots(f, Fraction(0), Fraction(1))
    assert iso == (Fraction(0), Fraction(1))
    refined = refine_root(f, iso, width)
    assert refined == fraction_refine_root(f, iso, width)
    assert refined == (Fraction(1, 2) - width / 4, Fraction(1, 2) + width / 4)


def test_refine_root_of_even_multiplicity_root():
    # f keeps its sign across (1/3)^2: bisection runs on the squarefree part
    f = poly_from_roots([Fraction(1, 3), Fraction(1, 3), Fraction(4, 5)])
    (first, second) = isolate_roots(f, Fraction(0), Fraction(1))
    width = Fraction(1, 2 ** 16)
    refined = refine_root(f, first, width)
    assert refined == fraction_refine_root(f, first, width)
    assert refined.lo < Fraction(1, 3) < refined.hi
    assert refine_root(f, second, width) == fraction_refine_root(f, second, width)


def test_isolate_roots_same_intervals_with_or_without_repeated_factors():
    rng = random.Random(3)
    for _ in range(40):
        roots = [_random_root(rng) for _ in range(rng.randint(1, 4))]
        f = poly_from_roots(roots, extra=[1, 0, 1])
        g = poly_from_roots(roots + roots[: rng.randint(1, len(roots))], extra=[1, 0, 1])
        lo, hi = Fraction(-65, 17), Fraction(67, 19)
        assert isolate_roots(g, lo, hi) == isolate_roots(f, lo, hi)


def _kernel_case(rng):
    """A random integer polynomial of degree 1-6 and an interval (lo, hi)
    whose ends are not roots.  Its roots are random, or sit on bisection
    grid points of (lo, hi), on isolation split points or twice."""
    lo = Fraction(rng.randint(-8, 4), rng.choice([1, 2, 3]))
    hi = lo + Fraction(rng.randint(1, 12), rng.choice([1, 2, 4]))
    if rng.random() < 0.4:
        degree = rng.randint(1, 6)
        f = [rng.randint(-40, 40) for _ in range(degree)] + [rng.choice([-1, 1]) * rng.randint(1, 40)]
    else:
        chosen = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["grid", "split", "random"])
            if kind == "grid":
                r = lo + (hi - lo) * Fraction(rng.randint(1, 2 ** 8 - 1), 2 ** 8)
            elif kind == "split":
                r = lo + (hi - lo) * rng.choice(roots_module._SPLIT_FRACTIONS)
            else:
                r = _random_root(rng)
            chosen += [r] * rng.choice([1, 1, 2])
        extra = rng.choice([None, None, [1, 0, 1], [-2, 0, 1]])
        f = [-c for c in poly_from_roots(chosen[: 4 if extra else 6], extra)]
    f = normalize(f)
    if len(f) < 2 or not evaluate(f, lo) or not evaluate(f, hi):
        return None
    return f, lo, hi


_CELL = Fraction(1, 2 ** 21)  # the bisection cell of a half-stage at width 2^-20


def _quadratic_case(rng, kind):
    """An integer quadratic N^2 (x - m)^2 - K, roots m +- sqrt(K) / N, of
    one kind: irrational roots anywhere in [0, 1] ("random"), in one cell
    ("one cell") or in adjacent ones ("adjacent"), within a cell of 0, 1/2
    or 1 ("boundary"); or rational roots: simple, double or dyadic."""
    if kind in ("rational", "double", "dyadic"):
        if kind == "dyadic":
            den = 2 ** rng.randint(1, 22)
        else:
            den = rng.choice([3, 5, 7, 12, 2 ** 21 * 3])
        p = Fraction(rng.randint(1, den - 1), den)
        if kind == "double":
            q = p
        else:
            q = Fraction(rng.randint(-den, 2 * den), rng.choice([1, 3, 2 ** 20]))
        return normalize(poly_from_roots([p, q]))
    n = 2 ** rng.randint(26, 30) * rng.choice([1, 3, 5])
    if kind == "random":
        m, spread = Fraction(rng.randint(0, 2 ** 30), 2 ** 30), Fraction(1, rng.randint(2, 40))
    elif kind == "one cell":  # m a cell centre, sqrt(K)/N below a quarter cell
        m, spread = (rng.randint(0, 2 ** 21 - 1) + Fraction(1, 2)) * _CELL, _CELL / 8
    elif kind == "adjacent":  # m a grid point
        m, spread = rng.randint(1, 2 ** 21 - 1) * _CELL, _CELL / 2
    else:
        m = rng.choice([0, Fraction(1, 2), 1]) + rng.randint(-8, 8) * _CELL / 8
        spread = _CELL * Fraction(rng.randint(1, 24), 8)
    k = rng.randint(1, int(spread * spread * n * n) + 1)
    if math.isqrt(k) ** 2 == k:
        k += 1
    mn = m * n
    # (n x - mn)^2 - k with mn = a / b: times b^2
    a, b = mn.numerator, mn.denominator
    return normalize([a * a - k * b * b, -2 * a * b * n, b * b * n * n])


def _check_quadratic_cells(f):
    """``irrational_quadratic_cells`` on both half-stages: None exactly when
    the discriminant is a square or both roots share a bisection cell, else
    the plain Sturm recursion's brackets bisected below 2^-20.  Returns the
    number of brackets it gave, or None."""
    from oracles import sturm_isolate

    c0, c1, c2 = f
    disc = c1 * c1 - 4 * c0 * c2
    square = disc >= 0 and math.isqrt(disc) ** 2 == disc
    # both roots lie in the cell of the vertex m when it is not a grid point
    # and f has the sign of its leading term at both ends of that cell
    m = Fraction(-c1, 2 * c2)
    left = math.floor(m / _CELL) * _CELL
    one_cell = (
        disc > 0
        and left != m
        and (evaluate(f, left) > 0) == (evaluate(f, left + _CELL) > 0) == (c2 > 0)
    )
    width, given = Fraction(1, 2 ** 20), 0
    for lo, hi in ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))):
        cells = roots_module.irrational_quadratic_cells(f, lo, hi, width)
        if square or one_cell:
            assert cells is None, (f, lo)
            continue
        expected = [fraction_refine_root(f, iso, width) for iso in sturm_isolate(f, lo, hi)]
        assert cells == expected, (f, lo)
        given += len(cells)
    return None if square or one_cell else given


def test_isolation_and_refinement_match_plain_sturm_and_bisection(monkeypatch):
    # Descartes' rule decides most intervals; it may not change one
    from oracles import sturm_isolate

    decided = []
    descartes = roots_module._descartes_signs
    monkeypatch.setattr(
        roots_module, "_descartes_signs", lambda *a: decided.append(descartes(*a)) or decided[-1]
    )
    rng = random.Random(2026)
    checked = degrees = 0
    seen_degrees = set()
    while checked < 300:
        case = _kernel_case(rng)
        if case is None:
            continue
        f, lo, hi = case
        seen_degrees.add(len(f) - 1)
        isolated = isolate_roots(f, lo, hi)
        assert isolated == sturm_isolate(f, lo, hi), (f, lo, hi)
        for iso in isolated:
            for width in (Fraction(1, 2 ** 20), Fraction(1, 2 ** 9), Fraction(3, 7)):
                assert refine_root(f, iso, width) == fraction_refine_root(f, iso, width), (f, iso)
        checked += 1
    assert seen_degrees == set(range(1, 7))
    assert decided.count(0) > 100 and decided.count(1) > 100 and 2 in decided
    # an irrational quadratic takes its brackets in closed form
    kinds = ["random", "one cell", "adjacent", "boundary", "rational", "double", "dyadic"]
    outcome = {
        kind: [_check_quadratic_cells(_quadratic_case(rng, kind)) for _ in range(12)]
        for kind in kinds
    }
    assert outcome["random"].count(None) == 0 and sum(outcome["random"]) > 12
    assert outcome["one cell"] == [None] * 12
    assert outcome["adjacent"] == [2] * 12
    assert outcome["boundary"].count(None) < 6 and sum(filter(None, outcome["boundary"])) > 6
    assert all(outcome[kind] == [None] * 12 for kind in ("rational", "double", "dyadic"))


def test_refine_root_bisects_linear_and_rational_quadratic_roots():
    # degrees 1 and 2 bisect like any other, at the final width and at the
    # quarter of the isolating width that a separation shrink asks for
    rng = random.Random(28)
    kinds = ["linear", "rational", "double", "dyadic"]
    checked, on_midpoint = dict.fromkeys(kinds, 0), dict.fromkeys(kinds, 0)
    for kind in kinds * 20:
        if kind == "linear":
            den = rng.choice([3, 7, 2 ** rng.randint(1, 22)])
            f = normalize([-rng.randint(1, den - 1), den])
        else:
            f = _quadratic_case(rng, kind)
        for lo, hi in ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))):
            if not evaluate(f, lo) or not evaluate(f, hi):
                continue
            for iso in isolate_roots(f, lo, hi):
                for width in (Fraction(1, 2 ** 20), (iso.hi - iso.lo) / 4):
                    expected = fraction_refine_root(f, iso, width)
                    assert refine_root(f, iso, width) == expected, (f, iso, width)
                    checked[kind] += 1
                    on_midpoint[kind] += evaluate(f, (expected.lo + expected.hi) / 2) == 0
    assert min(checked.values()) >= 30
    assert on_midpoint["linear"] > 5 and on_midpoint["dyadic"] > 5
