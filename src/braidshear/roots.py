"""Certified real-root isolation for univariate polynomials over Q.

Polynomials are dense coefficient lists in ascending degree.  Every
polynomial the module works on is a primitive integer list: ``normalize``
clears denominators once, and remainders, gcds, Sturm chains and exact
quotients stay in Z[x] (the primitive pseudo-remainder sequence; Brown,
JACM 1971).  Each remainder is a positive multiple of the remainder over
Q, so a Sturm chain keeps its sign pattern at every point.  A ``Fraction``
appears only as an interval endpoint, an evaluation point or the value
``evaluate`` returns: the sign of f at p/q is the sign of the integer
q^d * f(p/q).

The isolation API guarantees open intervals whose endpoints are not roots
and that contain exactly one root each, refinable to any requested width.
Isolation returns exactly the intervals of the plain Sturm recursion,
with less work: it decides an interval by Descartes' rule of signs when
that count is 0 or 1, and by the Sturm count otherwise.  Refinement is
plain bisection on integer numerators.

The one closed form is for an integer quadratic whose discriminant is not
a square, so whose roots are irrational, and it replaces both isolation
and refinement when a stage's event brackets are first built
(``irrational_quadratic_cells``): no point of the bisection grid is a
root, so the recursion only ever splits an interval at its midpoint and
bisection continues on the same grid.  The bracket of each root is then
its cell at the final grid depth, from one ``math.isqrt`` and two signs,
unless both roots share that cell.  A bracket shrunk later, to separate
it from another, is bisected.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple


class RootIsolationError(Exception):
    pass


Coeffs = List[int]


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a: Coeffs) -> Coeffs:
    """``a`` divided by its positive content (signs are kept)."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def normalize(coeffs: Sequence) -> Coeffs:
    """The primitive integer list with the roots and signs of ``coeffs``
    (int or Fraction entries; ``[]`` for the zero polynomial)."""
    out = _trim(list(coeffs))
    try:
        return _primitive(out)
    except TypeError:  # math.gcd takes no Fraction: clear denominators first
        m = math.lcm(*(c.denominator for c in out))
        return _primitive([c.numerator * (m // c.denominator) for c in out])


def degree(coeffs: Coeffs) -> int:
    return len(coeffs) - 1


def _value(coeffs: Coeffs, p: int, q: int) -> int:
    """q^d * f(p/q) for d = degree(f), by homogeneous Horner over Z."""
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _is_root(coeffs: Coeffs, x: Fraction) -> bool:
    return _value(coeffs, x.numerator, x.denominator) == 0


def evaluate(coeffs: Sequence, x: Fraction) -> Fraction:
    if not coeffs:
        return Fraction(0)
    return Fraction(_value(coeffs, x.numerator, x.denominator), x.denominator ** degree(coeffs))


def derivative(coeffs: Coeffs) -> Coeffs:
    return [c * i for i, c in enumerate(coeffs)][1:]


def _rem(a: Coeffs, b: Coeffs) -> Coeffs:
    """A positive multiple of the remainder of ``a`` by ``b`` over Q, made
    primitive (b nonzero)."""
    r = a[:]
    lb = b[-1]
    while len(r) >= len(b):
        k = math.gcd(r[-1], lb)
        mr, mb = r[-1] // k, lb // k
        if mb < 0:
            mr, mb = -mr, -mb
        shift = len(r) - len(b)
        r = [x * mb for x in r]
        for i, c in enumerate(b):
            r[i + shift] -= mr * c
        _trim(r)
    return _primitive(r)


def exact_quotient(a: Coeffs, b: Coeffs) -> Optional[Coeffs]:
    """``a / b`` in Z[x], or None when ``b`` does not divide ``a`` there.

    For primitive ``b`` that is exactly when ``b`` does not divide ``a``
    over Q (Gauss's lemma).
    """
    r = _trim(list(a))
    n = len(b) - 1
    if len(r) <= n:
        return None if r else []
    q = [0] * (len(r) - n)
    for shift in range(len(q) - 1, -1, -1):
        # a floor quotient that is not exact leaves a nonzero term in r
        c = q[shift] = r[shift + n] // b[-1]
        for i, x in enumerate(b):
            r[i + shift] -= c * x
    return None if any(r) else q


def gcd(a: Sequence, b: Sequence) -> Coeffs:
    """Primitive gcd with a positive leading coefficient (``[1]`` for
    coprime inputs, ``[]`` when both are zero)."""
    a, b = normalize(a), normalize(b)
    while b:
        a, b = b, _rem(a, b)
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def squarefree_part(coeffs: Sequence) -> Coeffs:
    f = normalize(coeffs)
    if degree(f) < 1:
        return f
    g = gcd(f, derivative(f))
    if degree(g) == 0:
        return f
    q = exact_quotient(f, g)
    if q is None:
        raise RootIsolationError("squarefree division left a remainder")
    return q


def deflate_at(coeffs: Sequence, root: Fraction) -> Coeffs:
    """Divide out (x - root); the division must be exact."""
    q = exact_quotient(normalize(coeffs), [-root.numerator, root.denominator])
    if q is None:
        raise RootIsolationError(f"{root} is not a root")
    return q


def sturm_chain(f: Sequence) -> List[Coeffs]:
    """The Sturm sequence of ``f`` up to positive factors."""
    chain = [normalize(f)]
    nxt = normalize(derivative(chain[0]))
    while nxt:
        chain.append(nxt)
        nxt = [-c for c in _rem(chain[-2], chain[-1])]
    return chain


def _variations(chain: List[Coeffs], x: Fraction) -> int:
    p, q = x.numerator, x.denominator
    signs = [v > 0 for v in (_value(poly, p, q) for poly in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class IsolatedRoot(NamedTuple):
    lo: Fraction
    hi: Fraction


_SPLIT_FRACTIONS = [Fraction(1, 2), Fraction(3, 7), Fraction(4, 7), Fraction(5, 11),
                    Fraction(6, 11), Fraction(7, 13), Fraction(8, 17), Fraction(9, 19)]


def _split_point(f: Coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    for frac in _SPLIT_FRACTIONS:
        mid = lo + (hi - lo) * frac
        if not _is_root(f, mid):
            return mid
    k = 23
    while True:
        mid = lo + (hi - lo) * Fraction(11, k)
        if not _is_root(f, mid):
            return mid
        k += 2


def _descartes_signs(f: Coeffs, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1 + x)^d f((lo + hi x) / (1 + x)), capped at 2:
    x > 0 maps onto (lo, hi), so by Descartes' rule 0 or 1 is the number of
    roots there, multiplicities counted (Collins and Akritas, SYMSAC 1976).
    Its end coefficients are positive multiples of f(lo) and f(hi), so an
    end that is a root raises."""
    p, q = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    den = lo.denominator * hi.denominator
    # homogeneous Horner in p + q x and den (1 + x), whose powers are u
    g, u = [f[-1]], [1]
    for c in reversed(f[:-1]):
        u = [den * (a + b) for a, b in zip(u + [0], [0] + u)]
        g = [p * a + q * b + c * v for a, b, v in zip(g + [0], [0] + g, u)]
    if not g[0] or not g[-1]:
        raise RootIsolationError("endpoint is a root; deflate first")
    signs = [a > 0 for a in g if a]
    return min(2, sum(a != b for a, b in zip(signs, signs[1:])))


def isolate_roots(coeffs: Sequence, lo: Fraction, hi: Fraction) -> List[IsolatedRoot]:
    """Isolate the real roots inside the open interval (lo, hi).

    Preconditions: lo < hi and neither endpoint is a root.  Returns
    disjoint open intervals in increasing order, one root each, whose
    endpoints are not roots.

    Each interval is first tested by Descartes' rule, whose counts 0 and 1
    are exact; only at two or more sign variations does the Sturm count,
    whose chain is built on first use, decide.  So every interval is the
    one the Sturm recursion alone gives.

    The chain is built on ``coeffs`` as given, squarefree or not: it ends
    in gcd(f, f'), and dividing every member by that common factor, which
    is nonzero wherever f is, changes no sign variation, so the chain
    counts distinct roots either way.
    """
    f = normalize(coeffs)
    if degree(f) < 1:
        return []
    chain: List[Coeffs] = []

    def recurse(a: Fraction, b: Fraction) -> List[IsolatedRoot]:
        count = _descartes_signs(f, a, b)
        if count == 2:
            if not chain:
                chain.extend(sturm_chain(f))
            count = _variations(chain, a) - _variations(chain, b)
        if count == 0:
            return []
        if count == 1:
            return [IsolatedRoot(a, b)]
        mid = _split_point(f, a, b)
        return recurse(a, mid) + recurse(mid, b)

    return recurse(lo, hi)


def refine_root(coeffs: Sequence, root: IsolatedRoot, width: Fraction) -> IsolatedRoot:
    """Shrink an isolating interval below ``width`` by sign bisection.

    Bisection runs on integer numerators over one denominator, doubled at
    each step, so no midpoint is reduced; the interval returned is the one
    ``Fraction`` bisection gives.  When f changes sign across the interval
    its root there has odd multiplicity, and bisecting f itself takes the
    same steps as bisecting its squarefree part; only a root of even
    multiplicity needs ``squarefree_part``.

    Every refinement bisects, whatever the degree: the closed form of
    ``irrational_quadratic_cells`` serves only the first brackets of a
    stage, and a separation shrink of one of them comes here.
    """
    f = normalize(coeffs)
    a, b, den = _grid(*root)
    v_lo, v_hi = _value(f, a, den), _value(f, b, den)
    if v_lo and v_hi and (v_lo > 0) == (v_hi > 0):
        f = squarefree_part(f)
        v_lo, v_hi = _value(f, a, den), _value(f, b, den)
    if v_lo == 0 or v_hi == 0:
        raise RootIsolationError("isolating interval endpoint is a root")
    positive = v_lo > 0
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd >= wn * den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        v = _value(f, mid, den)
        if v == 0:
            lo, hi, m = Fraction(a, den), Fraction(b, den), Fraction(mid, den)
            delta = min(width / 4, (hi - m) / 2, (m - lo) / 2)
            return IsolatedRoot(m - delta, m + delta)
        if (v > 0) == positive:
            a = mid
        else:
            b = mid
    return IsolatedRoot(Fraction(a, den), Fraction(b, den))


def _grid(lo: Fraction, hi: Fraction) -> Tuple[int, int, int]:
    """``(a, b, den)``: lo = a/den and hi = b/den over one denominator."""
    den = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def irrational_quadratic_cells(
    coeffs: Coeffs, lo: Fraction, hi: Fraction, width: Fraction
) -> Optional[List[IsolatedRoot]]:
    """``refine_root(coeffs, iso, width)`` for each ``iso`` of
    ``isolate_roots(coeffs, lo, hi)``, in closed form, when ``coeffs`` is an
    integer quadratic without rational roots (its discriminant is not a
    square; one ``math.isqrt`` decides that and gives both cells).  None
    sends the caller to those routines: a square discriminant, both roots in
    one cell, or a cell that fails its sign check.

    No root is rational, so no point of the bisection grid of (lo, hi) is
    one, and the isolation recursion splits every interval at its
    midpoint: each interval it returns is a grid cell holding one root.
    Bisection then halves that cell down to the grid depth K, the least with
    (hi - lo) / 2^K < width.  When the roots lie in different depth-K cells,
    isolation stops at depth K or above, so each root's bracket is its
    depth-K cell.
    """
    if len(coeffs) != 3:
        return None
    a, b, den = _grid(lo, hi)
    # K, the least k with (b - a) / (den 2^k) < width
    steps = ((b - a) * width.denominator // (width.numerator * den)).bit_length()
    scale, step = den << steps, b - a
    c0, c1, c2 = coeffs if coeffs[2] > 0 else [-c for c in coeffs]
    disc = (c1 * c1 - 4 * c0 * c2) * scale * scale
    if disc < 0:
        return []
    s = math.isqrt(disc)
    if s * s == disc:
        return None
    # floor(root * scale) of each root, as no root is rational; then the
    # index of its cell, of the 2^K equal cells of (lo, hi)
    floors = ((-c1 * scale - s - 1) // (2 * c2), (-c1 * scale + s) // (2 * c2))
    cells = [(num - (a << steps)) // step for num in floors]
    if cells[0] == cells[1]:
        return None
    out = []
    # f has the sign of its leading term left of the smaller root only
    for j, positive in zip(cells, (coeffs[2] > 0, coeffs[2] < 0)):
        if 0 <= j < 1 << steps:
            left = (a << steps) + j * step
            v_left, v_right = _value(coeffs, left, scale), _value(coeffs, left + step, scale)
            # neither is 0, as no rational point is a root
            if (v_left > 0) != positive or (v_right > 0) == positive:
                return None
            out.append(IsolatedRoot(Fraction(left, scale), Fraction(left + step, scale)))
    return out


def count_roots_closed(coeffs: Sequence, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the closed interval [lo, hi]."""
    f = squarefree_part(coeffs)
    count = 0
    for x in {lo, hi}:  # a squarefree f has each endpoint as a simple root at most
        if degree(f) >= 1 and _is_root(f, x):
            f = deflate_at(f, x)
            count += 1
    if degree(f) >= 1:
        chain = sturm_chain(f)
        count += _variations(chain, lo) - _variations(chain, hi)
    return count


def has_common_root_in(a: Sequence, b: Sequence, lo: Fraction, hi: Fraction) -> bool:
    g = gcd(a, b)
    if degree(g) < 1:
        return False
    return count_roots_closed(g, lo, hi) > 0
