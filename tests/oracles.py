"""Independent brute-force and sympy oracles shared by the test suite.

sympy is a test-only dependency: nothing under ``src/`` imports it.
"""

from fractions import Fraction
from itertools import combinations
import math
import random
import re
from typing import NamedTuple

import sympy as sp
from sympy import ZZ
from sympy.polys.fields import field
from sympy.polys.rings import ring

from braidshear import roots
from braidshear.algebra import Polynomial
from braidshear.braid import compile_motion, initial_triangulation, slot_position
from braidshear.coordinates import LabelState, LabelSystem, edge_var_name
from braidshear.geometry import GeometryError, Point
from braidshear.kinetic import (
    FAR_VERTEX,
    DegeneracyError,
    KineticError,
    Stationary,
    _HALF_COS_SIN,
    _HALVES,
    _Wall,
    _apply_transition,
    _check_collisions,
    _padd,
    _pmul,
    _psub,
    _stage_walls,
    augment,
    augmented_at,
    detect_flips,
)


# -- exact planar predicates on Fractions ------------------------------------


class CollinearTripleError(GeometryError):
    """incircle was called with a collinear base triple."""


def _sign(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of det(q - p, r - p); +1 means (p, q, r) turns counterclockwise."""
    return _sign((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


def incircle(p: Point, q: Point, r: Point, s: Point) -> int:
    """+1 iff s lies strictly inside the circle through p, q, r.

    The base triple is reoriented counterclockwise internally, so the
    answer does not depend on the order of p, q, r.
    """
    o = orient(p, q, r)
    if o == 0:
        raise CollinearTripleError(f"collinear base triple {p}, {q}, {r}")
    if o < 0:
        q, r = r, q
    ax, ay = p.x - s.x, p.y - s.y
    bx, by = q.x - s.x, q.y - s.y
    cx, cy = r.x - s.x, r.y - s.y
    det = (
        (ax * ax + ay * ay) * (bx * cy - by * cx)
        - (bx * bx + by * by) * (ax * cy - ay * cx)
        + (cx * cx + cy * cy) * (ax * by - ay * bx)
    )
    return _sign(det)


def hull_edges(complex_):
    """The directed edges of a complex that have no twin: its boundary,
    traversed counterclockwise."""
    darts = {e for a, b, c in complex_.triangles for e in ((a, b), (b, c), (c, a))}
    return {(a, b) for a, b in darts if (b, a) not in darts}


def interior_edges(complex_):
    """The edges of a complex with two incident triangles, sorted."""
    return sorted(e for e in complex_.edges() if len(complex_.edge_triangles(e)) == 2)


# -- Delaunay by brute force ------------------------------------------------


def brute_force_delaunay_triangles(points):
    """All triples whose circumcircle is strictly empty of the other points.

    O(n^4); valid for generic inputs (no cocircular 4-tuple).  Returns a
    frozenset of unordered triangle id-sets.
    """
    pts = dict(points)
    ids = sorted(pts)
    triangles = set()
    for a, b, c in combinations(ids, 3):
        if orient(pts[a], pts[b], pts[c]) == 0:
            continue
        if all(
            incircle(pts[a], pts[b], pts[c], pts[d]) < 0
            for d in ids
            if d not in (a, b, c)
        ):
            triangles.add(frozenset((a, b, c)))
    return frozenset(triangles)


def random_generic_points(rng: random.Random, n: int, span: int = 40):
    """A generic random rational point set, resampling degenerate draws."""
    while True:
        pts = []
        used = set()
        for i in range(1, n + 1):
            while True:
                p = Point(
                    Fraction(rng.randint(-span, span), rng.randint(1, 6)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 6)),
                )
                if p not in used:
                    used.add(p)
                    break
            pts.append((i, p))
        if is_generic(pts):
            return pts


def first_degeneracy(points):
    """The first degeneracy of a point set as ``(kind, ids)``, or None.

    A scan of its own, in input order: a coincident pair, then a fully
    collinear set, then the first cocircular 4-subset, each found by the
    Fraction predicates of ``geometry``; ``delaunay()`` must reject a
    degenerate set with exactly this kind and these ids.
    """
    ids = [i for i, _ in points]
    if len(ids) < 3:
        return "too-few-points", tuple(ids)
    seen = {}
    for i, p in points:
        if p in seen:
            return "coincident-pair", (seen[p], i)
        seen[p] = i
    pts = dict(points)
    if all(orient(pts[ids[0]], pts[ids[1]], pts[k]) == 0 for k in ids[2:]):
        return "collinear-set", tuple(ids)
    for quad in combinations(ids, 4):
        base = None
        for triple in combinations(quad, 3):
            if orient(pts[triple[0]], pts[triple[1]], pts[triple[2]]) != 0:
                base = triple
                break
        if base is None:
            continue  # four collinear points never share a circle
        rest = next(i for i in quad if i not in base)
        if incircle(pts[base[0]], pts[base[1]], pts[base[2]], pts[rest]) == 0:
            return "cocircular-4", quad
    return None


def is_generic(points):
    return first_degeneracy(points) is None


def empty_circumcircle_holds(points, complex_) -> bool:
    pts = dict(points)
    for (a, b, c) in complex_.triangles:
        for d in pts:
            if d in (a, b, c):
                continue
            if incircle(pts[a], pts[b], pts[c], pts[d]) >= 0:
                return False
    return True


# -- detection by full recompute at every wall ----------------------------


def full_recompute_detect_flips(motion, initial):
    """``detect_flips`` deciding every wall from scratch: the Delaunay
    complex is rebuilt at both ends of each bracket, checked against the
    replayed one, and the difference classified as a flip set."""
    current = augment(initial)
    if motion.stages and current != augmented_at(motion, 0, Fraction(0)):
        raise KineticError("initial triangulation does not match the motion's start")
    events = []
    for stage_idx in range(len(motion.stages)):
        _check_collisions(motion, stage_idx)
        for wall in _stage_walls(motion, stage_idx):
            fresh_lo = augmented_at(motion, stage_idx, wall.lo)
            fresh_hi = augmented_at(motion, stage_idx, wall.hi)
            current = _apply_transition(
                current, fresh_lo, fresh_hi, stage_idx, wall.lo, wall.hi, events
            )
        if not current.same_triangles(augmented_at(motion, stage_idx, Fraction(1))):
            raise KineticError(f"stage {stage_idx}: end complex mismatch")
    return events


class InconsistentEventError(KineticError):
    """An event cannot be applied to the current complex."""


def replay(complex_, events):
    """Fold a flip sequence over a hull-closure complex deterministically."""
    for ev in events:
        if not complex_.has_edge(ev.edge):
            raise InconsistentEventError(f"edge {ev.edge} absent when replaying {ev}")
        try:
            complex_ = complex_.flip(ev.edge, ev.quad)
        except Exception as exc:
            raise InconsistentEventError(f"cannot replay {ev}: {exc}") from exc
    return complex_


# -- wall separation by restarting after every fix -------------------------


def restart_separate_walls(walls, w_min):
    """``kinetic._separate_walls`` as a loop that re-sorts the walls and
    rescans them from the first after every fix, with no give-up: run it
    only on walls that separate."""
    while True:
        walls.sort(key=lambda w: (w.lo, w.hi))
        overlap = next(((a, b) for a, b in zip(walls, walls[1:]) if b.lo < a.hi), None)
        if overlap is None:
            return walls
        a, b = overlap
        wa, wb = a.hi - a.lo, b.hi - b.lo
        if a.contains_root_of(b):
            certs = a.certs + b.certs
            merged = _Wall(a.poly, min(a.lo, b.lo), max(a.hi, b.hi), a.exact or b.exact, certs)
            if merged.exact is None:
                g = roots.gcd(a.poly, b.poly)
                (iso,) = roots.isolate_roots(g, merged.lo, merged.hi)
                merged = _Wall(g, iso.lo, iso.hi, certs=certs)
                merged.shrink(min(w_min, wa, wb))
            walls.remove(a)
            walls.remove(b)
            walls.append(merged)
        else:
            target = min(wa, wb) / 4
            a.shrink(target)
            b.shrink(target)


# -- event polynomials by one determinant per subset ---------------------------


def _orient_num(p, q, r):
    return _psub(
        _pmul(_psub(q[0], p[0]), _psub(r[1], p[1])),
        _pmul(_psub(q[1], p[1]), _psub(r[0], p[0])),
    )


def _incircle_num(p, q, r, s):
    # the lifts' determinant along its third column: |p|^2 - |s|^2 differs
    # from |p - s|^2 by 2 (p - s) . s, a combination of the first two
    # columns, so this is the incircle determinant of the plane points
    a2, b2, c2 = (_psub(v[2], s[2]) for v in (p, q, r))
    return _padd(
        _psub(_pmul(a2, _orient_num(s, q, r)), _pmul(b2, _orient_num(s, p, r))),
        _pmul(c2, _orient_num(s, p, q)),
    )


def _strip_w_by_division(a, half):
    """The primitive part of ``a`` with every factor W of the half divided
    out by long division."""
    a = roots.normalize(a)
    while len(a) >= 3:
        q = roots.exact_quotient(a, _HALF_COS_SIN[half][0])
        if q is None:
            break
        a = q
    return a


def generic_stage_event_polys(motion, stage_idx):
    """``kinetic._stage_event_polys`` computed subset by subset: the orient
    or incircle determinant of the lifted numerators (X, Y, X^2 + Y^2) of
    its strands, W factors divided out by long division."""
    stage = motion.stages[stage_idx]
    movers = set(stage.movers())
    if not movers:
        return []
    polys = []
    ids = [FAR_VERTEX] + list(stage.strands())
    for half, (d_lo, d_hi) in enumerate(_HALVES):
        pos = {
            s: (xs, ys, _padd(_pmul(xs, xs), _pmul(ys, ys)))
            for s, (xs, ys) in stage.numerators[half].items()
        }
        for subset in combinations(ids, 4):
            finite = [s for s in subset if s != FAR_VERTEX]
            if not (set(finite) & movers):
                continue
            if FAR_VERTEX in subset:
                det = _orient_num(*(pos[s] for s in finite))
            else:
                det = _incircle_num(*(pos[s] for s in finite))
            coeffs = _strip_w_by_division(det, half)
            if not coeffs:
                raise DegeneracyError(f"stage {stage_idx}: subset {subset} degenerate throughout")
            if len(coeffs) > 1:
                polys.append((coeffs, d_lo, d_hi, subset))
    return polys


# -- root isolation by Sturm counts alone --------------------------------------


def sturm_isolate(coeffs, lo, hi):
    """``roots.isolate_roots``'s recursion with every count taken from
    sympy's distinct-root count: split at ``roots._split_point`` while an
    interval holds two or more roots."""
    f = sp.Poly(list(reversed(coeffs)), sp.Symbol("t"))

    def count(a, b):  # neither end is a root, so open and closed agree
        return f.count_roots(sp.Rational(a.numerator, a.denominator), sp.Rational(b.numerator, b.denominator))

    def recurse(a, b):
        k = count(a, b)
        if k == 0:
            return []
        if k == 1:
            return [roots.IsolatedRoot(a, b)]
        mid = roots._split_point(roots.normalize(coeffs), a, b)
        return recurse(a, mid) + recurse(mid, b)

    return recurse(lo, hi)


# -- arc safety of the compiled motion ----------------------------------------


def swap_clearance_ok(cfg) -> bool:
    """Exact check that every swap ellipse keeps all other slots strictly
    outside (no collision is possible whatever the stage order)."""
    for index in range(1, cfg.n):
        pa = slot_position(cfg, index)
        pb = slot_position(cfg, index + 1)
        cx, cy = (pa.x + pb.x) / 2, (pa.y + pb.y) / 2
        rx, ry = pa.x - cx, pa.y - cy
        r2 = rx * rx + ry * ry
        b2 = cfg.bulge * cfg.bulge
        for k in range(1, cfg.n + 1):
            if k in (index, index + 1):
                continue
            p = slot_position(cfg, k)
            dx, dy = p.x - cx, p.y - cy
            along = dx * rx + dy * ry
            across = -dx * ry + dy * rx
            # outside the ellipse with semi-axes |r| and bulge*|r|
            if b2 * along * along + across * across <= b2 * r2 * r2:
                return False
    return True


# -- sympy helpers -------------------------------------------------------------


def to_sympy(p):
    """A ``Polynomial`` as a sympy expression, read off its terms."""
    syms = [sp.Symbol(name) for name in p.vars]
    return sp.Add(
        *(c * sp.Mul(*(s ** e for s, e in zip(syms, exps))) for exps, c in p.terms.items())
    )


def from_sympy(expr):
    """A ``Polynomial`` read off the terms of a sympy expression with
    integer coefficients."""
    gens = sorted(expr.free_symbols, key=str)
    if not gens:
        return Polynomial.constant(int(expr))
    terms = sp.Poly(expr, *gens).terms()
    return Polynomial(tuple(map(str, gens)), {m: int(c) for m, c in terms})


_BRACED = re.compile(r"([A-Za-z][A-Za-z0-9]*)_\{(\d+),(\d+)\}")


def parse_canonical(text):
    """sympy's reading of the canonical text form, ``^`` as ``**`` and
    ``a_{i,j}`` as ``a_i_j``, over the symbols that ``to_sympy`` names."""
    body = _BRACED.sub(r"\1_\2_\3", text).replace("^", "**")
    names = {name: sp.Symbol(name) for name in re.findall(r"[A-Za-z]\w*", body)}
    for a, i, j in _BRACED.findall(text):
        names[f"{a}_{i}_{j}"] = sp.Symbol(f"{a}_{{{i},{j}}}")
    return sp.parse_expr(body, local_dict=names)


def _in_ring(R, p):
    """A ``Polynomial`` as an element of the sympy ring ``R``, read off its
    terms."""
    index = [R.symbols.index(sp.Symbol(name)) for name in p.vars]
    terms = {}
    for exps, coeff in p.terms.items():
        monom = [0] * R.ngens
        for i, e in zip(index, exps):
            monom[i] = e
        terms[tuple(monom)] = coeff
    return R.from_dict(terms)


# -- event polynomials in sympy ------------------------------------------------
#
# The kinetic layer builds its event polynomials over Z[t] from integer
# numerators; these build them in sympy's rational-function field in t,
# whose every operation cancels, from each trajectory's rational functions
# of the half-angle parameter u = 2t - half.  Each returns the numerator's integer
# coefficients (ascending degree).

_T_FIELD, _T = field("t", ZZ)


def _position_functions(stage, half):
    u = 2 * _T - half
    den = u * u + 1
    if half == 0:
        cos = (1 - u * u) / den
        sin = 2 * u / den
    else:
        cos = -2 * u / den
        sin = (1 - u * u) / den
    out = {}
    for strand in stage.strands():
        traj = stage.trajectories[strand]
        if isinstance(traj, Stationary):
            out[strand] = (_T_FIELD(traj.point.x), _T_FIELD(traj.point.y))
        else:
            rx = traj.start.x - traj.center.x
            ry = traj.start.y - traj.center.y
            s = sin * (traj.direction * traj.scale)
            out[strand] = (
                cos * rx - s * ry + traj.center.x,
                cos * ry + s * rx + traj.center.y,
            )
    return out


def sympy_value(f, t):
    """An element of the field in t at the rational ``t``, as a Fraction."""
    value = f.as_expr().subs(_T.as_expr(), sp.Rational(t.numerator, t.denominator))
    return Fraction(int(value.p), int(value.q))


def _orient_rf(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _incircle_rf(p, q, r, s):
    ax, ay = p[0] - s[0], p[1] - s[1]
    bx, by = q[0] - s[0], q[1] - s[1]
    cx, cy = r[0] - s[0], r[1] - s[1]
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    return (
        a2 * (bx * cy - by * cx)
        - b2 * (ax * cy - ay * cx)
        + c2 * (ax * by - ay * bx)
    )


def _numerator(f):
    return [int(c) for c in reversed(f.numer.to_dense())]


def sympy_stage_event_polys(motion, stage_idx):
    """Event polynomials of one stage in stage-local time with their
    domains, in the kinetic layer's order (half-stage, then 4-subset of
    {far} + strands with a moving member); constant ones are skipped."""
    stage = motion.stages[stage_idx]
    movers = set(stage.movers())
    if not movers:
        return []
    polys = []
    ids = [FAR_VERTEX] + list(stage.strands())
    halves = [(Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))]
    for half, (d_lo, d_hi) in enumerate(halves):
        funcs = _position_functions(stage, half)
        for subset in combinations(ids, 4):
            finite = [s for s in subset if s != FAR_VERTEX]
            if not (set(finite) & movers):
                continue
            if FAR_VERTEX in subset:
                det = _orient_rf(*(funcs[s] for s in finite))
            else:
                det = _incircle_rf(*(funcs[s] for s in finite))
            coeffs = _numerator(det)
            if not coeffs:
                raise DegeneracyError(f"stage {stage_idx}: subset {subset} degenerate")
            if len(coeffs) > 1:
                polys.append((coeffs, d_lo, d_hi))
    return polys


def sympy_collision_polys(motion, stage_idx):
    """Squared-distance numerators in stage-local time (one per half-stage
    and strand pair with a moving member), as ``(half, i, j, coeffs)``."""
    stage = motion.stages[stage_idx]
    movers = set(stage.movers())
    out = []
    if not movers:
        return out
    for half in (0, 1):
        funcs = _position_functions(stage, half)
        for i, j in combinations(stage.strands(), 2):
            if i not in movers and j not in movers:
                continue
            dx = funcs[i][0] - funcs[j][0]
            dy = funcs[i][1] - funcs[j][1]
            out.append((half, i, j, _numerator(dx * dx + dy * dy)))
    return out


# -- the label rules in sympy --------------------------------------------------
#
# The product carries the labels of both rules in separated form, a vector
# and a polynomial per edge, updated by its own exact division; these write
# each rule directly on whole labels in sympy's polynomial arithmetic, to
# check it.  A product label n/d agrees with an oracle label p/q iff n*q == p*d.


def _norm(edge):
    return tuple(sorted(edge))


class SympyState(NamedTuple):
    """A complex with one sympy label per edge: a ``(numerator,
    denominator)`` pair in ``ring(seed variables, ZZ)`` for Ptolemy, an
    element of ``field(seed variables, ZZ)`` for shear."""

    complex: object
    labels: dict

    def label(self, edge):
        return self.labels[_norm(edge)]

    def flipped(self, quad, changes):
        """The flip of ``quad``'s diagonal, with the labels in ``changes``."""
        u, _, w, _ = quad
        labels = dict(self.labels)
        del labels[_norm((u, w))]
        labels.update((_norm(edge), value) for edge, value in changes.items())
        return SympyState(self.complex.flip((u, w), quad), labels)


def sympy_state(state, system):
    """The labels of a product state of either rule in sympy, over the
    variables they use."""
    names = sorted({v for f in state.labels.values() for v in (*f.num.vars, *f.den.vars)})
    symbols = [sp.Symbol(name) for name in names]
    if system is LabelSystem.PTOLEMY:
        R = ring(symbols, ZZ)[0]
        labels = {e: (_in_ring(R, f.num), _in_ring(R, f.den)) for e, f in state.labels.items()}
    else:
        K = field(symbols, ZZ)[0]
        labels = {
            e: K.new(_in_ring(K.ring, f.num), _in_ring(K.ring, f.den))
            for e, f in state.labels.items()
        }
    return SympyState(state.complex, labels)


def sympy_ptolemy_flip(state, quad):
    """Ptolemy flip: the new diagonal (v, z) gets (a*c + b*d)/x, where x is
    the old diagonal's label.  Labels are Laurent polynomials, so the old
    diagonal's numerator with its monomial part (content and least
    exponents) taken out divides the numerator of a*c + b*d; ``exquo``
    raises if it does not."""
    u, v, w, z = quad
    (xn, xd), (an, ad), (bn, bd), (cn, cd), (dn, dd) = (
        state.label(e) for e in ((u, w), (u, v), (v, w), (w, z), (z, u))
    )
    m = xn.ring.from_dict({xn.tail_degrees(): xn.content()})
    num = (an * cn * bd * dd + bn * dn * ad * cd).exquo(xn.exquo(m)) * xd
    return state.flipped(quad, {(v, z): (num, ad * bd * cd * dd * m)})


def sympy_shear_flip(state, quad, mirrored=False):
    """Shear flip: the new diagonal gets 1/e, the sides (u,v), (w,z) are
    scaled by 1+e and (v,w), (z,u) by e/(1+e), where e is the old
    diagonal's label (the pairs swapped when ``mirrored``)."""
    u, v, w, z = quad
    e = state.label((u, w))
    grow = 1 + e
    shrink = e / grow
    if mirrored:
        grow, shrink = shrink, grow
    changes = {(v, z): 1 / e}
    for edge, scale in (((u, v), grow), ((w, z), grow), ((v, w), shrink), ((z, u), shrink)):
        changes[edge] = state.label(edge) * scale
    return state.flipped(quad, changes)


def labels_match(ours, theirs):
    """Whether product labels (``RationalFunction``s) and sympy labels,
    keyed alike, are equal, by cross-multiplication."""
    if set(ours) != set(theirs):
        return False
    for edge, f in ours.items():
        value = theirs[edge]
        p, q = value if isinstance(value, tuple) else (value.numer, value.denom)
        if _in_ring(p.ring, f.num) * q != p * _in_ring(p.ring, f.den):
            return False
    return True


def sympy_entries(word, cfg, system):
    """T(word) by the sympy rule of ``system``: the certified events of the
    unperturbed motion replayed from the seed variables, re-keyed to slot
    edges as ``run_invariant`` does."""
    tri0, _ = initial_triangulation(cfg)
    motion, perm = compile_motion(word, cfg)
    state = sympy_state(LabelState.seed(augment(tri0)), system)
    flip = sympy_ptolemy_flip if system is LabelSystem.PTOLEMY else sympy_shear_flip
    for event in detect_flips(motion, tri0):
        state = flip(state, event.quad)
    return {
        _norm((perm[p], perm[q])): value
        for (p, q), value in state.labels.items()
        if FAR_VERTEX not in (p, q)
    }


# -- the flip rules on numbers -----------------------------------------------


def shadow_entries(word, cfg, system, point):
    """T(word) at ``point``, a mapping from each seed variable's name to a
    positive integer: the flip rule of ``system`` run on ``Fraction``s along
    the certified events of the unperturbed motion, re-keyed to slot edges
    as ``run_invariant`` does.  Both rules are subtraction-free, so a
    positive point never meets a division by 0."""
    tri0, _ = initial_triangulation(cfg)
    motion, perm = compile_motion(word, cfg)
    values = {e: Fraction(point[edge_var_name(*e)]) for e in augment(tri0).edges()}
    for event in detect_flips(motion, tri0):
        u, v, w, z = event.quad
        a, b, c, d = (_norm(e) for e in ((u, v), (v, w), (w, z), (z, u)))
        x = values.pop(_norm((u, w)))
        if system is LabelSystem.PTOLEMY:
            values[_norm((v, z))] = (values[a] * values[c] + values[b] * values[d]) / x
        else:
            values[a] *= 1 + x
            values[c] *= 1 + x
            values[b] *= x / (1 + x)
            values[d] *= x / (1 + x)
            values[_norm((v, z))] = 1 / x
    return {
        _norm((perm[p], perm[q])): value
        for (p, q), value in values.items()
        if FAR_VERTEX not in (p, q)
    }


def exchange_column(complex_, j):
    """``{i: b_ij}`` on ``complex_``: +1 for each triangle of edge j in which
    side i follows j counterclockwise, -1 for each in which it precedes j."""
    column = {}
    for a, b, c in complex_.edge_triangles(j):
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            if {p, q} == set(j):
                after, before = _norm((q, r)), _norm((r, p))
                column[after] = column.get(after, 0) + 1
                column[before] = column.get(before, 0) - 1
    return column


def ensemble_image(values, complex_, j):
    """The shear coordinate of edge j under p: A -> X, prod_i x_i^{b_ij}."""
    return math.prod(values[i] ** b for i, b in exchange_column(complex_, j).items())


def evaluate(f, point):
    """A ``Polynomial`` at ``point``, read off its terms."""
    return sum(
        coeff * math.prod(point[name] ** e for name, e in zip(f.vars, exps))
        for exps, coeff in f.terms.items()
    )


# -- the Artin action of braids on the free group ------------------------------


def free_reduce(word):
    """A word of F_n, nonzero ints with -k for the inverse of x_k, with
    every adjacent pair g g^-1 cancelled."""
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def artin_images(letters, n):
    """The images of x_1, ..., x_n under the Artin action of the braid word
    ``letters`` ((index, sign) pairs), freely reduced.  sigma_i sends x_i
    to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i; sigma_i^-1 sends x_i to
    x_{i+1} and x_{i+1} to x_{i+1}^-1 x_i x_{i+1}; other generators are
    fixed.  The letters act in turn, each substituted into the images so
    far.  The action is faithful (Artin 1925), so two words are the same
    braid exactly when their images agree."""
    images = tuple((k,) for k in range(1, n + 1))
    for i, sign in letters:
        step = {k: (k,) for k in range(1, n + 1)}
        if sign == 1:
            step[i], step[i + 1] = (i, i + 1, -i), (i,)
        else:
            step[i], step[i + 1] = (i + 1,), (-(i + 1), i, i + 1)
        step.update({-k: tuple(-g for g in reversed(w)) for k, w in step.items()})
        images = tuple(free_reduce([h for g in image for h in step[g]]) for image in images)
    return images
