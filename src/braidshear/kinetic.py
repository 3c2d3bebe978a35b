"""Kinetic maintenance of the Delaunay complex of moving points.

Strand trajectories are piecewise rational (stationary, or elliptical
half-turn arcs parametrized so positions are exact rationals at rational
times).  Positions have one source, each stage's integer numerators
below, which ``positions_at`` and ``augmented_at`` evaluate at t = p/q.
The tracked structure is the hull-closure complex: the planar Delaunay
triangulation together with one extra vertex (id 0, "the far vertex")
joined to every hull edge.  On that closed complex every generic
transition, a cocircularity of four strands or a collinearity of three
hull strands, is a single edge flip, so a braid's whole history is a
certified, ordered flip sequence.

The event polynomials live in Z[t], t the stage-local time, one per
half-stage: with every position of a half-stage written over the common
denominator D * W(t) (W = 1 + 4t^2 on the first half, 1 - 2t + 2t^2 on the
second, both without real roots), each orient (far vertex plus three
strands), incircle (four strands) and squared-distance (collision)
determinant is an integer polynomial numerator.  Its factors W are divided
out exactly and the primitive part is kept, so no rational arithmetic
enters their construction.  A stage builds its numerators, and its
common denominator D, once.  The orient and incircle polynomials come
from one Laplace expansion along the moving strands' rows: integer minors
of the stationary strands, shared by both halves, weight polynomial
minors of the movers, built once per half (see ``_stage_event_polys``).
On a circular arc W divides X^2 + Y^2, so a mover's incircle row is
divided by W once, and its minors are built from entries of degree 2.
A collision is excluded by one integer resultant per strand pair.

Every real root of every event polynomial in a stage is isolated in a
bracket (a wall), and one ordered pass refines the brackets until
pairwise disjoint, so each holds exactly one event time; event times
closer than ``SEPARATION_FLOOR`` are a degeneracy.  Nearly every event
polynomial is a quadratic with irrational roots, whose brackets come in
closed form (``roots.irrational_quadratic_cells``, the brackets isolation
and refinement give): such a root is no stage boundary and is simple, so
its certificate changes sign across any bracket that holds it.

A wall is decided by the polynomials whose root it holds, its
certificates, as in a kinetic data structure: no other orient or incircle
sign changes across the bracket, so the complex changes there exactly by
the flips of the edges whose quads are the 4-subsets of the certificates
that change sign (a root of even multiplicity is a touch, not a crossing;
the sign changes are found once, when the stage's walls are built).  A
wall may hold several certificates: polynomials with exactly equal roots
merge into one wall, whose flips are simultaneous, and the exact t = 1/2
wall, where the two half-stages meet, reads each half's polynomial on its
own side.  A flip whose new diagonal is already an edge, or that of
another flip of the wall, is skipped: on a generic motion that happens
only when every strand is collinear (at each event of the n = 3
tetrahedron), and the transition merely reverses orientation.
``delaunay()`` runs only at the start, to check the initial complex, and
at stage ends, to check the replayed one.  A stage end that does not
match after a wall with several certificates is a nongeneric motion (a
``DegeneracyError``, retried at another bulge); after single-certificate
walls only it is an internal error.

A stage's walls (event polynomials, separated brackets, certificates)
depend only on its set of trajectories, so each distinct stage's walls are
built once per ``detect_flips`` call, or once per memo a caller shares
between calls (``equal`` shares one between its two words).  A repeat
(a repeated braid letter) reads them through a strand map, which renames
each crossing subset's strands by the trajectory they follow, and then
every wall is decided on the current complex as for a first occurrence,
the stage-end check included.

Two detector backends share one contract: ``sturm`` is the certified
detector above (complete); ``bisect`` samples a grid and bisects intervals
whose complexes differ (the simpler strategy, sound on well-separated
events).  Select via the ``detector`` argument of ``detect_flips``; the
product runs ``sturm``.
"""

from __future__ import annotations

from bisect import insort_left, insort_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from operator import attrgetter, mul
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from braidshear import roots
from braidshear.algebra import format_rational
from braidshear.geometry import (
    DegenerateInputError,
    EdgeComplex,
    Point,
    delaunay,
)

FAR_VERTEX = 0

DEFAULT_MIN_BRACKET = Fraction(1, 2 ** 20)
# Event times closer than this are inseparable; it lies far below 2**-622, the
# least width 200 fixes reach (each keeps over an eighth of the narrower bracket).
SEPARATION_FLOOR = DEFAULT_MIN_BRACKET / 2 ** 1000
DEFAULT_GRID = 64


class KineticError(Exception):
    """Base class for kinetic failures."""


class DegeneracyError(KineticError):
    """The motion is not generic (inseparable or boundary events)."""


class CollisionError(KineticError):
    """Two strands' distance reaches zero."""


@dataclass(frozen=True)
class Stationary:
    point: Point

    def endpoint(self) -> Point:
        return self.point


@dataclass(frozen=True)
class Arc:
    """Half-turn arc about ``center`` starting at ``start``.

    ``direction`` +1 turns counterclockwise.  ``scale`` stretches the
    component perpendicular to the starting radius (an ellipse arc), so
    both endpoints stay exact whatever the scale.  Time runs through two
    quarter turns, each under the tangent-half-angle map (the numerators
    ``_HALF_COS_SIN``), keeping every rational time at a rational position.
    """

    center: Point
    start: Point
    direction: int
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise KineticError(f"arc direction must be +1 or -1, got {self.direction}")
        if self.scale <= 0:
            raise KineticError("arc scale must be positive")
        if self.center == self.start:
            raise KineticError("arc start must differ from its center")

    def endpoint(self) -> Point:
        return Point(2 * self.center.x - self.start.x, 2 * self.center.y - self.start.y)


Trajectory = Union[Stationary, Arc]


@dataclass(frozen=True)
class Stage:
    trajectories: Mapping[int, Trajectory]

    def __post_init__(self):
        object.__setattr__(self, "trajectories", dict(self.trajectories))

    def strands(self) -> Tuple[int, ...]:
        return tuple(sorted(self.trajectories))

    def movers(self) -> Tuple[int, ...]:
        return tuple(s for s in self.strands() if isinstance(self.trajectories[s], Arc))

    @cached_property
    def denominator(self) -> int:
        """D: the lcm of the stage's coordinate denominators times that of
        its arc scales, so that every position numerator is an integer."""
        trajs = self.trajectories.values()
        arcs = [t for t in trajs if isinstance(t, Arc)]
        points = [t.point for t in trajs if isinstance(t, Stationary)]
        points += [p for a in arcs for p in (a.center, a.start)]
        coords = lcm(*(c.denominator for p in points for c in p))
        return coords * lcm(*(a.scale.denominator for a in arcs))

    @cached_property
    def numerators(self) -> Tuple[Dict[int, Tuple[List[int], List[int]]], ...]:
        """``_homogeneous_positions`` of both half-stages, built once."""
        return (_homogeneous_positions(self, 0), _homogeneous_positions(self, 1))


@dataclass(frozen=True)
class Motion:
    n: int
    stages: Tuple[Stage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        expected = set(range(1, self.n + 1))
        for idx, stage in enumerate(self.stages):
            if set(stage.trajectories) != expected:
                raise KineticError(f"stage {idx} must cover strands 1..{self.n}")
        for idx in range(len(self.stages) - 1):
            ends = {s: self.stages[idx].trajectories[s].endpoint() for s in expected}
            starts = {s: _start_of(self.stages[idx + 1].trajectories[s]) for s in expected}
            if ends != starts:
                raise KineticError(f"discontinuity between stages {idx} and {idx + 1}")
        for idx, stage in enumerate(self.stages):
            pts = [_start_of(stage.trajectories[s]) for s in sorted(expected)]
            if len(set(pts)) != len(pts):
                raise KineticError(f"coincident strands at start of stage {idx}")
            pts = [stage.trajectories[s].endpoint() for s in sorted(expected)]
            if len(set(pts)) != len(pts):
                raise KineticError(f"coincident strands at end of stage {idx}")


def _start_of(traj: Trajectory) -> Point:
    return traj.point if isinstance(traj, Stationary) else traj.start


def _lattice_points(
    motion: Motion, stage: int, t: Fraction
) -> Tuple[List[Tuple[int, Point]], int]:
    """The positions at stage-local time t as integer points over one
    positive denominator.

    At t = p/q every strand of a half-stage sits at (X_h(p, q), Y_h(p, q))
    / (D W_h(p, q)), with X_h, Y_h, W_h the half's numerators made
    homogeneous of degree 2, so every predicate sign is that of the
    integer points.
    """
    if not 0 <= stage < len(motion.stages):
        raise KineticError(f"stage {stage} out of range")
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise KineticError(f"time {t} outside [0, 1]")
    half = 0 if t <= _HALVES[0][1] else 1  # the halves agree where they meet
    p, q = t.numerator, t.denominator
    st = motion.stages[stage]
    # every numerator has three coefficients, so each value is q^2 f(p/q)
    points = [
        (s, Point(roots.value_at(xs, p, q), roots.value_at(ys, p, q)))
        for s, (xs, ys) in sorted(st.numerators[half].items())
    ]
    return points, st.denominator * roots.value_at(_HALF_COS_SIN[half][0], p, q)


def positions_at(motion: Motion, stage: int, t: Fraction) -> Dict[int, Point]:
    """Exact positions of every strand at stage-local time t in [0, 1]."""
    points, den = _lattice_points(motion, stage, t)
    return {s: Point(Fraction(x, den), Fraction(y, den)) for s, (x, y) in points}


class FlipEvent(NamedTuple):
    stage: int
    t_lo: Fraction
    t_hi: Fraction
    edge: Tuple[int, int]
    quad: Tuple[int, int, int, int]


def augment(complex_: EdgeComplex) -> EdgeComplex:
    """Close a Delaunay complex with the far vertex: one extra triangle
    (b, a, far) per hull edge, a directed edge (a, b) without a twin, so
    oriented coherently with the finite ones.  A boundary that is not one
    cycle repeats a directed edge to the far vertex, which ``EdgeComplex``
    rejects."""
    triangles = complex_.triangles  # read from the apex map on each access
    darts = {e for a, b, c in triangles for e in ((a, b), (b, c), (c, a))}
    far = [(b, a, FAR_VERTEX) for a, b in darts if (b, a) not in darts]
    return EdgeComplex([*triangles, *far])


def augmented_at(motion: Motion, stage: int, t: Fraction) -> EdgeComplex:
    """Hull-closure complex of the positions at stage-local time t, built
    on their integer numerators (see ``_lattice_points``)."""
    return augment(delaunay(_lattice_points(motion, stage, t)[0]))


# -- event polynomials over Z[t] (sturm backend) ---------------------------
#
# On half-stage h every strand sits at (X(t), Y(t)) / (D * W) with D the
# stage's common denominator and W, X, Y integer polynomials of degree <= 2
# in stage time t (the tangent-half-angle u = 2t - h substituted once, in
# the constants below).  Polynomials are dense int lists, ascending degree.
#
# A subset's event polynomial is the determinant of its rows in subset
# order: (X, Y, 1) for the orient determinant of the three strands beside
# the far vertex, (X, Y, X^2 + Y^2, 1) for the incircle determinant of four
# strands.  Scaling the columns by (1, 1, W), or (W, W, 1, W^2), turns a
# stationary row into a power of W times the integer row (x, y, 1), or
# (x, y, x^2 + y^2, 1), and a mover's row into (X, Y, W), or (W X, W Y,
# X^2 + Y^2, W^2), or that row divided by W, (X, Y, (X^2 + Y^2) / W, W),
# when W divides X^2 + Y^2, as on a circular arc.  Laplace expansion along
# the mover rows R then gives the determinant, up to a power of W, as the
# sum over column sets C with |C| = |R| of (-1)^(sum R + sum C)
# det(integer rows, columns not in C) det(mover rows, columns C): integer
# weights, which depend only on the subset and serve both halves, times
# the mover minors, built once per half.  The powers of W go when W is
# divided out.

# (W, cos, sin) numerators in t on each half of a half-turn: (1 + u^2,
# 1 - u^2, 2u) at u = 2t, then (1 + u^2, -2u, 1 - u^2) / 2 at u = 2t - 1,
# so that each W is primitive
_HALF_COS_SIN = (
    ([1, 0, 4], [1, 0, -4], [0, 4]),
    ([1, -2, 2], [1, -2], [0, 2, -2]),
)
_HALVES = ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))


def _padd(a: List[int], b: List[int]) -> List[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] += c
    return out


def _psub(a: List[int], b: List[int]) -> List[int]:
    return _padd(a, [-c for c in b])


def _pmul(a: List[int], b: List[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pscale(a: List[int], k: int) -> List[int]:
    return [k * c for c in a]


def _strip_w(a: List[int], half: int) -> List[int]:
    """Primitive part of ``a`` with every factor W of the half divided out;
    the result has the real roots of ``a`` (``[]`` for the zero
    polynomial)."""
    a = roots.normalize(a)
    _, w1, w2 = _HALF_COS_SIN[half][0]
    while len(a) >= 3:
        # a / W as a power series from the constant term up (W = 1 + w1 t +
        # w2 t^2); W divides a when the two terms past the quotient vanish
        q = [0, 0]
        for c in a:
            q.append(c - w1 * q[-1] - w2 * q[-2])
        if q[-1] or q[-2]:
            break
        a = q[2:-2]
    return a


def _homogeneous_positions(stage: Stage, half: int) -> Dict[int, Tuple[List[int], List[int]]]:
    """Integer numerators (X, Y) in t of every strand's position over
    D * W on the half-stage."""
    w, cos, sin = _HALF_COS_SIN[half]
    den = stage.denominator

    def scaled(c) -> int:
        return c.numerator * (den // c.denominator)

    out = {}
    for strand in stage.strands():
        traj = stage.trajectories[strand]
        if isinstance(traj, Stationary):
            xs, ys = _pscale(w, scaled(traj.point.x)), _pscale(w, scaled(traj.point.y))
        else:
            cx, cy = scaled(traj.center.x), scaled(traj.center.y)
            rx, ry = scaled(traj.start.x) - cx, scaled(traj.start.y) - cy
            # direction * scale * (rx, ry); exact, as every scale's denominator
            # divides D and so rx and ry
            k = traj.direction * traj.scale.numerator
            sx, sy = k * rx // traj.scale.denominator, k * ry // traj.scale.denominator
            xs = _padd(_padd(_pscale(w, cx), _pscale(cos, rx)), _pscale(sin, -sy))
            ys = _padd(_padd(_pscale(w, cy), _pscale(cos, ry)), _pscale(sin, sx))
        out[strand] = (xs, ys)
    return out


@lru_cache(maxsize=4096)
def _weights(rows: Tuple[Tuple[int, ...], ...], width: int) -> Tuple[int, ...]:
    """(-1)^(sum C) det(rows, columns not in C) for every column set C of
    the mover rows that complete ``rows`` to a square matrix: the
    ``_minors`` of the integer rows, as polynomials of degree 0, each read
    at the complement of C (the empty determinant 1 without rows); cached,
    as stages of one motion share their stationary points."""
    minors = _minors([[[c] for c in r] for r in rows]) if rows else {(): [1]}
    out = []
    for cols in combinations(range(width), width - len(rows)):
        (k,) = minors[tuple(i for i in range(width) if i not in cols)]
        out.append(-k if sum(cols) % 2 else k)
    return tuple(out)


def _minors(rows: Sequence[Sequence[List[int]]]) -> Dict[Tuple[int, ...], List[int]]:
    """The determinants of ``rows`` (k rows of polynomials) on every k-set
    of columns, in ``combinations`` order, by expansion along the first
    row."""
    if len(rows) == 1:
        return {(c,): entry for c, entry in enumerate(rows[0])}
    rest = _minors(rows[1:])
    out = {}
    for cols in combinations(range(len(rows[0])), len(rows)):
        acc: List[int] = []
        for j, c in enumerate(cols):
            term = _pmul(rows[0][c], rest[cols[:j] + cols[j + 1:]])
            acc = _psub(acc, term) if j % 2 else _padd(acc, term)
        out[cols] = acc
    return out


def _stage_event_polys(
    motion: Motion, stage_idx: int
) -> List[Tuple[List[int], Fraction, Fraction, Tuple[int, ...]]]:
    """Event polynomials in stage-local time with their domains and
    4-subsets, as ``(coeffs, lo, hi, subset)``.

    One polynomial per 4-subset of {far} + strands (with at least one
    moving finite member) and per half-stage; roots are the candidate
    event times, and the sign is that of the subset's orient or incircle
    determinant.  Each is a combination of the half's mover minors (see
    above).
    """
    stage = motion.stages[stage_idx]
    movers = set(stage.movers())
    if not movers:
        return []
    # the integer rows of the stationary strands, keyed (far subset, strand):
    # their numerators are W x and W y, and W(0) = 1
    fixed = {}
    for s, (xs, ys) in stage.numerators[0].items():
        if s not in movers:
            x, y = xs[0], ys[0]
            fixed[True, s], fixed[False, s] = (x, y, 1), (x, y, x * x + y * y, 1)
    # per subset: whether it holds the far vertex, its movers, the weights
    plan = []
    for subset in combinations([FAR_VERTEX, *stage.strands()], 4):
        far = subset[0] == FAR_VERTEX
        strands = subset[1:] if far else subset
        moving = tuple(s for s in strands if s in movers)
        if not moving:
            continue
        rest = tuple(fixed[far, s] for s in strands if s not in movers)
        weights = _weights(rest, 3 if far else 4)
        if sum(i for i, s in enumerate(strands) if s in movers) % 2:
            weights = tuple(-k for k in weights)
        plan.append((subset, far, moving, weights))
    polys = []
    for half, (d_lo, d_hi) in enumerate(_HALVES):
        w = _HALF_COS_SIN[half][0]
        w2 = _pmul(w, w)
        rows = {}  # the movers' rows, keyed like ``fixed``
        for s in movers:
            xs, ys = stage.numerators[half][s]
            z = _padd(_pmul(xs, xs), _pmul(ys, ys))
            rows[True, s] = (xs, ys, w)
            # on a circular arc W divides X^2 + Y^2: the row over W has
            # entries of degree 2, not 4
            zw = roots.exact_quotient(z, w)
            rows[False, s] = (_pmul(w, xs), _pmul(w, ys), z, w2) if zw is None else (xs, ys, zw, w)
        # (far, movers) -> the coefficients of their minors, one tuple per
        # degree, column sets in the order of the weights
        columns: Dict[Tuple[bool, Tuple[int, ...]], list] = {}
        for subset, far, moving, weights in plan:
            cols = columns.get((far, moving))
            if cols is None:
                minors = _minors([rows[far, s] for s in moving])
                cols = columns[far, moving] = list(zip(*minors.values()))
            coeffs = _strip_w([sum(map(mul, weights, col)) for col in cols], half)
            if not coeffs:
                raise DegeneracyError(
                    f"stage {stage_idx}: subset {subset} degenerate throughout"
                )
            if len(coeffs) == 1:
                continue  # constant sign, no events
            polys.append((coeffs, d_lo, d_hi, subset))
    return polys


def _collision_polys(
    motion: Motion, stage_idx: int
) -> List[Tuple[int, int, int, List[int], List[int]]]:
    """Coordinate differences in t, ``(half, i, j, dx, dy)`` per half-stage
    and strand pair with a moving member (numerators over D * W)."""
    stage = motion.stages[stage_idx]
    movers = set(stage.movers())
    out = []
    if not movers:
        return out
    for half in (0, 1):
        pos = stage.numerators[half]
        for i, j in combinations(stage.strands(), 2):
            if i not in movers and j not in movers:
                continue
            out.append((half, i, j, _psub(pos[i][0], pos[j][0]), _psub(pos[i][1], pos[j][1])))
    return out


def _check_collisions(motion: Motion, stage_idx: int) -> None:
    # the squared distance dx^2 + dy^2 vanishes exactly where dx and dy do
    for half, i, j, dx, dy in _collision_polys(motion, stage_idx):
        if not any(dx) and not any(dy):
            raise CollisionError(f"strands {i} and {j} coincide throughout stage {stage_idx}")
        # dx and dy have degree <= 2; a nonzero resultant of that formal
        # degree means they share no root at all
        (a0, a1, a2), (b0, b1, b2) = (list(p) + [0] * (3 - len(p)) for p in (dx, dy))
        if (a2 * b0 - a0 * b2) ** 2 != (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1):
            continue
        if roots.has_common_root_in(dx, dy, *_HALVES[half]):
            raise CollisionError(f"strands {i} and {j} collide during stage {stage_idx}")


class _Wall:
    """A bracketed event time: an isolating interval of one event
    polynomial, or an exact rational time.

    ``certs`` holds one certificate ``(subset, p_lo, p_hi)`` per event
    polynomial whose root the wall holds: its 4-subset and the signed
    polynomial, not made squarefree, read at ``lo`` (``p_lo``) and at
    ``hi`` (``p_hi``).  The two differ only at the exact t = 1/2 wall,
    where they are the subset's polynomials on the first and second half.
    ``crossing``, set once the brackets are final, holds the subsets whose
    certificate changes sign across the bracket.
    """

    __slots__ = ("poly", "lo", "hi", "exact", "certs", "crossing")

    def __init__(self, poly, lo, hi, exact=None, certs=(), crossing=()):
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self.exact = exact
        self.certs = list(certs)
        self.crossing = crossing

    def shrink(self, width: Fraction) -> None:
        if self.exact is not None:
            self.lo, self.hi = self.exact - width / 2, self.exact + width / 2
        else:
            refined = roots.refine_root(self.poly, roots.IsolatedRoot(self.lo, self.hi), width)
            self.lo, self.hi = refined.lo, refined.hi

    def contains_root_of(self, other: "_Wall") -> bool:
        """True if the walls' event times are equal (exact check; one at most is exact)."""
        if self.exact is not None:
            return roots.evaluate(other.poly, self.exact) == 0
        if other.exact is not None:
            return roots.evaluate(self.poly, other.exact) == 0
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo >= hi:
            return False
        return roots.has_common_root_in(self.poly, other.poly, lo, hi)


def _stage_walls(motion: Motion, stage_idx: int) -> List[_Wall]:
    walls: List[_Wall] = []
    half_mark = _HALVES[0][1]
    # subset -> its polynomials with a root at t = 1/2, first half first
    mid: Dict[Tuple[int, ...], List[List[int]]] = {}
    for poly, d_lo, d_hi, subset in _stage_event_polys(motion, stage_idx):
        cells = roots.irrational_quadratic_cells(poly, d_lo, d_hi, DEFAULT_MIN_BRACKET)
        if cells is not None:
            # simple irrational roots: none is a stage boundary, each
            # bracket is final and the certificate changes sign across it
            certs = [(subset, poly, poly)]
            walls += (_Wall(poly, lo, hi, certs=certs, crossing=(subset,)) for lo, hi in cells)
            continue
        # primitive already, and not made squarefree: isolate_roots counts
        # distinct roots anyway
        work = poly
        for boundary in (d_lo, d_hi):
            while len(work) >= 2 and roots.is_root(work, boundary):
                if boundary != half_mark:
                    raise DegeneracyError(
                        f"stage {stage_idx}: event exactly at a stage boundary"
                    )
                work = roots.deflate_at(work, boundary)
        if work is not poly:  # deflated at t = 1/2
            mid.setdefault(subset, []).append(poly)
        if len(work) >= 2:
            for iso in roots.isolate_roots(work, d_lo, d_hi):
                lo, hi = roots.refine_root(work, iso, DEFAULT_MIN_BRACKET)
                walls.append(_Wall(work, lo, hi, certs=[(subset, poly, poly)]))
    if mid:
        # both halves reach the positions at t = 1/2, so a subset's
        # polynomial vanishes there on both or on neither
        certs = [(subset, p_lo, p_hi) for subset, (p_lo, p_hi) in mid.items()]
        walls.append(_Wall(None, half_mark, half_mark, exact=half_mark, certs=certs))
        walls[-1].shrink(DEFAULT_MIN_BRACKET)
    walls = _separate_walls(walls, DEFAULT_MIN_BRACKET)
    for wall in walls:
        if wall.crossing:  # a closed-form wall that kept its one certificate
            continue
        lo, hi = wall.lo, wall.hi
        # a root of even multiplicity is a touch: no sign change, no flip
        wall.crossing = tuple(
            subset
            for subset, p_lo, p_hi in wall.certs
            if (roots.value_at(p_lo, lo.numerator, lo.denominator) > 0)
            != (roots.value_at(p_hi, hi.numerator, hi.denominator) > 0)
        )
    return walls


def _separate_walls(walls: List[_Wall], w_min: Fraction) -> List[_Wall]:
    """Refine brackets until pairwise disjoint, merging exactly equal
    event times (they remain one bracket holding several flips).  One pass
    over the walls sorted by (lo, hi) fixes the first overlapping pair and
    resumes at it, the walls before it untouched: a fix narrows the pair
    (put back ahead of its ties) or merges it inside its union (after)."""
    # (lo, hi) as integers over one denominator sort much faster than
    # as Fractions, in the same order
    den = lcm(*(x.denominator for w in walls for x in (w.lo, w.hi)))
    walls.sort(
        key=lambda w: (
            w.lo.numerator * (den // w.lo.denominator),
            w.hi.numerator * (den // w.hi.denominator),
        )
    )
    ends, i = attrgetter("lo", "hi"), 0
    while i + 1 < len(walls):
        a, b = walls[i], walls[i + 1]
        if a.hi <= b.lo:
            i += 1
            continue
        del walls[i : i + 2]
        wa, wb = a.hi - a.lo, b.hi - b.lo
        if a.contains_root_of(b):
            certs = a.certs + b.certs
            merged = _Wall(a.poly, min(a.lo, b.lo), max(a.hi, b.hi), a.exact or b.exact, certs)
            if merged.exact is None:
                g = roots.gcd(a.poly, b.poly)
                (iso,) = roots.isolate_roots(g, merged.lo, merged.hi)
                merged = _Wall(g, iso.lo, iso.hi, certs=certs)
                merged.shrink(min(w_min, wa, wb))
            insort_right(walls, merged, i, key=ends)
        else:
            target = min(wa, wb) / 4
            if target < SEPARATION_FLOOR:
                raise DegeneracyError("event times failed to separate")
            a.shrink(target)
            b.shrink(target)
            insort_left(walls, b, i, key=ends)
            insort_left(walls, a, i, key=ends)
    return walls


# -- transition classification (shared by both backends) ------------------

_Flip = Tuple[Tuple[int, int], Tuple[int, int, int, int]]


def _check_disjoint(flips: List[_Flip], stage_idx: int) -> None:
    """Simultaneous flips, sorted by edge, must not share a triangle."""
    tris = {edge: {frozenset(q[:3]), frozenset((q[0], q[2], q[3]))} for edge, q in flips}
    for e1, e2 in combinations(tris, 2):
        if tris[e1] & tris[e2]:
            raise DegeneracyError(
                f"stage {stage_idx}: simultaneous events at {e1} and {e2} share a triangle"
            )


def _apply_transition(
    current: EdgeComplex,
    fresh_lo: EdgeComplex,
    fresh_hi: EdgeComplex,
    stage_idx: int,
    t_lo: Fraction,
    t_hi: Fraction,
    events: List[FlipEvent],
) -> EdgeComplex:
    if not current.same_triangles(fresh_lo):
        raise KineticError(
            f"stage {stage_idx}: complex at {t_lo} does not match the replayed one "
            "(an event was missed)"
        )
    if fresh_lo.same_triangles(fresh_hi):
        return current
    removed = sorted(current.edges() - fresh_hi.edges())
    added = sorted(fresh_hi.edges() - current.edges())
    if len(removed) != len(added) or not removed:
        raise KineticError(f"stage {stage_idx}: unbalanced transition {removed} -> {added}")
    flips = [(edge, fresh_lo.quad_around(edge)) for edge in removed]
    for edge, quad in flips:
        if current.quad_around(edge) != quad:
            raise KineticError(f"stage {stage_idx}: replayed orientation diverged at {edge}")
    _check_disjoint(flips, stage_idx)
    result = current
    for edge, quad in flips:
        result = result.flip(edge, quad)
        events.append(FlipEvent(stage_idx, t_lo, t_hi, edge, quad))
    if not result.same_triangles(fresh_hi):
        raise KineticError(f"stage {stage_idx}: transition is not a flip set")
    return result


def _generic_complex_near(
    motion: Motion, stage_idx: int, t: Fraction, lo: Fraction, hi: Fraction
) -> Tuple[Fraction, EdgeComplex]:
    """Complex at t, nudging the sample inside (lo, hi) off degeneracies."""
    span = hi - lo
    for k in range(8):
        for sign in (1, -1):
            cand = t + sign * k * span / 64
            if not lo < cand < hi:
                continue
            try:
                return cand, augmented_at(motion, stage_idx, cand)
            except DegenerateInputError:
                continue
    raise DegeneracyError(f"stage {stage_idx}: no generic sample near {t}")


def _certified_flips(
    current: EdgeComplex, crossing: Sequence[Tuple[int, ...]], stage_idx: int
) -> List[_Flip]:
    """The ``(edge, quad)`` flips a wall makes on ``current``, sorted by
    edge and decided by its ``crossing`` subsets alone (see the module
    docstring).

    Only the certificates' polynomials have a root in the bracket, so no
    other orient or incircle sign, and no other edge's legality, changes
    across it.
    """
    flips = []
    for subset in crossing:
        members = set(subset)
        for u, w in combinations(subset, 2):
            quad = (u, current.apex(w, u), w, current.apex(u, w))
            if set(quad) == members:
                # not simplicial when the new diagonal is an edge already
                if not current.has_edge(quad[1::2]):
                    flips.append(((u, w), quad))
                break
    if len(flips) > 1:
        # nor when two flips add the same diagonal; on a generic motion
        # either happens only when every strand is collinear (as at each
        # event of the n = 3 tetrahedron): the triangles merely reverse
        # orientation
        new = [frozenset(quad[1::2]) for _, quad in flips]
        flips = sorted(flip for flip, diagonal in zip(flips, new) if new.count(diagonal) == 1)
        _check_disjoint(flips, stage_idx)
    return flips


def _detect_stage_bisect(
    motion: Motion, stage_idx: int, current: EdgeComplex, events: List[FlipEvent]
) -> EdgeComplex:
    _check_collisions(motion, stage_idx)
    if not motion.stages[stage_idx].movers():
        return current
    samples: List[Tuple[Fraction, EdgeComplex]] = []
    for j in range(DEFAULT_GRID + 1):
        t = Fraction(j, DEFAULT_GRID)
        lo = Fraction(max(0, 2 * j - 1), 2 * DEFAULT_GRID)
        hi = Fraction(min(2 * DEFAULT_GRID, 2 * j + 1), 2 * DEFAULT_GRID)
        if j == 0 or j == DEFAULT_GRID:
            samples.append((t, augmented_at(motion, stage_idx, t)))
        else:
            samples.append(_generic_complex_near(motion, stage_idx, t, lo, hi))

    def bisect(t_a, c_a, t_b, c_b, current):
        if c_a.same_triangles(c_b):
            return current
        if t_b - t_a < DEFAULT_MIN_BRACKET:
            return _apply_transition(current, c_a, c_b, stage_idx, t_a, t_b, events)
        t_m, c_m = _generic_complex_near(
            motion, stage_idx, (t_a + t_b) / 2, t_a, t_b
        )
        current = bisect(t_a, c_a, t_m, c_m, current)
        return bisect(t_m, c_m, t_b, c_b, current)

    for (t_a, c_a), (t_b, c_b) in zip(samples, samples[1:]):
        current = bisect(t_a, c_a, t_b, c_b, current)
    return current


def detect_flips(
    motion: Motion,
    initial: EdgeComplex,
    *,
    detector: str = "sturm",
    stage_walls: Optional[dict] = None,
) -> List[FlipEvent]:
    """Certified, time-ordered flip events of the hull-closure complex.

    ``initial`` must be the Delaunay complex of the motion's start
    positions.  Replaying the returned events onto ``augment(initial)``
    reproduces the complex at every bracket boundary and at the end of
    every stage; simultaneous events with disjoint supports are emitted in
    lexicographic edge order within one bracket.

    The walls of each distinct stage are built once; a repeat reuses them
    under a strand relabeling and decides them on its own complex (see the
    module docstring).  ``stage_walls``, a dict the caller owns, extends
    that to several calls: it is keyed by each stage's set of
    trajectories, which fixes its geometry, bulge included.
    ``detector="bisect"`` detects every stage afresh.
    """
    if detector not in ("sturm", "bisect"):
        raise KineticError(f"unknown detector {detector!r}")
    current = augment(initial)
    if motion.stages and current != augmented_at(motion, 0, Fraction(0)):
        raise KineticError("initial triangulation does not match the motion's start")
    events: List[FlipEvent] = []
    # stage trajectories -> (walls of the first occurrence, that stage)
    walls_of = {} if stage_walls is None else stage_walls
    for stage_idx, stage in enumerate(motion.stages):
        # a wall with several certificates is simultaneous events, which a
        # nongeneric motion can put there: a mismatch after it is a
        # degeneracy, retried at another bulge
        mismatch = KineticError
        if detector == "bisect":
            current = _detect_stage_bisect(motion, stage_idx, current, events)
        else:
            key = frozenset(stage.trajectories.values())
            if key not in walls_of:
                _check_collisions(motion, stage_idx)
                walls_of[key] = (_stage_walls(motion, stage_idx), stage)
            walls, first = walls_of[key]
            if any(len(w.certs) > 1 for w in walls):
                mismatch = DegeneracyError
            sigma = None
            if first is not stage:
                # each strand of the first occurrence to the strand of this
                # stage on the same trajectory, the far vertex to itself
                strand_of = {traj: s for s, traj in stage.trajectories.items()}
                sigma = {s: strand_of[traj] for s, traj in first.trajectories.items()}
                sigma[FAR_VERTEX] = FAR_VERTEX
            for wall in walls:
                crossing = wall.crossing
                if sigma:
                    crossing = [tuple(sorted(sigma[v] for v in subset)) for subset in crossing]
                for edge, quad in _certified_flips(current, crossing, stage_idx):
                    current = current.flip(edge, quad)
                    events.append(FlipEvent(stage_idx, wall.lo, wall.hi, edge, quad))
        if not current.same_triangles(augmented_at(motion, stage_idx, Fraction(1))):
            raise mismatch(f"stage {stage_idx}: end complex mismatch")
    return events


# -- JSON wire formats ----------------------------------------------------


def events_to_json(events: Sequence[FlipEvent]) -> list:
    return [
        {
            "stage": ev.stage,
            "t_lo": format_rational(ev.t_lo),
            "t_hi": format_rational(ev.t_hi),
            "edge": list(ev.edge),
            "quad": list(ev.quad),
        }
        for ev in events
    ]

