"""Exact Delaunay complexes of rational points and oriented triangle
complexes.

Every decision is an exact integer sign, taken on a point set scaled by
the lcm of its denominators; no floating point enters.  A Delaunay
triangulation is built from the empty-circle definition: on a generic
point set (no four cocircular) it is the set of triangles whose
circumcircle holds no other point, decided in one scan over the points
lifted to the paraboloid z = x^2 + y^2, which also finds every
degeneracy.  The result is a purely combinatorial oriented triangle
complex, an immutable value that the kinetic layer flips; the
coordinates stay with the caller.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple


class GeometryError(Exception):
    """Base class for geometry failures."""


class DegenerateInputError(GeometryError):
    """Input violates genericity; ``kind`` and ``ids`` name the offenders."""

    def __init__(self, kind: str, ids: Sequence[int], message: str = ""):
        self.kind = kind
        self.ids = tuple(ids)
        super().__init__(message or f"degenerate input ({kind}): {sorted(self.ids)}")


class MissingEdgeError(GeometryError):
    """The queried pair is not an edge of the complex."""


class HullEdgeError(GeometryError):
    """The edge has a single incident triangle."""


class NonSimplicialFlipError(GeometryError):
    """Flipping would create a duplicate edge."""


class Point(NamedTuple):
    x: Fraction
    y: Fraction


def point(x, y) -> Point:
    return Point(Fraction(x), Fraction(y))


def _canonical(tri: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Rotate a cyclic triple so the smallest id comes first."""
    a, b, c = tri
    if a <= b and a <= c:
        return (a, b, c)
    if b <= a and b <= c:
        return (b, c, a)
    return (c, a, b)


class EdgeComplex:
    """Oriented triangle complex on integer vertex ids.

    Triangles are cyclic triples stored in a canonical rotation; each
    directed edge belongs to at most one triangle, and the complex maps it
    to that triangle's third vertex, its apex (the half-edge form of
    Guibas and Stolfi, 1985), which makes quad extraction and flips purely
    combinatorial.
    """

    __slots__ = ("triangles", "_dir")

    def __init__(self, triangles: Iterable[Tuple[int, int, int]]):
        canon = frozenset(_canonical(tuple(t)) for t in triangles)
        directed: Dict[Tuple[int, int], int] = {}
        for tri in canon:
            a, b, c = tri
            if len({a, b, c}) != 3:
                raise GeometryError(f"degenerate triangle {tri}")
            for p, q, x in ((a, b, c), (b, c, a), (c, a, b)):
                if (p, q) in directed:
                    raise GeometryError(f"directed edge {(p, q)} used twice")
                directed[p, q] = x
        object.__setattr__(self, "triangles", canon)
        object.__setattr__(self, "_dir", directed)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeComplex is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeComplex):
            return NotImplemented
        return self.triangles == other.triangles

    def __hash__(self) -> int:
        return hash(self.triangles)

    def same_triangles(self, other: "EdgeComplex") -> bool:
        """Equality of the underlying unoriented triangle sets."""
        return self.triangle_sets() == other.triangle_sets()

    def triangle_sets(self) -> frozenset:
        return frozenset(frozenset(t) for t in self.triangles)

    def edges(self) -> frozenset:
        return frozenset(tuple(sorted(e)) for e in self._dir)

    def has_edge(self, edge: Tuple[int, int]) -> bool:
        a, b = edge
        return (a, b) in self._dir or (b, a) in self._dir

    def apex(self, p: int, q: int) -> Optional[int]:
        """The third vertex of the triangle that holds the directed edge
        (p, q), or None if no triangle does."""
        return self._dir.get((p, q))

    def quad_around(self, edge: Tuple[int, int]) -> Tuple[int, int, int, int]:
        """Quadrilateral (u, v, w, z) around an interior edge, in the
        complex's coherent (counterclockwise) order, with the edge = (u, w)
        and u the smaller id."""
        u, w = sorted(edge)
        v, z = self._dir.get((w, u)), self._dir.get((u, w))
        if v is None and z is None:
            raise MissingEdgeError(f"no edge {(u, w)}")
        if v is None or z is None:
            raise HullEdgeError(f"edge {(u, w)} has one incident triangle")
        return (u, v, w, z)

    def flip(self, edge: Tuple[int, int], quad: Tuple[int, int, int, int]) -> "EdgeComplex":
        """Replace the diagonal ``edge`` of ``quad``, the quad around it, by
        the other one."""
        u, v, w, z = quad
        if tuple(sorted(edge)) != (u, w):
            raise MissingEdgeError(f"quad {quad} does not match edge {edge}")
        if self.has_edge((v, z)):
            raise NonSimplicialFlipError(f"edge {(v, z)} already present")
        if self._dir.get((w, u)) != v or self._dir.get((u, w)) != z:
            raise MissingEdgeError(f"quad {quad} not found in complex")
        left, right = _canonical((u, v, z)), _canonical((v, w, z))
        new = (self.triangles - {_canonical((u, v, w)), _canonical((u, w, z))}) | {left, right}
        if v == z:
            return EdgeComplex(new)  # which reports the degenerate triangle
        # only the six directed edges of the quad change hands, and (v, z)
        # is new: the other diagonal is absent
        directed = dict(self._dir)
        del directed[w, u], directed[u, w]
        directed[u, v], directed[v, z], directed[z, u] = z, u, v
        directed[v, w], directed[w, z], directed[z, v] = z, v, w
        out = object.__new__(EdgeComplex)
        object.__setattr__(out, "triangles", new)
        object.__setattr__(out, "_dir", directed)
        return out

    def __repr__(self) -> str:
        return f"EdgeComplex({sorted(self.triangles)})"


def delaunay(points: Sequence[Tuple[int, Point]]) -> EdgeComplex:
    """Delaunay complex of generic points, built from its definition.

    With no four points cocircular, the Delaunay triangles are exactly the
    non-collinear triples whose circumcircle holds every other point
    strictly outside (Delaunay, "Sur la sphère vide", 1934).  A point lies
    inside that circle exactly when its lift (x, y, x^2 + y^2) lies below
    the plane through the triple's lifts (Guibas and Stolfi, 1985): one
    normal per triple, whose z-part is its orient sign, and one integer
    dot product per other point, O(n^4) exact signs in one scan.

    Degenerate inputs are rejected with the offending ids: a coincident
    pair, a fully collinear set, or a cocircular 4-tuple (a lift on a
    triple's plane).  Every point is tested against every triple, in input
    order, so the 4-tuple reported is the first one in that order.
    """
    items = [(int(i), p) for i, p in points]
    ids = [i for i, _ in items]
    if len(items) < 3:
        raise DegenerateInputError("too-few-points", ids, "need at least 3 points")
    seen: Dict[Point, int] = {}
    for i, p in items:
        if i <= 0:
            raise GeometryError(f"vertex ids must be positive integers, got {i}")
        if p in seen:
            raise DegenerateInputError("coincident-pair", [seen[p], i])
        seen[p] = i
    if len(set(ids)) < len(ids):
        raise GeometryError(f"vertex ids must be distinct, got {ids}")
    # integer-scaled: a positive uniform scaling keeps every sign below
    scale = lcm(*(c.denominator for _, p in items for c in p))
    lifted = []
    for _, p in items:
        x, y = (c.numerator * (scale // c.denominator) for c in p)
        lifted.append((x, y, x * x + y * y))
    triangles = []
    for a, b, c in combinations(range(len(items)), 3):
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = lifted[a], lifted[b], lifted[c]
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        nz = ux * vy - uy * vx  # orientation of (a, b, c)
        if nz == 0:
            continue
        nx, ny = uy * vz - uz * vy, uz * vx - ux * vz
        if nz < 0:  # counterclockwise (a, b, c), upward normal
            b, c, nx, ny, nz = c, b, -nx, -ny, -nz
        k = nx * ax + ny * ay + nz * az
        # 0 on the plane (at a, b, c too), negative strictly inside the circle
        sides = [nx * x + ny * y + nz * z - k for x, y, z in lifted]
        if sides.count(0) > 3:
            d = next(d for d, s in enumerate(sides) if s == 0 and d not in (a, b, c))
            raise DegenerateInputError("cocircular-4", [ids[j] for j in sorted((a, b, c, d))])
        if min(sides) == 0:
            triangles.append((ids[a], ids[b], ids[c]))
    if not triangles:
        raise DegenerateInputError("collinear-set", ids)
    # every triangle was put in counterclockwise order by an exact orient sign
    return EdgeComplex(triangles)

