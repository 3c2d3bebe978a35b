"""Symbolic edge labels pushed through flip sequences.

Two update rules are supported for the flip of a quadrilateral
(u, v, w, z) with diagonal (u, w) and side labels a = (u,v), b = (v,w),
c = (w,z), d = (z,u):

* Ptolemy: the new diagonal (v, z) gets (a*c + b*d)/x where x is the old
  diagonal label; every other label is unchanged.
* shear: the new diagonal gets 1/e, the side pair {a, c} is scaled by
  (1+e) and the pair {b, d} by e/(1+e), where e is the old diagonal label.

Both rules carry their labels in one separated form (Fomin and Zelevinsky,
"Cluster algebras IV: Coefficients", Prop. 3.13 and section 5): over the
seed variables y, edge j holds an integer vector c_j and a polynomial F_j.
Both start from the seed, unit vectors and F = 1, and a flip does integer
work on the vectors and gives the new diagonal one polynomial by one
exact division, (y^alpha prod P + y^beta prod Q) / F_k.

Every Ptolemy label is a Laurent polynomial in y with positive
coefficients (FZ IV), so it is y^{c_j} F_j with F_j divisible by no
variable (``LabelState``).  With low = min(c_a + c_c, c_b + c_d),
componentwise, the flip of k = (u, w) is

    F'_k = (y^{c_a+c_c-low} F_a F_c + y^{c_b+c_d-low} F_b F_d) / F_k,
    c'_k = low - c_k.

The shear rule is Fock-Goncharov X-mutation (Fock and Goncharov, "Cluster
ensembles, quantization and the dilogarithm", Ann. ENS 2009), so edge j
holds a c-vector c_j and an F-polynomial F_j with constant term 1, and its
label is (``ShearState``)

    y_j = y^{c_j} * prod_i F_i^{b_ij},

where b_ij = +1 if edge i follows j counterclockwise in a triangle of the
complex, -1 if it precedes it, and 0 otherwise.  Flipping k = (u, w), with
b_kj = -1 on the sides (u,v), (w,z) and +1 on (v,w), (z,u), is

    c'_k = -c_k,    c'_j = c_j + [b_kj]_+ c_k - b_kj * min(c_k, 0),
    F'_k = (y^{[c_k]_+} prod_i F_i^{[b_ik]_+}
            + y^{[-c_k]_+} prod_i F_i^{[-b_ik]_+}) / F_k.

No gcd is taken on the flip path of either rule.  A label becomes a
``RationalFunction``, a canonical value without arithmetic, only when it
is read: its factors, a monomial and up to two F's a side, go to
``RationalFunction.from_factors``, which reduces them pair by pair,
so labels stay exact and canonical with no gcd of an expanded product.
Both rules, written directly in sympy's polynomial arithmetic, are the
test oracles in tests/oracles.py.

The side-pair assignment for shear is frozen by a fixture test, and it is
the only one: swapping the pairs, that is negating b, gives this rule on
the orientation-reversed complex, whose triangles (a, b, c) read
(a, c, b), so it satisfies the pentagon identity too (see check_pentagon).
Only a non-alternating assignment, scaling an adjacent side pair, fails
it (see
tests/test_coordinates.py::test_pentagon_detects_wrong_side_assignment).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from braidshear.algebra import Polynomial, RationalFunction, monomial, poly_product
from braidshear.braid import BraidWord, SlotConfig, compile_motion, initial_triangulation
from braidshear.geometry import EdgeComplex
from braidshear.kinetic import (
    FAR_VERTEX,
    DegeneracyError,
    FlipEvent,
    augment,
    augmented_at,
    detect_flips,
)

DEFAULT_JITTER = (Fraction(1, 97), Fraction(-1, 89), Fraction(1, 83))


class InternalInvariantError(Exception):
    """The pipeline violated one of its own certified invariants."""


class LabelSystem(enum.Enum):
    PTOLEMY = "ptolemy"
    SHEAR = "shear"


Edge = Tuple[int, int]


def edge_var_name(i: int, j: int) -> str:
    lo, hi = sorted((i, j))
    return f"a_{{{lo},{hi}}}"


def _norm(edge: Edge) -> Edge:
    a, b = edge
    return (a, b) if a <= b else (b, a)


class _SeparatedState:
    """A triangle complex with labels in separated form: per edge an
    integer vector c over the seed variables ``names`` and a polynomial F
    (see the module docstring).  A subclass gives ``_factors(j)``, the F's
    of the numerator and the denominator of label j."""

    __slots__ = ("complex", "names", "c", "F", "_labels")

    def __init__(
        self,
        complex_: EdgeComplex,
        names: Tuple[str, ...],
        c: Mapping[Edge, Tuple[int, ...]],
        F: Mapping[Edge, Polynomial],
    ):
        if set(c) != set(complex_.edges()) or set(F) != set(c):
            raise InternalInvariantError("label data keys do not match the edge set")
        self._fill(complex_, names, c, F)

    def _fill(self, complex_, names, c, F):
        self.complex = complex_
        self.names = names
        self.c = c
        self.F = F
        self._labels: Dict[Edge, RationalFunction] = {}
        return self

    @classmethod
    def seed(cls, complex_: EdgeComplex):
        """Fresh variables, one per edge, all in the one ring of the edge
        names: unit vectors and F = 1."""
        edges = sorted(complex_.edges())
        names = tuple(edge_var_name(*e) for e in edges)
        c = {e: tuple(int(i == k) for i in range(len(edges))) for k, e in enumerate(edges)}
        return cls(complex_, names, c, dict.fromkeys(edges, Polynomial.one()))

    def label(self, edge: Edge) -> RationalFunction:
        edge = _norm(edge)
        value = self._labels.get(edge)
        if value is None:
            c = self.c[edge]
            num, den = self._factors(edge)
            value = self._labels[edge] = RationalFunction.from_factors(
                [monomial(self.names, [max(x, 0) for x in c]), *num],
                [monomial(self.names, [max(-x, 0) for x in c]), *den],
            )
        return value

    @property
    def labels(self) -> Dict[Edge, RationalFunction]:
        return {e: self.label(e) for e in self.c}

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.complex != other.complex:
            return False
        if (self.names, self.c, self.F) == (other.names, other.c, other.F):
            return True
        return self.labels == other.labels


class LabelState(_SeparatedState):
    """Ptolemy labels: edge j holds y^{c_j} F_j, F_j divisible by no variable."""

    __slots__ = ()

    def _factors(self, j: Edge) -> Tuple[List[Polynomial], List[Polynomial]]:
        return [self.F[j]], []


class ShearState(_SeparatedState):
    """Shear labels: edge j holds y^{c_j} prod_i F_i^{b_ij}."""

    __slots__ = ()

    def _factors(self, j: Edge) -> Tuple[List[Polynomial], List[Polynomial]]:
        # the side after j in each of its triangles has b_ij = +1
        num, den = [], []
        for tri in self.complex.edge_triangles(j):
            after, before = _neighbour_sides(tri, j)
            num.append(self.F[after])
            den.append(self.F[before])
        return num, den


def _neighbour_sides(tri: Tuple[int, int, int], edge: Edge) -> Tuple[Edge, Edge]:
    """The sides of a counterclockwise triangle that follow and precede
    ``edge`` in its boundary order."""
    a, b, c = tri
    for p, q, x in ((a, b, c), (b, c, a), (c, a, b)):
        if {p, q} == set(edge):
            return _norm((q, x)), _norm((x, p))
    raise InternalInvariantError(f"edge {edge} is not a side of {tri}")


def _exchange(state, quad, c: Mapping[Edge, Tuple[int, ...]], c_new, alpha, P, beta, Q):
    """``state`` with the vectors ``c`` and the diagonal k of ``quad``
    flipped: the new diagonal gets the vector ``c_new`` and, by one exact
    division, F'_k = (y^alpha prod_{j in P} F_j + y^beta prod_{j in Q} F_j) / F_k."""
    u, v, w, z = quad
    k, new = _norm((u, w)), _norm((v, z))
    # the flip changes two keys: checking them keeps the keys the edge set
    if k not in state.F or new in state.F:
        raise InternalInvariantError(f"label data keys do not match the flip of {k}")
    F = dict(state.F)
    total = poly_product([monomial(state.names, alpha), *(F[j] for j in P)]) + poly_product(
        [monomial(state.names, beta), *(F[j] for j in Q)]
    )
    F[new] = total.exact_div(F.pop(k))
    if F[new] is None:
        raise InternalInvariantError(f"F-polynomial division inexact at flip of {k}")
    c = dict(c)
    del c[k]
    c[new] = tuple(c_new)
    return object.__new__(type(state))._fill(state.complex.flip(k, quad), state.names, c, F)


def apply_ptolemy_flip(state: LabelState, quad: Tuple[int, int, int, int]) -> LabelState:
    """The new diagonal (v, z) gets (a*c + b*d)/x by one exact division,
    no gcd."""
    u, v, w, z = quad
    a, b, c, d = (_norm(e) for e in ((u, v), (v, w), (w, z), (z, u)))
    vec = state.c
    ac = [x + y for x, y in zip(vec[a], vec[c])]
    bd = [x + y for x, y in zip(vec[b], vec[d])]
    low = [min(x, y) for x, y in zip(ac, bd)]
    # in each variable one of the two monomials is 1, and the F's are
    # positive with no variable factor, so F'_k has no variable factor
    # either: the next division by it stays exact
    return _exchange(
        state,
        quad,
        vec,
        [x - y for x, y in zip(low, vec[_norm((u, w))])],
        [x - y for x, y in zip(ac, low)],
        (a, c),
        [x - y for x, y in zip(bd, low)],
        (b, d),
    )


def apply_shear_flip(state: ShearState, quad: Tuple[int, int, int, int]) -> ShearState:
    """X-mutation at the diagonal of ``quad`` on separated labels: integer
    c-vector updates and one exact division, no gcd."""
    u, v, w, z = quad
    k = _norm((u, w))
    # b_kj = -1 on `grow` (scaled by 1 + e), +1 on `shrink` (by e/(1 + e))
    grow = (_norm((u, v)), _norm((w, z)))
    shrink = (_norm((v, w)), _norm((z, u)))
    ck = state.c[k]
    pos = [max(x, 0) for x in ck]
    neg = [min(x, 0) for x in ck]
    c = dict(state.c)
    for j in grow:
        c[j] = tuple(x + y for x, y in zip(c[j], neg))
    for j in shrink:
        c[j] = tuple(x + y for x, y in zip(c[j], pos))
    # b_ik = -b_ki: the grown sides enter the y^{[c_k]_+} term
    flipped = _exchange(state, quad, c, [-x for x in ck], pos, grow, [-x for x in neg], shrink)
    if flipped.F[_norm((v, z))].constant_coeff() != 1:
        raise InternalInvariantError(f"F-polynomial constant term is not 1 at flip of {k}")
    return flipped


def apply_flip(
    state: Union[LabelState, ShearState], quad: Tuple[int, int, int, int]
) -> Union[LabelState, ShearState]:
    """The flip of ``quad``'s diagonal by the rule of ``state``'s class: the
    Ptolemy rule for a ``LabelState``, the shear rule for a ``ShearState``."""
    if isinstance(state, LabelState):
        return apply_ptolemy_flip(state, quad)
    return apply_shear_flip(state, quad)


def _seed(complex_: EdgeComplex, system: LabelSystem) -> Union[LabelState, ShearState]:
    """The seed state that ``system``'s flip rule takes."""
    return (LabelState if system is LabelSystem.PTOLEMY else ShearState).seed(complex_)


# -- executable identity checks -------------------------------------------


def convex_polygon_complex(triangles: Sequence[Tuple[int, int, int]]) -> EdgeComplex:
    """Complex of a convex polygon triangulation given triangles as
    ascending triples (which are counterclockwise in convex position)."""
    return EdgeComplex([tuple(sorted(t)) for t in triangles])


def _paths_agree(complex_: EdgeComplex, path_a, path_b, system: LabelSystem) -> bool:
    """Flip the seeded complex along both edge paths, insist that they end
    on the same complex, and compare the two label states."""
    seed = _seed(complex_, system)
    ends = []
    for path in (path_a, path_b):
        state = seed
        for edge in path:
            state = apply_flip(state, state.complex.quad_around(edge))
        ends.append(state)
    if ends[0].complex != ends[1].complex:
        raise InternalInvariantError("flip paths end on different triangulations")
    return ends[0] == ends[1]


def check_pentagon(system: LabelSystem, mirrored: bool = False) -> bool:
    """Compare the label maps along the two flip paths (lengths 2 and 3)
    joining two triangulations of a convex pentagon.  ``mirrored`` runs
    them on the pentagon with its triangles reversed, which is the
    mirrored shear convention."""
    pentagon = [(1, 2, 3), (1, 3, 4), (1, 4, 5)]
    if mirrored:
        pentagon = [(a, c, b) for a, b, c in pentagon]
    return _paths_agree(
        EdgeComplex(pentagon), [(1, 4), (1, 3)], [(1, 3), (1, 4), (2, 4)], system
    )


def check_commutativity(system: LabelSystem, shared_edge: bool) -> bool:
    """Order-independence of two flips whose quadrilaterals are vertex
    disjoint (shared_edge=False) or share exactly one side (True)."""
    if shared_edge:
        triangles = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6)]
        e1, e2 = (1, 3), (1, 5)
    else:
        triangles = [(1, 2, 3), (1, 3, 4), (1, 4, 8), (4, 5, 8), (5, 6, 7), (5, 7, 8)]
        e1, e2 = (1, 3), (5, 7)
    return _paths_agree(convex_polygon_complex(triangles), [e1, e2], [e2, e1], system)


def check_involution(system: LabelSystem) -> bool:
    """Flipping the same quadrilateral twice is the identity on labels."""
    square = convex_polygon_complex([(1, 2, 3), (1, 3, 4)])
    return _paths_agree(square, [(1, 3), (2, 4)], [], system)


# -- the braid invariant ---------------------------------------------------


@dataclass(frozen=True)
class InvariantMap:
    """T(beta): final labels keyed by initial slot edges."""

    n: int
    system: LabelSystem
    word: str
    entries: Mapping[Edge, RationalFunction]

    def __post_init__(self):
        object.__setattr__(self, "entries", {_norm(e): v for e, v in self.entries.items()})

    def sorted_edges(self) -> List[Edge]:
        return sorted(self.entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "system": self.system.value,
            "word": self.word,
            "entries": [
                {"edge": list(edge), "value": self.entries[edge].to_json()}
                for edge in self.sorted_edges()
            ],
        }


def invariants_equal(a: InvariantMap, b: InvariantMap) -> bool:
    return first_difference(a, b) is None


def first_difference(a: InvariantMap, b: InvariantMap) -> Optional[Edge]:
    """The least edge whose labels differ, an edge keyed in one map only
    included, or None if the maps are equal."""
    for edge in sorted(set(a.entries) | set(b.entries)):
        if a.entries.get(edge) != b.entries.get(edge):
            return edge
    return None


def run_invariant(
    word: BraidWord,
    cfg: SlotConfig,
    system: LabelSystem,
    *,
    stage_walls: Optional[dict] = None,
) -> InvariantMap:
    """Compute T(word): seed slot-edge variables, push them through the
    certified flip sequence, and re-key the final labels to slot edges via
    the braid's permutation.

    A degeneracy error retries at the bulge plus each ``DEFAULT_JITTER``
    offset in turn, skipping any that would make the bulge non-positive;
    isotopic motions compute the same map, so the perturbed run yields the
    same result.  ``stage_walls`` is handed to ``detect_flips``, so that
    calls sharing it build the walls of each distinct stage once.
    """
    initial, slot_edges = initial_triangulation(cfg)
    base = augment(initial)
    bulges = [cfg.bulge + d for d in DEFAULT_JITTER]
    attempts = [cfg] + [cfg.with_bulge(b) for b in bulges if b > 0]
    for attempt_cfg in attempts:
        motion, perm = compile_motion(word, attempt_cfg)
        try:
            events = detect_flips(motion, initial, stage_walls=stage_walls)
            break
        except DegeneracyError as exc:
            error = exc
    else:
        raise error

    state = _seed(base, system)
    for group in _bracket_groups(events):
        before = state
        for event in group:
            if state.complex.quad_around(event.edge) != event.quad:
                raise InternalInvariantError(f"event quad diverged for {event}")
            state = apply_flip(state, event.quad)
        if len(group) > 1:
            # events sharing a bracket are simultaneous; re-apply them in
            # the opposite order and insist on the same outcome
            other = before
            for event in reversed(group):
                other = apply_flip(other, other.complex.quad_around(event.edge))
            if other != state:
                raise InternalInvariantError(
                    f"simultaneous events {[e.edge for e in group]} do not commute"
                )

    if motion.stages:
        final_fresh = augmented_at(motion, len(motion.stages) - 1, Fraction(1))
        if not state.complex.same_triangles(final_fresh):
            raise InternalInvariantError("final complex does not match the motion's end")

    entries: Dict[Edge, RationalFunction] = {}
    for (p, q) in state.complex.edges():
        if FAR_VERTEX in (p, q):
            continue
        entries[_norm((perm[p], perm[q]))] = state.label((p, q))
    if set(entries) != set(slot_edges):
        raise InternalInvariantError("re-keyed entries do not cover the slot edges")
    return InvariantMap(cfg.n, system, word.text(), entries)


def _bracket_groups(events: Sequence[FlipEvent]) -> List[List[FlipEvent]]:
    """Consecutive events that share a bracket ``(stage, t_lo, t_hi)``."""
    return [list(group) for _, group in groupby(events, key=lambda e: e[:3])]
