import random
from fractions import Fraction

import pytest

from braidshear.geometry import (
    DegenerateInputError,
    EdgeComplex,
    GeometryError,
    HullEdgeError,
    delaunay,
    point,
)
from oracles import (
    CollinearTripleError,
    brute_force_delaunay_triangles,
    empty_circumcircle_holds,
    first_degeneracy,
    hull_edges,
    incircle,
    interior_edges,
    is_generic,
    orient,
    random_generic_points,
)


def P(x, y):
    return point(x, y)


def parabola_points(n, eps=Fraction(1, 64)):
    return [(k, point(k, eps * k * k)) for k in range(1, n + 1)]


# -- the oracle predicates ------------------------------------------------


def test_orient_examples():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orient(P(0, 0), P(1, 1), P(2, 2)) == 0
    assert orient(P(0, 0), P(0, 1), P(1, 0)) == -1


def test_incircle_examples():
    assert incircle(P(0, 0), P(1, 0), P(0, 1), P(1, 1)) == 0
    assert incircle(P(0, 0), P(2, 0), P(0, 2), P(1, 1)) == 1
    assert incircle(P(0, 0), P(2, 0), P(0, 2), P(10, 10)) == -1


def test_incircle_reorients_base_triple():
    rng = random.Random(7)
    for _ in range(25):
        pts = random_generic_points(rng, 4, span=12)
        coords = dict(pts)
        base = [coords[1], coords[2], coords[3]]
        s = coords[4]
        import itertools

        values = {
            incircle(*perm, s) for perm in itertools.permutations(base)
        }
        assert len(values) == 1


def test_incircle_collinear_base_is_error():
    with pytest.raises(CollinearTripleError):
        incircle(P(0, 0), P(1, 1), P(2, 2), P(0, 1))


def test_parabola_never_cocircular():
    pts = parabola_points(4)
    coords = dict(pts)
    assert incircle(coords[1], coords[2], coords[3], coords[4]) != 0
    # four distinct positive abscissas on y = eps*x^2 never share a circle
    rng = random.Random(9)
    eps = Fraction(1, 64)
    for _ in range(20):
        xs = sorted({Fraction(rng.randint(1, 400), rng.randint(1, 7)) for _ in range(4)})
        if len(xs) != 4:
            continue
        ps = [P(x, eps * x * x) for x in xs]
        assert incircle(*ps) != 0


# -- delaunay construction ----------------------------------------------


def test_parabola_n4_counts():
    complex_ = delaunay(parabola_points(4))
    assert len(complex_.triangles) == 2
    assert len(complex_.edges()) == 5
    assert len(hull_edges(complex_)) == 4


def test_parabola_n4_diagonal_matches_brute_force():
    pts = parabola_points(4)
    expected = brute_force_delaunay_triangles(pts)
    complex_ = delaunay(pts)
    assert complex_.triangle_sets() == expected
    # exactly one diagonal is present
    diagonals = {(1, 3), (2, 4)} & set(complex_.edges())
    assert len(diagonals) == 1


def test_random_points_match_oracle():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(3, 8)
        pts = random_generic_points(rng, n)
        complex_ = delaunay(pts)
        assert complex_.triangle_sets() == brute_force_delaunay_triangles(pts)
        assert empty_circumcircle_holds(pts, complex_)
        h = len(hull_edges(complex_))
        assert len(complex_.edges()) == 3 * n - 3 - h
        assert len(complex_.triangles) == 2 * n - 2 - h


def test_twelve_points_match_oracle():
    rng = random.Random(77)
    pts = random_generic_points(rng, 12, span=60)
    complex_ = delaunay(pts)
    assert complex_.triangle_sets() == brute_force_delaunay_triangles(pts)
    assert empty_circumcircle_holds(pts, complex_)


def test_collinear_triple_inside_input_is_fine():
    pts = [(1, P(0, 0)), (2, P(1, 0)), (3, P(2, 0)), (4, P(1, 2))]
    assert delaunay(pts).triangle_sets() == {
        frozenset((1, 2, 4)),
        frozenset((2, 3, 4)),
    }


# -- the Delaunay lemma, checked with predicates of its own ------------------
#
# delaunay() and the brute-force oracle both apply the empty-circle
# definition, so the checks below share no code with either: they evaluate
# their own determinants on the output and test the local characterization
# (every interior edge locally Delaunay, on a triangulation with a convex
# boundary).


def _cross(p, q, r):
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def _in_circle_det(p, q, r, s):
    """Positive iff s lies strictly inside the circle through the
    counterclockwise triangle (p, q, r)."""
    (ax, ay), (bx, by), (cx, cy) = ((a.x - s.x, a.y - s.y) for a in (p, q, r))
    return (
        (ax * ax + ay * ay) * (bx * cy - by * cx)
        - (bx * bx + by * by) * (ax * cy - ay * cx)
        + (cx * cx + cy * cy) * (ax * by - ay * bx)
    )


def _random_set_with_collinear_triple(rng, n):
    """Generic rational points, one of them on the line through two others."""
    while True:
        pts = [
            point(Fraction(rng.randint(-30, 30), rng.randint(1, 4)),
                  Fraction(rng.randint(-30, 30), rng.randint(1, 4)))
            for _ in range(n - 1)
        ]
        a, b = rng.sample(pts, 2)
        r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 5))
        pts.append(point(a.x + r * (b.x - a.x), a.y + r * (b.y - a.y)))
        items = list(enumerate(pts, start=1))
        if len(set(pts)) == n and is_generic(items):
            return items


def _assert_delaunay_lemma(pts):
    complex_ = delaunay(pts)
    coords = dict(pts)
    n = len(coords)
    directed = {}
    for a, b, c in complex_.triangles:
        assert _cross(coords[a], coords[b], coords[c]) > 0, (a, b, c)
        for e, apex in (((a, b), c), ((b, c), a), ((c, a), b)):
            directed[e] = ((a, b, c), apex)
    assert {v for t in complex_.triangles for v in t} == set(coords)
    succ = {}
    for (a, b), (own, _) in directed.items():
        other = directed.get((b, a))
        if other is None:
            succ[a] = b  # boundary edge, traversed counterclockwise
            continue
        p, q, r = (coords[v] for v in own)
        assert _in_circle_det(p, q, r, coords[other[1]]) < 0, (own, other)
    start = min(succ)
    cycle = [start]
    while succ[cycle[-1]] != start:
        cycle.append(succ[cycle[-1]])
        assert len(cycle) <= len(succ)
    assert len(cycle) == len(succ), "boundary is not one cycle"
    h = len(cycle)
    assert len(complex_.triangles) == 2 * n - h - 2
    for i, v in enumerate(cycle):
        u, w = cycle[i - 1], cycle[(i + 1) % h]
        assert _cross(coords[u], coords[v], coords[w]) >= 0, (u, v, w)


def test_delaunay_lemma_on_random_sets_with_collinear_triples():
    rng = random.Random(2024)
    for _ in range(60):
        _assert_delaunay_lemma(_random_set_with_collinear_triple(rng, rng.randint(4, 9)))


def test_delaunay_lemma_on_the_twelve_point_parabola():
    _assert_delaunay_lemma(parabola_points(12))


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateInputError) as e:
        delaunay([(1, P(0, 0)), (2, P(0, 0)), (3, P(1, 1)), (4, P(2, 0))])
    assert e.value.kind == "coincident-pair"
    assert set(e.value.ids) == {1, 2}

    with pytest.raises(DegenerateInputError) as e:
        delaunay([(1, P(0, 0)), (2, P(1, 1)), (3, P(2, 2)), (4, P(3, 3))])
    assert e.value.kind == "collinear-set"

    with pytest.raises(DegenerateInputError) as e:
        delaunay([(1, P(0, 0)), (2, P(1, 0)), (3, P(1, 1)), (4, P(0, 1))])
    assert e.value.kind == "cocircular-4"
    assert set(e.value.ids) == {1, 2, 3, 4}

    with pytest.raises(DegenerateInputError):
        delaunay([(1, P(0, 0)), (2, P(1, 0))])


def test_repeated_ids_rejected():
    with pytest.raises(GeometryError, match="distinct"):
        delaunay([(1, P(0, 0)), (2, P(1, 0)), (1, P(0, 1))])


def test_lifted_scan_matches_the_oracles_or_their_first_degeneracy():
    # small grids with some half-integer coordinates make every kind of
    # degeneracy common; ids are shuffled so input order is not id order
    rng = random.Random(13)
    kinds = set()
    for _ in range(400):
        n, span = rng.randint(3, 8), rng.randint(1, 3)
        coords = [Fraction(rng.randint(-span, span), rng.choice((1, 1, 2))) for _ in range(2 * n)]
        pts = list(zip(rng.sample(range(1, 40), n), map(point, coords[::2], coords[1::2])))
        fault = first_degeneracy(pts)
        kinds.add(fault and fault[0])
        if fault is None:
            assert delaunay(pts).triangle_sets() == brute_force_delaunay_triangles(pts)
            continue
        with pytest.raises(DegenerateInputError) as e:
            delaunay(pts)
        assert (e.value.kind, e.value.ids) == fault
    assert kinds == {None, "coincident-pair", "collinear-set", "cocircular-4"}


# -- integer scaling inside delaunay ----------------------------------------


def _nudged(rng, pts):
    """Each coordinate moved by a random fraction with a ~2^40 denominator."""
    def nudge(c):
        return c + Fraction(rng.randint(-2 ** 20, 2 ** 20), 2 ** 40 - rng.randint(0, 2 ** 12))
    return [(i, point(nudge(p.x), nudge(p.y))) for i, p in pts]


def _assert_matches_oracle(pts):
    assert delaunay(pts).triangle_sets() == brute_force_delaunay_triangles(pts)


def test_scaled_predicates_match_oracle_on_random_rationals():
    rng = random.Random(7)
    for _ in range(20):
        _assert_matches_oracle(random_generic_points(rng, rng.randint(3, 8)))
    for _ in range(20):
        pts = _nudged(rng, random_generic_points(rng, rng.randint(3, 8)))
        assert is_generic(pts)
        _assert_matches_oracle(pts)


def test_scaled_predicates_match_oracle_at_wall_times():
    from braidshear.braid import SlotConfig, compile_motion, parse_braid
    from braidshear.kinetic import positions_at

    rng = random.Random(11)
    motion, _ = compile_motion(parse_braid("s1 s2 s3 s4", n=5), SlotConfig(5))
    for _ in range(20):
        stage = rng.randrange(len(motion.stages))
        t = Fraction(2 * rng.randrange(2 ** 20) + 1, 2 ** 21)  # as walls bisect to
        pts = sorted(positions_at(motion, stage, t).items())
        assert max(c.denominator for _, p in pts for c in p) > 2 ** 30
        assert is_generic(pts)
        _assert_matches_oracle(pts)


def test_degenerate_inputs_keep_kind_and_ids_with_large_denominators():
    # the unit-square cases of test_degenerate_inputs_rejected, shrunk and
    # moved so that every coordinate has a ~2^40 denominator
    s = Fraction(1, 3 * 2 ** 40 + 1)
    o = point(Fraction(5, 2 ** 40 - 3), Fraction(-7, 2 ** 40 + 5))

    def Q(i, x, y):
        return (i, point(o.x + s * x, o.y + s * y))

    cases = [
        ([Q(1, 0, 0), Q(2, 0, 0), Q(3, 1, 1), Q(4, 2, 0)], "coincident-pair", (1, 2)),
        ([Q(1, 0, 0), Q(2, 1, 1), Q(3, 2, 2), Q(4, 3, 3)], "collinear-set", (1, 2, 3, 4)),
        ([Q(1, 0, 0), Q(2, 1, 0), Q(3, 1, 1), Q(4, 0, 1)], "cocircular-4", (1, 2, 3, 4)),
        ([Q(5, 3, 1), Q(1, 0, 0), Q(2, 1, 0), Q(3, 1, 1), Q(4, 0, 1)], "cocircular-4", (1, 2, 3, 4)),
        ([Q(1, 0, 0), Q(2, 1, 0)], "too-few-points", (1, 2)),
    ]
    for pts, kind, ids in cases:
        with pytest.raises(DegenerateInputError) as e:
            delaunay(pts)
        assert (e.value.kind, e.value.ids) == (kind, ids)


# -- quad_around / flip --------------------------------------------------


def square_triangulation():
    pts = {1: P(0, 0), 2: P(1, 0), 3: P(1, 1), 4: P(0, 1)}
    return pts, EdgeComplex([(1, 2, 3), (1, 3, 4)])


def test_edge_complex_rejects_nonmanifold_input():
    with pytest.raises(GeometryError):
        EdgeComplex([(1, 2, 3), (1, 2, 4)])  # directed edge (1,2) used twice
    with pytest.raises(GeometryError):
        EdgeComplex([(1, 2, 2)])


def counterclockwise(points, complex_) -> bool:
    """Whether every triangle of ``complex_`` turns counterclockwise on
    ``points``, a mapping from vertex id to ``Point``."""
    return all(orient(*(points[v] for v in tri)) > 0 for tri in complex_.triangles)


def flip(complex_, edge):
    return complex_.flip(edge, complex_.quad_around(edge))


def test_quad_around_square():
    _, complex_ = square_triangulation()
    assert complex_.quad_around((1, 3)) == (1, 2, 3, 4)
    assert complex_.quad_around((3, 1)) == (1, 2, 3, 4)


def test_quad_around_hull_edge_error():
    _, complex_ = square_triangulation()
    with pytest.raises(HullEdgeError):
        complex_.quad_around((1, 2))


def test_quad_contains_queried_pair():
    rng = random.Random(3)
    for _ in range(10):
        complex_ = delaunay(random_generic_points(rng, 7))
        for edge in interior_edges(complex_):
            u, v, w, z = complex_.quad_around(edge)
            assert {u, w} == set(edge)
            assert u == min(edge)


def test_flip_square_and_back():
    pts, complex_ = square_triangulation()
    flipped = flip(complex_, (1, 3))
    assert counterclockwise(pts, flipped)
    assert flipped.triangle_sets() == {
        frozenset((1, 2, 4)),
        frozenset((2, 3, 4)),
    }
    assert (2, 4) in flipped.edges()
    assert (1, 3) not in flipped.edges()
    assert len(flipped.edges()) == len(complex_.edges())
    back = flip(flipped, (2, 4))
    assert back == complex_


def test_flip_preserves_hull():
    rng = random.Random(11)
    pts = random_generic_points(rng, 7)
    complex_ = delaunay(pts)
    coords = dict(pts)
    for edge in interior_edges(complex_):
        u, v, w, z = complex_.quad_around(edge)
        if any(orient(*(coords[i] for i in tri)) <= 0 for tri in ((u, v, z), (v, w, z))):
            continue  # the quad is not strictly convex
        flipped = flip(complex_, edge)
        assert counterclockwise(coords, flipped)
        assert hull_edges(flipped) == hull_edges(complex_)


def test_flip_updates_the_directed_edges_as_a_rebuild_would():
    # flip rewrites only the quad's directed edges; a complex built afresh
    # from the flipped triangles must index every edge the same way
    rng = random.Random(12)
    complex_ = delaunay(random_generic_points(rng, 9))
    for _ in range(40):
        edge = rng.choice(interior_edges(complex_))
        try:
            flipped = flip(complex_, edge)
        except GeometryError:
            continue
        rebuilt = EdgeComplex(flipped.triangles)
        assert flipped._dir == rebuilt._dir and flipped == rebuilt
        complex_ = flipped


def test_flip_nonconvex_error():
    complex_ = EdgeComplex([(1, 2, 4), (2, 3, 4), (1, 4, 3)])
    with pytest.raises(GeometryError, match="already present"):
        flip(complex_, (1, 4))  # 4 is interior; quad (1,2,4,3) is not strictly convex
    # a dart: 3 is a reflex corner of the quad (1,2,3,4), so (2,3,4) turns clockwise
    dart = {1: P(0, 0), 2: P(4, 0), 3: P(1, 1), 4: P(0, 4)}
    complex_ = EdgeComplex([(1, 2, 3), (1, 3, 4)])
    assert counterclockwise(dart, complex_)
    assert not counterclockwise(dart, flip(complex_, (1, 3)))
