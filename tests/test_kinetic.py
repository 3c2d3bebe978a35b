import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidshear import kinetic, roots
from braidshear.algebra import parse_rational
from braidshear.braid import (
    SlotConfig,
    compile_motion,
    initial_triangulation,
    parse_braid,
    slot_points,
)
from braidshear.coordinates import convex_polygon_complex
from braidshear.geometry import DegenerateInputError, GeometryError, delaunay, point
from braidshear.kinetic import (
    DEFAULT_MIN_BRACKET,
    Arc,
    CollisionError,
    DegeneracyError,
    FlipEvent,
    KineticError,
    Motion,
    Stage,
    Stationary,
    _apply_transition,
    _certified_flips,
    _relabeled_walls,
    _stage_walls,
    augment,
    augmented_at,
    detect_flips,
    events_to_json,
    positions_at,
)
from oracles import (
    InconsistentEventError,
    _position_functions,
    full_recompute_detect_flips,
    replay,
    restart_separate_walls,
    sympy_value,
)


def swap_motion(n, word_text):
    cfg = SlotConfig(n)
    word = parse_braid(word_text, n=n)
    motion, _ = compile_motion(word, cfg)
    tri0, _ = initial_triangulation(cfg)
    return motion, tri0


# -- trajectories --------------------------------------------------------


def test_stationary_position():
    m, _ = swap_motion(4, "s1")
    assert positions_at(m, 0, Fraction(1, 7))[3] == point(3, Fraction(9, 64))


def arc_position(arc, t):
    """The position of ``arc`` at time t, read through ``positions_at``
    from a one-strand motion."""
    return positions_at(Motion(1, [Stage({1: arc})]), 0, t)[1]


def test_arc_boundary_conditions():
    arc = Arc(center=point(1, 0), start=point(0, 0), direction=1)
    assert arc_position(arc, Fraction(0)) == point(0, 0)
    assert arc_position(arc, Fraction(1)) == point(2, 0)  # antipode across the center


def test_arc_quarter_turn_is_exact_and_on_circle():
    arc = Arc(center=point(1, 0), start=point(0, 0), direction=1)
    for t in [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)]:
        p = arc_position(arc, t)
        dx, dy = p.x - 1, p.y - 0
        assert dx * dx + dy * dy == 1  # radius preserved exactly
    # quarter turn image: west of center heading counterclockwise is south
    q = arc_position(arc, Fraction(1, 2))
    assert q == point(1, -1)


def test_arc_scale_traces_ellipse():
    arc = Arc(center=point(0, 0), start=point(1, 0), direction=-1, scale=Fraction(2))
    for t in [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)]:
        p = arc_position(arc, t)
        assert p.x * p.x + (p.y / 2) ** 2 == 1


def test_arc_continuity_at_halfway():
    arc = Arc(center=point(1, 0), start=point(0, 0), direction=1, scale=Fraction(3, 2))
    eps = Fraction(1, 2 ** 30)
    before = arc_position(arc, Fraction(1, 2) - eps)
    after = arc_position(arc, Fraction(1, 2) + eps)
    mid = arc_position(arc, Fraction(1, 2))
    assert abs(before.x - mid.x) < Fraction(1, 2 ** 25)
    assert abs(after.x - mid.x) < Fraction(1, 2 ** 25)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(
    center=st.tuples(rationals, rationals),
    start=st.tuples(rationals, rationals),
    still=st.tuples(rationals, rationals),
    direction=st.sampled_from([1, -1]),
    scale=st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
    t=st.one_of(
        st.just(Fraction(1, 2)),
        st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=10**6),
        st.fractions(min_value=Fraction(1, 2), max_value=1, max_denominator=10**6),
    ),
)
def test_positions_match_the_sympy_oracle(center, start, still, direction, scale, t):
    # one arc and one stationary strand; the oracle writes each position as
    # a rational function of t in sympy, on both halves at t = 1/2
    assume(center != start)
    arc = Arc(point(*center), point(*start), direction, scale)
    assume(point(*still) not in (arc.start, arc.endpoint()))
    stage = Stage({1: arc, 2: Stationary(point(*still))})
    got = positions_at(Motion(2, [stage]), 0, t)
    halves = (0, 1) if t == Fraction(1, 2) else (int(t > Fraction(1, 2)),)
    for half in halves:
        want = {
            s: point(*(sympy_value(f, t) for f in xy))
            for s, xy in _position_functions(stage, half).items()
        }
        assert got == want


def test_position_range_errors():
    m, _ = swap_motion(3, "s1")
    with pytest.raises(KineticError):
        positions_at(m, 5, Fraction(0))
    with pytest.raises(KineticError):
        positions_at(m, 0, Fraction(3, 2))


def test_motion_continuity_validation():
    a = Stage({1: Stationary(point(0, 0)), 2: Stationary(point(1, 0)), 3: Stationary(point(0, 1))})
    b = Stage({1: Stationary(point(5, 5)), 2: Stationary(point(1, 0)), 3: Stationary(point(0, 1))})
    with pytest.raises(KineticError):
        Motion(3, (a, b))


# -- detection -----------------------------------------------------------


def test_stationary_motion_has_no_events():
    cfg = SlotConfig(4)
    tri0, _ = initial_triangulation(cfg)
    stage = Stage({k: Stationary(p) for k, p in slot_points(cfg)})
    motion = Motion(4, (stage,))
    assert detect_flips(motion, tri0) == []


def test_three_strand_swap_has_no_events():
    # three moving points always span one triangle: the dense scan agrees
    motion, tri0 = swap_motion(3, "s1")
    assert detect_flips(motion, tri0) == []
    baseline = augment(tri0).triangle_sets()
    resolution = 2 ** 14
    for k in range(0, resolution + 1, 16):
        c = augmented_at(motion, 0, Fraction(k, resolution))
        assert c.triangle_sets() == baseline


def certified_events(motion, tri0, detector="sturm"):
    """Assert the detector's defining property: the complexes at each
    bracket's ends differ by exactly the flips emitted for that bracket."""
    events = detect_flips(motion, tri0, detector=detector)
    complex_ = augment(tri0)
    groups = []
    for ev in events:
        if groups and groups[-1][0][:3] == (ev.stage, ev.t_lo, ev.t_hi):
            groups[-1].append(ev)
        else:
            groups.append([ev])
    for group in groups:
        ev0 = group[0]
        assert complex_.same_triangles(augmented_at(motion, ev0.stage, ev0.t_lo))
        for ev in group:
            complex_ = complex_.flip(ev.edge, ev.quad)
        assert complex_.same_triangles(augmented_at(motion, ev0.stage, ev0.t_hi))
    assert complex_.same_triangles(
        augmented_at(motion, len(motion.stages) - 1, Fraction(1))
    )
    return events


def test_four_strand_swap_events_are_certified():
    motion, tri0 = swap_motion(4, "s1")
    events = certified_events(motion, tri0)
    assert len(events) == 5  # regression fixture from the certified detector
    assert all(ev.t_lo < ev.t_hi for ev in events)
    assert all(ev.t_hi - ev.t_lo < Fraction(1, 2 ** 20) for ev in events)
    times = [(ev.stage, ev.t_lo) for ev in events]
    assert times == sorted(times)


@pytest.mark.parametrize(
    "n, text", [(4, "s1 s2 s1 s2 s1 s2"), (4, "s1 s1'"), (5, "s2 s2 s2")]
)
def test_replayed_stages_are_certified(n, text):
    motion, tri0 = swap_motion(n, text)
    events = certified_events(motion, tri0)
    assert {ev.stage for ev in events} == set(range(len(motion.stages)))


@pytest.mark.parametrize("n", [4, 5])
def test_reused_walls_equal_the_fresh_walls_of_each_repeat(n):
    rng = random.Random(1200 + n)

    def key(wall):
        return wall.lo, wall.hi, wall.exact, wall.crossing

    repeats = 0
    for _ in range(3):
        i = rng.randint(1, n - 2)
        letters = range(rng.randint(4, 6))
        word = [f"s{rng.choice([i, i + 1])}" + rng.choice(["", "'"]) for _ in letters]
        motion, _ = swap_motion(n, " ".join(word))
        first = {}
        for k, stage in enumerate(motion.stages):
            j = first.setdefault(frozenset(stage.trajectories.values()), k)
            if j == k:
                continue
            reused = _relabeled_walls(_stage_walls(motion, j), motion.stages[j], stage)
            assert [key(w) for w in reused] == [key(w) for w in _stage_walls(motion, k)], (word, k)
            repeats += 1
    assert repeats


def _flipped(complex_):
    """``complex_`` with its first flippable edge flipped."""
    for edge in sorted(complex_.edges()):
        try:
            return complex_.flip(edge, complex_.quad_around(edge))
        except GeometryError:
            continue
    raise AssertionError("no flippable edge")


def test_replayed_stage_keeps_the_end_check(monkeypatch):
    motion, tri0 = swap_motion(4, "s1 s1")
    real = kinetic.augmented_at

    def wrong_end_of_stage_1(motion, stage, t):
        fresh = real(motion, stage, t)
        return _flipped(fresh) if (stage, t) == (1, 1) else fresh

    monkeypatch.setattr(kinetic, "augmented_at", wrong_end_of_stage_1)
    with pytest.raises(KineticError, match="stage 1: end complex mismatch"):
        detect_flips(motion, tri0)


def test_replay_prefix_matches_direct_complex_between_events():
    motion, tri0 = swap_motion(4, "s1")
    events = detect_flips(motion, tri0)
    rng = random.Random(5)
    for _ in range(30):
        t = Fraction(rng.randrange(1, 2 ** 16), 2 ** 16)
        if any(ev.t_lo <= t <= ev.t_hi for ev in events):
            continue
        prefix = [ev for ev in events if ev.t_hi < t]
        assert replay(augment(tri0), prefix).same_triangles(augmented_at(motion, 0, t))


def test_dense_scan_certifies_event_history_n4():
    # every complex change along a uniform sample grid of the swap lies
    # inside some emitted bracket, and each sampled complex matches the
    # replayed prefix
    motion, tri0 = swap_motion(4, "s1")
    events = detect_flips(motion, tri0)
    resolution = 2 ** 10
    for k in range(resolution + 1):
        t = Fraction(k, resolution)
        if any(ev.t_lo <= t <= ev.t_hi for ev in events):
            continue
        prefix = [ev for ev in events if ev.t_hi < t]
        assert replay(augment(tri0), prefix).same_triangles(augmented_at(motion, 0, t))


def test_detectors_agree():
    # bisect builds no walls, so on the repeated-letter pins of
    # test_flips_pins.py it checks the reused ones
    repeated = [
        (6, "s2 s5 s3 s5 s5 s5 s4'"),
        (4, "s2 s1 s3' s1 s1 s3' s2 s1 s3'"),
        (5, "s1 s2 s3 s4 s1 s2 s3 s4 s1 s2 s3 s4"),
    ]
    for n, text in [(4, "s1"), (4, "s2"), (5, "s2"), (4, "s1 s2 s1")] + repeated:
        motion, tri0 = swap_motion(n, text)
        sturm = detect_flips(motion, tri0, detector="sturm")
        bisect = detect_flips(motion, tri0, detector="bisect")
        assert [(e.stage, e.edge, e.quad) for e in sturm] == [
            (e.stage, e.edge, e.quad) for e in bisect
        ]


def test_one_stage_per_letter_and_full_word():
    motion, tri0 = swap_motion(4, "s1 s3")
    events = detect_flips(motion, tri0)
    assert {ev.stage for ev in events} == {0, 1}
    final = replay(augment(tri0), events)
    assert final.same_triangles(augmented_at(motion, 1, Fraction(1)))


def test_motion_returning_point_set_restores_geometric_complex():
    # the end positions re-occupy the slot set, so the Delaunay complex on
    # positions is the initial one; on strand ids it differs by the swap
    cfg = SlotConfig(4)
    word = parse_braid("s1", n=4)
    motion, perm = compile_motion(word, cfg)
    tri0, _ = initial_triangulation(cfg)
    events = detect_flips(motion, tri0)
    final = replay(augment(tri0), events)
    relabeled = frozenset(
        frozenset(perm[v] for v in tri) for tri in final.triangle_sets() if 0 not in tri
    )
    assert relabeled == tri0.triangle_sets()


def double_swap_motion():
    """Both swaps of 's1' and 's3' on n=4 run in the same stage."""
    cfg = SlotConfig(4)
    tri0, _ = initial_triangulation(cfg)
    pts = dict(slot_points(cfg))
    c12 = point(Fraction(3, 2), (pts[1].y + pts[2].y) / 2)
    c34 = point(Fraction(7, 2), (pts[3].y + pts[4].y) / 2)
    stage = Stage(
        {
            1: Arc(c12, pts[1], 1),
            2: Arc(c12, pts[2], 1),
            3: Arc(c34, pts[3], 1),
            4: Arc(c34, pts[4], 1),
        }
    )
    return Motion(4, (stage,)), tri0


def test_simultaneous_disjoint_swaps_in_one_stage():
    motion, tri0 = double_swap_motion()
    events = detect_flips(motion, tri0)
    assert len(events) >= 2
    # both swap regions produce events within the single stage
    assert any(set(ev.edge) & {1, 2} for ev in events)
    assert any(set(ev.edge) & {3, 4} for ev in events)
    final = replay(augment(tri0), events)
    assert final.same_triangles(augmented_at(motion, 0, Fraction(1)))
    # the two detector backends agree on the interleaved history
    bisect = detect_flips(motion, tri0, detector="bisect")
    assert [(e.edge, e.quad) for e in events] == [(e.edge, e.quad) for e in bisect]


def test_initial_mismatch_rejected():
    # the check compares complexes: the start complex flipped, or another
    # strand count's, is not the motion's start
    motion, tri0 = swap_motion(4, "s1")
    wrong, _ = initial_triangulation(SlotConfig(5))
    for initial in (_flipped(tri0), wrong):
        with pytest.raises(KineticError, match="does not match the motion's start"):
            detect_flips(motion, initial)


def test_collision_is_detected():
    trajectories = {
        1: Arc(center=point(1, 0), start=point(0, 0), direction=1),
        2: Arc(center=point(1, 0), start=point(2, 0), direction=1),
        3: Stationary(point(1, -1)),  # lies on the swap circle
    }
    motion = Motion(3, (Stage(trajectories),))
    from braidshear.geometry import delaunay

    tri0 = delaunay([(1, point(0, 0)), (2, point(2, 0)), (3, point(1, -1))])
    with pytest.raises(CollisionError):
        detect_flips(motion, tri0)


def test_collision_on_the_second_half_is_detected():
    # strand 1 passes (9/5, -3/5) at t = 3/4 only, inside the second half
    motion = Motion(3, (Stage({
        1: Arc(center=point(1, 0), start=point(0, 0), direction=1),
        2: Stationary(point(5, 5)),
        3: Stationary(point(Fraction(9, 5), Fraction(-3, 5))),
    }),))
    assert positions_at(motion, 0, Fraction(3, 4))[1] == point(Fraction(9, 5), Fraction(-3, 5))
    with pytest.raises(CollisionError, match="strands 1 and 3 collide during stage 0"):
        kinetic._check_collisions(motion, 0)


def test_collision_needs_both_coordinate_differences_to_vanish(monkeypatch):
    # at t = 1/2 strand 1 passes (1, -1), straight above strand 3: dx = 0, dy = 1
    motion = Motion(3, (Stage({
        1: Arc(center=point(1, 0), start=point(0, 0), direction=1),
        2: Stationary(point(5, 5)),
        3: Stationary(point(1, -2)),
    }),))
    kinetic._check_collisions(motion, 0)
    # a Motion rejects coincident starts, so identically zero differences
    # are fed in directly
    monkeypatch.setattr(kinetic, "_collision_polys", lambda motion, k: [(0, 1, 2, [0, 0, 0], [])])
    with pytest.raises(CollisionError, match="strands 1 and 2 coincide throughout stage 0"):
        kinetic._check_collisions(motion, 0)


# -- certificate-driven wall decisions ---------------------------------------


def _outcome(detect, motion, tri0):
    try:
        return detect(motion, tri0)
    except (KineticError, DegenerateInputError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_detect_flips_matches_full_recompute_oracle(n):
    # every event, brackets included, as rebuilding the complex by
    # delaunay() at both ends of every wall gives it
    rng = random.Random(700 + n)
    for bulge in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        short = [f"s{rng.randint(1, n - 1)}" + rng.choice(["", "'"]) for _ in range(rng.randint(1, 3))]
        # repeated stages, which reuse the walls of their first occurrence
        i = rng.randint(1, n - 2)
        repeated = [
            f"s{rng.choice([i, i + 1])}" + rng.choice(["", "'"]) for _ in range(rng.randint(4, 8))
        ]
        for letters in (short, repeated):
            cfg = SlotConfig(n).with_bulge(bulge)
            motion, _ = compile_motion(parse_braid(" ".join(letters), n=n), cfg)
            tri0, _ = initial_triangulation(cfg)
            expected = _outcome(full_recompute_detect_flips, motion, tri0)
            assert _outcome(detect_flips, motion, tri0) == expected, (letters, bulge)


def single_stage(trajectories):
    motion = Motion(len(trajectories), [Stage(trajectories)])
    start = positions_at(motion, 0, Fraction(0))
    return motion, delaunay(sorted(start.items()))


def unit_circle_and(mover, shift=(0, 0), first=1):
    """Strands ``first``..``first + 2`` fixed on a unit circle, the next one
    on ``mover``; everything translated by ``shift``."""
    dx, dy = shift
    fixed = [point(dx, 1 + dy), point(dx, -1 + dy), point(-1 + dx, dy)]
    out = {first + k: Stationary(p) for k, p in enumerate(fixed)}
    out[first + 3] = mover
    return out


def crossing_arc(dx=0, dy=0):
    """Crosses the unit circle about (dx, dy) once, away from t = 1/2."""
    return Arc(point(Fraction(3, 2) + dx, dy), point(Fraction(5, 2) + dx, dy), 1)


@pytest.fixture
def fallbacks(monkeypatch):
    """Signs that ``detect_flips`` decides a bracket by the full recompute
    rather than by its certificates: each ``_apply_transition`` call as
    ``(stage, t_lo, t_hi)``, and each complex rebuilt inside a stage as
    ``(stage, t)``."""
    seen = []
    real_transition, real_augmented = kinetic._apply_transition, kinetic.augmented_at

    def transition(current, fresh_lo, fresh_hi, stage_idx, t_lo, t_hi, events):
        seen.append((stage_idx, t_lo, t_hi))
        return real_transition(current, fresh_lo, fresh_hi, stage_idx, t_lo, t_hi, events)

    def augmented(motion, stage, t):
        if 0 < t < 1:
            seen.append((stage, t))
        return real_augmented(motion, stage, t)

    monkeypatch.setattr(kinetic, "_apply_transition", transition)
    monkeypatch.setattr(kinetic, "augmented_at", augmented)
    return seen


def test_tangential_cocircularity_emits_no_flip(fallbacks):
    # strand 4 touches the unit circle from outside at (1, 0), t = 2/3: the
    # incircle certificate of {1, 2, 3, 4} has a double root and keeps its sign
    motion, tri0 = single_stage(
        unit_circle_and(Arc(point(3, 0), point(Fraction(21, 5), Fraction(8, 5)), 1))
    )
    (wall,) = _stage_walls(motion, 0)
    ((subset, poly, p_hi),) = wall.certs
    assert subset == (1, 2, 3, 4) and p_hi is poly and wall.crossing == ()
    assert wall.lo < Fraction(2, 3) < wall.hi
    assert roots.degree(roots.squarefree_part(poly)) < roots.degree(poly)
    assert _certified_flips(augment(tri0), wall, 0) == []
    assert detect_flips(motion, tri0) == [] == full_recompute_detect_flips(motion, tri0)
    assert fallbacks == []


def test_simple_cocircularity_root_emits_one_flip(fallbacks):
    motion, tri0 = single_stage(unit_circle_and(crossing_arc()))
    (wall,) = _stage_walls(motion, 0)
    assert wall.crossing == ((1, 2, 3, 4),)
    assert _certified_flips(augment(tri0), wall, 0) == [((1, 2), (1, 3, 2, 4))]
    events = detect_flips(motion, tri0)
    assert events == [FlipEvent(0, wall.lo, wall.hi, (1, 2), (1, 3, 2, 4))]
    assert events == full_recompute_detect_flips(motion, tri0)
    assert fallbacks == []


def test_exact_half_wall_is_decided_by_its_certificates(fallbacks):
    # strand 4 crosses the circle through strands 1-3 exactly at t = 1/2
    motion, tri0 = single_stage({
        1: Stationary(point(0, 0)),
        2: Stationary(point(2, 0)),
        3: Stationary(point(0, 2)),
        4: Arc(point(2, Fraction(1, 2)), point(3, Fraction(1, 2)), 1, Fraction(3, 2)),
    })
    walls = _stage_walls(motion, 0)
    (marker,) = [w for w in walls if w.exact is not None]
    assert marker.exact == Fraction(1, 2)
    # each subset's certificate reads the first half's polynomial at lo and
    # the second half's at hi
    assert marker.certs and all(p_lo != p_hi for _, p_lo, p_hi in marker.certs)
    assert (1, 2, 3, 4) in marker.crossing
    events = detect_flips(motion, tri0)
    assert events == full_recompute_detect_flips(motion, tri0)
    assert fallbacks == []
    assert (events[0].t_lo, events[0].t_hi) == (marker.lo, marker.hi)


def test_merged_wall_is_decided_by_its_certificates(fallbacks):
    # two congruent copies of the crossing motion: their incircle
    # certificates share every root, so those walls merge, and the two
    # flips come from the merged wall's certificates in one bracket
    motion, tri0 = single_stage({
        **unit_circle_and(crossing_arc()),
        **unit_circle_and(crossing_arc(20, 7), shift=(20, 7), first=5),
    })
    walls = _stage_walls(motion, 0)
    merged = [(0, w.lo, w.hi) for w in walls if len(w.certs) > 1]
    assert merged and all(w.exact is None for w in walls)
    events = detect_flips(motion, tri0)
    assert events == full_recompute_detect_flips(motion, tri0)
    assert fallbacks == []
    twins = [ev for ev in events if ev.edge in ((1, 2), (5, 6))]
    assert [ev.quad for ev in twins] == [(1, 3, 2, 4), (5, 7, 6, 8)]
    assert (0, twins[0].t_lo, twins[0].t_hi) == (0, twins[1].t_lo, twins[1].t_hi)
    assert (0, twins[0].t_lo, twins[0].t_hi) in merged


def test_three_strand_walls_are_decided_by_their_certificates(fallbacks):
    # at n = 3 the hull-closure complex is a tetrahedron: every subset is
    # all four vertices and the other diagonal of every quad is an edge, so
    # a crossing certificate flips nothing
    motion, tri0 = swap_motion(3, "s1")
    walls = _stage_walls(motion, 0)
    assert any(w.crossing for w in walls)
    assert all(_certified_flips(augment(tri0), w, 0) == [] for w in walls)
    assert detect_flips(motion, tri0) == [] == full_recompute_detect_flips(motion, tri0)
    assert fallbacks == []


def test_all_strands_collinear_at_once_flips_nothing(fallbacks):
    # strands 1-3 lie on one line and strand 4 crosses it twice, once at
    # t = 1/2: every subset holding strand 4 crosses there, and two of the
    # flips they name would both add the diagonal (1, 2)
    motion, tri0 = single_stage({
        1: Stationary(point(Fraction(-23, 2), Fraction(-7, 2))),
        2: Stationary(point(Fraction(1, 2), Fraction(-13, 2))),
        3: Stationary(point(Fraction(-5, 2), Fraction(-23, 4))),
        4: Arc(point(Fraction(-27, 4), -3), point(Fraction(-19, 4), -4), -1, Fraction(3, 4)),
    })
    walls = _stage_walls(motion, 0)
    assert [len(w.crossing) for w in walls] == [4, 4]
    assert all(_certified_flips(augment(tri0), w, 0) == [] for w in walls)
    assert detect_flips(motion, tri0) == [] == full_recompute_detect_flips(motion, tri0)
    assert fallbacks == []


def test_end_mismatch_after_simultaneous_certificates_is_a_degeneracy():
    # strands 1, 2 and 4 lie on one line and strand 5 crosses it between 1
    # and 2 exactly at t = 1/2: four subsets cross in the exact wall, and
    # their flips do not give the end complex.  That is a nongeneric motion,
    # which a caller retries at another bulge, not an internal error.
    motion, tri0 = single_stage({
        1: Stationary(point(-1, -2)),
        2: Stationary(point(0, -2)),
        3: Stationary(point(Fraction(-3, 2), -3)),
        4: Stationary(point(Fraction(3, 2), -2)),
        5: Arc(
            point(Fraction(-6, 5), Fraction(-7, 5)), point(Fraction(-3, 5), Fraction(-11, 5)), -1
        ),
    })
    walls = _stage_walls(motion, 0)
    assert [len(w.certs) for w in walls if w.exact is not None] == [4]
    with pytest.raises(DegeneracyError, match="stage 0: end complex mismatch"):
        detect_flips(motion, tri0)


def merged_flips(motion, events):
    """The events whose bracket is a wall holding several certificates."""
    brackets = {
        (k, w.lo, w.hi)
        for k in range(len(motion.stages))
        for w in _stage_walls(motion, k)
        if len(w.certs) > 1
    }
    return [ev for ev in events if ev[:3] in brackets]


def test_merged_walls_that_flip_match_the_full_recompute(fallbacks):
    # 70 events, some of them decided by merged walls, which flip on few
    # short words
    cfg = SlotConfig(12).with_bulge(Fraction(2))
    motion, _ = compile_motion(parse_braid("s10 s7", n=12), cfg)
    tri0, _ = initial_triangulation(cfg)
    events = detect_flips(motion, tri0)
    assert fallbacks == []
    assert len(events) == 70 and merged_flips(motion, events)
    assert events == full_recompute_detect_flips(motion, tri0)


def random_crossing_arc(rng):
    """A random half-turn near the unit circle, which it may cross."""
    cx, cy = (Fraction(rng.randint(-12, 12), 8) for _ in range(2))
    r = Fraction(rng.randint(4, 16), 8)
    ux, uy, norm = rng.choice([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (3, 4, 5), (-4, 3, 5)])
    start = point(cx + r * ux / norm, cy + r * uy / norm)
    return Arc(point(cx, cy), start, rng.choice([1, -1]), Fraction(rng.randint(1, 8), 4))


def twin_motion(rng):
    """Two congruent copies of a random crossing motion far apart: strands
    1-4 and their image under a quarter turn and a shift, strands 5-8.  A
    shift alone would keep the lines through twin strands parallel, and
    with them every collinearity of one twin pair with another strand."""
    dx, dy = Fraction(rng.randint(30, 40)), Fraction(rng.randint(-9, 9))

    def image(p):
        return point(dx - p.y, dy + p.x)

    near = unit_circle_and(random_crossing_arc(rng))
    far = {}
    for s, traj in near.items():
        if isinstance(traj, Arc):
            far[s + 4] = Arc(image(traj.center), image(traj.start), traj.direction, traj.scale)
        else:
            far[s + 4] = Stationary(image(traj.point))
    return single_stage({**near, **far})


def test_seeded_twin_motions_match_the_full_recompute(fallbacks):
    # their incircle certificates have equal roots, so the twin flips share
    # one bracket
    rng = random.Random(2500)
    twins = 0
    for _ in range(12):
        try:
            motion, tri0 = twin_motion(rng)
        except (KineticError, DegenerateInputError):
            continue  # a start on the circle or on a fixed strand
        expected = _outcome(full_recompute_detect_flips, motion, tri0)
        events = _outcome(detect_flips, motion, tri0)
        assert events == expected
        if isinstance(events, list):
            twins += len(merged_flips(motion, events)) >= 2
    assert fallbacks == []
    assert twins >= 6


def test_simultaneous_certified_flips_sharing_a_triangle_are_degenerate():
    pentagon = augment(convex_polygon_complex([(1, 2, 3), (1, 3, 4), (1, 4, 5)]))
    wall = kinetic._Wall(None, Fraction(1, 3), Fraction(1, 2), crossing=((1, 2, 3, 4), (1, 3, 4, 5)))
    message = "stage 2: simultaneous events at (1, 3) and (1, 4) share a triangle"
    with pytest.raises(DegeneracyError, match=re.escape(message)):
        _certified_flips(pentagon, wall, 2)


# -- replay ----------------------------------------------------------------


def test_replay_empty_is_identity():
    _, tri0 = swap_motion(4, "s1")
    assert replay(augment(tri0), []) == augment(tri0)


def test_replay_event_and_inverse_restores_complex():
    complex_ = convex_polygon_complex([(1, 2, 3), (1, 3, 4)])
    forward = FlipEvent(0, Fraction(0), Fraction(1, 2), (1, 3), (1, 2, 3, 4))
    backward = FlipEvent(0, Fraction(1, 2), Fraction(1), (2, 4), (2, 3, 4, 1))
    assert replay(complex_, [forward, backward]) == complex_


def test_replay_inconsistent_event_raises():
    complex_ = convex_polygon_complex([(1, 2, 3), (1, 3, 4)])
    bogus = FlipEvent(0, Fraction(0), Fraction(1), (2, 4), (2, 3, 4, 1))
    with pytest.raises(InconsistentEventError):
        replay(complex_, [bogus])


# -- simultaneous-event classification -------------------------------------


def test_disjoint_simultaneous_flips_are_emitted_in_canonical_order():
    octagon = convex_polygon_complex(
        [(1, 2, 3), (1, 3, 4), (1, 4, 8), (4, 5, 8), (5, 6, 7), (5, 7, 8)]
    )
    first = octagon.flip((1, 3), octagon.quad_around((1, 3)))
    target = first.flip((5, 7), first.quad_around((5, 7)))
    events = []
    result = _apply_transition(
        octagon, octagon, target, 0, Fraction(1, 4), Fraction(1, 3), events
    )
    assert result.same_triangles(target)
    assert [ev.edge for ev in events] == [(1, 3), (5, 7)]
    assert all(ev.t_lo == Fraction(1, 4) for ev in events)


def test_simultaneous_flips_sharing_a_triangle_are_degenerate():
    pentagon = convex_polygon_complex([(1, 2, 3), (1, 3, 4), (1, 4, 5)])
    # flipping (1,3) and (1,4) from the same state touches triangle (1,3,4)
    first = pentagon.flip((1, 3), pentagon.quad_around((1, 3)))
    target = first.flip((1, 4), first.quad_around((1, 4)))
    with pytest.raises((DegeneracyError, KineticError)):
        _apply_transition(pentagon, pentagon, target, 0, Fraction(0), Fraction(1, 8), [])


# -- wall separation (synthetic: exact ties and near-ties) -------------------


def _poly_with_roots(*roots_):
    coeffs = [Fraction(1)]
    for r in roots_:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= Fraction(r) * coeffs[i + 1]
    return coeffs


def test_separate_walls_merges_exactly_shared_roots():
    from braidshear.kinetic import _Wall, _separate_walls
    from braidshear import roots as R

    w_min = Fraction(1, 2 ** 20)
    p1 = _poly_with_roots(Fraction(1, 3), Fraction(1, 7))
    p2 = _poly_with_roots(Fraction(1, 3), Fraction(2, 7))
    walls = []
    for p in (p1, p2):
        for iso in R.isolate_roots(p, Fraction(0), Fraction(1)):
            walls.append(_Wall(p, iso.lo, iso.hi))
    for w in walls:
        w.shrink(w_min)
    separated = _separate_walls(walls, w_min)
    assert len(separated) == 3  # 1/7, 2/7, and the merged shared root 1/3
    assert all(a.hi <= b.lo for a, b in zip(separated, separated[1:]))
    shared = [w for w in separated if w.lo < Fraction(1, 3) < w.hi]
    assert len(shared) == 1


def test_separate_walls_splits_very_close_distinct_roots():
    from braidshear.kinetic import _Wall, _separate_walls
    from braidshear import roots as R

    w_min = Fraction(1, 2 ** 10)
    gap = Fraction(1, 2 ** 30)
    p1 = _poly_with_roots(Fraction(1, 2) - gap)
    p2 = _poly_with_roots(Fraction(1, 2) + gap)
    walls = []
    for p in (p1, p2):
        (iso,) = R.isolate_roots(p, Fraction(0), Fraction(1))
        walls.append(_Wall(p, iso.lo, iso.hi))
    for w in walls:
        w.shrink(w_min)
    separated = _separate_walls(walls, w_min)
    assert len(separated) == 2
    assert separated[0].hi <= separated[1].lo


def test_separate_walls_exact_marker_merges_with_matching_interval_root():
    from braidshear.kinetic import _Wall, _separate_walls
    from braidshear import roots as R

    w_min = Fraction(1, 2 ** 12)
    half = Fraction(1, 2)
    p = _poly_with_roots(half)
    exact = _Wall(p, half, half, exact=half)
    exact.shrink(w_min)
    (iso,) = R.isolate_roots(_poly_with_roots(half, Fraction(1, 9)), Fraction(2, 5), Fraction(3, 5))
    interval = _Wall(_poly_with_roots(half, Fraction(1, 9)), iso.lo, iso.hi)
    interval.shrink(w_min)
    separated = _separate_walls([exact, interval], w_min)
    assert len(separated) == 1
    assert separated[0].lo < half < separated[0].hi


def test_separate_walls_gives_up_as_a_degeneracy():
    from braidshear.kinetic import _Wall, _separate_walls

    # roots 2^-1000 and 1/(2^1000 + 1) lie about 2^-2000 apart, below the
    # width floor (SEPARATION_FLOOR) under which event times are inseparable
    walls = [_Wall([-1, 2 ** 1000 + k], Fraction(0), Fraction(1)) for k in (0, 1)]
    with pytest.raises(DegeneracyError, match="failed to separate"):
        _separate_walls(walls, DEFAULT_MIN_BRACKET)


def _synthetic_walls(seed):
    """Walls of 2-14 polynomials whose roots come from one pool: roots
    shared exactly and roots 2^-18 to 2^-26 apart; some sets hold the exact
    t = 1/2 wall, built as ``_stage_walls`` builds it."""
    from braidshear.kinetic import _Wall

    rng = random.Random(seed)
    half = Fraction(1, 2)
    pool = []
    for _ in range(rng.randint(1, 6)):
        r = Fraction(rng.randint(1, 996), 997)
        pool.append(r)
        for _ in range(rng.randint(0, 2)):
            pool.append(r + Fraction(rng.choice((-1, 1)), 2 ** rng.randint(18, 26)))
    if rng.random() < 0.3:
        pool.append(half)
    w_min = Fraction(1, 2 ** rng.randint(6, 20))
    walls = []
    for k in range(rng.randint(2, 14)):
        chosen = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        poly = _poly_with_roots(*chosen)
        cert = ((k,), poly, poly)
        if half in chosen:
            if not any(w.exact for w in walls):
                walls.append(_Wall(poly, half, half, exact=half, certs=[cert]))
            chosen.remove(half)
        if chosen:
            work = _poly_with_roots(*chosen)
            for iso in roots.isolate_roots(work, Fraction(0), Fraction(1)):
                walls.append(_Wall(work, iso.lo, iso.hi, certs=[cert]))
    for w in walls:
        w.shrink(w_min)
    return walls, w_min


def _wall_data(walls):
    return [(w.lo, w.hi, w.exact, w.poly, w.certs) for w in walls]


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)])
def test_separate_walls_matches_the_restart_loop(seeds):
    from braidshear.kinetic import _separate_walls

    merged = narrowed = 0
    for seed in seeds:
        walls, w_min = _synthetic_walls(seed)
        widths = {id(w): w.hi - w.lo for w in walls}
        ours = _separate_walls(list(walls), w_min)
        theirs = restart_separate_walls(*_synthetic_walls(seed))
        assert _wall_data(ours) == _wall_data(theirs), seed
        assert all(a.hi <= b.lo for a, b in zip(ours, ours[1:]))
        merged += len(ours) < len(walls)
        narrowed += any(w.hi - w.lo < widths.get(id(w), 0) for w in ours)
    # many sets take each fix: a merge, and a narrowing that stays
    assert merged > 40 and narrowed > 40


def test_separate_walls_splits_300_roots_2_to_the_minus_30_apart():
    # neighbours overlap at DEFAULT_MIN_BRACKET: 475 fixes in the one pass
    from braidshear.kinetic import _Wall, _separate_walls

    gap = Fraction(1, 2 ** 30)

    def walls():
        out = []
        for k in range(1, 301):
            poly = [-(2 ** 30 + 3 * k), 3 * 2 ** 30]  # the root 1/3 + k 2^-30
            (iso,) = roots.isolate_roots(poly, Fraction(0), Fraction(1))
            out.append(_Wall(poly, iso.lo, iso.hi, certs=[((k,), poly, poly)]))
        for w in out:
            w.shrink(DEFAULT_MIN_BRACKET)
        return out

    separated = _separate_walls(walls(), DEFAULT_MIN_BRACKET)
    theirs = restart_separate_walls(walls(), DEFAULT_MIN_BRACKET)
    assert _wall_data(separated) == _wall_data(theirs)
    assert [[c[0] for c in w.certs] for w in separated] == [[(k,)] for k in range(1, 301)]
    for k, w in enumerate(separated, 1):
        assert w.lo < Fraction(1, 3) + k * gap < w.hi
    assert all(a.hi <= b.lo for a, b in zip(separated, separated[1:]))


# -- integer event polynomials against the rational-function oracle -------


def _proportional(a, b):
    """a = c * b for a nonzero rational constant c."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if len(a) != len(b):
        return False
    if not a:
        return True
    c = a[-1] / b[-1]
    return c != 0 and all(x == c * y for x, y in zip(a, b))


# word shapes of the benchmark workloads (n=5 Coxeter and n=6 far words,
# n=4 full twists), each restricted to stages covering its distinct letters
ORACLE_SHAPES = [
    (5, "s3 s4 s2 s1", (0, 3)),
    (6, "s3' s1' s5'", (1,)),
    (4, "s2' s3' s2' s3' s2' s3'", (0, 1)),
]


@pytest.mark.parametrize("bulge", [Fraction(1), Fraction(1, 3), Fraction(5, 2)], ids=str)
def test_event_polys_match_rational_function_oracle(bulge):
    from braidshear.kinetic import _collision_polys, _padd, _pmul, _stage_event_polys, _strip_w
    from oracles import sympy_collision_polys, sympy_stage_event_polys

    for n, text, stages in ORACLE_SHAPES:
        motion, _ = compile_motion(parse_braid(text, n=n), SlotConfig(n).with_bulge(bulge))
        for k in stages:
            ints = _stage_event_polys(motion, k)
            oracle = sympy_stage_event_polys(motion, k)
            assert len(ints) == len(oracle)
            for (p, lo, hi, _), (q, rlo, rhi) in zip(ints, oracle):
                assert all(type(c) is int for c in p)
                assert (lo, hi) == (rlo, rhi)
                assert _proportional(p, q)
            coll = _collision_polys(motion, k)
            ocoll = sympy_collision_polys(motion, k)
            assert [c[:3] for c in coll] == [c[:3] for c in ocoll]
            for (half, _, _, dx, dy), (_, _, _, q) in zip(coll, ocoll):
                assert _proportional(_strip_w(_padd(_pmul(dx, dx), _pmul(dy, dy)), half), q)


def _polys_or_error(build, motion, k):
    try:
        return build(motion, k)
    except DegeneracyError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "bulge", [Fraction(1), Fraction(1, 3), Fraction(3, 4), Fraction(5, 4), Fraction(2)], ids=str
)
def test_laplace_event_polys_equal_the_determinant_oracle(bulge):
    # coefficients, signs, order and degeneracies of the one determinant
    # per subset, on random words at n = 3-8
    from braidshear.kinetic import _stage_event_polys
    from oracles import generic_stage_event_polys

    rng = random.Random(str(bulge))
    for n in range(3, 9):
        letters = [f"s{rng.randint(1, n - 1)}" + rng.choice(["", "'"]) for _ in range(2)]
        cfg = SlotConfig(n, rng.choice([Fraction(1, 64), Fraction(1, 10)])).with_bulge(bulge)
        motion, _ = compile_motion(parse_braid(" ".join(letters), n=n), cfg)
        for k in range(len(motion.stages)):
            ours = _polys_or_error(_stage_event_polys, motion, k)
            assert ours == _polys_or_error(generic_stage_event_polys, motion, k), (letters, k)


def test_laplace_event_polys_hold_for_any_number_of_movers():
    # two movers in each of two swaps, then random stages with up to all
    # strands moving on arcs of several scales
    from braidshear.kinetic import _stage_event_polys
    from oracles import generic_stage_event_polys

    motion, _ = double_swap_motion()
    assert _stage_event_polys(motion, 0) == generic_stage_event_polys(motion, 0)
    rng = random.Random(41)
    movers = set()
    for _ in range(12):
        n = rng.randint(4, 6)
        starts = rng.sample([point(x, y) for x in range(-4, 5) for y in range(-3, 4)], n)
        trajectories = {}
        for s, p in enumerate(starts, 1):
            if rng.random() < 0.7:
                center = point(p.x + rng.choice([-2, -1, 1, 2]), p.y + Fraction(rng.randint(-2, 2), 2))
                scale = Fraction(rng.randint(1, 7), rng.randint(1, 4))
                trajectories[s] = Arc(center, p, rng.choice([1, -1]), scale)
            else:
                trajectories[s] = Stationary(p)
        stage = Stage(trajectories)
        if not _distinct_ends(stage):
            continue
        motion = Motion(n, [stage])
        movers.add(len(stage.movers()))
        ours = _polys_or_error(_stage_event_polys, motion, 0)
        assert ours == _polys_or_error(generic_stage_event_polys, motion, 0)
    assert {3, 4} <= movers


def _distinct_ends(stage):
    ends = [t.endpoint() for t in stage.trajectories.values()]
    return len(set(ends)) == len(ends)


def test_strip_w_divides_out_every_root_free_factor():
    from braidshear.kinetic import _pmul, _pscale, _strip_w

    core = [-6, 3, 0, 9]  # 3 (3t^3 + t - 2)
    # W = 1 + 4t^2 on the first half, 1 - 2t + 2t^2 on the second
    for half, w in ((0, [1, 0, 4]), (1, [1, -2, 2])):
        assert _strip_w(_pmul(_pmul(w, w), core), half) == [-2, 1, 0, 3]
        assert _strip_w(_pmul(w, [0, 0, 5]), half) == [0, 0, 1]
        assert _strip_w([0, 0, 0], half) == []
        assert _strip_w(_pscale(w, 3), half) == [1]
    # each half divides out its own W only
    assert _strip_w([1, 0, 4], 1) == [1, 0, 4]
    assert _strip_w([2, -4, 4], 0) == [1, -2, 2]
    assert _strip_w([2, -4, 4], 1) == [1]


# -- wire formats -----------------------------------------------------------


def test_events_json_round_trip():
    motion, tri0 = swap_motion(4, "s1")
    events = detect_flips(motion, tri0)
    data = events_to_json(events)
    read = [
        FlipEvent(
            rec["stage"],
            parse_rational(rec["t_lo"]),
            parse_rational(rec["t_hi"]),
            tuple(rec["edge"]),
            tuple(rec["quad"]),
        )
        for rec in data
    ]
    assert read == events
    assert all(set(rec) == {"stage", "t_lo", "t_hi", "edge", "quad"} for rec in data)


def test_integer_augmented_at_matches_fraction_positions():
    # augmented_at evaluates integer numerators; the complex (or the
    # degeneracy, kind and ids) must be that of the Fraction positions
    def outcome(build):
        try:
            return build()
        except DegenerateInputError as exc:
            return (exc.kind, exc.ids)

    # strand 4 passes the circle through the other three at t = 1/2
    cocircular = Motion(4, [Stage({
        1: Stationary(point(0, 0)),
        2: Stationary(point(2, 0)),
        3: Stationary(point(0, 2)),
        4: Arc(center=point(2, 1), start=point(3, 1), direction=1),
    })])
    at_half = outcome(lambda: augmented_at(cocircular, 0, Fraction(1, 2)))
    assert at_half == ("cocircular-4", (1, 2, 3, 4))
    motions = [cocircular] + [
        swap_motion(n, text)[0] for n, text in [(3, "s1 s2'"), (4, "s1 s2 s3'"), (5, "s3 s4 s2 s1")]
    ]
    rng = random.Random(23)
    for motion in motions:
        for stage in range(len(motion.stages)):
            times = [Fraction(0), Fraction(1, 2), Fraction(1)]
            times += [Fraction(rng.randrange(1, 2 ** 12), 2 ** 12) for _ in range(6)]
            times += [Fraction(rng.randrange(1, 97), 97) for _ in range(4)]
            for t in times:
                fresh = outcome(lambda: augmented_at(motion, stage, t))
                expected = outcome(
                    lambda: augment(delaunay(sorted(positions_at(motion, stage, t).items())))
                )
                assert fresh == expected, (stage, t)
