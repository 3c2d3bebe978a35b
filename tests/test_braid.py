from fractions import Fraction

import pytest

from braidshear.braid import (
    MAX_STRANDS,
    BraidParseError,
    BraidWord,
    SlotConfig,
    StrandCountError,
    compile_motion,
    initial_triangulation,
    parse_braid,
    slot_position,
)
from braidshear.kinetic import Arc, positions_at
from oracles import brute_force_delaunay_triangles, swap_clearance_ok


# -- parsing ---------------------------------------------------------------


def test_parse_plain_word():
    word = parse_braid("s1 s2 s1", n=3)
    assert word.letters == ((1, 1), (2, 1), (1, 1))


def test_parse_inverse_markers():
    assert parse_braid("s1 s1'", n=2).letters == ((1, 1), (1, -1))
    assert parse_braid("s1 s1^-1", n=2).letters == ((1, 1), (1, -1))


def test_parse_index_out_of_range():
    with pytest.raises(BraidParseError):
        parse_braid("s3", n=3)
    with pytest.raises(BraidParseError):
        parse_braid("s0", n=3)


def test_parse_error_carries_position():
    with pytest.raises(BraidParseError) as err:
        parse_braid("s1 x2", n=3)
    assert err.value.position == 3
    assert "s1" in err.value.expected


def test_parse_infers_strand_count():
    assert parse_braid("s2 s1").n == 3
    with pytest.raises(BraidParseError):
        parse_braid("")


def test_parse_empty_word_with_n():
    word = parse_braid("", n=4)
    assert word.letters == ()
    assert word.n == 4


def test_word_text_round_trip():
    for text in ["", "s1", "s1 s2'", "s3 s1 s2'"]:
        word = parse_braid(text, n=4)
        assert parse_braid(word.text(), n=4) == word


# -- configuration -----------------------------------------------------------


def test_slot_positions_on_flattened_parabola():
    cfg = SlotConfig(4)
    assert slot_position(cfg, 1) == (1, Fraction(1, 64))
    assert slot_position(cfg, 4) == (4, Fraction(1, 4))


def test_config_validation():
    with pytest.raises(ValueError):
        SlotConfig(1)
    with pytest.raises(ValueError):
        SlotConfig(3, epsilon=Fraction(0))
    with pytest.raises(ValueError):
        SlotConfig(3, bulge=Fraction(-1))


def test_slot_config_takes_at_most_max_strands():
    # a library caller that compiles a motion without run_invariant is
    # bounded too
    assert SlotConfig(MAX_STRANDS).n == MAX_STRANDS
    with pytest.raises(StrandCountError, match=f"at most {MAX_STRANDS} strands"):
        SlotConfig(MAX_STRANDS + 1)


# -- initial triangulation ----------------------------------------------------


def test_initial_triangulation_n3():
    complex_, edges = initial_triangulation(SlotConfig(3))
    assert len(complex_.triangles) == 1
    assert edges == ((1, 2), (1, 3), (2, 3))


def test_initial_triangulation_n4():
    _, edges = initial_triangulation(SlotConfig(4))
    assert len(edges) == 5


def test_initial_triangulation_n5_matches_oracle():
    cfg = SlotConfig(5, epsilon=Fraction(1, 64))
    complex_, edges = initial_triangulation(cfg)
    oracle = brute_force_delaunay_triangles(
        [(k, slot_position(cfg, k)) for k in range(1, 6)]
    )
    assert complex_.triangle_sets() == oracle
    # frozen fixture: near-collinear convex position fans from the flat side
    assert edges == ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5))


# -- motion compilation --------------------------------------------------------


def test_empty_word_motion():
    motion, perm = compile_motion(parse_braid("", n=3), SlotConfig(3))
    assert motion.stages == ()
    assert perm == {1: 1, 2: 2, 3: 3}


def test_single_generator_transposition():
    motion, perm = compile_motion(parse_braid("s1", n=2), SlotConfig(2))
    assert len(motion.stages) == 1
    assert perm == {1: 2, 2: 1}
    arcs = [t for t in motion.stages[0].trajectories.values() if isinstance(t, Arc)]
    assert len(arcs) == 2
    assert all(a.direction == 1 for a in arcs)


def test_inverse_generator_turns_clockwise():
    motion, _ = compile_motion(parse_braid("s1'", n=2), SlotConfig(2))
    arcs = [t for t in motion.stages[0].trajectories.values() if isinstance(t, Arc)]
    assert all(a.direction == -1 for a in arcs)


def test_two_letter_word_is_three_cycle():
    _, perm = compile_motion(parse_braid("s1 s2", n=3), SlotConfig(3))
    assert perm == {1: 3, 2: 1, 3: 2}


def test_permutation_composition():
    w1 = parse_braid("s1 s2", n=4)
    w2 = parse_braid("s3 s1", n=4)
    combined = BraidWord(4, w1.letters + w2.letters)
    _, p1 = compile_motion(w1, SlotConfig(4))
    _, p2 = compile_motion(w2, SlotConfig(4))
    _, compiled = compile_motion(combined, SlotConfig(4))
    assert compiled == {s: p2[p1[s]] for s in p1}


def test_inverse_pair_returns_strands_home_exactly():
    cfg = SlotConfig(3)
    motion, perm = compile_motion(parse_braid("s1 s1'", n=3), cfg)
    assert perm == {1: 1, 2: 2, 3: 3}
    finals = positions_at(motion, 1, Fraction(1))
    for strand, pos in finals.items():
        assert pos == slot_position(cfg, strand)


def test_stage_ends_occupy_slot_set():
    cfg = SlotConfig(4)
    motion, _ = compile_motion(parse_braid("s2 s1 s3", n=4), cfg)
    slots = {slot_position(cfg, k) for k in range(1, 5)}
    for stage in range(3):
        assert set(positions_at(motion, stage, Fraction(1)).values()) == slots


# -- arc safety -----------------------------------------------------------------


def test_swap_arcs_clear_stationary_slots():
    for n in (3, 4, 5, 8):
        assert swap_clearance_ok(SlotConfig(n))
    assert swap_clearance_ok(SlotConfig(4, bulge=Fraction(2)))


def test_swap_clearance_holds_across_parameter_grid():
    # other slots project beyond the swap chord, so the ellipse never
    # reaches them whatever the bulge
    for eps in (Fraction(1, 64), Fraction(1, 8), Fraction(1), Fraction(4)):
        for bulge in (Fraction(1, 4), Fraction(1), Fraction(2), Fraction(50)):
            assert swap_clearance_ok(SlotConfig(5, epsilon=eps, bulge=bulge))


def test_moving_strands_keep_distance_from_stationary_ones():
    cfg = SlotConfig(4)
    motion, _ = compile_motion(parse_braid("s1", n=4), cfg)
    for k in range(0, 257):
        pos = positions_at(motion, 0, Fraction(k, 256))
        for i in (1, 2):
            for j in (3, 4):
                assert pos[i] != pos[j]
