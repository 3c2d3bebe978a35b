"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (symbolic equality or exact predicates); the stated
runtimes are expectations and are printed, not asserted.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from braidshear.braid import SlotConfig, compile_motion, initial_triangulation, parse_braid
from braidshear.cli import main as cli_main
from braidshear.coordinates import (
    LabelSystem,
    check_commutativity,
    check_involution,
    check_pentagon,
    invariants_equal,
    run_invariant,
)
from braidshear.geometry import delaunay
from braidshear.kinetic import augment, augmented_at, detect_flips
from oracles import brute_force_delaunay_triangles, hull_edges, random_generic_points, replay


def _report(label, ok, started):
    elapsed = time.monotonic() - started
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f} s)")
    return ok


def test_criterion_01_pentagon_ptolemy():
    started = time.monotonic()
    ok = check_pentagon(LabelSystem.PTOLEMY)
    assert _report("1 pentagon ptolemy", ok, started)


def test_criterion_02a_pentagon_shear_frozen_convention():
    started = time.monotonic()
    ok = check_pentagon(LabelSystem.SHEAR)
    assert _report("2a pentagon shear (frozen convention)", ok, started)


def test_criterion_02b_mirrored_convention_fails_pentagon():
    """Required: the mirrored side-assignment must fail the pentagon test.

    This assertion fails and is expected to: the opposite-pair mirror is
    conjugate to the frozen convention under orientation reversal of the
    complex, so it satisfies the pentagon identity as well (verified
    symbolically).  Only a non-alternating side assignment breaks the
    identity (see test_coordinates.test_pentagon_detects_wrong_side_assignment),
    and the frozen-convention fixture still pins the convention (see
    test_coordinates.test_pentagon_fixture_pins_the_convention).
    """
    started = time.monotonic()
    ok = not check_pentagon(LabelSystem.SHEAR, mirrored=True)
    assert _report("2b pentagon shear (mirrored must fail)", ok, started), (
        "the mirrored alternating convention satisfies the pentagon identity; "
        "the requirement that it fail is unattainable"
    )


def test_criterion_03_far_commutativity():
    started = time.monotonic()
    ok = (
        check_commutativity(LabelSystem.PTOLEMY, shared_edge=False)
        and check_commutativity(LabelSystem.SHEAR, shared_edge=False)
        and check_commutativity(LabelSystem.SHEAR, shared_edge=True)
    )
    assert _report("3 far commutativity", ok, started)


def test_criterion_04_back_and_forth():
    started = time.monotonic()
    ok = check_involution(LabelSystem.PTOLEMY) and check_involution(LabelSystem.SHEAR)
    assert _report("4 back-and-forth", ok, started)


def _cli_equal(n, system, word_a, word_b):
    return cli_main(
        ["equal", "--n", str(n), "--epsilon", "1/64", "--bulge", "1",
         "--system", system, word_a, word_b]
    )


def test_criterion_05_braid_relation(capsys):
    started = time.monotonic()
    ok = True
    for system in ("ptolemy", "shear"):
        code = _cli_equal(3, system, "s1 s2 s1", "s2 s1 s2")
        out = capsys.readouterr().out
        ok = ok and code == 0 and out.startswith("EQUAL")
    with capsys.disabled():
        assert _report("5 braid relation (n=3, both systems)", ok, started)


def test_criterion_06_inverse_cancellation(capsys):
    started = time.monotonic()
    ok = True
    for system in ("ptolemy", "shear"):
        code = _cli_equal(3, system, "s1 s1'", "")
        out = capsys.readouterr().out
        ok = ok and code == 0 and out.startswith("EQUAL")
    with capsys.disabled():
        assert _report("6 inverse cancellation (n=3, both systems)", ok, started)


def test_criterion_07_generator_far_commutativity(capsys):
    started = time.monotonic()
    ok = True
    for system in ("ptolemy", "shear"):
        code = _cli_equal(4, system, "s1 s3", "s3 s1")
        out = capsys.readouterr().out
        ok = ok and code == 0 and out.startswith("EQUAL")
    with capsys.disabled():
        assert _report("7 generator far commutativity (n=4, both systems)", ok, started)


def test_criterion_08_laurent_phenomenon():
    started = time.monotonic()
    cfg = SlotConfig(3)
    ok = True
    for text in ("s1", "s1 s2", "s1 s2 s1"):
        inv = run_invariant(parse_braid(text, n=3), cfg, LabelSystem.PTOLEMY)
        ok = ok and all(value.is_laurent() for value in inv.entries.values())
    assert _report("8 Laurent phenomenon (ptolemy, n=3)", ok, started)


def test_criterion_09_isotopy_robustness():
    started = time.monotonic()
    cfg = SlotConfig(3)
    word = parse_braid("s1 s2", n=3)
    ok = True
    for system in LabelSystem:
        one = run_invariant(word, cfg, system)
        two = run_invariant(word, cfg.with_bulge(Fraction(2)), system)
        ok = ok and invariants_equal(one, two)
    assert _report("9 isotopy robustness (bulge 1 vs 2)", ok, started)


def test_criterion_10_geometry_oracle():
    started = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        n = rng.randint(3, 8)
        pts = random_generic_points(rng, n)
        complex_ = delaunay(pts)
        ok = ok and complex_.triangle_sets() == brute_force_delaunay_triangles(pts)
        hull = len(hull_edges(complex_))
        ok = ok and len(complex_.edges()) == 3 * n - 3 - hull
        if not ok:
            break
    assert _report("10 geometry oracle (200 random sets)", ok, started)


TEST_MOTIONS = [
    (3, "s1"),
    (3, "s1 s1'"),
    (4, "s1"),
    (4, "s2"),
    (4, "s1 s3"),
    (5, "s2"),
]


def test_criterion_11_kinetic_certification():
    started = time.monotonic()
    rng = random.Random(11)
    ok = True
    for n, text in TEST_MOTIONS:
        cfg = SlotConfig(n)
        word = parse_braid(text, n=n)
        motion, _ = compile_motion(word, cfg)
        tri0, _ = initial_triangulation(cfg)
        events = detect_flips(motion, tri0)
        stages = len(motion.stages)
        start = augment(tri0)
        final = replay(start, events)
        ok = ok and final.same_triangles(augmented_at(motion, stages - 1, Fraction(1)))
        samples = 0
        while samples < 50:
            stage = rng.randrange(stages)
            t = Fraction(rng.randrange(1, 2 ** 16), 2 ** 16)
            if any(
                ev.stage == stage and ev.t_lo <= t <= ev.t_hi for ev in events
            ):
                continue
            samples += 1
            prefix = [
                ev
                for ev in events
                if ev.stage < stage or (ev.stage == stage and ev.t_hi < t)
            ]
            ok = ok and replay(start, prefix).same_triangles(
                augmented_at(motion, stage, t)
            )
        if not ok:
            break
    assert _report("11 kinetic certification (replay vs direct)", ok, started)
