import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import braidshear.coordinates as coordinates
from braidshear.algebra import Polynomial, RationalFunction
from braidshear.braid import SlotConfig, compile_motion, initial_triangulation, parse_braid
from braidshear.coordinates import (
    InternalInvariantError,
    LabelState,
    LabelSystem,
    ShearState,
    StrandCountError,
    apply_flip,
    apply_ptolemy_flip,
    apply_shear_flip,
    check_commutativity,
    check_involution,
    check_pentagon,
    convex_polygon_complex,
    edge_var_name,
    first_difference,
    invariants_equal,
    run_invariant,
)
from braidshear.geometry import EdgeComplex
from braidshear.kinetic import DegeneracyError, FlipEvent, augment, detect_flips
from oracles import (
    ensemble_image,
    evaluate,
    interior_edges,
    labels_match,
    parse_canonical,
    shadow_entries,
    sympy_entries,
    sympy_ptolemy_flip,
    sympy_shear_flip,
    sympy_state,
    to_sympy,
)


def pvar(i, j):
    return Polynomial.variables((edge_var_name(i, j),))[0]


def edge_variable(i, j):
    return RationalFunction(pvar(i, j))


def square_complex():
    return convex_polygon_complex([(1, 2, 3), (1, 3, 4)])


def square_state():
    return LabelState.seed(square_complex())


def square_shear():
    return ShearState.seed(square_complex())


def reversed_complex(complex_):
    """The orientation-reversed complex: each triangle (a, b, c) as (a, c, b)."""
    return EdgeComplex([(a, c, b) for a, b, c in complex_.triangles])


# -- flip rules --------------------------------------------------------------


def test_ptolemy_new_diagonal_formula():
    state = square_state()
    quad = state.complex.quad_around((1, 3))
    assert quad == (1, 2, 3, 4)
    flipped = apply_ptolemy_flip(state, quad)
    a, b, c, d, x = (pvar(*e) for e in ((1, 2), (2, 3), (3, 4), (1, 4), (1, 3)))
    assert flipped.label((2, 4)) == RationalFunction(a * c + b * d, x)
    for edge in [(1, 2), (2, 3), (3, 4), (1, 4)]:
        assert flipped.label(edge) == edge_variable(*edge)


def test_ptolemy_double_flip_is_identity():
    state = square_state()
    once = apply_ptolemy_flip(state, (1, 2, 3, 4))
    twice = apply_ptolemy_flip(once, once.complex.quad_around((2, 4)))
    assert twice == state


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ptolemy_flips_match_the_rational_function_rule(data):
    # random flip sequences on a fan-triangulated convex polygon: the
    # exact-division rule gives the labels of the rule written in sympy
    n = data.draw(st.integers(5, 8), label="polygon size")
    state = LabelState.seed(convex_polygon_complex([(1, i, i + 1) for i in range(2, n)]))
    oracle = sympy_state(state, LabelSystem.PTOLEMY)
    for _ in range(data.draw(st.integers(1, 10), label="flips")):
        interior = interior_edges(state.complex)
        quad = state.complex.quad_around(data.draw(st.sampled_from(interior)))
        oracle = sympy_ptolemy_flip(oracle, quad)
        state = apply_ptolemy_flip(state, quad)
        assert labels_match(state.labels, oracle.labels)
    assert state.complex == oracle.complex


def test_run_invariant_ptolemy_matches_the_oracle_on_random_words():
    rng = random.Random(10)
    for _ in range(8):
        n = rng.randint(4, 6)
        letters = [
            f"s{rng.randint(1, n - 1)}" + ("'" if rng.random() < 0.5 else "")
            for _ in range(rng.randint(3, 6))
        ]
        word = parse_braid(" ".join(letters), n=n)
        inv = run_invariant(word, SlotConfig(n), LabelSystem.PTOLEMY)
        oracle = sympy_entries(word, SlotConfig(n), LabelSystem.PTOLEMY)
        assert labels_match(inv.entries, oracle), word.text()


@pytest.mark.parametrize("value", [2, -3], ids=["value0", "value3"])
@pytest.mark.parametrize("edge", [(1, 2), (3, 4)], ids=["edge1", "edge2"])
def test_ptolemy_flip_accepts_constant_labels(edge, value):
    # an integer side label is the zero vector with a constant F
    state = square_state()
    c, F = dict(state.c), dict(state.F)
    c[edge] = (0,) * len(state.names)
    F[edge] = Polynomial.constant(value)
    state = LabelState(state.complex, state.names, c, F)
    assert state.label(edge) == RationalFunction(Polynomial.constant(value))
    flipped = apply_ptolemy_flip(state, (1, 2, 3, 4))
    oracle = sympy_ptolemy_flip(sympy_state(state, LabelSystem.PTOLEMY), (1, 2, 3, 4))
    assert labels_match(flipped.labels, oracle.labels)


def test_shear_formulas_verbatim():
    state = square_shear()
    flipped = apply_shear_flip(state, (1, 2, 3, 4))
    e = pvar(1, 3)
    assert flipped.label((2, 4)) == RationalFunction(Polynomial.one(), e)
    assert flipped.label((1, 2)) == RationalFunction(pvar(1, 2) * (1 + e))
    assert flipped.label((3, 4)) == RationalFunction(pvar(3, 4) * (1 + e))
    assert flipped.label((2, 3)) == RationalFunction(pvar(2, 3) * e, 1 + e)
    assert flipped.label((1, 4)) == RationalFunction(pvar(1, 4) * e, 1 + e)


def _read_at(state, edge, point):
    """The label of ``edge`` with ``point`` put in, by sympy's ``subs``."""
    label = state.label(edge)
    at = {sp.Symbol(name): value for name, value in point.items()}
    return sp.cancel(to_sympy(label.num).subs(at) / to_sympy(label.den).subs(at))


def test_shear_numeric_specialization():
    # with e = 1 the diagonal stays 1, grown sides double, shrunk halve
    flipped = apply_shear_flip(square_shear(), (1, 2, 3, 4))
    a = {e: sp.Symbol(edge_var_name(*e)) for e in [(1, 2), (2, 3), (3, 4), (1, 4)]}
    point = {"a_{1,3}": 1}
    assert _read_at(flipped, (2, 4), point) == 1
    assert _read_at(flipped, (1, 2), point) == 2 * a[(1, 2)]
    assert _read_at(flipped, (3, 4), point) == 2 * a[(3, 4)]
    assert _read_at(flipped, (2, 3), point) == a[(2, 3)] / 2
    assert _read_at(flipped, (1, 4), point) == a[(1, 4)] / 2


def test_shear_numeric_specialization_separated():
    # the same flip read at a point of every seed variable
    flipped = apply_shear_flip(square_shear(), (1, 2, 3, 4))
    point = {
        "a_{1,2}": sp.Rational(2, 3),
        "a_{2,3}": sp.Rational(5, 7),
        "a_{3,4}": sp.Rational(-3, 2),
        "a_{1,4}": sp.Integer(4),
        "a_{1,3}": sp.Integer(1),
    }
    assert _read_at(flipped, (2, 4), point) == 1
    assert _read_at(flipped, (1, 2), point) == 2 * point["a_{1,2}"]
    assert _read_at(flipped, (3, 4), point) == 2 * point["a_{3,4}"]
    assert _read_at(flipped, (2, 3), point) == point["a_{2,3}"] / 2
    assert _read_at(flipped, (1, 4), point) == point["a_{1,4}"] / 2


def test_shear_seed_reads_the_ptolemy_seed_variables():
    complex_ = convex_polygon_complex([(1, 2, 3), (1, 3, 4), (1, 4, 5)])
    assert ShearState.seed(complex_).labels == LabelState.seed(complex_).labels


def test_shear_double_flip_is_identity():
    state = square_shear()
    once = apply_shear_flip(state, (1, 2, 3, 4))
    twice = apply_shear_flip(once, once.complex.quad_around((2, 4)))
    assert twice == state


def test_flip_locality():
    complex_ = convex_polygon_complex(
        [(1, 2, 3), (1, 3, 4), (1, 4, 8), (4, 5, 8), (5, 6, 7), (5, 7, 8)]
    )
    quad = complex_.quad_around((1, 3))
    support = {(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)}
    seeds = {
        LabelSystem.PTOLEMY: LabelState.seed(complex_),
        LabelSystem.SHEAR: ShearState.seed(complex_),
    }
    for system, octagon in seeds.items():
        flipped = apply_flip(octagon, quad, system)
        for edge in octagon.complex.edges():
            if edge in support:
                continue
            assert flipped.label(edge) == octagon.label(edge)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_separated_shear_labels_match_the_rational_function_rule(data):
    # random flip sequences on a fan-triangulated convex polygon
    n = data.draw(st.integers(5, 8), label="polygon size")
    complex_ = convex_polygon_complex([(1, i, i + 1) for i in range(2, n)])
    state = ShearState.seed(complex_)
    oracle = sympy_state(LabelState.seed(complex_), LabelSystem.SHEAR)
    for _ in range(data.draw(st.integers(1, 10), label="flips")):
        interior = interior_edges(state.complex)
        quad = state.complex.quad_around(data.draw(st.sampled_from(interior)))
        oracle = sympy_shear_flip(oracle, quad)
        state = apply_shear_flip(state, quad)
        assert state.complex == oracle.complex
        u, v, w, z = quad
        touched = [tuple(sorted(e)) for e in [(v, z), (u, v), (v, w), (w, z), (z, u)]]
        assert labels_match(
            {e: state.label(e) for e in touched}, {e: oracle.label(e) for e in touched}
        )
    assert labels_match(state.labels, oracle.labels)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mirrored_rule_is_the_frozen_rule_on_the_reversed_complex(data):
    # the oracle's mirrored side assignment on a convex polygon gives the
    # labels of the product's frozen rule on the same polygon with its
    # orientation reversed
    n = data.draw(st.integers(4, 8), label="polygon size")
    complex_ = convex_polygon_complex([(1, i, i + 1) for i in range(2, n)])
    oracle = sympy_state(LabelState.seed(complex_), LabelSystem.SHEAR)
    state = ShearState.seed(reversed_complex(complex_))
    for _ in range(data.draw(st.integers(1, 7), label="flips")):
        interior = interior_edges(state.complex)
        edge = data.draw(st.sampled_from(interior))
        oracle = sympy_shear_flip(oracle, oracle.complex.quad_around(edge), mirrored=True)
        state = apply_shear_flip(state, state.complex.quad_around(edge))
        assert state.complex == reversed_complex(oracle.complex)
    assert labels_match(state.labels, oracle.labels)


def test_inexact_f_polynomial_division_is_an_internal_error():
    seed = square_shear()
    F = dict(seed.F)
    F[(1, 3)] = pvar(1, 2) + 2  # not an F-polynomial of this seed
    broken = ShearState(seed.complex, seed.names, seed.c, F)
    with pytest.raises(coordinates.InternalInvariantError):
        apply_shear_flip(broken, (1, 2, 3, 4))


def test_labels_reduce_planted_common_factors_pair_by_pair():
    # F's that share nonconstant factors and integer contents, across
    # several numerator-denominator pairs, so the pairwise reduction runs;
    # the F's of flipped seeds are coprime in practice
    seed = square_shear()
    y12, y13, y14, y23, y34 = (pvar(*e) for e in [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    u, v, w = 1 + y12, 1 + y23 + y34, 1 + y14 * y13
    F = {
        (1, 2): 2 * u * v,
        (2, 3): 6 * u * w,
        (3, 4): 4 * v * w,
        (1, 4): 3 * y13 * v,
        (1, 3): 10 * u * w,
    }
    # over the seed names a_{1,2}, a_{1,3}, a_{1,4}, a_{2,3}, a_{3,4}
    c = {
        (1, 2): (0, -1, 2, 0, 0),
        (1, 3): (0, 1, 0, 0, -1),
        (1, 4): (1, 0, -1, 0, 1),
        (2, 3): (0, 0, 0, -1, 0),
        (3, 4): (-2, 1, 0, 0, 0),
    }
    # (sides after the edge, sides before it) in the triangles (1, 2, 3), (1, 3, 4)
    sides = {
        (1, 2): ([(2, 3)], [(1, 3)]),
        (2, 3): ([(1, 3)], [(1, 2)]),
        (1, 3): ([(1, 2), (3, 4)], [(2, 3), (1, 4)]),
        (3, 4): ([(1, 4)], [(1, 3)]),
        (1, 4): ([(1, 3)], [(3, 4)]),
    }
    state = ShearState(seed.complex, seed.names, c, F)
    for edge, (after, before) in sides.items():
        num = Polynomial(seed.names, {tuple(max(x, 0) for x in c[edge]): 1})
        den = Polynomial(seed.names, {tuple(max(-x, 0) for x in c[edge]): 1})
        want = RationalFunction(
            math.prod((F[s] for s in after), start=num),
            math.prod((F[s] for s in before), start=den),
        )
        got = state.label(edge)
        assert (got.num, got.den) == (want.num, want.den), edge


def test_shear_state_equality_falls_back_to_labels():
    # equal labels under different seed variable orders compare equal
    state = apply_shear_flip(square_shear(), (1, 2, 3, 4))
    order = list(reversed(state.names))
    perm = [state.names.index(name) for name in order]
    c = {e: tuple(v[i] for i in perm) for e, v in state.c.items()}
    other = ShearState(state.complex, tuple(order), c, state.F)
    assert other.c != state.c
    assert other == state
    negated = {e: tuple(-x for x in v) for e, v in state.c.items()}
    assert ShearState(state.complex, state.names, negated, state.F) != state


# -- label properties backed by theorems -----------------------------------------


@st.composite
def random_words(draw):
    n = draw(st.integers(4, 6), label="n")
    letters = draw(
        st.lists(st.tuples(st.integers(1, n - 1), st.booleans()), min_size=1, max_size=5),
        label="letters",
    )
    return n, " ".join(f"s{i}" + ("'" if inverse else "") for i, inverse in letters)


def flip_states(n, text, system):
    """(event, state after it) along the certified flips of the word's
    unperturbed motion, from the seed that ``system``'s rule takes."""
    cfg = SlotConfig(n)
    tri0, _ = initial_triangulation(cfg)
    motion, _ = compile_motion(parse_braid(text, n=n), cfg)
    try:
        events = detect_flips(motion, tri0)
    except DegeneracyError:
        assume(False)
    base = augment(tri0)
    state = LabelState.seed(base) if system is LabelSystem.PTOLEMY else ShearState.seed(base)
    for event in events:
        state = apply_flip(state, event.quad, system)
        yield event, state


@settings(max_examples=10, deadline=None)
@given(random_words())
def test_shear_f_polynomials_and_c_vectors_obey_the_theorems(word):
    # each F-polynomial has constant term 1 and positive coefficients
    # (Derksen, Weyman and Zelevinsky, JAMS 2010; Lee and Schiffler, Ann.
    # Math. 2015); every c-vector is sign-coherent (DWZ 2010; Gross,
    # Hacking, Keel and Kontsevich, JAMS 2018)
    for event, state in flip_states(*word, LabelSystem.SHEAR):
        _, v, _, z = event.quad
        c = state.c[tuple(sorted((v, z)))]
        assert all(x >= 0 for x in c) or all(x <= 0 for x in c), (word, event)
        for F in state.F.values():
            terms = F.terms
            assert terms.get((0,) * len(F.vars)) == 1, (word, event)
            assert all(coeff > 0 for coeff in terms.values()), (word, event)


@settings(max_examples=10, deadline=None)
@given(random_words())
def test_ptolemy_labels_are_positive_laurent_polynomials(word):
    # Laurent phenomenon (Fomin and Zelevinsky, JAMS 2002) and positivity
    # (Musiker, Schiffler and Williams, Invent. Math. 2011; Lee and
    # Schiffler, Ann. Math. 2015)
    for event, state in flip_states(*word, LabelSystem.PTOLEMY):
        _, v, _, z = event.quad
        label = state.label((v, z))
        assert label.is_laurent(), (word, event)
        assert all(coeff > 0 for coeff in label.num.terms.values()), (word, event)
        assert all(coeff > 0 for coeff in label.den.terms.values()), (word, event)


def assert_separated_ptolemy(state, where):
    """Each F is positive with no variable factor, and each label read has
    a monic monomial denominator: the form ``LabelState`` relies on."""
    for edge, F in state.F.items():
        assert all(coeff > 0 for coeff in F.terms.values()), (where, edge)
        # no variable factor: each variable is missing from some term
        assert all(0 in column for column in zip(*F.terms)), (where, edge)
        den = state.label(edge).den
        assert den.is_monomial and den.lead_coeff() == 1, (where, edge)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ptolemy_separated_form_holds_on_fan_polygons(data):
    n = data.draw(st.integers(4, 8), label="polygon size")
    state = LabelState.seed(convex_polygon_complex([(1, i, i + 1) for i in range(2, n)]))
    assert_separated_ptolemy(state, "seed")
    for step in range(data.draw(st.integers(1, 12), label="flips")):
        edge = data.draw(st.sampled_from(interior_edges(state.complex)))
        state = apply_ptolemy_flip(state, state.complex.quad_around(edge))
        assert_separated_ptolemy(state, (step, edge))


@settings(max_examples=10, deadline=None)
@given(random_words())
def test_ptolemy_separated_form_holds_along_random_words(word):
    for event, state in flip_states(*word, LabelSystem.PTOLEMY):
        assert_separated_ptolemy(state, (word, event))


def test_no_flip_takes_a_gcd(monkeypatch):
    # both rules run a word's flips with poly_gcd raising; a label read
    # reduces through it afterwards
    import braidshear.algebra as algebra

    cfg = SlotConfig(5)
    tri0, _ = initial_triangulation(cfg)
    motion, _ = compile_motion(parse_braid("s3 s4 s2 s1 s3'", n=5), cfg)
    events = detect_flips(motion, tri0)
    base = augment(tri0)
    rules = [
        (LabelState, apply_ptolemy_flip, sympy_ptolemy_flip, LabelSystem.PTOLEMY),
        (ShearState, apply_shear_flip, sympy_shear_flip, LabelSystem.SHEAR),
    ]

    def no_gcd(f, g):
        raise AssertionError("a flip took a gcd")

    for cls, flip, oracle_flip, system in rules:
        state = cls.seed(base)
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "poly_gcd", no_gcd)
            for event in events:
                state = flip(state, event.quad)
            with pytest.raises(AssertionError, match="took a gcd"):
                RationalFunction(1 + pvar(1, 2), pvar(1, 2))
        oracle = sympy_state(cls.seed(base), system)
        for event in events:
            oracle = oracle_flip(oracle, event.quad)
        assert labels_match(state.labels, oracle.labels), system


# -- relation checks -----------------------------------------------------------


def test_pentagon_holds_for_both_systems():
    assert check_pentagon(LabelSystem.PTOLEMY)
    assert check_pentagon(LabelSystem.SHEAR)


def test_pentagon_mirrored_shear_is_a_symmetry():
    # the opposite-pair mirror is conjugate to the frozen convention under
    # orientation reversal, so it satisfies the pentagon identity as well
    assert check_pentagon(LabelSystem.SHEAR, mirrored=True)


def test_pentagon_detects_wrong_side_assignment():
    # scaling an adjacent (non-alternating) side pair breaks the identity:
    # the check discriminates genuinely wrong conventions (the rule is
    # written on sympy's field of the seed variables)
    def wrong_shear(state, quad):
        u, v, w, z = quad
        e = state.label((u, w))
        grow = 1 + e
        shrink = e / grow
        changes = {(v, z): 1 / e}
        for edge, scale in (((u, v), grow), ((v, w), grow), ((w, z), shrink), ((z, u), shrink)):
            changes[edge] = state.label(edge) * scale
        return state.flipped(quad, changes)

    start = convex_polygon_complex([(1, 2, 3), (1, 3, 4), (1, 4, 5)])
    seed = sympy_state(LabelState.seed(start), LabelSystem.SHEAR)
    short = seed
    for edge in [(1, 4), (1, 3)]:
        short = wrong_shear(short, short.complex.quad_around(edge))
    long = seed
    for edge in [(1, 3), (1, 4), (2, 4)]:
        long = wrong_shear(long, long.complex.quad_around(edge))
    assert short.complex == long.complex
    assert short.labels != long.labels


def test_pentagon_fixture_pins_the_convention():
    # the mirrored convention, the frozen rule on the reversed pentagon,
    # yields different composite labels, so the frozen-convention fixture
    # distinguishes them
    def pentagon_labels(complex_):
        state = ShearState.seed(complex_)
        for edge in [(1, 4), (1, 3)]:
            state = apply_shear_flip(state, state.complex.quad_around(edge))
        return state.labels

    pentagon = convex_polygon_complex([(1, 2, 3), (1, 3, 4), (1, 4, 5)])
    assert pentagon_labels(pentagon) != pentagon_labels(reversed_complex(pentagon))


def test_commutativity_all_variants():
    assert check_commutativity(LabelSystem.PTOLEMY, shared_edge=False)
    assert check_commutativity(LabelSystem.SHEAR, shared_edge=False)
    assert check_commutativity(LabelSystem.PTOLEMY, shared_edge=True)
    assert check_commutativity(LabelSystem.SHEAR, shared_edge=True)


def test_involution_check():
    assert check_involution(LabelSystem.PTOLEMY)
    assert check_involution(LabelSystem.SHEAR)


# -- run_invariant ---------------------------------------------------------------


def entries_as_strings(inv):
    return {e: str(v) for e, v in sorted(inv.entries.items())}


def test_empty_word_is_identity_map():
    for n in (3, 4):
        cfg = SlotConfig(n)
        for system in LabelSystem:
            inv = run_invariant(parse_braid("", n=n), cfg, system)
            assert all(
                inv.entries[e] == edge_variable(*e) for e in inv.entries
            )


def test_inverse_cancellation_n3():
    cfg = SlotConfig(3)
    identity = run_invariant(parse_braid("", n=3), cfg, LabelSystem.PTOLEMY)
    for system in LabelSystem:
        inv = run_invariant(parse_braid("s1 s1'", n=3), cfg, system)
        assert all(inv.entries[e] == edge_variable(*e) for e in inv.entries)
    assert invariants_equal(
        run_invariant(parse_braid("s1 s1'", n=3), cfg, LabelSystem.PTOLEMY), identity
    )


def test_single_generator_permutes_variables_n3():
    cfg = SlotConfig(3)
    inv1 = run_invariant(parse_braid("s1", n=3), cfg, LabelSystem.SHEAR)
    assert entries_as_strings(inv1) == {
        (1, 2): "a_{1,2}",
        (1, 3): "a_{2,3}",
        (2, 3): "a_{1,3}",
    }
    inv2 = run_invariant(parse_braid("s2", n=3), cfg, LabelSystem.SHEAR)
    assert entries_as_strings(inv2) == {
        (1, 2): "a_{1,3}",
        (1, 3): "a_{1,2}",
        (2, 3): "a_{2,3}",
    }
    assert not invariants_equal(inv1, inv2)
    assert first_difference(inv1, inv2) == (1, 2)


def test_braid_relation_n3_both_systems():
    cfg = SlotConfig(3)
    for system in LabelSystem:
        a = run_invariant(parse_braid("s1 s2 s1", n=3), cfg, system)
        b = run_invariant(parse_braid("s2 s1 s2", n=3), cfg, system)
        assert invariants_equal(a, b)


def test_braid_relation_n4_both_systems():
    cfg = SlotConfig(4)
    for system in LabelSystem:
        a = run_invariant(parse_braid("s1 s2 s1", n=4), cfg, system)
        b = run_invariant(parse_braid("s2 s1 s2", n=4), cfg, system)
        assert invariants_equal(a, b)


def test_generator_far_commutativity_n4():
    cfg = SlotConfig(4)
    for system in LabelSystem:
        a = run_invariant(parse_braid("s1 s3", n=4), cfg, system)
        b = run_invariant(parse_braid("s3 s1", n=4), cfg, system)
        assert invariants_equal(a, b)


def test_mixed_sign_far_commutativity():
    cfg = SlotConfig(4)
    a = run_invariant(parse_braid("s1' s3", n=4), cfg, LabelSystem.SHEAR)
    b = run_invariant(parse_braid("s3 s1'", n=4), cfg, LabelSystem.SHEAR)
    assert invariants_equal(a, b)


def test_full_cancellation_word_n4():
    cfg = SlotConfig(4)
    for system in LabelSystem:
        w = run_invariant(parse_braid("s1 s2 s3 s3' s2' s1'", n=4), cfg, system)
        e = run_invariant(parse_braid("", n=4), cfg, system)
        assert invariants_equal(w, e)


def test_braid_relation_n5_both_systems():
    cfg = SlotConfig(5)
    for system in LabelSystem:
        a = run_invariant(parse_braid("s2 s3 s2", n=5), cfg, system)
        b = run_invariant(parse_braid("s3 s2 s3", n=5), cfg, system)
        assert invariants_equal(a, b)


def test_different_permutations_give_different_maps():
    cfg = SlotConfig(4)
    x = run_invariant(parse_braid("s1 s2", n=4), cfg, LabelSystem.PTOLEMY)
    y = run_invariant(parse_braid("s2 s1", n=4), cfg, LabelSystem.PTOLEMY)
    assert not invariants_equal(x, y)


def test_n4_swap_fixture_and_hull_closure_variables():
    cfg = SlotConfig(4)
    inv = run_invariant(parse_braid("s1", n=4), cfg, LabelSystem.PTOLEMY)
    assert set(inv.entries) == {(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)}
    # untouched slot edge keeps its variable
    assert inv.entries[(3, 4)] == edge_variable(3, 4)
    # hull transitions route far-edge variables a_{0,k} into the values
    used = set()
    for value in inv.entries.values():
        used |= {*value.num.vars, *value.den.vars}
    assert any(name.startswith("a_{0,") for name in used)
    # frozen fixture for the flipped diagonal
    a = {(i, j): pvar(i, j) for i in range(0, 5) for j in range(i + 1, 5)}
    expected = RationalFunction(a[(1, 2)] * a[(3, 4)] + a[(1, 4)] * a[(2, 3)], a[(1, 3)])
    assert inv.entries[(1, 4)] == expected


def test_laurent_property_ptolemy():
    cfg3 = SlotConfig(3)
    for text in ["s1", "s1 s2", "s1 s2 s1"]:
        inv = run_invariant(parse_braid(text, n=3), cfg3, LabelSystem.PTOLEMY)
        assert all(v.is_laurent() for v in inv.entries.values())
    cfg4 = SlotConfig(4)
    for text in ["s1", "s2", "s1 s2"]:
        inv = run_invariant(parse_braid(text, n=4), cfg4, LabelSystem.PTOLEMY)
        assert all(v.is_laurent() for v in inv.entries.values())


def test_shear_values_are_not_laurent_in_general():
    inv = run_invariant(parse_braid("s1", n=4), SlotConfig(4), LabelSystem.SHEAR)
    assert not all(v.is_laurent() for v in inv.entries.values())


def test_isotopy_robustness_bulge_variation():
    for n, text in [(3, "s1 s2"), (4, "s1")]:
        cfg = SlotConfig(n)
        for system in LabelSystem:
            one = run_invariant(parse_braid(text, n=n), cfg, system)
            two = run_invariant(
                parse_braid(text, n=n), cfg.with_bulge(Fraction(2)), system
            )
            assert invariants_equal(one, two)


def test_degeneracy_retries_with_jittered_bulge(monkeypatch):
    calls = []
    real = coordinates.detect_flips

    def flaky(motion, initial, **kwargs):
        calls.append(motion)
        if len(calls) == 1:
            raise DegeneracyError("synthetic degeneracy")
        return real(motion, initial, **kwargs)

    monkeypatch.setattr(coordinates, "detect_flips", flaky)
    cfg = SlotConfig(3)
    inv = run_invariant(parse_braid("s1", n=3), cfg, LabelSystem.PTOLEMY)
    assert len(calls) == 2
    assert inv.entries[(1, 2)] == edge_variable(1, 2)


def test_degeneracy_exhausts_retries(monkeypatch):
    attempts = []

    def always_degenerate(motion, initial, **kwargs):
        attempts.append(motion)
        raise DegeneracyError("synthetic degeneracy")

    monkeypatch.setattr(coordinates, "detect_flips", always_degenerate)
    with pytest.raises(DegeneracyError):
        run_invariant(parse_braid("s1", n=3), SlotConfig(3), LabelSystem.PTOLEMY)
    # the given bulge, then every jittered one
    assert len(attempts) == 1 + len(coordinates.DEFAULT_JITTER)


@pytest.mark.parametrize("system", list(LabelSystem), ids=lambda s: s.value)
@pytest.mark.parametrize("n, text", [(4, "s1"), (4, "s2 s1 s2"), (5, "s1 s3 s4'")])
def test_small_bulges_give_the_same_map(n, text, system):
    # a bulge at or below 1/89 would make a jittered retry bulge non-positive
    word = parse_braid(text, n=n)
    expected = run_invariant(word, SlotConfig(n), system)
    for bulge in (Fraction(1, 100), Fraction(1, 1000)):
        assert run_invariant(word, SlotConfig(n, bulge=bulge), system) == expected


def test_retries_skip_non_positive_bulges(monkeypatch):
    bulges = []
    real = coordinates.compile_motion

    def recording(word, cfg):
        bulges.append(cfg.bulge)
        return real(word, cfg)

    def always_degenerate(motion, initial, **kwargs):
        raise DegeneracyError("synthetic degeneracy")

    monkeypatch.setattr(coordinates, "compile_motion", recording)
    monkeypatch.setattr(coordinates, "detect_flips", always_degenerate)
    cfg = SlotConfig(4, bulge=Fraction(1, 100))
    with pytest.raises(DegeneracyError):
        run_invariant(parse_braid("s1", n=4), cfg, LabelSystem.PTOLEMY)
    # 1/100 - 1/89 is negative, so that retry is skipped
    assert bulges == [Fraction(1, 100) + d for d in (0, Fraction(1, 97), Fraction(1, 83))]


@pytest.mark.parametrize("system", list(LabelSystem), ids=lambda s: s.value)
def test_commuting_simultaneous_events_keep_the_map(monkeypatch, system):
    word, cfg = parse_braid("s1", n=5), SlotConfig(5)
    expected = run_invariant(word, cfg, system)
    real_detect, real_groups = coordinates.detect_flips, coordinates._bracket_groups
    sizes = []

    def one_bracket(motion, initial, **kwargs):
        events = real_detect(motion, initial, **kwargs)
        # the quads of (1,4) and (0,2) share no triangle, and either flip
        # may go first
        assert [e.edge for e in events[1:3]] == [(1, 4), (0, 2)]
        events[2] = FlipEvent(*events[1][:3], *events[2][3:])
        return events

    def recording_groups(events):
        groups = real_groups(events)
        sizes.extend(len(g) for g in groups)
        return groups

    monkeypatch.setattr(coordinates, "detect_flips", one_bracket)
    monkeypatch.setattr(coordinates, "_bracket_groups", recording_groups)
    assert run_invariant(word, cfg, system) == expected
    assert sizes[:2] == [1, 2]


def test_non_commuting_simultaneous_events_are_an_internal_error(monkeypatch):
    # at n=5 the slots are the pentagon fan (1,2,3), (1,3,4), (1,4,5);
    # flipping (1,3) then (1,4) ends on another complex than the reverse
    cfg = SlotConfig(5)
    base = augment(initial_triangulation(cfg)[0])
    first = FlipEvent(0, Fraction(1, 4), Fraction(1, 3), (1, 3), base.quad_around((1, 3)))
    after = base.flip((1, 3), first.quad)
    second = first._replace(edge=(1, 4), quad=after.quad_around((1, 4)))
    monkeypatch.setattr(coordinates, "detect_flips", lambda motion, initial, **_: [first, second])
    with pytest.raises(InternalInvariantError, match="do not commute"):
        run_invariant(parse_braid("s1", n=5), cfg, LabelSystem.PTOLEMY)


def test_invariants_equal_requires_same_keys():
    cfg3 = SlotConfig(3)
    a = run_invariant(parse_braid("", n=3), cfg3, LabelSystem.PTOLEMY)
    b = run_invariant(parse_braid("", n=4), SlotConfig(4), LabelSystem.PTOLEMY)
    assert not invariants_equal(a, b)
    assert invariants_equal(a, a)


def test_bracket_groups_split_on_bracket_identity():
    from braidshear.coordinates import _bracket_groups
    from braidshear.kinetic import FlipEvent

    ev = lambda stage, lo, hi, edge: FlipEvent(
        stage, Fraction(lo), Fraction(hi), edge, (0, 1, 2, 3)
    )
    events = [
        ev(0, 0, 1, (1, 2)),
        ev(0, 0, 1, (3, 4)),  # same bracket: grouped
        ev(0, 1, 2, (1, 2)),
        ev(1, 0, 1, (1, 2)),
    ]
    groups = _bracket_groups(events)
    assert [len(g) for g in groups] == [2, 1, 1]


def test_invariant_json_round_trip():
    # nothing in the package reads the JSON back: sympy parses every
    # polynomial written, and it must be the entry's own sympy expression
    cases = [
        ("s1", 4, LabelSystem.SHEAR),
        ("s1 s2'", 4, LabelSystem.PTOLEMY),
        ("s2 s3 s1", 5, LabelSystem.SHEAR),
    ]
    for word, n, system in cases:
        inv = run_invariant(parse_braid(word, n=n), SlotConfig(n), system)
        data = inv.to_json()
        assert (data["n"], data["system"], data["word"]) == (n, system.value, word)
        edges = [tuple(rec["edge"]) for rec in data["entries"]]
        assert edges == sorted(edges) == inv.sorted_edges()
        for rec in data["entries"]:
            value = inv.entries[tuple(rec["edge"])]
            assert parse_canonical(rec["value"]["num"]) == to_sympy(value.num)
            assert parse_canonical(rec["value"]["den"]) == to_sympy(value.den)


def test_shear_labels_are_the_ensemble_map_of_the_ptolemy_labels():
    # Fock and Goncharov's map p: A -> X commutes with the flips: seed shear
    # at the image of a Ptolemy point, run both rules along the same
    # certified events, and every final shear label is the image of the
    # final Ptolemy labels, read on the final complex
    def at(f, values):
        return Fraction(evaluate(f.num, values), evaluate(f.den, values))

    rng = random.Random(24)
    flips = 0
    for _ in range(24):
        n = rng.randint(4, 6)
        text = " ".join(
            f"s{rng.randint(1, n - 1)}" + ("'" if rng.random() < 0.5 else "")
            for _ in range(rng.randint(3, 5))
        )
        cfg = SlotConfig(n)
        tri0, _ = initial_triangulation(cfg)
        motion, _ = compile_motion(parse_braid(text, n=n), cfg)
        seed = augment(tri0)
        x = {e: Fraction(rng.randint(1, 9)) for e in seed.edges()}
        point = {edge_var_name(*e): v for e, v in x.items()}
        y = {edge_var_name(*j): ensemble_image(x, seed, j) for j in seed.edges()}
        ptolemy, shear = LabelState.seed(seed), ShearState.seed(seed)
        for event in detect_flips(motion, tri0):
            ptolemy = apply_flip(ptolemy, event.quad, LabelSystem.PTOLEMY)
            shear = apply_flip(shear, event.quad, LabelSystem.SHEAR)
            flips += 1
        assert shear.complex == ptolemy.complex
        X = {e: at(ptolemy.label(e), point) for e in ptolemy.complex.edges()}
        for j in shear.complex.edges():
            assert at(shear.label(j), y) == ensemble_image(X, shear.complex, j), (text, j)
    assert flips > 24 * 20


def test_run_invariant_shear_matches_the_oracle_on_random_words():
    rng = random.Random(3)
    for _ in range(4):
        n = rng.randint(4, 5)
        letters = [
            f"s{rng.randint(1, n - 1)}" + ("'" if rng.random() < 0.5 else "")
            for _ in range(rng.randint(3, 6))
        ]
        word = parse_braid(" ".join(letters), n=n)
        inv = run_invariant(word, SlotConfig(n), LabelSystem.SHEAR)
        oracle = sympy_entries(word, SlotConfig(n), LabelSystem.SHEAR)
        assert labels_match(inv.entries, oracle), word.text()


@pytest.mark.parametrize(
    "n, text, system",
    [
        (7, "s1' s5' s3 s4 s1 s6 s2' s3", LabelSystem.SHEAR),
        (5, "s3 s4 s2 s1", LabelSystem.PTOLEMY),
        # large labels of three CI pins: the Ptolemy growth word and the
        # 3.5 MB and 9.9 MB shear outputs
        (6, "s2 s5 s3 s5 s5 s5 s4' s3' s5'", LabelSystem.PTOLEMY),
        (6, "s3 s4 s1 s3 s5 s1 s4' s1", LabelSystem.SHEAR),
        (7, "s4' s2' s3 s4 s2 s2", LabelSystem.SHEAR),
    ],
)
def test_invariant_entries_equal_the_flip_rule_run_on_numbers(n, text, system):
    # each entry, evaluated at a seeded point of positive integers, is the
    # value the flip rule computes on Fractions from that point
    word, cfg = parse_braid(text, n=n), SlotConfig(n)
    rng = random.Random(n)
    base = augment(initial_triangulation(cfg)[0])
    point = {edge_var_name(*e): rng.randint(1, 9) for e in sorted(base.edges())}
    shadow = shadow_entries(word, cfg, system, point)
    inv = run_invariant(word, cfg, system)
    assert set(inv.entries) == set(shadow)
    for edge, value in inv.entries.items():
        at_point = Fraction(evaluate(value.num, point), evaluate(value.den, point))
        assert at_point == shadow[edge], edge


def test_shear_flip_rejects_an_f_polynomial_without_constant_term_1():
    state = ShearState.seed(square_complex())
    quad = state.complex.quad_around((1, 3))
    _, v, w, _ = quad
    F = dict(state.F)
    F[(v, w)] = Polynomial.constant(2)  # a side scaled by e/(1+e)
    corrupt = ShearState(state.complex, state.names, state.c, F)
    with pytest.raises(InternalInvariantError, match="constant term"):
        apply_shear_flip(corrupt, quad)
    apply_shear_flip(state, quad)


def test_run_invariant_rejects_two_strands_like_the_cli():
    word = parse_braid("s1", n=2)
    for system in LabelSystem:
        with pytest.raises(StrandCountError, match="needs at least 3 strands"):
            run_invariant(word, SlotConfig(2), system)
    assert issubclass(StrandCountError, ValueError)


def test_run_invariant_rejects_more_than_max_strands_like_the_cli():
    n = coordinates.MAX_STRANDS + 1
    word = parse_braid("s1", n=n)
    for system in LabelSystem:
        with pytest.raises(StrandCountError, match=f"at most {coordinates.MAX_STRANDS} strands"):
            run_invariant(word, SlotConfig(n), system)
    # the largest accepted n still runs
    assert coordinates.check_strand_count(coordinates.MAX_STRANDS) is None


def test_equal_shares_stage_walls_across_its_two_words(monkeypatch):
    # the sides of a braid relation use the same letters, and a stage's walls
    # depend only on its trajectories, so the second word builds none
    import braidshear.kinetic as kinetic

    builds = []
    real = kinetic._stage_walls

    def counting(motion, stage_idx):
        builds.append(stage_idx)
        return real(motion, stage_idx)

    monkeypatch.setattr(kinetic, "_stage_walls", counting)
    cfg = SlotConfig(4)
    memo = {}
    a = run_invariant(parse_braid("s1 s2 s1 s3'", n=4), cfg, LabelSystem.PTOLEMY, stage_walls=memo)
    assert len(builds) == 3  # s1, s2 and s3' once each
    b = run_invariant(parse_braid("s2 s1 s2 s3'", n=4), cfg, LabelSystem.PTOLEMY, stage_walls=memo)
    assert len(builds) == 3
    assert a.entries == b.entries
    # without the memo each word builds its own
    run_invariant(parse_braid("s2 s1 s2 s3'", n=4), cfg, LabelSystem.PTOLEMY)
    assert len(builds) == 6
    # a different bulge keys different stages
    run_invariant(parse_braid("s1", n=4), cfg.with_bulge(Fraction(1, 2)), LabelSystem.PTOLEMY, stage_walls=memo)
    assert len(builds) == 7
