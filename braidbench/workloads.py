"""Workloads of the braidshear benchmark: case pools and seeded selection.

A workload is a list of strata.  Each stratum holds a pool of cases of
one shape (same strand count, label system and word shape) whose answers
are pinned in ``pins.json``; a run's seed picks one case from every
stratum, so the seed changes the words the program sees but not the
amount of work in a pass.  ``pin.py`` builds the pools from the candidate
generators below and keeps, per stratum, the candidates whose cost lies
close to the stratum median.

A case is one ``invariant`` word or one ``equal`` pair.  Pairs built by
an isotopy move (braid relation, far commutation, insertion of ``w w^-1``)
must compare ``EQUAL``; that truth is recomputed here from the two words
(``isotopy_move``), never read from the program or the pins.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

# -- braid words as letter tuples ------------------------------------------


def letters(text):
    out = []
    for item in text.split():
        sign = -1 if item.endswith("'") else 1
        out.append((int(item.rstrip("'")[1:]), sign))
    return tuple(out)


def word_text(word):
    return " ".join(f"s{i}" if s == 1 else f"s{i}'" for i, s in word)


def permutation(word, n):
    occupant = list(range(n + 1))
    for i, _ in word:
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    return tuple(occupant)


def isotopy_move(a, b):
    """Name of the single isotopy move turning word ``a`` into word ``b``
    (letter tuples), or None when no such move relates them."""
    if len(a) > len(b):
        a, b = b, a
    if len(b) == len(a) + 2:
        for k in range(len(b) - 1):
            (i, s), (j, t) = b[k], b[k + 1]
            if i == j and s == -t and b[:k] + b[k + 2:] == a:
                return "inverse"
        return None
    if len(a) != len(b):
        return None
    diff = [k for k in range(len(a)) if a[k] != b[k]]
    if not diff:
        return None
    lo, hi = diff[0], diff[-1]
    if hi - lo == 1:
        (i, s), (j, t) = a[lo], a[hi]
        if abs(i - j) >= 2 and b[lo] == a[hi] and b[hi] == a[lo]:
            return "far"
    if hi - lo == 2:
        x, y, z = a[lo:hi + 1]
        p, q, r = b[lo:hi + 1]
        if (
            x == z and p == r and y == p and q == x
            and abs(x[0] - y[0]) == 1 and x[1] == y[1]
        ):
            return "braid"
    return None


# -- candidate pools (used by pin.py) --------------------------------------

POOL_SEED = 20250506


def _coxeter_words(n, rng, count):
    """Words using each generator once with one sign: every strand moves."""
    words = [
        tuple((i, sign) for i in order)
        for order in itertools.permutations(range(1, n))
        for sign in (1, -1)
    ]
    rng.shuffle(words)
    return words[:count]


def _far_words(n):
    """Words of pairwise far-commuting generators covering every strand."""
    gens = tuple(range(1, n, 2))
    return [
        tuple((i, sign) for i in order)
        for order in itertools.permutations(gens)
        for sign in (1, -1)
    ]


def _twist_words(a, power, sign):
    """(a b)^power and (b a)^power for b = a + 1, all letters of one sign:
    labels grow with every round.  For power 3 the two words are isotopic
    (both are the full twist of three strands)."""
    b = a + 1
    return [((x, sign), (y, sign)) * power for x, y in ((a, b), (b, a))]


def _random_word(rng, n, length, signs):
    return tuple((rng.randint(1, n - 1), rng.choice(signs)) for _ in range(length))


def _pair(rng, n, system, move, extra, signs):
    """One ``equal`` pair: a random context around an isotopy move, or,
    for move 'perm', one letter swapped for another generator (which
    changes the permutation)."""
    while True:
        before = _random_word(rng, n, rng.randint(0, extra), signs)
        after = _random_word(rng, n, extra - len(before), signs)
        if move == "braid":
            i = rng.randint(1, n - 2)
            s = rng.choice(signs)
            left = ((i, s), (i + 1, s), (i, s))
            right = ((i + 1, s), (i, s), (i + 1, s))
            if rng.random() < 0.5:
                left, right = right, left
            a, b = before + left + after, before + right + after
        elif move == "far":
            i = rng.randint(1, n - 3)
            j = rng.randint(i + 2, n - 1)
            x, y = (i, rng.choice(signs)), (j, rng.choice(signs))
            a, b = before + (x, y) + after, before + (y, x) + after
        elif move == "inverse":
            i, s = rng.randint(1, n - 1), rng.choice((1, -1))
            a, b = before + after, before + ((i, s), (i, -s)) + after
            if not a:
                continue
        else:
            i = rng.randint(1, n - 1)
            j = rng.choice([k for k in range(1, n) if k != i])
            s = rng.choice(signs)
            a, b = before + ((i, s),) + after, before + ((j, s),) + after
        if rng.random() < 0.5:
            a, b = b, a
        want = None if move == "perm" else move
        if isotopy_move(a, b) != want:
            continue
        if move == "perm" and permutation(a, n) == permutation(b, n):
            continue
        return {
            "kind": "equal",
            "n": n,
            "system": system,
            "words": [word_text(a), word_text(b)],
            "move": move,
        }


# Strata per workload: (name, n, system, shape).  Shapes of invariant
# strata: "coxeter" (each generator once, one sign), "far" (far-commuting
# generators covering every strand), ("twist", power, a, sign) ((a b)^power
# and (b a)^power for b = a + 1).  Shapes of equal strata: (move, context
# letters, context signs).
STRATA = {
    "detect-wide": [
        ("ptolemy-n5-coxeter", 5, "ptolemy", "coxeter"),
        ("ptolemy-n6-far", 6, "ptolemy", "far"),
    ],
    "shear-long": [
        ("shear-n4-twist3-s1s2", 4, "shear", ("twist", 3, 1, 1)),
        ("shear-n4-twist3-s2s3-inv", 4, "shear", ("twist", 3, 2, -1)),
    ],
    "equal-isotopy": [
        ("ptolemy-n3-braid", 3, "ptolemy", ("braid", 1, (1, -1))),
        ("shear-n3-braid", 3, "shear", ("braid", 1, (1, -1))),
        ("ptolemy-n3-inverse", 3, "ptolemy", ("inverse", 2, (1, -1))),
        ("shear-n3-perm", 3, "shear", ("perm", 2, (1, -1))),
        ("shear-n4-far", 4, "shear", ("far", 0, (1, -1))),
        ("shear-n4-braid", 4, "shear", ("braid", 0, (1, -1))),
        ("ptolemy-n4-inverse", 4, "ptolemy", ("inverse", 1, (1, -1))),
        ("ptolemy-n4-perm", 4, "ptolemy", ("perm", 1, (1, -1))),
        ("ptolemy-n5-far", 5, "ptolemy", ("far", 0, (1, -1))),
    ],
}

CANDIDATES_PER_STRATUM = 16


def candidates(workload, stratum):
    """Deterministic candidate cases of one stratum, before pinning."""
    name, n, system, shape = stratum
    rng = random.Random(f"{POOL_SEED}/{workload}/{name}")
    if shape == "coxeter":
        words = _coxeter_words(n, rng, CANDIDATES_PER_STRATUM)
    elif shape == "far":
        words = _far_words(n)
    elif shape[0] == "twist":
        words = _twist_words(shape[2], shape[1], shape[3])
    else:
        move, extra, signs = shape
        pairs = {}
        for _ in range(CANDIDATES_PER_STRATUM // 2):
            case = _pair(rng, n, system, move, extra, signs)
            pairs.setdefault(case_key(case), case)
        return list(pairs.values())
    return [
        {"kind": "invariant", "n": n, "system": system, "words": [word_text(w)]}
        for w in words
    ]


# -- seeded selection (used by run.py) --------------------------------------


def case_key(case):
    return "|".join([case["kind"], str(case["n"]), case["system"]] + case["words"])


def load_pins():
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def select_cases(workload, seed, pins):
    """One pinned case per stratum, chosen by the seed."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for stratum in pins["workloads"][workload]:
        case = dict(rng.choice(stratum["cases"]))
        case["stratum"] = stratum["name"]
        out.append(case)
    return out


def smallest_case(workload, pins):
    """The cheapest pinned case of a workload (by the time taken to pin it)."""
    pool = [c for s in pins["workloads"][workload] for c in s["cases"]]
    return dict(min(pool, key=lambda c: c["pin_seconds"]))
