"""Braid words and their realization as explicit strand motions.

The initial configuration places slot k at (k, eps*k^2) on a flattened
parabola: distinct positive abscissas can never be cocircular there (four
points of a parabola share a circle only when their abscissas sum to
zero), and near-collinearity keeps swap arcs clear of bystander strands.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Tuple

from braidshear.geometry import EdgeComplex, Point, delaunay
from braidshear.kinetic import Arc, Motion, Stage, Stationary


class BraidParseError(Exception):
    def __init__(self, message: str, position: int, expected: str = ""):
        detail = f"{message} (at position {position}"
        if expected:
            detail += f", expected {expected}"
        detail += ")"
        super().__init__(detail)
        self.position = position
        self.expected = expected


@dataclass(frozen=True)
class BraidWord:
    n: int
    letters: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        for index, sign in self.letters:
            if not 1 <= index <= self.n - 1:
                raise BraidParseError(
                    f"generator index {index} out of range for {self.n} strands", 0
                )
            if sign not in (1, -1):
                raise BraidParseError(f"invalid sign {sign}", 0)

    def text(self) -> str:
        return " ".join(f"s{i}" if s == 1 else f"s{i}'" for i, s in self.letters)


_ITEM = re.compile(r"s(\d+)('|\^-1)?", re.ASCII)


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse a braid word on ``n`` strands: items like ``s2`` / ``s2'`` /
    ``s2^-1`` separated by ASCII whitespace."""
    letters: List[Tuple[int, int, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos] in string.whitespace:
            pos += 1
            continue
        match = _ITEM.match(text, pos)
        if not match:
            raise BraidParseError(
                f"unexpected token {text[pos]!r}", pos, "generator like s1, s1' or s1^-1"
            )
        try:
            index = int(match.group(1))
        except ValueError:  # more digits than int() converts
            raise BraidParseError("generator index has too many digits", pos) from None
        if index == 0:
            raise BraidParseError("generator index must be at least 1", pos)
        sign = -1 if match.group(2) else 1
        letters.append((index, sign, pos))
        pos = match.end()
    for index, _, at in letters:
        if index > n - 1:
            raise BraidParseError(
                f"generator index {index} out of range for {n} strands", at
            )
    return BraidWord(n, tuple((i, s) for i, s, _ in letters))


MAX_STRANDS = 64


class StrandCountError(ValueError):
    """Fewer strands than a triangulation needs, or more than
    ``MAX_STRANDS``."""


@dataclass(frozen=True)
class SlotConfig:
    n: int
    epsilon: Fraction = Fraction(1, 64)
    bulge: Fraction = Fraction(1)

    def __post_init__(self):
        if self.n < 3:
            raise StrandCountError(
                f"n={self.n} is rejected: a Delaunay triangulation needs at least 3 strands"
            )
        # a motion's stages hold O(n^4) event polynomials each, so a stray
        # large n would exhaust memory instead of failing
        if self.n > MAX_STRANDS:
            raise StrandCountError(
                f"n={self.n} is rejected: at most {MAX_STRANDS} strands are supported"
            )
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.bulge <= 0:
            raise ValueError("bulge must be positive")

    def with_bulge(self, bulge: Fraction) -> "SlotConfig":
        return replace(self, bulge=bulge)


def slot_position(cfg: SlotConfig, k: int) -> Point:
    if not 1 <= k <= cfg.n:
        raise ValueError(f"slot {k} out of range")
    x = Fraction(k)
    return Point(x, cfg.epsilon * x * x)


def slot_points(cfg: SlotConfig) -> List[Tuple[int, Point]]:
    return [(k, slot_position(cfg, k)) for k in range(1, cfg.n + 1)]


def initial_triangulation(cfg: SlotConfig) -> Tuple[EdgeComplex, Tuple[Tuple[int, int], ...]]:
    """Delaunay complex of the slot positions plus the canonical
    (lexicographically sorted) slot-edge enumeration carrying the initial
    edge variables."""
    complex_ = delaunay(slot_points(cfg))
    return complex_, tuple(sorted(complex_.edges()))


def compile_motion(word: BraidWord, cfg: SlotConfig) -> Tuple[Motion, Dict[int, int]]:
    """One half-turn swap stage per letter; positive letters turn the two
    occupants of slots (i, i+1) counterclockwise about their midpoint.
    Returns the motion and the permutation strand -> final slot."""
    if word.n != cfg.n:
        raise ValueError(f"word is on {word.n} strands but config has {cfg.n}")
    occupant = {slot: slot for slot in range(1, cfg.n + 1)}
    stages = []
    for index, sign in word.letters:
        a = occupant[index]
        b = occupant[index + 1]
        pa = slot_position(cfg, index)
        pb = slot_position(cfg, index + 1)
        center = Point((pa.x + pb.x) / 2, (pa.y + pb.y) / 2)
        slot_of = {strand: slot for slot, strand in occupant.items()}
        trajectories = {}
        for strand in range(1, cfg.n + 1):
            if strand == a:
                trajectories[strand] = Arc(center, pa, sign, cfg.bulge)
            elif strand == b:
                trajectories[strand] = Arc(center, pb, sign, cfg.bulge)
            else:
                trajectories[strand] = Stationary(slot_position(cfg, slot_of[strand]))
        stages.append(Stage(trajectories))
        occupant[index], occupant[index + 1] = b, a
    permutation = {strand: slot for slot, strand in occupant.items()}
    return Motion(cfg.n, tuple(stages)), permutation

