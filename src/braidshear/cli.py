"""Command-line surface: invariants, comparisons, relation checks, flip
event dumps, and SVG snapshots.

Exit codes: 0 success (and EQUAL), 1 DIFFERENT, 2 parse/usage errors,
3 degeneracy or collision after retries, 4 internal invariant violation.
Errors are also written as one-line JSON objects on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import string
import sys
from dataclasses import fields, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from braidshear.algebra import AlgebraError, parse_rational
from braidshear.braid import (
    BraidParseError,
    SlotConfig,
    StrandCountError,
    compile_motion,
    initial_triangulation,
    parse_braid,
    slot_points,
)
from braidshear.coordinates import (
    InternalInvariantError,
    InvariantMap,
    LabelSystem,
    check_commutativity,
    check_involution,
    check_pentagon,
    first_difference,
    invariants_equal,
    run_invariant,
)
from braidshear.geometry import DegenerateInputError, GeometryError, delaunay
from braidshear.kinetic import (
    CollisionError,
    DegeneracyError,
    KineticError,
    detect_flips,
    events_to_json,
    positions_at,
)
from braidshear.svg import triangulation_svg

EXIT_OK = 0
EXIT_DIFFERENT = 1
EXIT_PARSE = 2
EXIT_DEGENERACY = 3
EXIT_INTERNAL = 4

_CONFIG_KEYS = tuple(field.name for field in fields(SlotConfig))


class CliError(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage text, then the JSON line (subparsers too)
        self.print_usage(sys.stderr)
        raise CliError(EXIT_PARSE, "usage", f"{self.prog}: {message}")


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    # ValueError: not UTF-8, not JSON, or an integer past int()'s digits
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(EXIT_PARSE, "usage", f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise CliError(EXIT_PARSE, "usage", "config file must hold a JSON object")
    unknown = set(data).difference(_CONFIG_KEYS)
    if unknown:
        raise CliError(EXIT_PARSE, "usage", f"unknown config keys: {sorted(unknown)}")
    return data


# int() also takes underscores and non-ASCII digits such as "\uff14"
_INT = re.compile(r"[+-]?[0-9]+\Z")


def _parse_int(text: str) -> Optional[int]:
    """An ASCII decimal integer, surrounding whitespace stripped as
    ``parse_rational`` strips it; None for anything else."""
    text = text.strip(string.whitespace)
    if _INT.match(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _n_flag(text: str) -> int:
    n = _parse_int(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return n


def _rational_flag(value: str, flag: str) -> Fraction:
    try:
        return parse_rational(value)
    except AlgebraError:
        raise CliError(EXIT_PARSE, "usage", f"{flag} must be a rational like 3/4, got {value!r}")


def _resolve_config(args) -> SlotConfig:
    file_cfg = _load_config(getattr(args, "config", None))
    n = args.n if args.n is not None else file_cfg.get("n")
    if n is None:
        raise CliError(EXIT_PARSE, "usage", "strand count required (--n or config file)")
    # an int or its ASCII decimal string; a float such as 4.7 is not cut to 4
    value = n if type(n) is int else _parse_int(n) if isinstance(n, str) else None
    if value is None:
        raise CliError(EXIT_PARSE, "usage", f"n must be an integer, got {n!r}")
    n = value
    try:
        cfg = SlotConfig(n)
    except StrandCountError as exc:
        raise CliError(EXIT_PARSE, "usage", str(exc))
    # the rationals after n: a flag, else the config file, else the default
    values = {}
    for key in _CONFIG_KEYS[1:]:
        if getattr(args, key) is not None:
            values[key] = _rational_flag(getattr(args, key), f"--{key}")
        elif key in file_cfg:
            values[key] = _rational_flag(str(file_cfg[key]), f"config {key}")
    try:
        return replace(cfg, **values)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, "usage", str(exc))


def _parse_word(text: str, n: int):
    try:
        return parse_braid(text, n=n)
    except BraidParseError as exc:
        raise CliError(EXIT_PARSE, "parse", str(exc))


def _write_output(args, text: str) -> None:
    path = getattr(args, "out", None)
    try:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        if not path:  # else the buffered bytes fail again at exit, status 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliError(EXIT_PARSE, "usage", f"cannot write output {path or '<stdout>'}: {exc}")


def _run_invariant(
    word_text: str, cfg: SlotConfig, system: LabelSystem, stage_walls: Optional[dict] = None
) -> InvariantMap:
    word = _parse_word(word_text, cfg.n)
    return run_invariant(word, cfg, system, stage_walls=stage_walls)


def _cmd_invariant(args) -> int:
    cfg = _resolve_config(args)
    system = LabelSystem(args.system)
    inv = _run_invariant(args.word, cfg, system)
    _write_output(args, json.dumps(inv.to_json(), indent=2) + "\n")
    return EXIT_OK


def _cmd_equal(args) -> int:
    cfg = _resolve_config(args)
    system = LabelSystem(args.system)
    # the two words share the walls of every stage they have in common
    stage_walls: dict = {}
    inv_a = _run_invariant(args.word_a, cfg, system, stage_walls)
    inv_b = _run_invariant(args.word_b, cfg, system, stage_walls)
    if invariants_equal(inv_a, inv_b):
        _write_output(args, "EQUAL\n")
        return EXIT_OK
    edge = first_difference(inv_a, inv_b)
    _write_output(args, f"DIFFERENT\nfirst differing edge: {list(edge)}\n")
    return EXIT_DIFFERENT


def _cmd_verify_relations(args) -> int:
    systems = [LabelSystem(args.system)] if args.system else list(LabelSystem)
    checks = [
        ("pentagon", check_pentagon),
        ("commutativity-disjoint", lambda s: check_commutativity(s, shared_edge=False)),
        ("commutativity-shared", lambda s: check_commutativity(s, shared_edge=True)),
        ("back-and-forth", check_involution),
    ]
    results = [(system, name, check(system)) for system in systems for name, check in checks]
    lines = (f"{s.value} {name} {'PASS' if ok else 'FAIL'}\n" for s, name, ok in results)
    _write_output(args, "".join(lines))
    return EXIT_OK if all(ok for _, _, ok in results) else EXIT_DIFFERENT


def _cmd_flips(args) -> int:
    cfg = _resolve_config(args)
    word = _parse_word(args.word, cfg.n)
    motion, _ = compile_motion(word, cfg)
    initial, _ = initial_triangulation(cfg)
    events = detect_flips(motion, initial)
    _write_output(args, json.dumps(events_to_json(events), indent=2) + "\n")
    return EXIT_OK


def _cmd_snapshot(args) -> int:
    cfg = _resolve_config(args)
    word = _parse_word(args.word, cfg.n)
    motion, _ = compile_motion(word, cfg)
    t = _rational_flag(args.t, "--t")
    stages = len(motion.stages)
    if not 0 <= t <= stages:
        raise CliError(EXIT_PARSE, "usage", f"--t must lie in [0, {stages}]")
    if stages == 0:
        points = dict(slot_points(cfg))
    else:
        stage = min(int(t), stages - 1)
        points = positions_at(motion, stage, t - stage)
    complex_ = delaunay(sorted(points.items()))
    try:
        svg = triangulation_svg(points, complex_, edge_labels=not args.no_labels)
    except OverflowError:  # float() of a coordinate beyond float range
        raise CliError(EXIT_PARSE, "usage", "positions exceed the float range of an SVG")
    _write_output(args, svg)
    return EXIT_OK


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="braidshear",
        description="Braid invariants from symbolic labels of kinetic Delaunay triangulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, word_args=1, with_system=True):
        p.add_argument("--n", type=_n_flag, default=None, help="strand count")
        p.add_argument("--epsilon", default=None, help="parabola flattening, rational like 1/64")
        p.add_argument("--bulge", default=None, help="arc height factor, rational like 1")
        p.add_argument("--config", default=None, help="JSON config file {n, epsilon, bulge}")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        if with_system:
            p.add_argument("--system", required=True, choices=["ptolemy", "shear"])
        if word_args == 1:
            p.add_argument("word", help="braid word, e.g. \"s1 s2'\"")
        elif word_args == 2:
            p.add_argument("word_a", help="first braid word")
            p.add_argument("word_b", help="second braid word")

    p = sub.add_parser("invariant", help="compute T(word) as JSON")
    add_common(p)
    p.set_defaults(handler=_cmd_invariant)

    p = sub.add_parser(
        "equal",
        help="compare T of two words",
        description="Compare T of two words: EQUAL (exit 0) or DIFFERENT (exit 1). "
        "At n = 3 no flip ever fires, so T is only the permutation of the strands: "
        "words with the same permutation compare EQUAL there.",
    )
    add_common(p, word_args=2)
    p.set_defaults(handler=_cmd_equal)

    p = sub.add_parser("verify-relations", help="run the symbolic identity checks")
    p.add_argument("--system", default=None, choices=["ptolemy", "shear"])
    p.set_defaults(handler=_cmd_verify_relations)

    p = sub.add_parser("flips", help="dump the certified flip events as JSON")
    add_common(p, with_system=False)
    p.set_defaults(handler=_cmd_flips)

    p = sub.add_parser("snapshot", help="SVG of the triangulation at a given time")
    add_common(p, with_system=False)
    p.add_argument("--t", default="0", help="global time in [0, #stages], rational")
    p.add_argument("--no-labels", action="store_true", help="suppress edge labels")
    p.set_defaults(handler=_cmd_snapshot)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help; parser errors raise CliError
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    except CliError as exc:
        _emit_error(exc.kind, str(exc))
        return exc.code
    except (DegeneracyError, CollisionError, DegenerateInputError) as exc:
        _emit_error("degeneracy", str(exc))
        return EXIT_DEGENERACY
    except (InternalInvariantError, KineticError, GeometryError) as exc:
        _emit_error("internal", str(exc))
        return EXIT_INTERNAL
    except MemoryError:  # the unwound stack has freed what the run held
        _emit_error("internal", "out of memory")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
