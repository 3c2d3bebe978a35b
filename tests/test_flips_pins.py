"""Certified flip-event lists of every pinned benchmark case.

``braidbench/pins.json`` pins the SHA-256 of ``braidshear flips`` for each
``invariant`` case; the benchmark's smoke run checks only the smallest
case of each workload, so this checks them all.  The pins file is only
read.  Words with repeated letters, whose later stages reuse the walls of
their first occurrence, are pinned here too.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from braidshear.cli import main

PINS = Path(__file__).resolve().parent.parent / "braidbench" / "pins.json"


def _invariant_cases():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    for workload, groups in sorted(pins["workloads"].items()):
        for group in groups:
            for case in group["cases"]:
                if case["kind"] == "invariant":
                    yield pytest.param(case, id=f"{workload}:n{case['n']}:{case['words'][0]}")


@pytest.mark.parametrize("case", _invariant_cases())
def test_flips_match_pin(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["flips", "--n", str(case["n"]), case["words"][0]])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == case["flips_sha256"]


REPEATED_LETTER_PINS = [
    (
        6,
        "s2 s5 s3 s5 s5 s5 s4'",
        "e22a1d98a89bf22cc93701cfc6defff541c111275981b766c3cb09ceedd87a72",
    ),
    (
        4,
        "s2 s1 s3' s1 s1 s3' s2 s1 s3'",
        "be643b29f371f58433992ed671290c74f29f0589e223e9e4920123c2bc2ab7f8",
    ),
    (
        5,
        "s1 s2 s3 s4 s1 s2 s3 s4 s1 s2 s3 s4",
        "4d0969c1d468fd33deef5f7d8d96456e34ccee091fb08132096407a150d55280",
    ),
]


@pytest.mark.parametrize("n, word, digest", REPEATED_LETTER_PINS)
def test_flips_of_repeated_letter_words_match_pin(n, word, digest):
    # most stages of these words repeat an earlier one and reuse its walls
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["flips", "--n", str(n), word])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
