"""Certified flip-event lists of every pinned benchmark case.

``braidbench/pins.json`` pins the SHA-256 of ``braidshear flips`` for each
``invariant`` case; the benchmark's smoke run checks only the smallest
case of each workload, so this checks them all.  The pins file is only
read.
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
