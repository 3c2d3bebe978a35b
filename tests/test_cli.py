import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidshear import cli
from braidshear.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- invariant ----------------------------------------------------------------


def test_invariant_n3_has_three_entries(capsys):
    code, out, err = run(capsys, "invariant", "--n", "3", "--system", "shear", "s1")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["n"] == 3
    assert data["system"] == "shear"
    assert data["word"] == "s1"
    assert len(data["entries"]) == 3
    for rec in data["entries"]:
        assert set(rec) == {"edge", "value"}
        assert set(rec["value"]) == {"num", "den"}


def test_invariant_empty_word_is_identity(capsys):
    code, out, _ = run(capsys, "invariant", "--n", "3", "--system", "ptolemy", "")
    assert code == 0
    data = json.loads(out)
    for rec in data["entries"]:
        i, j = rec["edge"]
        assert rec["value"] == {"num": f"a_{{{i},{j}}}", "den": "1"}


def test_invariant_small_bulge_succeeds(capsys):
    args = ("invariant", "--n", "4", "--system", "ptolemy", "s1")
    code, out, err = run(capsys, *args, "--bulge", "1/100")
    assert code == 0 and err == ""
    _, expected, _ = run(capsys, *args)
    assert out == expected


def test_invariant_golden_braid_relation(capsys):
    code, out_a, _ = run(capsys, "invariant", "--n", "3", "--system", "ptolemy", "s1 s2 s1")
    assert code == 0
    code, out_b, _ = run(capsys, "invariant", "--n", "3", "--system", "ptolemy", "s2 s1 s2")
    assert code == 0
    a = json.loads(out_a)
    b = json.loads(out_b)
    assert a["entries"] == b["entries"]
    # golden content: the permutation (1 3) re-keys the variables
    values = {tuple(r["edge"]): r["value"]["num"] for r in a["entries"]}
    assert values == {(1, 2): "a_{2,3}", (1, 3): "a_{1,3}", (2, 3): "a_{1,2}"}


def test_invariant_ptolemy_growth_word_is_pinned(capsys):
    # labels reach ~120 terms; the quadratic division this word once hit
    # made it take seconds, and its output must not move
    code, out, _ = run(capsys, "invariant", "--n", "6", "--system", "ptolemy", "s2 s5 s3 s5 s5 s5 s4'")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "65ced37f97f72c82d5f58bc79e6cc1ee561aff49ac9739b6af3fa11b4664da55"


def test_invariant_deterministic_output(capsys):
    args = ("invariant", "--n", "4", "--system", "shear", "s1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_main_builds_its_parser_once(capsys):
    cli._build_parser.cache_clear()
    args = ("invariant", "--n", "4", "--system", "shear", "s1 s2'")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0
    assert cli._build_parser.cache_info().misses == 1


def test_invariant_out_file(tmp_path, capsys):
    path = tmp_path / "inv.json"
    code, out, _ = run(
        capsys, "invariant", "--n", "3", "--system", "shear", "--out", str(path), "s1"
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["n"] == 3


# -- equal ----------------------------------------------------------------------


def test_equal_braid_relation(capsys):
    code, out, _ = run(
        capsys, "equal", "--n", "3", "--system", "ptolemy", "s1 s2 s1", "s2 s1 s2"
    )
    assert code == 0
    assert out == "EQUAL\n"


def test_equal_inverse_cancellation(capsys):
    for system in ("ptolemy", "shear"):
        code, out, _ = run(capsys, "equal", "--n", "3", "--system", system, "s1 s1'", "")
        assert code == 0 and out == "EQUAL\n"


def test_equal_generator_far_commutativity(capsys):
    code, out, _ = run(capsys, "equal", "--n", "4", "--system", "shear", "s1 s3", "s3 s1")
    assert code == 0 and out == "EQUAL\n"


def test_equal_out_file(tmp_path, capsys):
    same, different = tmp_path / "same.txt", tmp_path / "different.txt"
    code, out, _ = run(
        capsys, "equal", "--n", "3", "--system", "ptolemy", "--out", str(same), "s1", "s1"
    )
    assert code == 0 and out == "" and same.read_text() == "EQUAL\n"
    code, out, _ = run(
        capsys, "equal", "--n", "3", "--system", "shear", "--out", str(different), "s1", "s2"
    )
    assert code == 1 and out == ""
    assert different.read_text().startswith("DIFFERENT\nfirst differing edge: [1, 2]")


def test_equal_unwritable_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(
        capsys, "equal", "--n", "3", "--system", "ptolemy", "--out", str(path), "s1", "s1"
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "usage"
    assert not path.exists()


def test_equal_different_words(capsys):
    code, out, _ = run(capsys, "equal", "--n", "3", "--system", "shear", "s1", "s2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "DIFFERENT"
    assert lines[1].startswith("first differing edge: [1, 2]")


# -- verify-relations -------------------------------------------------------------


def test_verify_relations_both_systems(capsys):
    code, out, _ = run(capsys, "verify-relations")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert all(line.endswith("PASS") for line in lines)
    for system in ("ptolemy", "shear"):
        names = [l.split()[1] for l in lines if l.startswith(system)]
        assert names == [
            "pentagon",
            "commutativity-disjoint",
            "commutativity-shared",
            "back-and-forth",
        ]


def test_verify_relations_single_system(capsys):
    code, out, _ = run(capsys, "verify-relations", "--system", "ptolemy")
    assert code == 0
    assert len(out.splitlines()) == 4


# -- flips --------------------------------------------------------------------------


def test_flips_n2_rejected(capsys):
    code, out, err = run(capsys, "flips", "--n", "2", "s1")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "usage"
    assert "at least 3" in payload["error"]["message"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_huge_n_is_a_usage_error(tmp_path, capsys, source):
    # rejected before any slot is placed: building n = 10^8 points would
    # exhaust memory
    if source == "flag":
        code, out, err = run(capsys, "flips", "--n", "100000000", "s1")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "100000000"}))
        code, out, err = run(capsys, "flips", "--config", str(cfg), "s1")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "usage"
    assert "at most 64 strands" in payload["error"]["message"]


def test_flips_n3_swap_is_eventless(capsys):
    # three points always span a single Delaunay triangle, so a swap
    # produces no flips (regression fixture: count 0)
    code, out, _ = run(capsys, "flips", "--n", "3", "s1")
    assert code == 0
    assert json.loads(out) == []


def test_flips_n4_swap_schema(capsys):
    code, out, _ = run(capsys, "flips", "--n", "4", "s1")
    assert code == 0
    events = json.loads(out)
    assert len(events) == 5
    for rec in events:
        assert set(rec) == {"stage", "t_lo", "t_hi", "edge", "quad"}
        assert rec["stage"] == 0
        assert len(rec["edge"]) == 2 and len(rec["quad"]) == 4


# -- snapshot -----------------------------------------------------------------------


def test_snapshot_n4_t0_has_five_edges(capsys):
    code, out, _ = run(capsys, "snapshot", "--n", "4", "--t", "0", "s1")
    assert code == 0
    assert out.count("<line") == 5
    assert "<svg" in out


def test_snapshot_no_labels(capsys):
    _, with_labels, _ = run(capsys, "snapshot", "--n", "4", "--t", "0", "s1")
    _, without, _ = run(capsys, "snapshot", "--n", "4", "--t", "0", "--no-labels", "s1")
    assert with_labels.count("<text") > without.count("<text")


def test_snapshot_midway_and_bounds(capsys):
    code, out, _ = run(capsys, "snapshot", "--n", "4", "--t", "1/2", "s1")
    assert code == 0 and "<svg" in out
    code, _, err = run(capsys, "snapshot", "--n", "4", "--t", "7/2", "s1")
    assert code == 2
    assert "range" in json.loads(err)["error"]["message"] or "[0, 1]" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--n", "5", "--t", "0", "s1"],
         "ca84f6885fb9feb763e46e0321bf5bcb0becaa6e2411489caea311da1da81f8b"),
        (["--n", "5", "--t", "1/3", "s1 s2"],
         "59b93039b873d310847ab7bb1ecdd9026603505b37f980960fc06910386317af"),
        (["--n", "5", "--no-labels", "--t", "3/2", "s2 s1"],
         "d3c77fdc9b4c8db7a9c809ee76a64879311a367ec0280956cfd51eccb75d49f3"),
    ],
)
def test_snapshot_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "snapshot", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["--epsilon", "1" + "0" * 400, "--t", "0", ""],
        ["--bulge", "1" + "0" * 400, "--t", "1/2", "s1"],
    ],
)
def test_snapshot_beyond_float_range_is_a_usage_error(argv):
    # exact positions that no float holds: one JSON line, not a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "braidshear.cli", "snapshot", "--n", "3", *argv],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"]["kind"] == "usage"


def test_snapshot_deterministic(capsys):
    _, first, _ = run(capsys, "snapshot", "--n", "4", "--t", "1/3", "s1")
    _, second, _ = run(capsys, "snapshot", "--n", "4", "--t", "1/3", "s1")
    assert first == second


# -- errors and config ------------------------------------------------------------------


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "invariant", "--n", "3", "--system", "shear", "s9")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "parse"


def _diverge(event):
    u, v, w, z = event.quad
    return {
        "quad-reversed": event._replace(quad=(u, z, w, v)),
        "other-diagonal": event._replace(edge=tuple(sorted((v, z)))),
        "vertex-outside": event._replace(quad=(u, 99, w, z)),
    }


@pytest.mark.parametrize("system", ["ptolemy", "shear"])
@pytest.mark.parametrize("how", ["quad-reversed", "other-diagonal", "vertex-outside"])
def test_a_diverged_event_is_an_internal_error(capsys, monkeypatch, system, how):
    # run_invariant checks each event's quad against its own complex before
    # a flip rule reads the quad's edges
    from braidshear import coordinates

    detect = coordinates.detect_flips

    def diverged(*args, **kwargs):
        events = detect(*args, **kwargs)
        return [_diverge(events[0])[how], *events[1:]]

    monkeypatch.setattr(coordinates, "detect_flips", diverged)
    code, out, err = run(capsys, "invariant", "--n", "4", "--system", system, "s1")
    assert code == 4 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["kind"] == "internal"


def test_bad_rational_flag(capsys):
    code, _, err = run(
        capsys, "invariant", "--n", "3", "--system", "shear", "--epsilon", "0.5", "s1"
    )
    assert code == 2
    assert "rational" in json.loads(err)["error"]["message"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "epsilon": "1/64", "bulge": "1"}))
    code, out, _ = run(
        capsys, "invariant", "--system", "shear", "--config", str(cfg), "s1"
    )
    assert code == 0
    assert json.loads(out)["n"] == 3
    # flags win over the file
    code, out, _ = run(
        capsys, "invariant", "--system", "shear", "--config", str(cfg), "--n", "4", "s1"
    )
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "wobble": 7}))
    code, _, err = run(capsys, "invariant", "--system", "shear", "--config", str(cfg), "s1")
    assert code == 2
    assert "wobble" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "config",
    [
        {"n": "abc"},
        {"n": [4]},
        {"n": 4.7},
        {"n": True},
        {"n": 4, "epsilon": 0.5},
        {"n": 4, "epsilon": "x"},
        {"n": 4, "bulge": "x"},
        {"n": 4, "bulge": [1]},
        pytest.param({"n": "9" * 5000}, id="n-past-int-digits"),
        pytest.param({"n": 4, "epsilon": "1/" + "9" * 5000}, id="epsilon-past-int-digits"),
        pytest.param(b'{"n": ' + b"9" * 5000 + b"}", id="json-past-int-digits"),
        pytest.param(b'\xff\xfe{"n": 4}', id="not-utf-8"),
        pytest.param(b"[" * 100000, id="past-recursion-limit"),
    ],
)
def test_bad_config_values_are_usage_errors(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    code, out, err = run(capsys, "invariant", "--system", "shear", "--config", str(cfg), "s1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "usage"


_LONG_INDEX = "s" + "1" * 5000  # past the digits int() converts


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["flips", "--n", "4", _LONG_INDEX], id="flips-index-past-int-digits"),
        pytest.param(
            ["invariant", "--n", "4", "--system", "shear", f"s1 {_LONG_INDEX}"],
            id="invariant-index-past-int-digits",
        ),
        pytest.param(
            ["equal", "--n", "4", "--system", "ptolemy", "s1", _LONG_INDEX],
            id="equal-index-past-int-digits",
        ),
    ],
)
def test_generator_index_past_int_digits_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "parse"
    assert error["message"].endswith(f"(at position {argv[-1].index(_LONG_INDEX)})")


# small integers only: a config n of thousands of strands is valid and runs
# for minutes
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["4", " 5 ", "1/2", "-1/3", "0/1", "9" * 5000]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=8,
)
_CONFIG_CONTENTS = st.one_of(
    st.binary(max_size=40),
    _JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    # the config keys, each as often well formed as not
    st.fixed_dictionaries(
        {"n": st.integers(3, 6) | _JSON_VALUES},
        optional={
            "epsilon": st.sampled_from(["1/64", "1/2", 1]) | _JSON_VALUES,
            "bulge": st.sampled_from(["1", "1/3", 2]) | _JSON_VALUES,
        },
    ).map(lambda value: json.dumps(value).encode()),
)


@settings(max_examples=60, deadline=None)
@given(contents=_CONFIG_CONTENTS)
def test_any_config_contents_end_in_exit_0_or_2(tmp_path_factory, contents):
    path = tmp_path_factory.mktemp("config") / "cfg.json"
    path.write_bytes(contents)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["invariant", "--system", "shear", "--config", str(path), "s1"])
    assert code in (0, 2), contents
    if code == 2:
        assert out.getvalue() == ""
        *_, last, tail = err.getvalue().split("\n")
        assert tail == ""
        assert json.loads(last)["error"]["kind"] == "usage", contents


def test_config_accepts_integer_strings_and_rationals(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "3", "epsilon": "1/64", "bulge": 1}))
    code, out, _ = run(capsys, "invariant", "--system", "shear", "--config", str(cfg), "s1")
    assert code == 0
    assert json.loads(out)["n"] == 3


@pytest.mark.parametrize("command", [["invariant", "--system", "shear"], ["snapshot"]])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *command, "--n", "3", "--out", str(path), "s1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "usage"
    assert not path.exists()


@pytest.mark.parametrize(
    "name",
    ["a\x00b", ".", "missing/x.json", "x" * 300],
    ids=["nul-byte", "directory", "missing-parent", "over-long"],
)
def test_bad_out_paths_end_in_exit_2_and_one_json_line(tmp_path, capsys, name):
    path = os.path.join(str(tmp_path), name)
    code, out, err = run(capsys, "invariant", "--n", "3", "--system", "shear", "--out", path, "s1")
    assert code == 2 and out == ""
    line, tail = err.split("\n")
    assert tail == "" and json.loads(line)["error"]["kind"] == "usage"


def test_missing_n_is_usage_error(capsys):
    code, _, err = run(capsys, "invariant", "--system", "shear", "s1")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--n", "4", "s1"],
        ["invariant", "--n", "4", "--system", "bogus", "s1"],
        ["invariant", "--n", "x", "--system", "shear", "s1"],
        ["bogus"],
        ["invariant", "--n", "4", "--system", "shear", "--epsilon", "-1/2", "s1"],
    ],
)
def test_parser_errors_end_with_a_usage_json_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: ")
    assert json.loads(err.splitlines()[-1])["error"]["kind"] == "usage"


# a character that no number, and no braid word, may contain anywhere
_BAD_CHAR = st.sampled_from(list("x._,;eS\u0664\uff14\u00e9"))
_JUNK = st.tuples(st.text(max_size=4), _BAD_CHAR, st.text(max_size=4)).map("".join)


def _junk_or(draw, near_misses):
    """Junk text or, as often, one of the well-formed-looking near misses."""
    return draw(st.sampled_from(near_misses)) if draw(st.booleans()) else draw(_JUNK)


@st.composite
def malformed_argv(draw):
    """A command line with well-formed parts (n from 3 to 5, short words)
    and exactly one malformed ``--n``, ``--epsilon``, ``--bulge``, ``--t``
    or braid word."""
    field = draw(st.sampled_from(["--n", "--epsilon", "--bulge", "--t", "word"]))
    commands = ["snapshot"] if field == "--t" else ["invariant", "equal", "flips", "snapshot"]
    command = draw(st.sampled_from(commands))
    n = draw(st.integers(3, 5))
    letters = st.sampled_from([f"s{i}{mark}" for i in range(1, n) for mark in ("", "'")])
    count = 2 if command == "equal" else 1
    words = [" ".join(draw(st.lists(letters, max_size=2))) for _ in range(count)]
    flags = {"--n": str(n)}
    if field == "--n":
        flags["--n"] = _junk_or(draw, [str(k) for k in range(-3, 3)])
    elif field in ("--epsilon", "--bulge"):
        flags[field] = _junk_or(draw, ["0", "-1", "-3/4", "0/5"])
    elif field == "--t":
        stages = len(words[0].split())
        flags["--t"] = _junk_or(draw, [f"{stages + 1}", f"{4 * stages + 1}/3", "-1", "-1/3"])
    else:
        # a valid letter first, so that no word reads as an option
        bad = _junk_or(draw, ["s0", f"s{n}", "s", "s1^2", "s1''", "s1^-1'"])
        words[draw(st.integers(0, count - 1))] = "s1 " + bad
    if command in ("invariant", "equal"):
        flags["--system"] = draw(st.sampled_from(["ptolemy", "shear"]))
    return [command, *(x for item in flags.items() for x in item), *words]


@settings(max_examples=60, deadline=None)
@given(malformed_argv())
def test_malformed_input_ends_in_exit_2_and_a_json_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 and out.getvalue() == "", argv
    *_, last, tail = err.getvalue().split("\n")
    assert tail == ""
    assert json.loads(last)["error"]["kind"] in ("usage", "parse"), argv


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "invariant", "--help")
    assert code == 0 and "--system" in out and err == ""


@pytest.mark.parametrize(
    "argv, config",
    [
        (["invariant", "--n", "4", "--system", "shear", "s\u0661"], None),
        (["invariant", "--n", "4", "--system", "shear", "--bulge", "\u0661", "s1"], None),
        (["invariant", "--n", "\uff14", "--system", "shear", "s1"], None),
        (["snapshot", "--n", "4", "--t", "\u0661/\u0662", "s1"], None),
        (["flips", "s1"], {"n": "\uff14"}),
        (["flips", "--n", "1_0", "s1"], None),
        (["flips", "s1"], {"n": "1_0"}),
        (["flips", "--n", "4", "s1\u3000s2"], None),
    ],
    ids=[
        "word",
        "bulge",
        "n",
        "t",
        "config-n",
        "n-underscore",
        "config-n-underscore",
        "word-ideographic-space",
    ],
)
def test_non_ascii_digits_are_rejected(tmp_path, capsys, argv, config):
    # int() takes any Unicode digit and underscores, re's \d any Unicode
    # digit and str.isspace() any Unicode space; the CLI takes ASCII
    # decimal digits and ASCII whitespace only
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error" in json.loads(err.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["flips", "--n", "\u30004", "s1"],
        ["flips", "--n", "4\u00a0", "s1"],
        ["flips", "--n", "4", "--bulge", "1\u3000", "s1"],
        ["flips", "--n", "4", "--bulge", "\u20281/2", "s1"],
    ],
    ids=[
        "n-ideographic-space",
        "n-no-break-space",
        "bulge-ideographic-space",
        "bulge-line-separator",
    ],
)
def test_flags_strip_ascii_whitespace_only(capsys, argv):
    # str.strip() also strips Unicode spaces; --n and --bulge strip only
    # ASCII whitespace, as words are split on it
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err.splitlines()[-1])["error"]["kind"] == "usage"


def test_flags_take_surrounding_ascii_whitespace(capsys):
    plain = run(capsys, "flips", "--n", "4", "--bulge", "1", "s1")
    assert plain[0] == 0
    assert run(capsys, "flips", "--n", " 4 ", "--bulge", "\t1 ", "s1") == plain


def test_the_runtime_never_imports_sympy():
    # sympy is a test-only oracle: a fresh interpreter runs every command
    # that computes labels or events and must not have loaded it
    script = """
import io, sys
from contextlib import redirect_stdout
from braidshear.cli import main
runs = [
    ["invariant", "--n", "4", "--system", "ptolemy", "s1 s2 s1"],
    ["invariant", "--n", "4", "--system", "shear", "s1 s2 s1"],
    ["equal", "--n", "4", "--system", "shear", "s1 s2 s1", "s2 s1 s2"],
    ["flips", "--n", "4", "s1 s2'"],
    ["verify-relations"],
]
with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
assert codes == [0] * len(runs), codes
loaded = sorted(m for m in sys.modules if m == "sympy" or m.startswith("sympy."))
assert not loaded, loaded
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_equal_builds_the_walls_of_each_shared_stage_once(capsys, monkeypatch):
    import braidshear.kinetic as kinetic

    builds = []
    real = kinetic._stage_walls
    monkeypatch.setattr(
        kinetic, "_stage_walls", lambda motion, k: builds.append(k) or real(motion, k)
    )
    code, out, _ = run(capsys, "equal", "--n", "4", "--system", "ptolemy", "s1 s2 s1", "s2 s1 s2")
    assert (code, out) == (0, "EQUAL\n")
    assert len(builds) == 2  # the stages of s1 and of s2
