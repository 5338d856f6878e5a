"""Command-line behavior: exit codes, output modes, the selftest gate."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ratsurf import acceptance, cli, resgraph, series
from ratsurf.acceptance import D4_JSON, FOUR_LEAF_B2_JSON, FOUR_LEAF_B3_JSON, STAR_JSON
from ratsurf.blowup import multiplicity_tree
from ratsurf.cli import EXIT_CODES, main
from ratsurf.resgraph import parse_graph
from ratsurf.series import cone_tdim
from test_formulas import random_tree_json


def write(tmp_path, text, name="graph.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_exit_code_table_is_fixed():
    assert EXIT_CODES == {
        "ok": 0,
        "failed": 1,
        "invalid-input": 2,
        "not-rational": 3,
        "not-applicable": 4,
        "budget-exceeded": 5,
    }


def test_analyze_ok(tmp_path, capsys):
    code, out = run(capsys, ["analyze", write(tmp_path, STAR_JSON)])
    assert code == 0
    assert "multiplicity: 6" in out
    assert "T^3 = 30" in out
    assert "T^2 = 15 (exact)" in out
    assert "cod_AC = 3 (exact)" in out
    assert "gmd obstructed: no" in out
    assert "status:" not in out


def test_analyze_json_matches_human_output(tmp_path, capsys):
    path = write(tmp_path, STAR_JSON)
    code, human = run(capsys, ["analyze", path])
    assert code == 0
    code, raw = run(capsys, ["analyze", path, "--json"])
    assert code == 0
    env = json.loads(raw)
    assert (env["schema"], env["command"], env["status"]) == ("1", "analyze", "ok")
    # every reported quantity is a decimal string in the JSON rendering
    assert env["multiplicity"] == "6"
    assert env["tdims"] == {"3": "30", "4": "111", "5": "462", "6": "1944"}
    assert env["t2"] == {"value": "15", "exact": True}
    assert env["codim_ac"] == {"value": "3", "exact": True}
    assert env["gmd"] == {"sum_d_minus_1": "7", "sum_b_minus_1": "8", "obstructed": False}
    assert env["tree"]["mult"] == "6"
    assert [c["mult"] for c in env["tree"]["children"]] == ["3"]
    # the same numbers appear in the human rendering
    for i, v in env["tdims"].items():
        assert "T^%s = %s" % (i, v) in human
    assert "multiplicity: %s" % env["multiplicity"] in human
    assert "sum(d(P)-1) = 7" in human and "sum(b_i-1) = 8" in human


def test_analyze_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, STAR_JSON)
    _, first = run(capsys, ["analyze", path, "--json"])
    _, second = run(capsys, ["analyze", path, "--json"])
    assert first == second


def test_analyze_missing_file(capsys):
    code, out = run(capsys, ["analyze", "/no/such/file.json"])
    assert code == 2
    assert "status: invalid-input" in out


def test_analyze_malformed_graph(tmp_path, capsys):
    code, out = run(capsys, ["analyze", write(tmp_path, "{broken")])
    assert code == 2
    assert "status: invalid-input" in out
    code, raw = run(capsys, ["analyze", write(tmp_path, "{broken"), "--json"])
    assert code == 2
    assert json.loads(raw)["status"] == "invalid-input"


def test_analyze_deeply_nested_graph(tmp_path, capsys):
    code, raw = run(capsys, ["analyze", write(tmp_path, "[" * 100000), "--json"])
    assert code == 2
    env = json.loads(raw)
    assert env["status"] == "invalid-input"
    assert env["error_code"] == "syntax"


def test_analyze_integer_literal_past_the_digit_limit(tmp_path, capsys):
    path = write(tmp_path, '{"vertices":[{"id":"A","b":%s}],"edges":[]}' % ("9" * 5000))
    code, out = run(capsys, ["analyze", path])
    assert code == 2
    assert "not valid JSON" in out and "status: invalid-input" in out
    code, raw = run(capsys, ["analyze", path, "--json"])
    assert code == 2
    env = json.loads(raw)
    assert (env["status"], env["error_code"]) == ("invalid-input", "syntax")


def test_analyze_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_bytes(b'{"vertices": [{"id": "\xff\xfe", "b": 3}], "edges": []}')
    code, out = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert "cannot read" in out and "status: invalid-input" in out
    code, raw = run(capsys, ["analyze", str(path), "--json"])
    assert code == 2
    assert json.loads(raw)["status"] == "invalid-input"


def run_strict_utf8(argv, cwd):
    """Exit code, stdout and stderr of `python -m ratsurf.cli argv` whose stdout encodes strict UTF-8."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "ratsurf.cli"] + argv, capture_output=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8"))
    return proc.returncode, proc.stdout, proc.stderr


def test_a_vertex_id_with_a_lone_surrogate_is_invalid_input(tmp_path, capsys):
    # valid JSON, but no UTF-8 output can print the id; a surrogate pair is one character
    path = write(tmp_path, '{"vertices":[{"id":"\\ud800","b":3}],"edges":[]}')
    error = "syntax: vertex id '\\ud800' is not valid Unicode text"
    code, out, err = run_strict_utf8(["analyze", path], tmp_path)
    assert (code, out, err) == (2, (error + "\nstatus: invalid-input\n").encode("ascii"), b"")
    code, out, err = run_strict_utf8(["analyze", path, "--json"], tmp_path)
    assert (code, err) == (2, b"")
    assert (json.loads(out)["error"], json.loads(out)["error_code"]) == (error, "syntax")
    pair = write(tmp_path, '{"vertices":[{"id":"\\ud83d\\ude00","b":3}],"edges":[]}')
    code, out = run(capsys, ["analyze", pair])
    assert code == 0 and "fundamental cycle: \U0001f600:1" in out


def test_a_path_that_is_not_utf8_is_printed_escaped(tmp_path, capsys):
    name = os.fsdecode(b"\xff.json")  # bytes that are not UTF-8 reach argv as surrogate escapes
    code, out, err = run_strict_utf8(["analyze", name], tmp_path)
    assert (code, err) == (2, b"")
    assert out.startswith(b"cannot read \\xff.json: [Errno 2] No such file or directory: ")
    code, out, err = run_strict_utf8(["analyze", name, "--json"], tmp_path)
    assert (code, err, json.loads(out)["status"]) == (2, b"", "invalid-input")
    # a UTF-8 path prints as it is
    path = str(tmp_path / "\u00e9.json")
    code, out = run(capsys, ["analyze", path])
    assert code == 2 and out.startswith("cannot read %s: " % path)


@pytest.mark.parametrize("name, error", [
    ("\ud800.json", "'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed"),
    ("a\x00b.json", "embedded null byte"),
], ids=["lone-surrogate", "null-byte"])
def test_a_path_no_file_name_can_hold_is_invalid_input(name, error, capsys):
    # POSIX argv carries neither; an in-process caller can pass both
    code, out = run(capsys, ["analyze", name])
    shown = name.encode("unicode_escape").decode("ascii")
    assert (code, out) == (2, "cannot read %s: %s\nstatus: invalid-input\n" % (shown, error))
    code, raw = run(capsys, ["analyze", name, "--json"])
    assert code == 2 and (json.loads(raw)["status"], json.loads(raw)["error"]) == ("invalid-input", error)


def test_a_vertex_id_cannot_inject_lines_into_the_human_report(tmp_path, capsys):
    vid = "A\nstatus: ok\nT^3 = 999\x00\u2028"
    path = write(tmp_path, json.dumps({"vertices": [{"id": vid, "b": 4}], "edges": []}))
    code, out = run(capsys, ["analyze", path])
    assert code == 0 and out.count("\n") == len(out.splitlines())
    assert "fundamental cycle: A\\nstatus: ok\\nT^3 = 999\\x00\\u2028:1\n" in out
    assert "status: ok" not in out.splitlines()
    code, raw = run(capsys, ["analyze", path, "--json"])
    assert code == 0 and json.loads(raw)["fundamental_cycle"] == {vid: "1"}


def test_analyze_rejects_small_max_i(tmp_path, capsys):
    code, out = run(capsys, ["analyze", write(tmp_path, STAR_JSON), "--max-i", "2"])
    assert code == 2


def test_analyze_not_rational(tmp_path, capsys):
    code, out = run(capsys, ["analyze", write(tmp_path, FOUR_LEAF_B3_JSON)])
    assert code == 3
    assert "rational: no (p_a(Z) = 1)" in out
    assert "status: not-rational" in out


def test_analyze_not_applicable(tmp_path, capsys):
    code, out = run(capsys, ["analyze", write(tmp_path, D4_JSON)])
    assert code == 4
    assert "multiplicity: 2" in out
    assert "status: not-applicable" in out


def json_subtree_sum(node, i):
    """dim T^i of a JSON tree node's subtree, summed by recursion over its children."""
    return cone_tdim(i, int(node["mult"])) + sum(json_subtree_sum(c, i) for c in node["children"])


def test_analyze_json_keys_agree_with_status_tree_and_graphs(tmp_path, capsys):
    # rational and reduced_everywhere are rendered from status and reduced;
    # every tree node's cycle covers exactly its own graph's vertices, and
    # each T^i is the recursive sum of cone_tdim over the printed tree
    rng = random.Random(67)
    seen = Counter()
    path = write(tmp_path, "")
    for _ in range(60):
        for kind in ("rational", "tower", "mixed"):
            text = random_tree_json(rng, rng.randint(1, 12), kind)
            write(tmp_path, text)
            code, raw = run(capsys, ["analyze", path, "--json"])
            env = json.loads(raw)
            status = env["status"]
            assert code == EXIT_CODES[status]
            if status == "invalid-input":
                continue
            seen[status, env.get("reduced")] += 1
            assert env["rational"] is (status != "not-rational")
            assert sorted(env["fundamental_cycle"]) == sorted(v["id"] for v in json.loads(text)["vertices"])
            if status != "ok":
                assert "reduced_everywhere" not in env and "tree" not in env
                continue
            assert env["reduced_everywhere"] is env["reduced"]
            todo = [(env["tree"], multiplicity_tree(parse_graph(text)))]
            while todo:
                node, want = todo.pop()
                assert sorted(node["cycle"]) == sorted(want.cycle.graph.ids)
                assert len(node["children"]) == len(want.children)
                todo.extend(zip(node["children"], want.children))
            assert env["tdims"] == {str(i): str(json_subtree_sum(env["tree"], i)) for i in range(3, 7)}
    for key in (("ok", True), ("ok", False), ("not-rational", None), ("not-applicable", True)):
        assert seen[key] >= 3, seen


def test_series_ok(capsys):
    code, out = run(capsys, ["series", "--d", "3", "--order", "6"])
    assert code == 0
    assert "shuffle dims of the (d-1)-dim fat point, k = 1..6: 2 3 2 3 6 11" in out
    assert "P coefficients t^1..t^6 (cotangent dims of the cone): 2 0 0 1 2 4" in out


def test_series_json(capsys):
    code, raw = run(capsys, ["series", "--d", "4", "--order", "3", "--json"])
    assert code == 0
    env = json.loads(raw)
    assert env["status"] == "ok"
    assert env["d"] == "4"
    assert env["shuffle_dims"] == ["3", "6", "8"]
    assert env["p_coefficients"] == ["4", "3", "3"]


def test_series_rejects_bad_arguments(capsys):
    code, _ = run(capsys, ["series", "--d", "2"])
    assert code == 2
    code, _ = run(capsys, ["series", "--d", "3", "--order", "0"])
    assert code == 2


def test_oracle_trivial_match(capsys):
    code, out = run(capsys, ["oracle", "--m", "2", "--k", "4"])
    assert code == 0
    assert "brute-force harrison dimension: 3" in out
    assert "closed-formula value: 3" in out
    assert "verdict: MATCH" in out


def test_oracle_json(capsys):
    code, raw = run(capsys, ["oracle", "--m", "2", "--k", "4", "--json"])
    assert code == 0
    env = json.loads(raw)
    assert env["brute_force"] == "3"
    assert env["formula"] == "3"
    assert env["verdict"] == "MATCH"


def test_oracle_regular_coefficients(capsys):
    # no closed-form line for algebra coefficients, just the dimension
    code, out = run(capsys, ["oracle", "--m", "2", "--k", "2", "--coeffs", "regular"])
    assert code == 0
    assert "brute-force harrison dimension: 4" in out
    assert "verdict" not in out


def test_oracle_hochschild(capsys):
    code, out = run(capsys, ["oracle", "--m", "2", "--k", "2", "--coeffs", "regular", "--hochschild"])
    assert code == 0
    assert "brute-force hochschild dimension: 6" in out


def test_oracle_hochschild_on_one_letter_answers_at_any_degree():
    # one letter has the one shape (k,), whose one word is placed without its k
    # letters: d_k has rank 1 for odd k and 0 for even k, so every degree has 2 - 1.
    # Each run is a fresh process, so no kept rank answers it.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for k in (10 ** 18, 10 ** 18 + 1):
        for mode in ([], ["--json"]):
            argv = ["oracle", "--m", "1", "--k", str(k), "--coeffs", "regular", "--hochschild"] + mode
            proc = subprocess.run([sys.executable, "-m", "ratsurf.cli"] + argv, capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=src), timeout=5)
            assert proc.returncode == 0, proc.stderr
            answer = json.loads(proc.stdout)["brute_force"] if mode else proc.stdout.splitlines()[1]
            assert answer == ("1" if mode else "brute-force hochschild dimension: 1"), (k, mode)


def test_oracle_budget_exceeded(capsys):
    code, out = run(capsys, ["oracle", "--m", "4", "--k", "9"])
    assert code == 5
    assert "status: budget-exceeded" in out
    # a raised budget is honored for a small request
    code, out = run(capsys, ["oracle", "--m", "2", "--k", "5", "--budget", "64"])
    assert code == 0


def test_oracle_over_budget_exits_before_building_anything(capsys):
    # every degree is checked against the cap up front, and the fat point is
    # built without the generic O(m^5) associativity check
    cases = [
        (["--m", "2", "--k", "10"], "word space 2^11 = 2048 exceeds budget 1500"),
        (["--m", "39", "--k", "1"], "word space 39^2 = 1521 exceeds budget 1500"),
        (["--m", "100", "--k", "1"], "word space 100^2 = 10000 exceeds budget 1500"),
        (["--m", "2", "--k", "10", "--hochschild"],
         "word space for the full degree-10 differential exceeds budget 1500"),
        # n^k is neither computed nor written out when it has thousands of digits
        (["--m", "2", "--k", "20000"], "word space 2^20000 exceeds budget 1500"),
        (["--m", "3", "--k", "1000000"], "word space 3^1000000 exceeds budget 1500"),
        (["--m", "2", "--k", "1000000", "--hochschild"],
         "word space for the full degree-1000000 differential exceeds budget 1500"),
        # a degree past the float range is compared, not converted to a float
        (["--m", "5", "--k", str(10 ** 400)], "word space 5^%d exceeds budget 1500" % 10 ** 400),
        (["--m", str(10 ** 300), "--k", str(10 ** 400), "--hochschild"],
         "word space for the full degree-%d differential exceeds budget 1500" % 10 ** 400),
    ]
    for args, error in cases:
        start = time.perf_counter()
        code, raw = run(capsys, ["oracle"] + args + ["--json"])
        assert time.perf_counter() - start < 1.0, args
        assert code == 5
        env = json.loads(raw)
        assert (env["status"], env["error"]) == ("budget-exceeded", error)


def test_an_oracle_refusal_builds_nothing(monkeypatch, capsys):
    # the engine's own budget check runs first: no shape kernel and no rank is computed
    def refuse(*args):
        raise AssertionError("%r ran before the budget check" % (args,))

    for name in ("_census", "_shapes", "_shape_kernel", "_rank", "_block_rank", "_hochschild_block_rank"):
        monkeypatch.setattr("ratsurf.harrison." + name, refuse)
    cases = [
        ([], "word space 1000000000^1 = 1000000000 exceeds budget 1500"),
        (["--hochschild"], "word space for the full degree-1 differential exceeds budget 1500"),
    ]
    for extra, error in cases:
        code, raw = run(capsys, ["oracle", "--m", "1000000000", "--k", "1", "--json"] + extra)
        assert code == 5
        env = json.loads(raw)
        assert (env["status"], env["error"]) == ("budget-exceeded", error)


def test_oracle_rejects_bad_arguments(capsys):
    code, _ = run(capsys, ["oracle", "--m", "0", "--k", "2"])
    assert code == 2


def test_oracle_rejects_nonpositive_budget(capsys):
    for budget in ("0", "-5"):
        code, raw = run(capsys, ["oracle", "--m", "2", "--k", "2", "--budget", budget, "--json"])
        assert code == 2
        env = json.loads(raw)
        assert env["status"] == "invalid-input"
        assert "--budget" in env["error"]


def test_selftest_passes_and_is_deterministic(capsys):
    code, first = run(capsys, ["selftest"])
    assert code == 0
    for name, _, _ in acceptance.CRITERIA:
        assert "PASS %s" % name in first
    assert "11 passed, 0 failed" in first
    code, second = run(capsys, ["selftest"])
    assert first == second


def test_selftest_json(capsys):
    code, raw = run(capsys, ["selftest", "--json"])
    assert code == 0
    env = json.loads(raw)
    assert env["failed"] == 0
    assert env["passed"] == len(acceptance.CRITERIA)
    assert [c["name"] for c in env["criteria"]] == [name for name, _, _ in acceptance.CRITERIA]
    assert all(c["passed"] for c in env["criteria"])


def test_selftest_negative_control(monkeypatch, capsys):
    # corrupt one closed-form constant; the gate must name the broken criterion
    monkeypatch.setitem(acceptance.F_CLOSED, 6, lambda d: Fraction(0))
    bad = acceptance.run_one("f-table")
    assert not bad.passed
    code, out = run(capsys, ["selftest"])
    assert code == 1
    assert "FAIL f-table" in out
    assert "status: failed" in out


def test_oracle_one_letter_shuffle_count_is_budgeted(capsys):
    # the word space 1^k = 1 always fits; the ~2^(k-1) shuffles per word must too
    for k in (30, 1000, 20000):
        start = time.perf_counter()
        code, raw = run(capsys, ["oracle", "--m", "1", "--k", str(k), "--json"])
        assert time.perf_counter() - start < 1.0, k
        assert code == 5
        env = json.loads(raw)
        assert (env["status"], env["error"]) == (
            "budget-exceeded", "shuffle count 2^%d per word exceeds budget 1500" % (k - 1))
    code, out = run(capsys, ["oracle", "--m", "1", "--k", "10"])
    assert code == 0
    assert "verdict: MATCH" in out


def test_oracle_one_letter_deep_degree_ends_in_a_status(capsys):
    # a budget big enough for 2^1199 lets k = 1200 through; the words of
    # degree 1200 once overflowed the stack of a recursive enumeration
    argv = ["oracle", "--m", "1", "--k", "1200", "--budget", str(2 ** 1300), "--coeffs", "regular"]
    for mode in ([], ["--json"]):
        start = time.perf_counter()
        code, out = run(capsys, argv + mode)
        assert time.perf_counter() - start < 5.0, mode
        assert code in (0, 5), out
        if mode:
            assert json.loads(out)["status"] == ("ok" if code == 0 else "budget-exceeded")
        elif code == 0:
            assert "brute-force harrison dimension: " in out
        else:
            assert out.endswith("status: budget-exceeded\n")


def test_values_too_long_to_print_exit_budget_exceeded(tmp_path, capsys):
    cone = write(tmp_path, json.dumps({"vertices": [{"id": "A", "b": 12}], "edges": []}))
    cases = [
        (["series", "--d", "12", "--order", "5000"],
         "coefficients up to t^5000 of the degree-12 series exceed 4000 digits"),
        (["series", "--d", "1000000", "--order", "1000"],
         "coefficients up to t^1000 of the degree-1000000 series exceed 4000 digits"),
        (["series", "--d", "3", "--order", "1000000"],
         "coefficients up to t^1000000 of the degree-3 series exceed 4000 digits"),
        (["analyze", cone, "--max-i", "5000"],
         "coefficients up to t^5000 of the degree-12 series exceed 4000 digits"),
        # an order too large for a float is compared exactly
        (["series", "--d", "3", "--order", "1" + "0" * 400],
         "coefficients up to t^1%s of the degree-3 series exceed 4000 digits" % ("0" * 400)),
        (["analyze", cone, "--max-i", "1" + "0" * 400],
         "coefficients up to t^1%s of the degree-12 series exceed 4000 digits" % ("0" * 400)),
    ]
    for argv, error in cases:
        start = time.perf_counter()
        code, raw = run(capsys, argv + ["--json"])
        assert time.perf_counter() - start < 1.0, argv
        assert code == 5, argv
        env = json.loads(raw)
        assert (env["status"], env["error"]) == ("budget-exceeded", error)
        code, out = run(capsys, argv)
        assert code == 5
        assert out == "%s\nstatus: budget-exceeded\n" % error


def test_values_under_the_digit_cap_still_print(tmp_path, capsys):
    # 1000 log10(10000) = 4000 digits is exactly at the cap and still allowed
    code, raw = run(capsys, ["series", "--d", "10001", "--order", "1000", "--json"])
    assert code == 0
    assert len(json.loads(raw)["p_coefficients"][-1]) <= 4002
    cone = write(tmp_path, json.dumps({"vertices": [{"id": "A", "b": 12}], "edges": []}))
    code, raw = run(capsys, ["analyze", cone, "--max-i", "300", "--json"])
    assert code == 0
    code, raw = run(capsys, ["analyze", cone, "--max-i", "3900", "--json"])  # 3900 log10(11) > 4000
    assert code == 5


def test_analyze_at_the_digit_cap_builds_no_row_past_it(tmp_path, capsys, monkeypatch):
    # --max-i 13287 is the largest i check_digits admits for d = 3: growing
    # the cached row to twice its order stops there, not at 24576
    monkeypatch.setattr(series, "_CONE_ROWS", {})
    cone_tdim.cache_clear()
    cone = write(tmp_path, json.dumps({"vertices": [{"id": "A", "b": 3}], "edges": []}))
    try:
        code, raw = run(capsys, ["analyze", cone, "--max-i", "13287", "--json"])
        assert len(series._CONE_ROWS[3][1]) - 1 <= 13287
        assert (code, hashlib.sha256(raw.encode("ascii")).hexdigest()) == (
            0, "d26824bc119cce19bc0bb666c8a4ffd9cfa1249c9ee5b4bb029d05e7acbc5cde")
    finally:
        cone_tdim.cache_clear()


def test_the_parser_is_built_on_first_use_and_reused(tmp_path, capsys):
    probe = "import ratsurf.cli as c; print(c._parser.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "0"  # importing the CLI builds no parser
    cli._parser.cache_clear()
    cone = write(tmp_path, json.dumps({"vertices": [{"id": "A", "b": 4}], "edges": []}))
    first = run(capsys, ["series", "--d", "3", "--order", "6"])
    assert run(capsys, ["analyze", cone, "--max-i", "4", "--json"])[0] == 0
    assert run(capsys, ["oracle", "--m", "2", "--k", "4", "--coeffs", "regular", "--hochschild"])[0] == 0
    assert cli._parser.cache_info().misses == 0  # exact spellings are read without argparse
    # an abbreviation and --opt=value go through the parser, built once
    assert run(capsys, ["series", "--ord", "6", "--d", "3"]) == first
    assert cli._parser.cache_info().misses == 1
    assert run(capsys, ["series", "--d=3", "--order", "6"]) == first
    assert cli._parser.cache_info()[:2] == (1, 1)  # (hits, misses)


@pytest.mark.parametrize("argv, keep", [
    # several megabytes fill the pipe, and the reader leaves after 20 bytes
    # as `| head -c 20` does
    (["series", "--d", "5", "--order", "3000", "--json"], 20),
    # the reader is gone before the first write, so the whole output is
    # still buffered when the script flushes it
    (["series", "--d", "5", "--json"], 0),
])
def test_a_closed_stdout_ends_the_console_script_quietly(argv, keep):
    script = "import sys; from ratsurf.cli import console_main; sys.exit(console_main())"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen([sys.executable, "-c", script] + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    head = proc.stdout.read(keep)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT == 141
    assert head == b'{\n  "command": "seri'[:keep]
    assert err == b""


def complete_graph_json(n, b):
    ids = ["V%d" % i for i in range(n)]
    return json.dumps({"vertices": [{"id": v, "b": b} for v in ids],
                       "edges": [[ids[i], ids[j]] for i in range(n) for j in range(i)]})


def assert_budget_exceeded(capsys, path, error):
    code, raw = run(capsys, ["analyze", path, "--json"])
    assert code == 5
    env = json.loads(raw)
    assert (env["status"], env["error"]) == ("budget-exceeded", error)
    code, out = run(capsys, ["analyze", path])
    assert code == 5
    assert out == "%s\nstatus: budget-exceeded\n" % error


def heavy_chain_json(m, n):
    """A (-2)-chain E1..En whose E1 meets a b = m^2 vertex in m edges. The form
    is negative definite, and its fundamental cycle falls from about m on E1
    along the chain, so Laufer's loop does about m n units of work."""
    return json.dumps({"vertices": [{"id": "H", "b": m * m}] + [{"id": "E%d" % i, "b": 2} for i in range(1, n + 1)],
                       "edges": [["H", "E1"]] * m + [["E%d" % i, "E%d" % (i + 1)] for i in range(1, n)]})


def test_analyze_of_a_graph_past_the_loop_budget_exits_5(tmp_path, capsys):
    start = time.perf_counter()
    assert_budget_exceeded(capsys, write(tmp_path, heavy_chain_json(1500, 1500)),
                           "fundamental cycle: more than 1000000 units of loop work")
    assert time.perf_counter() - start < 4
    # the same family under the budget is decided: not rational
    assert run(capsys, ["analyze", write(tmp_path, heavy_chain_json(300, 300))])[0] == 3
    # K_160, which once ran the fill budget out, pairs every vertex to -1 at once
    assert run(capsys, ["analyze", write(tmp_path, complete_graph_json(160, 160))])[0] == 3


def y_tower_json(arm):
    """A b = 3 vertex C with three (-2)-arms of arm vertices each. Each blow-up
    drops one vertex from every arm, so the multiplicity tree is a path of
    arm + 1 mult-3 nodes, and its weight (vertices times depth) is
    (arm+1)^2 (arm+2)/2."""
    vertices = [{"id": "C", "b": 3}] + [{"id": "%s%d" % (x, i), "b": 2} for x in "ABD" for i in range(1, arm + 1)]
    edges = [["%s%d" % (x, i - 1) if i > 1 else "C", "%s%d" % (x, i)] for x in "ABD" for i in range(1, arm + 1)]
    return json.dumps({"vertices": vertices, "edges": edges})


# SHA-256 of the analyze output of y_tower_json(arm), as printed before the
# tree budget existed; towers under the budget print the same bytes
Y_TOWER_SHA256 = {
    (20, False): "ab085e422aed21ca2f0a8298728563d6affedee9351a7b4f16199d7482d8571e",
    (20, True): "dd8816e2d7b7937eb8eb6a0b200110fa4dcfea33a22b8b6f1dedc48962bd9a96",
    (100, False): "f79944671e33f552ce382335655c47ef664f2b4cd24e5da150428d5c6d30d7c3",
    (100, True): "739414adce2ffc87dfdfc8fc53b1f3342e125f1717eaa4baf1d8336ebb7c630b",
}


def test_blow_up_towers_under_the_tree_budget_print_the_whole_tree(tmp_path, capsys):
    for arm in (1, 2, 20, 100):
        path = write(tmp_path, y_tower_json(arm))
        code, out = run(capsys, ["analyze", path])
        assert code == 0
        tree = [line for line in out.splitlines() if "- mult" in line]
        assert tree == ["  " * depth + "- mult 3 (reduced)" for depth in range(1, arm + 2)]
        code, raw = run(capsys, ["analyze", path, "--json"])
        assert code == 0 and json.loads(raw)["tdims"]["4"] == str(arm + 1)
        for as_json, text in ((False, out), (True, raw)):
            if (arm, as_json) in Y_TOWER_SHA256:
                assert hashlib.sha256(text.encode("utf-8")).hexdigest() == Y_TOWER_SHA256[arm, as_json]
    # the largest tower under the budget: weight 125^2 * 126 / 2 = 984375
    path = write(tmp_path, y_tower_json(124))
    assert run(capsys, ["analyze", path])[0] == 0
    code, raw = run(capsys, ["analyze", path, "--json"])
    assert code == 0
    assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


def test_blow_up_towers_past_the_tree_budget_exit_5(tmp_path, capsys):
    # arm = 125 weighs 1008126; 14500 is a file just under the byte cap, whose
    # tree ended in a RecursionError or ran out of memory without the budget
    for arm in (125, 340, 600, 14500):
        text = y_tower_json(arm)
        assert len(text) < cli.MAX_GRAPH_BYTES
        assert_budget_exceeded(capsys, write(tmp_path, text),
                               "multiplicity tree: more than 1000000 units of vertices times depth")


def test_analyze_of_a_file_past_the_byte_cap_exits_5(tmp_path, capsys, monkeypatch):
    # the file is not read past the cap, and the check counts bytes
    big = tmp_path / "big.json"
    big.write_bytes(STAR_JSON.encode("utf-8") + b" " * cli.MAX_GRAPH_BYTES)
    assert_budget_exceeded(capsys, str(big), "graph file is larger than 2000000 bytes")
    # at the cap exactly the file is read; one byte more is refused, before decoding
    text = STAR_JSON[:-1] + ', "\u00e9": 1}'
    size = len(text.encode("utf-8"))
    monkeypatch.setattr(cli, "MAX_GRAPH_BYTES", size)
    path = write(tmp_path, text)
    code, raw = run(capsys, ["analyze", path, "--json"])
    assert (code, json.loads(raw)["error_code"]) == (2, "unknown-field")
    monkeypatch.setattr(cli, "MAX_GRAPH_BYTES", size - 1)
    assert_budget_exceeded(capsys, path, "graph file is larger than %d bytes" % (size - 1))
    monkeypatch.setattr(cli, "MAX_GRAPH_BYTES", len(STAR_JSON))
    assert run(capsys, ["analyze", write(tmp_path, STAR_JSON)])[0] == 0
    # files around the size of the first read are read whole
    monkeypatch.undo()
    for size in ((1 << 16) - 1, 1 << 16, (1 << 16) + 1):
        assert run(capsys, ["analyze", write(tmp_path, STAR_JSON + " " * (size - len(STAR_JSON)))])[0] == 0


def test_analyze_reads_line_endings_as_text_mode_does(tmp_path, capsys):
    # CRLF and lone CR become LF, so error positions match the LF file's
    bad = '{"vertices": [{"id": "A",\n "b": 3}],\n "edges": [}'
    want = run(capsys, ["analyze", write(tmp_path, bad)])
    assert want[0] == 2 and "line 3 column 12" in want[1]
    for newline in ("\r\n", "\r"):
        path = tmp_path / "graph.json"
        path.write_bytes(bad.replace("\n", newline).encode("utf-8"))
        assert run(capsys, ["analyze", str(path)]) == want
    path.write_bytes(STAR_JSON.replace(", ", ",\r\n").encode("utf-8"))
    assert run(capsys, ["analyze", str(path)]) == run(capsys, ["analyze", write(tmp_path, STAR_JSON)])


def reference_loop():
    """Seconds taken by a fixed loop of integer arithmetic (perfbench's reference loop)."""
    start = time.perf_counter()
    x, acc = 1, 0
    for i in range(1, 1000):
        x = (x * 1103515245 + i) % 4294967291
        acc += x // (i + 1)
    return time.perf_counter() - start


def slowdown():
    """How many times slower than perfbench's reference speed (the loop in
    0.25 ms) the CPU runs now, at least 1. On a shared VM the speed swings by
    more than 2x for seconds at a time, so each bound below holds at the
    reference speed and stretches by this factor when the CPU runs slower."""
    loops = sorted(reference_loop() for _ in range(201))
    return max(1.0, loops[100] / 0.00025)


def best_of_3_analyze(capsys, path):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        code, _ = run(capsys, ["analyze", path, "--json"])
        best = min(best, time.perf_counter() - start)
    return code, best


def test_large_graphs_analyze_in_bounded_time(tmp_path, capsys):
    n = 20000
    star = json.dumps({"vertices": [{"id": "C", "b": n + 1}] + [{"id": "L%d" % i, "b": 2} for i in range(1, n)],
                       "edges": [["C", "L%d" % i] for i in range(1, n)]})
    n = 3000
    chain = json.dumps({"vertices": [{"id": "E%d" % i, "b": 3} for i in range(n)],
                        "edges": [["E%d" % i, "E%d" % (i + 1)] for i in range(n - 1)]})
    # a hub with thousands of neighbours: m triangles sharing the hub, and a
    # hub joined to a b = 4 path; both are definite and have cycles, so they
    # are not rational
    m = 5000
    windmill = json.dumps({"vertices": [{"id": "C", "b": m + 1}] + [{"id": "%s%d" % (x, t), "b": 3}
                                                                   for t in range(m) for x in "LM"],
                           "edges": [e for t in range(m) for e in (["C", "L%d" % t], ["C", "M%d" % t],
                                                                   ["L%d" % t, "M%d" % t])]})
    k = 2000
    fan = json.dumps({"vertices": [{"id": "C", "b": k // 2}] + [{"id": "P%d" % i, "b": 4} for i in range(k)],
                      "edges": [["C", "P%d" % i] for i in range(k)] + [["P%d" % i, "P%d" % (i + 1)]
                                                                        for i in range(k - 1)]})
    for name, text, status, limit in (("k120.json", complete_graph_json(120, 120), 3, 1.0),
                                      ("star.json", star, 0, 0.3), ("chain.json", chain, 0, 0.3),
                                      ("windmill.json", windmill, 3, 0.5), ("fan.json", fan, 3, 0.5)):
        path = write(tmp_path, text, name)
        factor = slowdown()
        code, best = best_of_3_analyze(capsys, path)
        assert code == status, name
        assert best < limit * factor, (name, best, factor)


# a tree whose fundamental cycle is not reduced: one RDP is dropped, and T^2
# and cod_AC are lower bounds
NON_REDUCED = json.dumps(
    {
        "vertices": [{"id": "V%d" % i, "b": b} for i, b in enumerate((2, 3, 3, 2, 2, 2, 3))],
        "edges": [["V0", "V1"], ["V0", "V2"], ["V1", "V3"], ["V3", "V4"], ["V0", "V5"], ["V2", "V6"]],
    }
)

# (argv, exit code, SHA-256 of the human output, of the --json output), one
# run per command and status, as printed when json.dumps wrote the JSON and
# each command built its human lines beside it; the graph files are written
# under these names in the working directory, so the one path that is
# printed is fixed too
PINNED_RUNS = [
    (["analyze", "star.json"], 0,
     "3633a1a4e39b8b27eae789ab5f07d02b93d1ec913b2bc1464bfb2e1a5b4121c2",
     "18fccbbb3b544f0a0d751492a710c55ebef38197c6840b03bc976494a24dc6f3"),
    (["analyze", "star.json", "--max-i", "8"], 0,
     "5722fda623f9e2233c3fee52e0fae40026aca0abefef9a8bbeef1b39720d55a7",
     "157f3bd062ff9307cea451a75227045a8fa6b87ff45bd992dd8ba5221f51664a"),
    (["analyze", "star.json", "--max-i", "2"], 2,
     "d4278655c11a7f9a2920b8ce58a287c8ca44f1846f63c1462abbec53d62c1b1f",
     "3cb6aa4c4580bf0e4cb4a17501a486ce28857578028de9ca97049b60dd884fce"),
    (["analyze", "non-reduced.json"], 0,
     "279be4f606a8d9f95d628b8359319ed34c8dee71b23a28cd2ae605adab59de9d",
     "655ac7a412900f6a46a2b78a128205f69a80a9e18555af2b8aabc3aa37819c81"),
    (["analyze", "not-rational.json"], 3,
     "f2fa5556b0e292aa90877f66896e48c7404dcec5217a04e4c696e1fc2f5030cc",
     "c01db91761cfba129eb2c06816315265253305f2df73fe9e9708f393f3b4a23c"),
    (["analyze", "d4.json"], 4,
     "fc5eca089ba9ab110f7b23d5562c8536cd28c8941b813b064b1b7b7b3c9ca1b0",
     "d3840557674ebd5dd8ba75661c8028f07c35168c6553ef513841848f70dbaa81"),
    (["analyze", "broken.json"], 2,
     "29818744f72df9f8e000f190cdc9937fd90c56a4c6e22d3410e758e3cb26eebb",
     "05bb26ff37cd9c58440053c9a7203e85f283fd33f2bb76313ab48db3a815f191"),
    (["analyze", "missing.json"], 2,
     "421ab045bdd2c61913da0301b6de81978815679971c39fba2000412dc4c01541",
     "1a1aae9f705afdae707c4817246fca61d55ab7964092433c8720eaacd818578f"),
    (["analyze", "latin1.json"], 2,
     "398799c793dc88b45f2fc3e0cb27cb0fde69c96449f087eb7fcbacef8eb91629",
     "af6bed763989553b899e40a414a5fecde5289a68fa8db232b5e0f50ef26c4023"),
    (["analyze", "y125.json"], 5,
     "410f2f18c918f3c507e3b6401e9144c2dce6e04927e022b20d687abe23eb00bc",
     "032f8624f78c3b5f528aaef1ba7ba1b12d23e71047d9655b826159f706de1eb9"),
    (["series", "--d", "3"], 0,
     "4efd77941681bd525c5e66d3aa7984037d779446604d6397863ad4d6063ae4dd",
     "27103f55d02d8ea29dff73fa3d1d74157bb669f2752129b0776149120a3f0723"),
    (["series", "--d", "5", "--order", "12"], 0,
     "01cd6bfebe9867c2e84ab438181815368c448488c59ef0424ec5271d99ea3d7c",
     "ea83f97be74bb69124e04067b115f588afdd4e795eb3b278677c0e33978c65eb"),
    (["series", "--d", "3", "--order", "0"], 2,
     "aca6095fe61dc205451a0f14a52ec0047583d848db3cc8a24119fcf9653512bf",
     "130888db42dd23dc3d77971d9fb5013c7283550530a6c8765586ec286e48e158"),
    (["series", "--d", "2"], 2,
     "d386597e8e4a24fe1e437d7b753e45d55d8e86798d4d733d07459259d7a71d4c",
     "35ab19afad3636e4ef2209e0fe537b5c3d3f45f810a679a26b2c8d942f207a89"),
    (["series", "--d", "12", "--order", "5000"], 5,
     "678f2412d2e2552b16184b6ca405b9def357a290eb0d6ee2ec9bf7c3825b0fd6",
     "f04a59b9e5bbfde9c55d62227b68c6dc4e6d3fda48b0fa83cab30f59f3c86b0f"),
    (["oracle", "--m", "2", "--k", "3"], 0,
     "a23a604a702d9fca3b61d3039e7ad38dc50e587a555be7ff36a93dbb5a8e1b5b",
     "b53d8fcec0ec20343d71d583a661221e08a103ba0ef29c2a314f357387411922"),
    (["oracle", "--m", "2", "--k", "3", "--coeffs", "regular"], 0,
     "ce9e795286fae0349be08a9b80a8f5dd03d51d063aa174481715d6eb48ca8f35",
     "80adaf8f93f6c149eb8ab8a1f3ee5f324fd3aeb7f9712e926b809ee13633cabd"),
    (["oracle", "--m", "2", "--k", "3", "--hochschild"], 0,
     "51f39719d4dfcbc52f4d896efc66ccdbfd0e1886792b9db156bf7a366d9b7d35",
     "6555f8bb0ebe0795682cdd53dd6d70f5c57450b34871726d629eef03e00c568f"),
    (["oracle", "--m", "2", "--k", "11"], 5,
     "edb29c018e9170bb9a9b4bd09a11af327a39819bfa4da6f8fb11e2f4a77a799b",
     "150cb52ac1ac0910046360288f7f03546c24b4e7684f14fac2c3a7523785433e"),
    (["oracle", "--m", "0", "--k", "2"], 2,
     "e5223e4e2e847d608c2fc21f3e5ee82e7b6ba0947b577be2c5ef1bb4c79284c1",
     "89e92c1636adb1eea112a59aab3052b47dd16ddce756f9ef384598b2f867d8dd"),
    (["oracle", "--m", "2", "--k", "2", "--budget", "0"], 2,
     "9a79d155872bc007b1b064f3ed72c61e80529559149bbdc4458b5c4ffa46c6aa",
     "a1882772a38fe83b7af011bbb153e24830411bf7508c960a2402eb6c99e17d20"),
    (["selftest"], 0,
     "ae3145de4b8774e16a6b2dbb8fe5bf866856359c1b25bab57269a5eae5086a04",
     None),  # its --json holds timings
]


def test_cli_output_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in (("star.json", STAR_JSON), ("non-reduced.json", NON_REDUCED), ("d4.json", D4_JSON),
                       ("not-rational.json", FOUR_LEAF_B3_JSON), ("broken.json", "{broken"),
                       ("y125.json", y_tower_json(125))):
        write(tmp_path, text, name)
    (tmp_path / "latin1.json").write_bytes(b'{"vertices": [{"id": "\xe9"}]}')

    def digest(argv):
        code, out = run(capsys, argv)
        return code, hashlib.sha256(out.encode("utf-8")).hexdigest()

    for argv, code, human, as_json in PINNED_RUNS:
        assert digest(argv) == (code, human), argv
        if as_json is not None:
            assert digest(argv + ["--json"]) == (code, as_json), argv
    # a brute-force count that disagrees with the closed formula: status failed
    monkeypatch.setattr(cli, "harrison_dim", lambda *args, **kwargs: 0)
    assert digest(["oracle", "--m", "2", "--k", "3"]) == (
        1, "c1c6d4079b2067d1aa0e88cd9657909ad5ab8028dc0eeb97fa01962e44c9766a")
    assert digest(["oracle", "--m", "2", "--k", "3", "--json"]) == (
        1, "62e25926f5a6f16598a4045f7d0ee27fbf2b3e59f4a90a1de62d1e925bc669dd")


# (argv, (module, constant, lowered value) or None, exit code, SHA-256 of the
# human output, of the --json output): each refusal that main maps from a
# GraphError or a BudgetError, pinned as PINNED_RUNS is
REFUSAL_RUNS = [
    (["analyze", "four-leaf-b2.json"], None, 2,
     "e4cef23bde87faaf6244c3b124b955c4ee6da84a78010327337d3aa782852c4c",
     "bd148a7dc96ad17898fe98fb800570fb045799f8f6e48c2e86181599039515f4"),
    (["analyze", "cone12.json", "--max-i", "5000"], None, 5,
     "678f2412d2e2552b16184b6ca405b9def357a290eb0d6ee2ec9bf7c3825b0fd6",
     "f65a2120f5f9c3efc2296a85ecee5ebb73c8d2adf0fab8bc2ee3b00dbe5bfc13"),
    (["analyze", "d4.json"], (resgraph, "LOOP_BUDGET", 2), 5,
     "d3f41151f1f4409bbd17dbdebe6fe49fe50dd9a27115903fc99c16b32d072889",
     "20cb2a3dba832f368da2b5f42babb18d52b7a28d5dc4ac03954029689643ef74"),
    (["analyze", "star.json"], (cli, "MAX_GRAPH_BYTES", 100), 5,
     "2bfadd08cf355e74dbe5a8e104549a3800f037075516b6dc1689765c9af786ad",
     "f13ae69c388f42bf1f8395a471bf9965f31183a617d5ced15b8f5215be3bb9f5"),
    (["oracle", "--m", "2", "--k", "11", "--hochschild"], None, 5,
     "a48ccdebcb0ff6b14136970d80f9f4e3d9b9624ede09b81d596629bab032ea0b",
     "ddd2f2412d13d80b0c6b64dc8bbd912db1ecfe2deebcc02b374931e986f89c50"),
    (["oracle", "--m", "1", "--k", "30"], None, 5,
     "1f7e72cd1982a973d49474bd680f35086ea2c9479dce502681c472fceaafc970",
     "fc83f2a8edb585288394feba1d73e8f8243448f69f474311139c76718562dc80"),
]


def test_refusal_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in (("four-leaf-b2.json", FOUR_LEAF_B2_JSON), ("d4.json", D4_JSON),
                       ("star.json", STAR_JSON), ("cone12.json", acceptance.cone_graph_json(12))):
        write(tmp_path, text, name)
    for argv, patch, code, human, as_json in REFUSAL_RUNS:
        with monkeypatch.context() as m:
            if patch is not None:
                m.setattr(*patch)
            for args, want in ((argv, human), (argv + ["--json"], as_json)):
                out_code, out = run(capsys, args)
                assert (out_code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, want), args


def json_text(value):
    out = []
    cli._write_json(value, out)
    return "".join(out)


def random_text(rng):
    # quotes, backslashes, control characters, non-ASCII and astral characters
    return "".join(rng.choice('ab"\\/\n\t\x00\x1f\x7f \u00e9\u2028\u4e2d\U0001f600')
                   for _ in range(rng.randrange(8)))


def random_row(rng):
    """A list or tuple of 0 to 300 str, as the series rows are, or one whose
    first item is a str and a later one another type."""
    row = [random_text(rng) if rng.random() < 0.5 else str(rng.randint(-10 ** 40, 10 ** 40))
           for _ in range(rng.choice([0, 1, 2, rng.randrange(301)]))]
    if row and rng.random() < 0.3:
        row.insert(rng.randrange(1, len(row) + 1), random_json_value(rng, 1))
    return row if rng.random() < 0.8 else tuple(row)


def random_json_value(rng, depth):
    """A seeded random value of the types the JSON writer takes."""
    kind = rng.randrange(8 if depth > 0 else 5)
    if kind == 7:
        return random_row(rng)
    if kind == 0:
        return random_text(rng) if rng.random() < 0.7 else str(rng.randint(-10 ** 30, 10 ** 30))
    if kind == 1:
        return rng.choice([0, -1, 2 ** 63, -2 ** 64 - 1, rng.randint(-2 ** 200, 2 ** 200)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:  # selftest's round(elapsed, 3), floats printed with an exponent, and NaN
        return rng.choice([round(rng.uniform(0, 100), 3), -0.0, rng.random() * 10.0 ** rng.randint(-30, 30),
                           float("nan"), float("-inf")])
    if kind == 4:
        return rng.choice([{}, [], ()])
    children = [random_json_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return children if rng.random() < 0.8 else tuple(children)
    return {random_text(rng) + str(i): child for i, child in enumerate(children)}


def test_json_writer_equals_json_dumps_with_indent():
    rng = random.Random(2202)
    for _ in range(400):
        value = random_json_value(rng, rng.randrange(6))
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)
    # a list that starts with a str and goes on with another type, and a dict
    # of str and other values, are written as json.dumps writes them
    for value in (["1", 2], ["a", {}], ["a", None, "b"], ("", "\U0001f600", ["\\"]),
                  {"a": "x", "b": 1, "c": ["y", '"'], "d": None, "e": {"f": "\u00e9"}}):
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)
    # 450 containers deep, more than a tree at the budget's depth of about
    # 180 nests (a node's dict and its children's list per level)
    value = {"mult": "3"}
    for level in range(225):
        value = {"children": [value], "mult": str(level), "reduced": level % 2 == 0}
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


class Text(str):
    """A str subclass, which json.dumps writes as the text it holds."""


# rows like a decimal row that the writer must still quote item by item:
# non-ASCII digits, a sign, a control character, a quote, and other types
NEAR_MISSES = ("\u00b2", "\u0663", "\uff11", "-1", "1\n", '7"', None, 3, ["4"], {"5": "6"})


def random_decimal_row(rng):
    """A list or tuple of 1 to 300 decimal strings, with "" and str
    subclasses among them; one in three has one item from NEAR_MISSES."""
    row = []
    for _ in range(rng.choice([1, 2, rng.randrange(1, 301)])):
        text = str(rng.randint(0, 10 ** rng.randrange(1, 41)))
        row.append(rng.choice([text, text, text, "", Text(text)]))
    if rng.random() < 1 / 3:
        row[rng.randrange(len(row))] = rng.choice(NEAR_MISSES)
    return row if rng.random() < 0.8 else tuple(row)


def test_json_writer_writes_decimal_rows_as_json_dumps():
    rng = random.Random(3303)
    for _ in range(400):
        value = random_decimal_row(rng)
        for _ in range(rng.randrange(3)):  # nested, so the row's indent varies
            value = {"row": value, "n": 1} if rng.random() < 0.5 else [value, "2"]
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)
    for row in (["0"], [""], ["", ""], ["", "1"], (Text("1"), "2"), ["1", Text("2")], ["12", "\u00b2"],
                ["\u0663"], ["\uff11"], ["1", "-1"], ["1\n"], ['7"'], ["1", 2], ["1", None], ("1", ["2"])):
        assert json_text(row) == json.dumps(row, indent=2, sort_keys=True), row


def test_a_decimal_row_goes_into_the_output_by_reference():
    _, data = cli.cmd_series(SimpleNamespace(d=3, order=50))
    out = []
    cli._write_json(data, out)
    written = {id(chunk) for chunk in out}
    for key in ("shuffle_dims", "q_coefficients", "p_coefficients"):
        assert all(id(item) in written for item in data[key]), key
    assert "".join(out) == json.dumps(data, indent=2, sort_keys=True)


def test_a_write_boundary_inside_a_decimal_row_keeps_the_bytes(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["series", "--d", "3", "--order", "5000", "--json"]) == 0
    _, data = cli.cmd_series(SimpleNamespace(d=3, order=5000))
    assert len(data["p_coefficients"]) > cli._BATCH
    expected = json.dumps({"schema": "1", "command": "series", "status": "ok", **data}, indent=2, sort_keys=True)
    assert "".join(writes) == expected + "\n"
    # the first write, one batch of chunks, ends inside the P row (keys sorted)
    assert '"p_coefficients": [' in writes[0] and '"q_coefficients"' not in writes[0]


@pytest.mark.parametrize("value", [
    {1, 2}, b"bytes", 1j, Fraction(1, 2), object(), {1: "key that is not a str"}, {None: 0},
    {"a": [1, {"b": {2}}]}, [0, {"c": (1, b"")}], ["a", b"x"], ("a", {1: "b"}),
    ["1", b"2"], ("7", {2: "x"}), ["1", "2", {3}],
])
def test_json_writer_raises_type_error_on_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)
