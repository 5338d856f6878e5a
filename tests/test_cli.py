"""Command-line behavior: exit codes, output modes, the selftest gate."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ratsurf import acceptance, cli
from ratsurf.cli import EXIT_CODES, main

STAR = json.dumps(
    {
        "vertices": [
            {"id": "C", "b": 3},
            {"id": "L1", "b": 3},
            {"id": "L2", "b": 3},
            {"id": "L3", "b": 3},
        ],
        "edges": [["C", "L1"], ["C", "L2"], ["C", "L3"]],
    }
)
D4 = json.dumps(
    {
        "vertices": [
            {"id": "C", "b": 2},
            {"id": "L1", "b": 2},
            {"id": "L2", "b": 2},
            {"id": "L3", "b": 2},
        ],
        "edges": [["C", "L1"], ["C", "L2"], ["C", "L3"]],
    }
)
NOT_RATIONAL = json.dumps(
    {
        "vertices": [
            {"id": "C", "b": 2},
            {"id": "L1", "b": 3},
            {"id": "L2", "b": 3},
            {"id": "L3", "b": 3},
            {"id": "L4", "b": 3},
        ],
        "edges": [["C", "L1"], ["C", "L2"], ["C", "L3"], ["C", "L4"]],
    }
)


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
    code, out = run(capsys, ["analyze", write(tmp_path, STAR)])
    assert code == 0
    assert "multiplicity: 6" in out
    assert "T^3 = 30" in out
    assert "T^2 = 15 (exact)" in out
    assert "cod_AC = 3 (exact)" in out
    assert "gmd obstructed: no" in out
    assert "status:" not in out


def test_analyze_json_matches_human_output(tmp_path, capsys):
    path = write(tmp_path, STAR)
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
    path = write(tmp_path, STAR)
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


def test_analyze_rejects_small_max_i(tmp_path, capsys):
    code, out = run(capsys, ["analyze", write(tmp_path, STAR), "--max-i", "2"])
    assert code == 2


def test_analyze_not_rational(tmp_path, capsys):
    code, out = run(capsys, ["analyze", write(tmp_path, NOT_RATIONAL)])
    assert code == 3
    assert "rational: no (p_a(Z) = 1)" in out
    assert "status: not-rational" in out


def test_analyze_not_applicable(tmp_path, capsys):
    code, out = run(capsys, ["analyze", write(tmp_path, D4)])
    assert code == 4
    assert "multiplicity: 2" in out
    assert "status: not-applicable" in out


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


def test_oracle_checks_the_budget_before_building_the_fat_point(monkeypatch, capsys):
    def refuse(m):
        raise AssertionError("make_fat_point(%d) ran before the budget check" % m)

    monkeypatch.setattr("ratsurf.cli.make_fat_point", refuse)
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


def test_the_parser_is_built_on_first_use_and_reused(capsys):
    probe = "import ratsurf.cli as c; print(c._parser.cache_info().currsize)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "0"  # importing the CLI builds no parser
    cli._parser.cache_clear()
    first = run(capsys, ["series", "--d", "3", "--order", "6"])
    assert run(capsys, ["series", "--d", "3", "--order", "6"]) == first
    assert run(capsys, ["oracle", "--m", "2", "--k", "4"])[0] == 0
    assert cli._parser.cache_info().misses == 1


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
    assert run(capsys, ["analyze", write(tmp_path, y_tower_json(124))])[0] == 0


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
    big.write_bytes(STAR.encode("utf-8") + b" " * cli.MAX_GRAPH_BYTES)
    assert_budget_exceeded(capsys, str(big), "graph file is larger than 2000000 bytes")
    # at the cap exactly the file is read; one byte more is refused, before decoding
    text = STAR[:-1] + ', "\u00e9": 1}'
    size = len(text.encode("utf-8"))
    monkeypatch.setattr(cli, "MAX_GRAPH_BYTES", size)
    path = write(tmp_path, text)
    code, raw = run(capsys, ["analyze", path, "--json"])
    assert (code, json.loads(raw)["error_code"]) == (2, "unknown-field")
    monkeypatch.setattr(cli, "MAX_GRAPH_BYTES", size - 1)
    assert_budget_exceeded(capsys, path, "graph file is larger than %d bytes" % (size - 1))
    monkeypatch.setattr(cli, "MAX_GRAPH_BYTES", len(STAR))
    assert run(capsys, ["analyze", write(tmp_path, STAR)])[0] == 0
    # files around the size of the first read are read whole
    monkeypatch.undo()
    for size in ((1 << 16) - 1, 1 << 16, (1 << 16) + 1):
        assert run(capsys, ["analyze", write(tmp_path, STAR + " " * (size - len(STAR)))])[0] == 0


def test_analyze_reads_line_endings_as_text_mode_does(tmp_path, capsys):
    # CRLF and lone CR become LF, so error positions match the LF file's
    bad = '{"vertices": [{"id": "A",\n "b": 3}],\n "edges": [}'
    want = run(capsys, ["analyze", write(tmp_path, bad)])
    assert want[0] == 2 and "line 3 column 12" in want[1]
    for newline in ("\r\n", "\r"):
        path = tmp_path / "graph.json"
        path.write_bytes(bad.replace("\n", newline).encode("utf-8"))
        assert run(capsys, ["analyze", str(path)]) == want
    path.write_bytes(STAR.replace(", ", ",\r\n").encode("utf-8"))
    assert run(capsys, ["analyze", str(path)]) == run(capsys, ["analyze", write(tmp_path, STAR)])


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
