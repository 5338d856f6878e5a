"""Every pinned expectation of the `ratsurf` command line, written once, and its runner.

A Row: argv, exit code, JSON fields (a --json row prints canonical JSON), time limit (s), peak-RSS bound (MB).
Tier-1 runs ROWS in process; `python tests/test_cli_table.py` runs ROWS and CHILD_ROWS on the installed script."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

from ratsurf import cli
from test_cli import chain_json, complete_graph_json, fan_json, star_json, y_tower_json

Row = namedtuple("Row", "args code fields limit rss", defaults=(0, {}, 10, None))


def oracle(args, value, limit=10, **fields):
    return Row("oracle %s --json" % args, 0, {"brute_force": value, **fields}, limit)


GRAPHS = {  # the graph files that rows name, written into the working directory first
    "cone3.json": lambda: '{"vertices":[{"id":"A","b":3}],"edges":[]}',
    "surrogate.json": lambda: '{"vertices":[{"id":"\\ud800","b":3}],"edges":[]}',
    "star.json": lambda: star_json(161), "chain.json": lambda: chain_json(300, 3),
    "huge-b-chain.json": lambda: chain_json(3000, 10 ** 200), "hub.json": lambda: fan_json(10000),
    **{"k%d.json" % n: (lambda n=n: complete_graph_json(n, n)) for n in (120, 160)},
    **{"y%d.json" % arm: (lambda arm=arm: y_tower_json(arm)) for arm in (100, 124, 340, 14500)},
}
SERIES_CAP = "series --d 3 --order 13287"  # the largest order whose coefficients fit 4000 digits
ANALYZE_CAP = "analyze cone3.json --max-i 13287 --json"
ROWS = [
    oracle("--m 2 --k 9", "56", verdict="MATCH"), oracle("--m 2 --k 11 --budget 5000", "186", 5, verdict="MATCH"),
    oracle("--m 3 --k 5 --coeffs regular", "126"), oracle("--m 2 --k 11 --hochschild --budget 5000", "2048"),
    oracle("--m 2 --k 8 --coeffs regular --hochschild", "384"),
    oracle("--m 4 --k 4 --coeffs regular --hochschild", "960"),
    # regular Hochschild, ranked a content shape at a time, within and past the default cap; one letter too
    oracle("--m 2 --k 11 --coeffs regular --hochschild --budget 5000", "3072", 5),
    oracle("--m 6 --k 3 --coeffs regular --hochschild", "1260", 5),
    oracle("--m 4 --k 6 --coeffs regular --hochschild --budget 20000", "15360", 5),
    oracle("--m 3 --k 7 --coeffs regular --hochschild --budget 7000", "5832", 5),
    oracle("--m 1 --k %d --coeffs regular --hochschild" % 10 ** 18, "1", 5),
    # the deepest regular Harrison columns, fatpoint_tdim(2, 9) and (2, 10); block ranks past the cap, (6, 3), (3, 6)
    oracle("--m 2 --k 10 --coeffs regular --budget 5000", "154"),
    oracle("--m 2 --k 11 --coeffs regular --budget 5000", "267"),
    oracle("--m 6 --k 4 --coeffs regular --budget 50000", "1820"),
    oracle("--m 3 --k 7 --coeffs regular --budget 7000", "812"),
    oracle("--m 2 --k 12 --budget 20000", "335", 5, verdict="MATCH"),  # the largest two-letter shape kernels
    oracle("--m 1 --k 1200 --budget %d --coeffs regular" % 2 ** 1300, "0"),  # degree 1200: an answer, not a traceback
    Row("selftest --json", 0, {"failed": 0, "passed": 11}, 60),
    # help, --opt=value, abbreviations and usage errors go through argparse
    Row("--help"), Row("analyze --help"), Row("series --ord 5 --d=4 --json"), Row("series --order 5 --d 4 --json"),
    Row("oracle --m x --k 2", 2), Row("oracle --m 2 --k 10 --json", 5), Row("oracle --m 1 --k 30 --json", 5),
    # a vertex id no UTF-8 stdout can print is invalid input in either mode
    Row("analyze surrogate.json", 2), Row("analyze surrogate.json --json", 2, {"error_code": "syntax"}),
    Row("series --d 12 --order 5000 --json", 5), Row("series --d 3 --order 13288 --json", 5),
    # large graphs analyze in linear time; the complete graphs and the hub pair to -1 at once
    Row("analyze star.json --json"), Row("analyze chain.json --json"), Row("analyze huge-b-chain.json --json"),
    Row("analyze k120.json --json", 3), Row("analyze k160.json --json", 3), Row("analyze hub.json --json", 3),
    # Y towers: y124, of weight 125^2 126 / 2 = 984375, is the deepest under the tree budget (a 4.6 MB report)
    Row("analyze y100.json --json"), Row("analyze y124.json --json", 0, {}, 5), Row("analyze y124.json", 0, {}, 5),
    Row("analyze y340.json --json", 5),
]
CHILD_ROWS = [  # over tier-1's time share, or bounded in peak RSS, which only a child process can show
    oracle("--m 2 --k 12 --coeffs regular --budget 20000", "484"),  # d_12 against degree-13 blocks, each relabeled once
    Row("analyze y14500.json --json", 5),  # a file just under the byte cap
    Row(SERIES_CAP + " --json", 0, {}, 10, 120), Row(SERIES_CAP, 0, {}, 10, 120), Row(ANALYZE_CAP, 0, {}, 10, 120),
]
CHECKS = [  # (name, the rows whose outputs it reads, JSON parsed, and its test)
    ("an abbreviation and --opt=value print the exact spelling's JSON",
     ("series --ord 5 --d=4 --json", "series --order 5 --d 4 --json"), lambda a, b: a == b),
    ("the digit-cap human rows are the JSON rows", (SERIES_CAP + " --json", SERIES_CAP),
     lambda doc, text: [line.split(": ", 1)[1].split(" ") for line in text.split("\n")[1:4]] + text.split("\n")[4:]
     == [doc["shuffle_dims"], doc["q_coefficients"], doc["p_coefficients"], ""]),
    ("analyze's T^i up to the digit cap are the series' P row", (ANALYZE_CAP, SERIES_CAP + " --json"),
     lambda report, doc: report["tdims"] == {str(i): doc["p_coefficients"][i - 1] for i in range(3, 13288)}),
]
# Spawns argv[2:], kills it after argv[1] seconds, and ends stdout with a NUL and the child's own peak RSS
# in KB. Linux carries a process's RSS high-water mark over exec, so a child of the runner reads the runner's.
LAUNCHER = ("import os, signal, sys; pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)\n"
            "signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))\n"
            "signal.setitimer(signal.ITIMER_REAL, float(sys.argv[1])); _, status, usage = os.wait4(pid, 0)\n"
            "os.write(1, b'\\0%d' % usage.ru_maxrss); sys.exit(os.waitstatus_to_exitcode(status))")


def in_process(row):
    """Exit code, stdout and peak RSS (0: not measured) of cli.main on row's argv."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            return cli.main(row.args.split()), out.getvalue(), 0
        except SystemExit as e:  # argparse's help and usage errors
            return e.code, out.getvalue(), 0


def run_child(row, command):
    """Exit code, stdout and peak RSS in MB of command on row's argv, from LAUNCHER."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, str(row.limit), *command, *row.args.split()],
                          stdout=subprocess.PIPE, env=dict(os.environ, PYTHONIOENCODING="utf-8"))
    out, _, peak = proc.stdout.rpartition(b"\0")
    return proc.returncode, out.decode("utf-8", "replace"), int(peak or 0) / 1024


def problems(row, code, out, seconds, rss):
    """What row's run got wrong, and its output, parsed if JSON."""
    found = [] if code == row.code else ["exit %s, not %d" % (code, row.code)]
    found += ["%.2f s, over the %g s limit" % (seconds, row.limit)] if seconds > row.limit else []
    found += ["peak RSS %.1f MB, over %d MB" % (rss, row.rss)] if row.rss and not 0 < rss <= row.rss else []
    if "--json" not in row.args.split():
        return found, out
    with contextlib.suppress(ValueError):
        doc = json.loads(out)
        found += [] if out == json.dumps(doc, indent=2, sort_keys=True) + "\n" else ["stdout is not canonical JSON"]
        return found + ["%s is %r, not %r" % (k, doc.get(k), v) for k, v in row.fields.items() if doc.get(k) != v], doc
    return found + ["stdout is not JSON"], None


def run_table(rows, command=None):
    """Run rows (in process, or by command) and then CHECKS, if no row failed; report, and return what failed."""
    for name in GRAPHS.keys() & {name for row in rows for name in row.args.split()}:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(GRAPHS[name]())
    failed, outputs = [], {}
    for row in rows:
        start = time.perf_counter()
        code, out, rss = run_child(row, command) if command else in_process(row)
        seconds = time.perf_counter() - start
        found, outputs[row.args] = problems(row, code, out, seconds, rss)
        print("FAIL" if found else "ok", code, "%.2f s" % seconds, "%.0f MB" % rss if rss else "-", row.args)
        failed += ["ratsurf %s: %s" % (row.args, problem) for problem in found]
    checks = [] if failed else [check for check in CHECKS if set(check[1]) <= outputs.keys()]
    return failed + ["check: " + name for name, args, holds in checks if not holds(*map(outputs.get, args))]


def test_rows_in_process(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_table(ROWS) == []


def test_the_runner_names_each_failing_row_and_reads_a_childs_own_peak_rss():
    python = (sys.executable,)  # in place of the script: a row's args are python's
    for row, command, problem in ((oracle("--m 2 --k 9", "57"), None, "brute_force is '56', not '57'"),
                                  (Row("oracle --m 2 --k 10 --json"), None, "exit 5, not 0"),
                                  (Row("-c __import__('time').sleep(5)", 0, {}, 0.2), python, "over the 0.2 s"),
                                  (Row("-c pass", 0, {}, 10, 1), python, "MB, over 1 MB")):
        assert any(line.startswith("ratsurf %s: " % row.args) and problem in line for line in run_table([row], command))
    held = b"x" * (60 << 20)  # a child spawned straight from here would read at least this much
    code, _, rss = run_child(Row("-c pass"), python)
    assert (code, len(held)) == (0, 60 << 20) and 0 < rss < 40, rss


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        failed = run_table(ROWS + CHILD_ROWS, ("ratsurf",))
    print("%d rows, %d checks, %d failures" % (len(ROWS + CHILD_ROWS), len(CHECKS), len(failed)), *failed, sep="\n")
    sys.exit(1 if failed else 0)
