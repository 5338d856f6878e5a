"""Every pinned expectation of the `ratsurf` command line, written once, and its runner.

A Row: argv, exit code, JSON fields (a --json row prints canonical JSON), time limit (s), peak-RSS bound (MB),
SHA-256 of stdout. Tier-1 runs ROWS in process; `python tests/test_cli_table.py` runs ROWS and CHILD_ROWS on the
installed script. test_census.py runs the rows that carry a SHA-256."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

from ratsurf import acceptance, cli
from test_cli import chain_json, complete_graph_json, fan_json, star_json, y_tower_json

Row = namedtuple("Row", "args code fields limit rss sha", defaults=(0, {}, 10, None, None))


def oracle(args, value, limit=10, **fields):
    return Row("oracle %s --json" % args, 0, {"brute_force": value, **fields}, limit)


GRAPHS = {  # the graph files that rows name (text, or bytes as they stand), written into the working directory first
    "surrogate.json": lambda: '{"vertices":[{"id":"\\ud800","b":3}],"edges":[]}',
    "latin1.json": lambda: b'{"vertices": [{"id": "\xe9"}]}', "broken.json": lambda: "{broken",
    "star.json": lambda: acceptance.STAR_JSON, "d4.json": lambda: acceptance.D4_JSON,
    "not-rational.json": lambda: acceptance.FOUR_LEAF_B3_JSON, "four-leaf-b2.json": lambda: acceptance.FOUR_LEAF_B2_JSON,
    # a tree whose fundamental cycle is not reduced: one RDP is dropped, and T^2 and cod_AC are lower bounds
    "non-reduced.json": lambda: json.dumps({
        "vertices": [{"id": "V%d" % i, "b": b} for i, b in enumerate((2, 3, 3, 2, 2, 2, 3))],
        "edges": [["V0", "V1"], ["V0", "V2"], ["V1", "V3"], ["V3", "V4"], ["V0", "V5"], ["V2", "V6"]]}),
    "star161.json": lambda: star_json(161), "chain.json": lambda: chain_json(300, 3),
    "huge-b-chain.json": lambda: chain_json(3000, 10 ** 200), "hub.json": lambda: fan_json(10000),
    **{"cone%d.json" % d: (lambda d=d: acceptance.cone_graph_json(d)) for d in (3, 12)},
    **{"k%d.json" % n: (lambda n=n: complete_graph_json(n, n)) for n in (120, 160)},
    **{"y%d.json" % arm: (lambda arm=arm: y_tower_json(arm)) for arm in (100, 124, 125, 340, 14500)},
}
SERIES_CAP = "series --d 3 --order 13287"  # the largest order whose coefficients fit 4000 digits
ANALYZE_CAP = "analyze cone3.json --max-i 13287 --json"
# exit code, SHA-256 of stdout, argv: each command and status in each output mode (selftest --json holds timings).
# missing.json is never written, and the one path a report prints is the name given here.
PINNED = """
0 3633a1a4e39b8b27eae789ab5f07d02b93d1ec913b2bc1464bfb2e1a5b4121c2 analyze star.json
0 18fccbbb3b544f0a0d751492a710c55ebef38197c6840b03bc976494a24dc6f3 analyze star.json --json
0 5722fda623f9e2233c3fee52e0fae40026aca0abefef9a8bbeef1b39720d55a7 analyze star.json --max-i 8
0 157f3bd062ff9307cea451a75227045a8fa6b87ff45bd992dd8ba5221f51664a analyze star.json --max-i 8 --json
2 d4278655c11a7f9a2920b8ce58a287c8ca44f1846f63c1462abbec53d62c1b1f analyze star.json --max-i 2
2 3cb6aa4c4580bf0e4cb4a17501a486ce28857578028de9ca97049b60dd884fce analyze star.json --max-i 2 --json
0 279be4f606a8d9f95d628b8359319ed34c8dee71b23a28cd2ae605adab59de9d analyze non-reduced.json
0 655ac7a412900f6a46a2b78a128205f69a80a9e18555af2b8aabc3aa37819c81 analyze non-reduced.json --json
3 f2fa5556b0e292aa90877f66896e48c7404dcec5217a04e4c696e1fc2f5030cc analyze not-rational.json
3 c01db91761cfba129eb2c06816315265253305f2df73fe9e9708f393f3b4a23c analyze not-rational.json --json
4 fc5eca089ba9ab110f7b23d5562c8536cd28c8941b813b064b1b7b7b3c9ca1b0 analyze d4.json
4 d3840557674ebd5dd8ba75661c8028f07c35168c6553ef513841848f70dbaa81 analyze d4.json --json
2 29818744f72df9f8e000f190cdc9937fd90c56a4c6e22d3410e758e3cb26eebb analyze broken.json
2 05bb26ff37cd9c58440053c9a7203e85f283fd33f2bb76313ab48db3a815f191 analyze broken.json --json
2 421ab045bdd2c61913da0301b6de81978815679971c39fba2000412dc4c01541 analyze missing.json
2 1a1aae9f705afdae707c4817246fca61d55ab7964092433c8720eaacd818578f analyze missing.json --json
2 398799c793dc88b45f2fc3e0cb27cb0fde69c96449f087eb7fcbacef8eb91629 analyze latin1.json
2 af6bed763989553b899e40a414a5fecde5289a68fa8db232b5e0f50ef26c4023 analyze latin1.json --json
5 410f2f18c918f3c507e3b6401e9144c2dce6e04927e022b20d687abe23eb00bc analyze y125.json
5 032f8624f78c3b5f528aaef1ba7ba1b12d23e71047d9655b826159f706de1eb9 analyze y125.json --json
0 4efd77941681bd525c5e66d3aa7984037d779446604d6397863ad4d6063ae4dd series --d 3
0 27103f55d02d8ea29dff73fa3d1d74157bb669f2752129b0776149120a3f0723 series --d 3 --json
0 01cd6bfebe9867c2e84ab438181815368c448488c59ef0424ec5271d99ea3d7c series --d 5 --order 12
0 ea83f97be74bb69124e04067b115f588afdd4e795eb3b278677c0e33978c65eb series --d 5 --order 12 --json
2 aca6095fe61dc205451a0f14a52ec0047583d848db3cc8a24119fcf9653512bf series --d 3 --order 0
2 130888db42dd23dc3d77971d9fb5013c7283550530a6c8765586ec286e48e158 series --d 3 --order 0 --json
2 d386597e8e4a24fe1e437d7b753e45d55d8e86798d4d733d07459259d7a71d4c series --d 2
2 35ab19afad3636e4ef2209e0fe537b5c3d3f45f810a679a26b2c8d942f207a89 series --d 2 --json
5 678f2412d2e2552b16184b6ca405b9def357a290eb0d6ee2ec9bf7c3825b0fd6 series --d 12 --order 5000
5 f04a59b9e5bbfde9c55d62227b68c6dc4e6d3fda48b0fa83cab30f59f3c86b0f series --d 12 --order 5000 --json
0 a23a604a702d9fca3b61d3039e7ad38dc50e587a555be7ff36a93dbb5a8e1b5b oracle --m 2 --k 3
0 b53d8fcec0ec20343d71d583a661221e08a103ba0ef29c2a314f357387411922 oracle --m 2 --k 3 --json
0 ce9e795286fae0349be08a9b80a8f5dd03d51d063aa174481715d6eb48ca8f35 oracle --m 2 --k 3 --coeffs regular
0 80adaf8f93f6c149eb8ab8a1f3ee5f324fd3aeb7f9712e926b809ee13633cabd oracle --m 2 --k 3 --coeffs regular --json
0 51f39719d4dfcbc52f4d896efc66ccdbfd0e1886792b9db156bf7a366d9b7d35 oracle --m 2 --k 3 --hochschild
0 6555f8bb0ebe0795682cdd53dd6d70f5c57450b34871726d629eef03e00c568f oracle --m 2 --k 3 --hochschild --json
5 edb29c018e9170bb9a9b4bd09a11af327a39819bfa4da6f8fb11e2f4a77a799b oracle --m 2 --k 11
5 150cb52ac1ac0910046360288f7f03546c24b4e7684f14fac2c3a7523785433e oracle --m 2 --k 11 --json
2 e5223e4e2e847d608c2fc21f3e5ee82e7b6ba0947b577be2c5ef1bb4c79284c1 oracle --m 0 --k 2
2 89e92c1636adb1eea112a59aab3052b47dd16ddce756f9ef384598b2f867d8dd oracle --m 0 --k 2 --json
2 9a79d155872bc007b1b064f3ed72c61e80529559149bbdc4458b5c4ffa46c6aa oracle --m 2 --k 2 --budget 0
2 a1882772a38fe83b7af011bbb153e24830411bf7508c960a2402eb6c99e17d20 oracle --m 2 --k 2 --budget 0 --json
0 ae3145de4b8774e16a6b2dbb8fe5bf866856359c1b25bab57269a5eae5086a04 selftest
2 e4cef23bde87faaf6244c3b124b955c4ee6da84a78010327337d3aa782852c4c analyze four-leaf-b2.json
2 bd148a7dc96ad17898fe98fb800570fb045799f8f6e48c2e86181599039515f4 analyze four-leaf-b2.json --json
5 678f2412d2e2552b16184b6ca405b9def357a290eb0d6ee2ec9bf7c3825b0fd6 analyze cone12.json --max-i 5000
5 f65a2120f5f9c3efc2296a85ecee5ebb73c8d2adf0fab8bc2ee3b00dbe5bfc13 analyze cone12.json --max-i 5000 --json
5 a48ccdebcb0ff6b14136970d80f9f4e3d9b9624ede09b81d596629bab032ea0b oracle --m 2 --k 11 --hochschild
5 ddd2f2412d13d80b0c6b64dc8bbd912db1ecfe2deebcc02b374931e986f89c50 oracle --m 2 --k 11 --hochschild --json
5 1f7e72cd1982a973d49474bd680f35086ea2c9479dce502681c472fceaafc970 oracle --m 1 --k 30
5 fc83f2a8edb585288394feba1d73e8f8243448f69f474311139c76718562dc80 oracle --m 1 --k 30 --json
0 a408a00e331736f51b33b8ec196d1170460ea9b2d9ea9077d973f3b2c99ba20a oracle --m 2 --k 3 --coeffs regular --hochschild
0 a181ed71746cbf2764860afde74332734308600286dead33c55dacbc88471fa4 oracle --m 2 --k 3 --coeffs regular --hochschild --json
0 3b8ad11325c6547e34c02a2e606a804d614591be846babfbb2bbdcc41c819e13 series --ord 5 --d=4
0 6d0e919f8e6dd35154d6368543334c392c4f8b3bc208c204adf416f1130bdddf series --ord 5 --d=4 --json
"""
ROWS = [Row(args, int(code), sha=sha) for code, sha, args in (line.split(" ", 2) for line in PINNED.strip().split("\n"))]
ROWS += [
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
    # help and usage errors go through argparse, as the pinned --opt=value abbreviation does; the exact spelling does not
    Row("--help"), Row("analyze --help"), Row("series --order 5 --d 4 --json"), Row("oracle --m x --k 2", 2),
    Row("oracle --m 2 --k 10 --json", 5),
    # a vertex id no UTF-8 stdout can print is invalid input in either mode
    Row("analyze surrogate.json", 2), Row("analyze surrogate.json --json", 2, {"error_code": "syntax"}),
    Row("series --d 3 --order 13288 --json", 5),
    # large graphs analyze in linear time; the complete graphs and the hub pair to -1 at once
    Row("analyze star161.json --json"), Row("analyze chain.json --json"), Row("analyze huge-b-chain.json --json"),
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
    sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
    found += ["stdout's SHA-256 is %s, not %s" % (sha, row.sha)] if row.sha not in (None, sha) else []
    if "--json" not in row.args.split():
        return found, out
    with contextlib.suppress(ValueError):
        doc = json.loads(out)
        found += [] if out == json.dumps(doc, indent=2, sort_keys=True) + "\n" else ["stdout is not canonical JSON"]
        return found + ["%s is %r, not %r" % (k, doc.get(k), v) for k, v in row.fields.items() if doc.get(k) != v], doc
    return found + ["stdout is not JSON"], None


def write_graphs(rows):
    """Write the GRAPHS files that rows name into the working directory."""
    for name in GRAPHS.keys() & {name for row in rows for name in row.args.split()}:
        text = GRAPHS[name]()
        with open(name, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))


def run_table(rows, command=None):
    """Run rows (in process, or by command) and then CHECKS, if no row failed; report, and return what failed."""
    write_graphs(rows)
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
                                  (Row("series --d 3", 0, sha="0" * 64), None, "SHA-256 is 4efd77"),
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
