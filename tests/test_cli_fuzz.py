"""Seeded fuzzing of the command line: every input ends in a documented status.

Mutated graph files (built from the acceptance fixtures), large dense
graphs, files past the size cap and random argv for all four subcommands go
through cli.main. Each call must return an exit code in {0, 2, 3, 4, 5} or
stop in argparse with SystemExit(2); a traceback, a "failed" verdict or a
slow run is a bug in the program. Numeric options are
drawn either small or far past their caps, so no accepted run is slow.
"""

from __future__ import annotations

import copy
import json
import random
import re
import time

from ratsurf import acceptance, cli
from test_cli_table import y_tower_json

ALLOWED = {0, 2, 3, 4, 5}

FIXTURES = [text for _, text in acceptance.analysis_fixtures()] + [
    acceptance.D4_JSON,
    acceptance.FOUR_LEAF_B2_JSON,
    acceptance.FOUR_LEAF_B3_JSON,
    y_tower_json(20),  # a blow-up tower 21 levels deep
]

ODD_VALUES = [None, True, False, 0, -1, 1, 2.5, 3.0, "3", [], {}, "", 10 ** 30]


def odd(rng, extra=()):
    """A fresh copy of an odd value: a list or dict shared between two
    places of a graph could come to contain itself."""
    return copy.deepcopy(rng.choice(ODD_VALUES + list(extra)))


def huge(rng):
    return 10 ** rng.randint(20, 120) * rng.choice([1, -1])


GROW = 8  # the one edit that keeps a graph valid


def mutate_graph(rng, data, op):
    """Structural edit number op of a parsed graph, in place where it can be."""
    vertices, edges = data.get("vertices"), data.get("edges")
    if op == 0:  # drop a field
        if isinstance(vertices, list) and vertices and rng.random() < 0.6:
            v = rng.choice(vertices)
            if isinstance(v, dict) and v:
                del v[rng.choice(sorted(v))]
        elif data:
            del data[rng.choice(sorted(data))]
    elif op == 1:  # duplicate a vertex or an edge
        seq = vertices if rng.random() < 0.5 else edges
        if isinstance(seq, list) and seq:
            seq.append(json.loads(json.dumps(rng.choice(seq))))
    elif op == 2:  # retype a top-level field or a whole vertex or edge
        key = rng.choice(["vertices", "edges"])
        if rng.random() < 0.4 or not isinstance(data.get(key), list) or not data[key]:
            data[key] = odd(rng)
        else:
            data[key][rng.randrange(len(data[key]))] = odd(rng, [["A"], ["A", "B", "C"]])
    elif op in (3, 4):  # an odd, huge, negative, float, bool or string b
        if isinstance(vertices, list) and vertices and isinstance(vertices[0], dict):
            v = rng.choice(vertices)
            if isinstance(v, dict):
                v["b"] = odd(rng, [huge(rng), rng.randint(-5, 12)])
    elif op == 5:  # an edge to an unknown or equal id
        if isinstance(edges, list) and isinstance(vertices, list) and vertices:
            v = rng.choice(vertices)
            vid = v.get("id", "X") if isinstance(v, dict) else "X"
            edges.append([vid, rng.choice(["nowhere", vid, 7])])
    elif op == 6:  # an unknown field
        target = rng.choice(vertices) if isinstance(vertices, list) and vertices else data
        if isinstance(target, dict):
            target["genus"] = 1
    elif op == 7:  # a non-string or empty id
        if isinstance(vertices, list) and vertices and isinstance(vertices[0], dict):
            vertices[0]["id"] = rng.choice([5, "", None, ["C"]])
    else:  # GROW: a valid graph, larger: a fresh b >= 2 leaf on a random vertex
        if isinstance(vertices, list) and isinstance(edges, list) and vertices:
            v = rng.choice(vertices)
            if isinstance(v, dict) and isinstance(v.get("id"), str):
                vertices.append({"id": "N%d" % len(vertices), "b": rng.randint(2, 6)})
                edges.append([v["id"], "N%d" % (len(vertices) - 1)])
    return data


def dense_graph(rng):
    """K_n near its singular boundary b = n - 1, or a random dense graph."""
    if rng.random() < 0.5:
        n = rng.randint(100, 150)
        edges = [(i, j) for i in range(n) for j in range(i)]
        bs = [rng.randint(n - 2, n + 1)] * n
    else:
        n = rng.randint(30, 80)
        p = rng.uniform(0.3, 1.0)
        edges = [(i, j) for i in range(n) for j in range(i) if j == i - 1 or rng.random() < p]
        edges += rng.sample(edges, rng.randint(0, n))  # some double edges
        degree = [0] * n
        for i, j in edges:
            degree[i] += 1
            degree[j] += 1
        bs = [max(2, d + rng.randint(-3, 6)) for d in degree]  # mostly diagonally dominant
    return {"vertices": [{"id": "V%d" % i, "b": b} for i, b in enumerate(bs)],
            "edges": [["V%d" % i, "V%d" % j] for i, j in edges]}


def oversized(rng) -> bytes:
    """A file just past the byte cap: a padded fixture, or a star that big."""
    if rng.random() < 0.5:
        text = rng.choice(FIXTURES).encode("utf-8")
        return text + b" " * (cli.MAX_GRAPH_BYTES - len(text) + rng.randint(1, 1000))
    n = cli.MAX_GRAPH_BYTES // 30
    return json.dumps({"vertices": [{"id": "C", "b": n}] + [{"id": "L%d" % i, "b": 2} for i in range(1, n)],
                       "edges": [["C", "L%d" % i] for i in range(1, n)]}).encode("utf-8")


def graph_bytes(rng) -> bytes:
    roll = rng.random()
    if roll < 0.04:
        return json.dumps(dense_graph(rng)).encode("utf-8")
    if roll < 0.06:
        return oversized(rng)
    data = json.loads(rng.choice(FIXTURES))
    if rng.random() < 0.45:  # a valid graph: a fixture, maybe grown
        for _ in range(rng.randint(0, 3)):
            mutate_graph(rng, data, GROW)
        return json.dumps(data).encode("utf-8")
    for _ in range(rng.randint(1, 3)):
        mutate_graph(rng, data, rng.randrange(GROW + 1))
    text = json.dumps(data)
    roll = rng.random()
    if roll < 0.15:  # truncated text
        text = text[: rng.randrange(len(text))]
    elif roll < 0.3:  # an integer literal past Python's 4300-digit limit
        literal = "9" * rng.randint(4301, 6000)
        text, found = re.subn(r'"b": -?\d+', '"b": ' + literal, text, count=1)
        if not found:
            text = '{"vertices": [], "edges": [%s]}' % literal
    elif roll < 0.4:  # deep nesting
        text = '{"vertices": ' + "[" * rng.randint(2000, 100000)
    elif roll < 0.5:  # not a JSON object at all, or not UTF-8
        return rng.choice([b"", b"null", b"[1, 2]", b"\xff\xfe{", text.encode("utf-16")])
    return text.encode("utf-8")


def small_or_huge(rng, low, high):
    """An int in [low, high], or one far past any cap, or a non-number, as a string."""
    roll = rng.random()
    if roll < 0.7:
        return str(rng.randint(low, high))
    if roll < 0.9:
        return str(10 ** rng.randint(5, 400) + rng.randint(0, 9))
    return rng.choice(["x", "1.5", "", "-", "9" * 5000])


def random_argv(rng, path):
    cmd = rng.choice(["analyze", "analyze", "series", "series", "oracle", "oracle", "oracle", "selftest", "junk"])
    argv = [cmd]
    if cmd == "analyze":
        argv.append(path)
        if rng.random() < 0.6:
            argv += ["--max-i", small_or_huge(rng, -3, 200)]
    elif cmd == "series":
        if rng.random() < 0.95:
            argv += ["--d", small_or_huge(rng, -2, 40)]
        if rng.random() < 0.8:
            argv += ["--order", small_or_huge(rng, -3, 200)]
    elif cmd == "oracle":
        if rng.random() < 0.95:
            argv += ["--m", small_or_huge(rng, -1, 6)]
        if rng.random() < 0.95:
            argv += ["--k", small_or_huge(rng, -1, 12)]
        if rng.random() < 0.5:
            argv += ["--budget", str(rng.randint(-5, 1500)) if rng.random() < 0.9 else "x"]
        if rng.random() < 0.5:
            argv += ["--coeffs", rng.choice(["trivial", "regular", "regular", "other"])]
        if rng.random() < 0.3:
            argv.append("--hochschild")
    elif cmd == "selftest":
        if rng.random() < 0.2:
            argv.append("--unknown")
    else:
        argv = rng.choice([[], ["--json"], ["nosuch"], ["series", "--d"], ["oracle", "--m", "2"]])
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def call(argv, capsys):
    """Run cli.main; return (exit code, stdout), with argparse's exit read as code 2."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        assert e.code == 2, (argv, e.code)
        capsys.readouterr()
        return 2, None
    return code, capsys.readouterr().out


def test_fuzzed_inputs_end_in_a_documented_status(tmp_path, capsys):
    rng = random.Random(1018)
    start = time.perf_counter()
    seen = set()
    selftests = 0
    for n in range(300):
        path = tmp_path / ("g%d.json" % n)
        path.write_bytes(graph_bytes(rng))
        if n % 2 == 0:
            argv = ["analyze", str(path)] + (["--json"] if rng.random() < 0.5 else [])
        else:
            argv = random_argv(rng, str(path))
            if argv[:1] == ["selftest"]:
                selftests += 1
                if selftests > 3:  # about 0.3 s each; a few are enough
                    continue
        t0 = time.perf_counter()
        code, out = call(argv, capsys)
        assert time.perf_counter() - t0 < 5, argv[:6]
        assert code in ALLOWED, (argv[:6], code, (out or "")[-300:])
        seen.add(code)
        if out is not None and "--json" in argv:
            env = json.loads(out)
            assert cli.EXIT_CODES[env["status"]] == code, argv[:6]
    # the generator reaches every documented status
    assert seen == ALLOWED
    assert time.perf_counter() - start < 30


# option spellings argparse also accepts: prefixes of each long option
ABBREVIATIONS = {"--max-i": "--max", "--order": "--ord", "--coeffs": "--coe",
                 "--hochschild": "--hoch", "--budget": "--bud", "--json": "--js"}
VALUED = {"--max-i", "--d", "--order", "--m", "--k", "--coeffs", "--budget"}
REQUIRED = {"--d", "--m", "--k"}
# values that a hand reader could read otherwise than argparse: negative or
# like an option (argparse takes "-3" as a value but "-1_0" as an option),
# empty, padded, with an underscore or a non-ASCII digit, past int()'s
# 4300-digit limit, or no --coeffs choice
ODD_ARGS = ["-3", "-1_0", "--json", "-x", "-", "", " 7", "7 ", "1_0", "\u0663", "+4", "9" * 4301, "other"]


def parser_argv(rng):
    """random_argv with spellings and mistakes that reach argparse's own paths."""
    argv = [] if rng.random() < 0.03 else random_argv(rng, "graph.json")
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        i = rng.randint(0, len(argv))
        valued = [j for j in range(len(argv) - 1) if argv[j] in VALUED]
        if roll < 0.1:  # help, anywhere
            argv.insert(i, rng.choice(["-h", "--help"]))
        elif roll < 0.25:  # an unknown option, a stray or empty word, or the end of options
            argv.insert(i, rng.choice(["--nosuch", "-x", "extra", "", "--", "--json=1", "analyze", "--d"]))
        elif roll < 0.45 and argv:  # --opt value as --opt=value
            j = rng.randrange(len(argv))
            if argv[j].startswith("--") and j + 1 < len(argv):
                argv[j:j + 2] = [argv[j] + "=" + argv[j + 1]]
        elif roll < 0.6 and valued:  # an odd value
            argv[rng.choice(valued) + 1] = rng.choice(ODD_ARGS)
        elif roll < 0.7 and valued:  # a repeated option: the last value wins
            option = argv[rng.choice(valued)]
            argv += [option, rng.choice(["trivial", "regular"]) if option == "--coeffs" else str(rng.randint(1, 9))]
        elif roll < 0.8:  # a required option left out
            for j in [j for j in range(len(argv)) if argv[j] in REQUIRED][:1]:
                del argv[j:j + 2]
        elif roll < 0.85 and "graph.json" in argv:  # an analyze path that starts with "-"
            argv[argv.index("graph.json")] = rng.choice(["-3", "-g.json", "-"])
        elif argv:  # an abbreviated option
            j = rng.randrange(len(argv))
            argv[j] = ABBREVIATIONS.get(argv[j], argv[j])
    return argv


def parse_outcome(parse, argv, capsys):
    """(parsed namespace as a dict or None, exit code or None, stdout, stderr)."""
    try:
        parsed, code = vars(parse(argv)), None
    except SystemExit as e:
        parsed, code = None, e.code
    out, err = capsys.readouterr()
    return parsed, code, out, err


def test_the_subcommand_parser_reads_argv_as_the_full_parser_does(capsys):
    # main reads an argv of exact spellings off the option table, without
    # argparse; every argv must parse, fail or print help exactly as the full
    # parser does
    rng = random.Random(1422)
    full = cli._parser()
    kinds = set()
    for _ in range(1000):
        argv = parser_argv(rng)
        fast = parse_outcome(cli._parse_args, argv, capsys)
        assert fast == parse_outcome(full.parse_args, argv, capsys), argv
        kinds.add(fast[1])
    assert kinds == {None, 0, 2}  # parsed, help, error
