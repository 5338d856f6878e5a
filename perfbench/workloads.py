"""Seeded job lists for the three workloads, each job with its known answer.

A job is a plain dict: ``id`` (position in the canonical list), ``argv`` for
``ratsurf.cli.main``, ``expect`` (status and exit code, derived from how the
input was built, never from running the program) and whatever the checker
needs to recompute the answer independently. The two inputs of ROADMAP item 5,
on which the program raises where it documents a status, carry
``known_defect: True``: they stay in the stream and count as failed, and
only they may fail by raising without making the run incorrect. Graph jobs also carry the
graph text, which ``write_inputs`` stores as a file before anything is timed.

Everything here is a pure function of the seed. Each workload keeps its size
profile fixed (the grid, the graph sizes, the series orders) and lets the
seed draw the instances and the order, so different seeds give different
inputs of the same total cost.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("fatpoint-sweep", "graph-analyze", "series-deep")
DEFAULT_SEED = 1
EXIT = {"ok": 0, "failed": 1, "invalid-input": 2, "not-rational": 3,
        "not-applicable": 4, "budget-exceeded": 5}
WORD_CAP = 1500  # the CLI's default --budget for the word space


def _expect(status, **extra):
    return dict(status=status, exit=EXIT[status], **extra)


# ----- fatpoint-sweep -------------------------------------------------------

# Left out on purpose: (2, 9) alone takes about 20 s and Hochschild regular
# (6, 3) about 4.5 s and 270 MB, so either would set the run's time by itself.
# m = 1 stops at k = 8: the one-letter words cost (k+1)! to enumerate.
FATPOINT_KMAX = {1: 8, 2: 8, 3: 5, 4: 4, 5: 3, 6: 3}
FATPOINT_SKIP = {(6, 3, "regular", True)}
# Over the cap. Harrison builds the degree-k space before it checks degree
# k+1, so (2, 10) would spend 15 s on shape kernels before it exits; these
# fail within 50 ms, most at the degree-k check, so the seed's draw among
# them leaves the batch's cost alone. (39, 1) is left out: it takes 2-3 s to
# exit, a fifth of a batch.
OVER_CAP = [(2, 11), (3, 7), (4, 6), (5, 5), (6, 5), (7, 4), (8, 4), (12, 3), (7, 3), (12, 2)]


def _oracle_job(m, k, coeffs, hochschild, budget=None):
    argv = ["oracle", "--m", str(m), "--k", str(k), "--coeffs", coeffs, "--json"]
    if hochschild:
        argv.append("--hochschild")
    if budget is not None:
        argv += ["--budget", str(budget)]
    if budget is not None and budget < 1:
        expect = _expect("invalid-input")
    elif m ** (k + 1) > (WORD_CAP if budget is None else budget):
        expect = _expect("budget-exceeded")
    else:
        expect = _expect("ok")
    return {"kind": "oracle", "argv": argv, "expect": expect, "m": m, "k": k,
            "coeffs": coeffs, "hochschild": hochschild}


def fatpoint_jobs(rng):
    jobs = []
    for m, kmax in FATPOINT_KMAX.items():
        for k in range(1, kmax + 1):
            for coeffs in ("trivial", "regular"):
                for hochschild in (False, True):
                    if (m, k, coeffs, hochschild) not in FATPOINT_SKIP:
                        jobs.append(_oracle_job(m, k, coeffs, hochschild))
    for m, k in rng.sample(OVER_CAP, 5):
        jobs.append(_oracle_job(m, k, rng.choice(("trivial", "regular")), rng.random() < 0.5))
    # a nonpositive budget is documented as invalid-input (exit 2); it raises ValueError
    jobs.append(dict(_oracle_job(2, 2, "trivial", False, budget=0), known_defect=True))
    return jobs


# ----- graphs ----------------------------------------------------------------

def graph_text(vertices, edges) -> str:
    return json.dumps({"vertices": [{"id": v, "b": b} for v, b in vertices],
                       "edges": [list(e) for e in edges]})


def _analyze_job(name, text, expect, max_i=None, **extra):
    argv = ["analyze", None, "--json"]  # None: the input file, filled in by write_inputs
    if max_i is not None:
        argv += ["--max-i", str(max_i)]
    return dict(kind="analyze", name=name, text=text, argv=argv, expect=expect,
                max_i=6 if max_i is None else max_i, **extra)


def rational_tree(shape, rng, tower):
    """Tree of the given parent list with b_i >= valence: rational, Z = (1, .., 1).

    Vertices with b_i = valence pair to zero with Z and form the blow-up
    components, so ``tower`` trees (many such vertices) give multi-node
    multiplicity trees. The multiplicity is sum(b_i - valence_i) >= 3.
    Vertices are listed parents first, as a graph is naturally written down.
    """
    n = len(shape)
    val = [0] * n
    for i in range(1, n):
        val[i] += 1
        val[shape[i]] += 1
    extra = []
    for i in range(n):
        if val[i] == 1:
            extra.append(rng.choice((1, 1, 2, 3)))
        elif tower and rng.random() < 0.7:
            extra.append(0)
        else:
            extra.append(rng.choice((0, 1, 2)) if tower else rng.choice((1, 2, 3)))
    while sum(extra) < 3:
        extra[rng.choice([i for i in range(n) if val[i] == 1])] += 1
    ids = ["v%d" % x for x in rng.sample(range(10 * n), n)]
    vertices = [(ids[i], val[i] + extra[i]) for i in range(n)]
    return vertices, [(ids[shape[i]], ids[i]) for i in range(1, n)]


def star(rng):
    leaves = rng.randint(3, 8)
    vertices = [("C", leaves + rng.choice((0, 1)))]
    vertices += [("L%d" % j, rng.randint(2, 4)) for j in range(leaves)]
    return vertices, [("C", "L%d" % j) for j in range(leaves)]


def chain(rng, n):
    bs = [rng.randint(2, 4) for _ in range(n)]
    while (bs[0] - 1) + (bs[-1] - 1) + sum(b - 2 for b in bs[1:-1]) < 3:
        bs[rng.randrange(n)] += 1
    vertices = [("E%d" % j, b) for j, b in enumerate(bs)]
    return vertices, [("E%d" % j, "E%d" % (j + 1)) for j in range(n - 1)]


def obstruction_family(k):
    """Central b=2 vertex, three b=k arms, k-2 b=2 leaves on each arm (mult 3k-4)."""
    vertices = [("C", 2)] + [("K%d" % t, k) for t in (1, 2, 3)]
    edges = [("C", "K%d" % t) for t in (1, 2, 3)]
    for t in (1, 2, 3):
        for j in range(1, k - 1):
            vertices.append(("K%dL%d" % (t, j), 2))
            edges.append(("K%d" % t, "K%dL%d" % (t, j)))
    return vertices, edges


def two_node_tower(rng, d1, d2):
    """Centre with b = valence = d2 and d2 leaves whose b-1 sum to d1: tree [d1, d2]."""
    excess = [1] * d2
    for _ in range(d1 - d2):
        excess[rng.randrange(d2)] += 1
    vertices = [("C", d2)] + [("L%d" % j, 1 + x) for j, x in enumerate(excess)]
    return vertices, [("C", "L%d" % j) for j in range(d2)]


def cycle_graph(bs):
    n = len(bs)
    return [("E%d" % j, b) for j, b in enumerate(bs)], [("E%d" % j, "E%d" % ((j + 1) % n)) for j in range(n)]


def negative_graphs(rng):
    """Graphs whose status is known from their construction, as (name, text, expect)."""
    out = []
    # not negative definite: affine A~_n cycles and the D~_4 star, all b = 2
    for n in rng.sample(range(3, 9), 2):
        out.append(("affine-cycle-%d" % n, graph_text(*cycle_graph([2] * n)),
                    _expect("invalid-input", error_code="not-negative-definite")))
    out.append(("affine-d4", graph_text([("C", 2)] + [("L%d" % j, 2) for j in range(4)],
                                        [("C", "L%d" % j) for j in range(4)]),
                _expect("invalid-input", error_code="not-negative-definite")))
    # not rational (p_a = 1): cycles with every b >= 3, a b=2 centre with four
    # b >= 3 leaves, two b >= 3 curves meeting twice
    for n in rng.sample(range(3, 9), 2):
        out.append(("cusp-cycle-%d" % n, graph_text(*cycle_graph([rng.randint(3, 5) for _ in range(n)])),
                    _expect("not-rational")))
    out.append(("four-leaf-star", graph_text([("C", 2)] + [("L%d" % j, rng.randint(3, 5)) for j in range(4)],
                                             [("C", "L%d" % j) for j in range(4)]),
                _expect("not-rational")))
    out.append(("double-edge", graph_text([("A", rng.randint(3, 5)), ("B", rng.randint(3, 5))],
                                          [("A", "B"), ("A", "B")]),
                _expect("not-rational")))
    # rational double points (not-applicable): A_n chains, D_n, E_6..E_8
    for n in rng.sample(range(1, 10), 2):
        out.append(("A%d" % n, graph_text([("E%d" % j, 2) for j in range(n)],
                                          [("E%d" % j, "E%d" % (j + 1)) for j in range(n - 1)]),
                    _expect("not-applicable")))
    n = rng.randint(4, 9)
    out.append(("D%d" % n, graph_text([("E%d" % j, 2) for j in range(n)],
                                      [("E%d" % j, "E%d" % (j + 1)) for j in range(n - 2)] + [("E%d" % (n - 3), "E%d" % (n - 1))]),
                _expect("not-applicable")))
    q = rng.choice((3, 4, 5))  # T_{2,3,q}: E_6, E_7, E_8
    arms = [("C", 2), ("A1", 2), ("B1", 2), ("B2", 2)] + [("Q%d" % j, 2) for j in range(1, q)]
    arm_edges = [("C", "A1"), ("C", "B1"), ("B1", "B2"), ("C", "Q1")] + [("Q%d" % j, "Q%d" % (j + 1)) for j in range(1, q - 1)]
    out.append(("E%d" % (q + 3), graph_text(arms, arm_edges), _expect("not-applicable")))
    # malformed input, one per GraphError code
    good = graph_text([("A", 3), ("B", 2)], [("A", "B")])
    bad = [
        ("syntax", good[: rng.randint(5, len(good) - 2)]),
        ("syntax", json.dumps([{"id": "A", "b": 3}])),
        ("syntax", json.dumps({"vertices": [{"id": "A", "b": "3"}], "edges": []})),
        ("syntax", json.dumps({"vertices": [{"id": "A", "b": 3}]})),
        ("syntax", json.dumps({"vertices": [{"id": "A", "b": 3}, {"id": "B", "b": 3}], "edges": [["A"]]})),
        ("unknown-field", json.dumps({"vertices": [{"id": "A", "b": 3}], "edges": [], "genus": 0})),
        ("unknown-field", json.dumps({"vertices": [{"id": "A", "b": 3, "g": 0}], "edges": []})),
        ("duplicate-id", graph_text([("A", 3), ("A", 2)], [])),
        ("non-minimal", graph_text([("A", 3), ("B", 1)], [("A", "B")])),
        ("bad-edge", graph_text([("A", 3), ("B", 2)], [("A", "Z")])),
        ("self-loop", graph_text([("A", 3), ("B", 2)], [("A", "B"), ("A", "A")])),
        ("disconnected", graph_text([("A", 3), ("B", 3)], [])),
    ]
    for j, (code, text) in enumerate(bad):
        out.append(("malformed-%d-%s" % (j, code), text, _expect("invalid-input", error_code=code)))
    # deeply nested JSON is documented as invalid-input like any other syntax
    # error; it raises RecursionError
    out.append(("deep-nesting", "[" * 100000, _expect("invalid-input")))
    return out


# The random rational trees. Sizes are skewed to small graphs, so that the
# median job is split between parsing and analysis while the slowest tenth is
# set by the definiteness check, whose cost grows like n^4. The shapes (random
# recursive trees) are fixed per slot, because a tree's parse cost depends
# strongly on its shape; the seed draws the weights, the tower vertices, the
# labels and the order of the jobs.
GRAPH_TREES = 112


def tree_shape(j):
    n = 5 + round(40 * (j / (GRAPH_TREES - 1)) ** 2.5)
    rng = random.Random("tree-shape:%d" % j)
    return [0] + [rng.randrange(i) for i in range(1, n)]


def graph_jobs(rng):
    jobs = []
    for j in range(GRAPH_TREES):
        tower = j % 5 in (1, 3)
        vertices, edges = rational_tree(tree_shape(j), rng, tower)
        jobs.append(_analyze_job("tree-%d%s" % (len(vertices), "-tower" if tower else ""),
                                 graph_text(vertices, edges), _expect("ok")))
    for j in range(6):
        jobs.append(_analyze_job("star", graph_text(*star(rng)), _expect("ok")))
    for n in rng.sample(range(3, 13), 6):
        jobs.append(_analyze_job("chain-%d" % n, graph_text(*chain(rng, n)), _expect("ok")))
    for k in range(3, 9):
        jobs.append(_analyze_job("family-k%d" % k, graph_text(*obstruction_family(k)), _expect("ok")))
    for name, text, expect in negative_graphs(rng):
        job = _analyze_job(name, text, expect)
        if name == "deep-nesting":
            job["known_defect"] = True
        jobs.append(job)
    return jobs


# ----- series-deep -----------------------------------------------------------

# the README's star (tree [6, 3]) and the 3-2-3 chain (tree [4], one RDP dropped)
STAR_3_333 = graph_text([("C", 3), ("L1", 3), ("L2", 3), ("L3", 3)], [("C", "L1"), ("C", "L2"), ("C", "L3")])
CHAIN_323 = graph_text([("E1", 3), ("E2", 2), ("E3", 3)], [("E1", "E2"), ("E2", "E3")])
SERIES_JOBS = 60
CONE_DS = tuple(range(3, 13))
LOW_ANALYZE = 44
# Five deep cones, fixed, carry the cubic cost of rebuilding the series for
# every i. The other analyze jobs stay at --max-i 20..25, so they can take
# little of that work off the deep cones whatever the order, and the slowest
# tenth of the jobs is always the deep cones plus the highest-order series
# jobs, whose cost does not depend on the order.
DEEP_CONES = {3: 60, 5: 66, 7: 72, 9: 78, 11: 84}


def _series_job(d, order):
    return {"kind": "series", "argv": ["series", "--d", str(d), "--order", str(order), "--json"],
            "expect": _expect("ok"), "d": d, "order": order}


def _cone_job(d, max_i):
    return _analyze_job("cone-d%d" % d, graph_text([("E0", d)], []), _expect("ok"), max_i=max_i, cone=d)


def series_jobs(rng):
    jobs = []
    # every run of ten consecutive orders has each degree once
    for start in range(0, SERIES_JOBS, len(CONE_DS)):
        for j, d in enumerate(rng.sample(CONE_DS, len(CONE_DS)), start):
            jobs.append(_series_job(d, 20 + round(100 * j / (SERIES_JOBS - 1))))
    for d, n in DEEP_CONES.items():
        jobs.append(_cone_job(d, n))
    for j in range(LOW_ANALYZE):
        n = 20 + j % 6
        shape = j % 4
        if shape == 0:
            job = _cone_job(rng.choice(CONE_DS), n)
        elif shape == 1:
            d2 = rng.randint(3, 6)
            d1 = rng.randint(d2, 12)
            job = _analyze_job("tower-%d-%d" % (d1, d2), graph_text(*two_node_tower(rng, d1, d2)),
                               _expect("ok"), max_i=n)
        elif shape == 2:
            job = _analyze_job("star-3-333", STAR_3_333, _expect("ok"), max_i=n)
        else:
            job = _analyze_job("chain-323", CHAIN_323, _expect("ok"), max_i=n)
        jobs.append(job)
    return jobs


GENERATORS = {"fatpoint-sweep": fatpoint_jobs, "graph-analyze": graph_jobs, "series-deep": series_jobs}


def make_jobs(workload: str, seed: int) -> list:
    """The canonical job list of one workload; ids are list positions."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = GENERATORS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def batch_order(n_jobs: int, seed: int, batch: int) -> list:
    """Job ids in the order batch number `batch` of a run runs them."""
    order = list(range(n_jobs))
    random.Random("order:%d:%d" % (seed, batch)).shuffle(order)
    return order


def write_inputs(jobs, directory):
    """Store every graph as a file and point its job's argv at it."""
    os.makedirs(directory, exist_ok=True)
    for job in jobs:
        if job["kind"] == "analyze":
            path = os.path.join(directory, "g%03d.json" % job["id"])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job["text"])
            job["argv"][1] = path
