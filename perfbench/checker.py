"""Independent checks of every job's output.

Nothing here imports ratsurf. Expected values come from the job's
construction (status, exit code, error code) and from this file's own
arithmetic: the necklace-count closed form for shuffle dimensions, hand
expanded polynomials f_3..f_6 for the cone dimensions, an integer-only
evaluation of the cone generating series, and Laufer's greedy loop run on
the input graph.

check(job, rc, stdout) returns None when the output is right and a one-line
reason otherwise.
"""

from __future__ import annotations

import hashlib
import json


# ----- closed forms -----------------------------------------------------------

def moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def shuffle_count(m: int, k: int) -> int:
    """(1/k) * sum over q | k of (-1)^(k + k/q) mu(q) m^(k/q)."""
    total = sum((-1) ** (k + k // q) * moebius(q) * m ** (k // q) for q in range(1, k + 1) if k % q == 0)
    if total % k:
        raise ArithmeticError("shuffle count of (%d, %d) is not integral" % (m, k))
    return total // k


def fatpoint_t(m: int, i: int) -> int:
    """dim T^i of the m-dimensional fat point, i >= 1."""
    return m * shuffle_count(m, i + 1) - shuffle_count(m, i)


def regular_harrison(m: int, k: int) -> int:
    """Harrison cohomology of the fat point with coefficients in itself.

    Degree i+1 is T^i. Degree 1 is the derivations, all m^2 linear maps from
    the maximal ideal to itself. For m = 1 (a hypersurface) the values are
    1, 1, 0, 0, ...
    """
    if m == 1:
        return 1 if k <= 2 else 0
    return m * m if k == 1 else fatpoint_t(m, k - 1)


def _exact(num: int, den: int) -> int:
    if num % den:
        raise ArithmeticError("%d/%d is not an integer" % (num, den))
    return num // den


# dim T^i of the cone over the rational normal curve of degree d, expanded
F_CONE = {
    3: lambda d: _exact(d**3 - 6 * d**2 + 11 * d - 6, 2),
    4: lambda d: _exact(2 * d**4 - 14 * d**3 + 37 * d**2 - 43 * d + 18, 6),
    5: lambda d: _exact(3 * d**5 - 23 * d**4 + 73 * d**3 - 121 * d**2 + 104 * d - 36, 12),
    6: lambda d: _exact(12 * d**6 - 102 * d**5 + 375 * d**4 - 770 * d**3 + 933 * d**2 - 628 * d + 180, 60),
}

_SERIES = {}


def cone_series(d: int, order: int) -> list:
    """Coefficients t^0..t^order of the cotangent series of the degree-d cone.

    P = (Q + 2 + 2t)((d-1)t - t^2)/(1+t)^2 - 2t/(1+t), with Q_k the shuffle
    counts of a (d-1)-dimensional space; dividing by 1+t is an alternating
    prefix sum, so every step stays in the integers.
    """
    have = _SERIES.get(d)
    if have is not None and len(have) > order:
        return have
    a = [2, 2 + shuffle_count(d - 1, 1)] + [shuffle_count(d - 1, k) for k in range(2, order + 1)]
    b = [(d - 1) * (a[k - 1] if k >= 1 else 0) - (a[k - 2] if k >= 2 else 0) for k in range(order + 1)]
    for _ in range(2):
        for k in range(1, order + 1):
            b[k] -= b[k - 1]
    p = [b[k] - (2 * (-1) ** (k - 1) if k else 0) for k in range(order + 1)]
    _SERIES[d] = p
    return p


def cone_t(i: int, d: int) -> int:
    return F_CONE[i](d) if i in F_CONE else cone_series(d, i)[i]


# ----- graphs -----------------------------------------------------------------

class Graph:
    """The input graph as the checker reads it: weights and edge counts."""

    def __init__(self, text: str) -> None:
        data = json.loads(text)
        self.ids = [v["id"] for v in data["vertices"]]
        self.b = {v["id"]: v["b"] for v in data["vertices"]}
        self.adj = {vid: {} for vid in self.ids}
        for u, v in data["edges"]:
            self.adj[u][v] = self.adj[u].get(v, 0) + 1
            self.adj[v][u] = self.adj[v].get(u, 0) + 1

    def pairing(self, z: dict, vid: str) -> int:
        return -self.b[vid] * z[vid] + sum(mult * z[u] for u, mult in self.adj[vid].items())

    def self_intersection(self, z: dict) -> int:
        return sum(z[vid] * self.pairing(z, vid) for vid in self.ids)

    def genus(self, z: dict) -> int:
        num = self.self_intersection(z) + sum(z[vid] * (self.b[vid] - 2) for vid in self.ids)
        return 1 + _exact(num, 2)

    def laufer(self) -> dict:
        z = {vid: 1 for vid in self.ids}
        while True:
            bad = next((vid for vid in self.ids if self.pairing(z, vid) > 0), None)
            if bad is None:
                return z
            z[bad] += 1


def _tree_nodes(node):
    yield node
    for child in node["children"]:
        yield from _tree_nodes(child)


def _check_analyze(job, data):
    g = Graph(job["text"])
    z = {vid: int(a) for vid, a in data["fundamental_cycle"].items()}
    if sorted(z) != sorted(g.ids):
        return "cycle support differs from the vertices"
    if z != g.laufer():
        return "fundamental cycle differs from Laufer's"
    status = data["status"]
    if status == "not-rational":
        genus = g.genus(z)
        return None if data["rational"] is False and genus > 0 and int(data["p_a"]) == genus else \
            "not-rational report inconsistent (p_a %s, recomputed %d)" % (data.get("p_a"), genus)
    if any(g.pairing(z, vid) > 0 for vid in g.ids):
        return "Z.E_i > 0 for some i"
    if g.genus(z) != 0 or data["rational"] is not True:
        return "rational graph reported with p_a != 0"
    mult = -g.self_intersection(z)
    if int(data["multiplicity"]) != mult:
        return "multiplicity %s, -Z.Z = %d" % (data["multiplicity"], mult)
    if data["reduced"] != all(a == 1 for a in z.values()):
        return "reduced flag wrong"
    if status == "not-applicable":
        return None if mult <= 2 else "not-applicable with multiplicity %d" % mult
    nodes = list(_tree_nodes(data["tree"]))
    mults = [int(node["mult"]) for node in nodes]
    if mults[0] != mult or min(mults) < 3:
        return "tree multiplicities %s for root multiplicity %d" % (mults, mult)
    if data["vertices"] != len(g.ids):
        return "vertex count wrong"
    for i in range(3, job["max_i"] + 1):
        want = sum(cone_t(i, d) for d in mults)
        if int(data["tdims"][str(i)]) != want:
            return "T^%d = %s, sum over the tree %d" % (i, data["tdims"][str(i)], want)
    if len(data["tdims"]) != job["max_i"] - 2:
        return "reported %d T^i values" % len(data["tdims"])
    if int(data["t2"]["value"]) != sum((d - 1) * (d - 3) for d in mults):
        return "T^2 wrong"
    if int(data["codim_ac"]["value"]) != sum(d - 3 for d in mults):
        return "cod_AC wrong"
    everywhere = all(node["reduced"] for node in nodes)
    if not (data["reduced_everywhere"] == data["t2"]["exact"] == data["codim_ac"]["exact"] == everywhere):
        return "exactness flags disagree with the tree"
    sum_d = sum(d - 1 for d in mults)
    sum_b = sum(b - 1 for b in g.b.values())
    gmd = data["gmd"]
    if (int(gmd["sum_d_minus_1"]), int(gmd["sum_b_minus_1"]), gmd["obstructed"]) != (sum_d, sum_b, sum_d >= sum_b):
        return "obstruction report wrong"
    if "cone" in job and mults != [job["cone"]]:
        return "cone of degree %d has tree %s" % (job["cone"], mults)
    return None


def _check_oracle(job, data):
    m, k = job["m"], job["k"]
    if (data["m"], data["k"], data["coefficients"]) != (str(m), str(k), job["coeffs"]):
        return "echoed parameters differ"
    got = int(data["brute_force"])
    if job["hochschild"]:
        if job["coeffs"] == "trivial":
            return None if got == m ** k else "trivial Hochschild %d, expected m^k = %d" % (got, m ** k)
        floor = regular_harrison(m, k)
        return None if got >= floor else "regular Hochschild %d below regular Harrison %d" % (got, floor)
    if job["coeffs"] == "trivial":
        want = shuffle_count(m, k)
        if data.get("verdict") != "MATCH" or data.get("formula") != str(want):
            return "verdict %s, formula %s, expected MATCH on %d" % (data.get("verdict"), data.get("formula"), want)
    else:
        want = regular_harrison(m, k)
    return None if got == want else "brute force %d, expected %d" % (got, want)


def _check_series(job, data):
    d, order = job["d"], job["order"]
    shuffle = [str(shuffle_count(d - 1, k)) for k in range(1, order + 1)]
    p = [str(x) for x in cone_series(d, order)[1:order + 1]]
    if data["shuffle_dims"] != shuffle or data["q_coefficients"] != shuffle:
        return "shuffle / Q coefficients wrong"
    if data["p_coefficients"] != p:
        return "P coefficients wrong"
    return None


CHECKS = {"analyze": _check_analyze, "oracle": _check_oracle, "series": _check_series}


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def check(job, rc, stdout):
    """None if the job's exit code and output are right, else the reason."""
    expect = job["expect"]
    if rc != expect["exit"]:
        return "exit code %r, expected %d (%s)" % (rc, expect["exit"], expect["status"])
    pinned = job.get("sha256")
    if pinned is not None and digest(stdout) != pinned:
        return "output differs from the recorded answer"
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not one JSON object"
    if data.get("schema") != "1" or data.get("command") != job["argv"][0] or data.get("status") != expect["status"]:
        return "envelope %r/%r/%r, expected status %s" % (
            data.get("schema"), data.get("command"), data.get("status"), expect["status"])
    if "error_code" in expect and data.get("error_code") != expect["error_code"]:
        return "error code %r, expected %s" % (data.get("error_code"), expect["error_code"])
    if expect["status"] in ("invalid-input", "budget-exceeded"):
        return None if data.get("error") else "no error message"
    try:
        return CHECKS[job["kind"]](job, data)
    except (KeyError, TypeError, ValueError, ArithmeticError) as e:
        return "malformed report: %r" % (e,)
