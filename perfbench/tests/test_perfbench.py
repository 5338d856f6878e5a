"""Self-tests of the benchmark: generators, checker and tracing.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import batch  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert workloads.make_jobs(workload, 7) == workloads.make_jobs(workload, 7)
    assert workloads.batch_order(50, 7, 2) == workloads.batch_order(50, 7, 2)
    if workload != "fatpoint-sweep":  # the fat-point grid differs only in its over-cap draw
        assert workloads.make_jobs(workload, 7) != workloads.make_jobs(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_recorded_answers_match_the_default_job_list(workload):
    with open(run.answers_path(workload), encoding="utf-8") as fh:
        pinned = json.load(fh)["answers"]
    jobs = workloads.make_jobs(workload, workloads.DEFAULT_SEED)
    assert [a["argv"] for a in pinned] == [job["argv"] for job in jobs]
    assert [a["exit"] for a in pinned if a["sha256"]] == [
        job["expect"]["exit"] for job, a in zip(jobs, pinned) if a["sha256"]]


def test_hand_expanded_cone_dims_match_the_integer_series():
    for d in range(3, 30):
        series = checker.cone_series(d, 6)
        assert [checker.F_CONE[i](d) for i in range(3, 7)] == series[3:7]


def _job(workload, predicate, tmp_path):
    jobs = workloads.make_jobs(workload, 3)
    workloads.write_inputs(jobs, str(tmp_path))
    return next(job for job in jobs if predicate(job))


def _corrupt(stdout, path, value):
    data = json.loads(stdout)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize("workload, predicate, path", [
    ("fatpoint-sweep", lambda j: (j["m"], j["k"], j["coeffs"], j["hochschild"]) == (3, 3, "regular", False),
     ("brute_force",)),
    ("fatpoint-sweep", lambda j: (j["m"], j["k"], j["coeffs"], j["hochschild"]) == (2, 4, "trivial", True),
     ("brute_force",)),
    ("graph-analyze", lambda j: j["name"] == "family-k4", ("tdims", "5")),
    ("graph-analyze", lambda j: j["name"] == "family-k4", ("multiplicity",)),
    ("graph-analyze", lambda j: j["name"].startswith("cusp-cycle"), ("p_a",)),
    ("series-deep", lambda j: j["kind"] == "series", ("p_coefficients", 7)),
    ("series-deep", lambda j: j.get("cone") is not None, ("tdims", "17")),
])
def test_checker_flags_a_corrupted_answer(workload, predicate, path, tmp_path):
    import ratsurf.cli

    job = _job(workload, predicate, tmp_path)
    rc, stdout, exc, _ = batch.run_job(ratsurf.cli.main, job["argv"])
    assert exc is None and checker.check(job, rc, stdout) is None
    assert checker.check(job, rc, _corrupt(stdout, path, "12345")) is not None
    assert checker.check(job, 1 - rc if rc in (0, 1) else 0, stdout) is not None


def test_a_raising_job_counts_as_failed(tmp_path):
    def broken_main(argv):
        raise RuntimeError("boom")

    jobs = workloads.make_jobs("fatpoint-sweep", 3)[:3]
    seconds, reference, failures = batch.run_batch(broken_main, jobs, [0, 1, 2])
    assert sorted(seconds) == sorted(reference) == [0, 1, 2]
    assert [f["id"] for f in failures] == [0, 1, 2] and all(f["raised"] for f in failures)
    assert run.judge(jobs, [{"failures": failures}]) == {"correct": False, "attempted": 3, "failed": 3}


def test_only_a_known_defect_may_raise_and_stay_correct():
    jobs = workloads.make_jobs("fatpoint-sweep", 3)
    known = next(job["id"] for job in jobs if job.get("known_defect"))
    other = next(job["id"] for job in jobs if not job.get("known_defect"))
    raised = {"failures": [{"id": known, "raised": True, "reason": "ValueError"}]}
    assert run.judge(jobs, [raised, raised]) == {"correct": True, "attempted": 2 * len(jobs), "failed": 2}
    for failure in ({"id": other, "raised": True, "reason": "IndexError"},
                    {"id": known, "raised": False, "reason": "exit code 1, expected 2"}):
        assert run.judge(jobs, [raised, {"failures": [failure]}])["correct"] is False


def test_times_are_scaled_by_the_reference_loop():
    assert run.scale([batch.REFERENCE_S, batch.REFERENCE_S]) == 1
    assert run.scale([2 * batch.REFERENCE_S, 2 * batch.REFERENCE_S]) == 0.5
    assert batch.reference_loop() > 0


def test_the_speedometer_samples_a_long_job_and_leaves_its_own_time_out():
    meter = batch.Speedometer()

    def busy(argv):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return 0

    rc, _, exc, seconds = batch.run_job(busy, [], meter)
    assert rc == 0 and exc is None
    assert len(meter.loops) >= 5
    assert 0.2 - meter.spent - 0.01 < seconds < 0.2


def test_traced_self_times_fit_in_the_wall_time(tmp_path):
    jobs = workloads.make_jobs("graph-analyze", 3)
    jobs = [job for job in jobs if job["expect"]["status"] == "ok"][:12] + \
        [job for job in workloads.make_jobs("series-deep", 3) if job["kind"] == "series"][:3] + \
        workloads.make_jobs("fatpoint-sweep", 3)[40:50]
    for i, job in enumerate(jobs):
        job["id"] = i
    workloads.write_inputs(jobs, str(tmp_path))
    result = run.run_batch(str(tmp_path), "t", jobs, list(range(len(jobs))), trace=True)
    assert result["failures"] == []
    layers = result["layers"]
    self_sum = sum(v for k, v in layers.items() if k.endswith("self_s"))
    wall = sum(result["seconds"].values())
    assert 0 < self_sum <= wall
    assert layers["cli.calls"] == len(jobs)
    assert all(v is not None for v in layers.values())
    with open(os.path.join(str(tmp_path), "spans-t.json"), encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert sum(1 for s in spans if s[0] == "cli.main") == len(jobs)


def test_a_missing_entry_point_is_reported_absent():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import ratsurf.cli, tracing\n"
        "from ratsurf.qlinalg import QMatrix\n"
        "del QMatrix.det\n"
        "tracer = tracing.Tracer(); tracing.install(tracer)\n"
        "m = tracing.layer_metrics(tracer)\n"
        "assert m['qlinalg.det.calls'] is None and m['qlinalg.det.busy_s'] is None, m\n"
        "assert None not in [v for k, v in m.items() if not k.startswith('qlinalg.det')], m\n"
    ) % (BENCH, os.path.join(os.path.dirname(BENCH), "src"))
    import subprocess

    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_interaction_table_covers_every_layer_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(BENCH, "interactions.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    named = [m for row in rows for m in row["layer_metrics"]]
    assert sorted(named) == sorted(m["name"] for m in bench["per_layer"])
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    names = {w["name"] for w in bench["workloads"]}
    for row in rows:
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) <= names and set(row["not_on"]) <= names
