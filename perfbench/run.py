"""Benchmark of the ratsurf CLI, end to end and per layer.

    python3 perfbench/run.py --workload fatpoint-sweep|graph-analyze|series-deep|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
src/ directory. The seed fixes the job list and the graph files, which are
written under .perfbench/ before anything is timed.

Load model: closed loop, one caller, one thread. Each batch is a fresh
interpreter that runs every job of the workload once, in an order drawn from
the seed (a new order for every batch), so the program's lru_caches start
cold and fill during the batch as they do in a user's batch or selftest.
Every job of every batch is checked (checker.py). A run repeats batches
while one more, as long as the last, fits into --seconds, and runs at least
MIN_BATCHES.

Times are reported at one fixed CPU speed. On a shared 2-vCPU Xeon VM, a
fixed loop on one vCPU took from 0.65 to over 1.5 times its median time, in
phases of seconds to a minute, so two runs of the same code differed by more
than any useful bound. Each batch
times a fixed reference loop (batch.reference_loop) before and after every
job and every 10 ms while it runs; a job's time is scaled by
batch.REFERENCE_S over the mean of those loop times, that is, to the speed
at which the loop takes exactly REFERENCE_S. A change that makes the
program itself faster or slower moves the scaled times as much as the wall
times. The report lines also show the unscaled wall figures.

--trace 0 prints the end-to-end metrics, from untraced batches only:
  jobs_per_s    jobs of a batch / the batch's summed job time, median over
                batches
  job_p50_ms    median job time, over every job of every batch
  job_p90_ms    90th percentile of the same (nearest rank)
  peak_rss_mb   ru_maxrss of a batch process at the end of its batch, the
                highest over batches (the peak depends on the order, through
                the allocator's state when the largest matrix is built)
  setup_s       time to import ratsurf.cli in a fresh interpreter, median
                over every import of the run
--trace 1 alternates untraced and traced batches of the same order and prints
the per-layer metrics of the traced ones (tracing.py, medians over batches,
in unscaled wall seconds) with trace.overhead_ratio, the traced over the
untraced summed job time.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics. A job fails when it raises, exits with the wrong code or
status, or prints a wrong answer. correct is false when any job fails, except
that the jobs workloads.py marks known_defect may fail by raising: they stay
in the stream and count in failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import batch  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
MIN_BATCHES = 2
SETUP_PROBES = 5
BATCH_TIMEOUT_S = 150


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def answers_path(workload):
    return os.path.join(HERE, "answers", workload + ".json")


def prepare(workload, seed):
    """Job list with inputs on disk and, for the default seed, the pinned answers."""
    jobs = workloads.make_jobs(workload, seed)
    if seed == workloads.DEFAULT_SEED:
        with open(answers_path(workload), encoding="utf-8") as fh:
            pinned = json.load(fh)["answers"]
        if [a["argv"] for a in pinned] != [job["argv"] for job in jobs]:
            raise SystemExit("the recorded answers of %s belong to another job list" % workload)
        for job, answer in zip(jobs, pinned):
            job["sha256"] = answer["sha256"]
    workdir = os.path.join(WORK, "%s-s%d" % (workload, seed))
    workloads.write_inputs(jobs, os.path.join(workdir, "inputs"))
    return jobs, workdir


def run_batch(workdir, tag, jobs, order, trace=False):
    """One fresh interpreter running `order`; returns its result dict."""
    spec_path = os.path.join(workdir, "spec-%s.json" % tag)
    result_path = os.path.join(workdir, "result-%s.json" % tag)
    spec = {"src": SRC, "jobs": jobs, "order": order, "trace": trace,
            "spans": os.path.join(workdir, "spans-%s.json" % tag)}
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "batch.py"), spec_path, result_path],
                          cwd=ROOT, timeout=BATCH_TIMEOUT_S, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit("batch %s exited with %d" % (tag, proc.returncode))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for key in ("seconds", "reference"):
        result[key] = {int(k): v for k, v in result[key].items()}
    result["scaled"] = {k: v * scale(result["reference"][k]) for k, v in result["seconds"].items()}
    result["import_scaled"] = result["import_s"] * scale(result["import_reference"])
    return result


def scale(reference):
    """Factor that takes a time measured along with the loop times `reference` to the reference speed."""
    return batch.REFERENCE_S * len(reference) / sum(reference)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def judge(jobs, batches):
    """correct, attempted and failed over the batches' results."""
    failures = [f for r in batches for f in r["failures"]]
    return {
        "correct": all(f["raised"] and jobs[f["id"]].get("known_defect") for f in failures),
        "attempted": len(jobs) * len(batches),
        "failed": len(failures),
    }


def measure(workload, seed, seconds, trace):
    jobs, workdir = prepare(workload, seed)
    n = len(jobs)
    run_batch(workdir, "warmup", jobs, [])  # compiles the bytecode; not counted
    setup = [run_batch(workdir, "probe%d" % i, jobs, []) for i in range(SETUP_PROBES)]
    plain, traced = [], []
    start = last = time.perf_counter()
    while True:
        order = workloads.batch_order(n, seed, len(plain))
        plain.append(run_batch(workdir, "b%d" % len(plain), jobs, order))
        if trace:
            traced.append(run_batch(workdir, "t%d" % len(traced), jobs, order, trace=True))
        now = time.perf_counter()
        if len(plain) >= MIN_BATCHES and (now - start) + (now - last) > seconds:
            break  # one more batch as long as the last would overrun
        last = now
    batches = plain + traced
    failures = {}
    for result in batches:
        for f in result["failures"]:
            failures.setdefault(f["id"], f)
    summary = judge(jobs, batches)
    loops = [t for r in batches for around in r["reference"].values() for t in around]
    info = {"jobs": n, "batches": len(plain), "traced_batches": len(traced),
            "setup_samples": len(setup) + len(batches),
            "reference_ms": 1e3 * statistics.median(loops),
            "failures": [dict(f, argv=jobs[f["id"]]["argv"]) for f in failures.values()]}
    if trace:
        metrics = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            metrics[name] = None if None in values else statistics.median(values)
        metrics["trace.overhead_ratio"] = statistics.median(
            sum(t["scaled"].values()) / sum(p["scaled"].values()) for t, p in zip(traced, plain))
    else:
        latency = sorted(t for r in plain for t in r["scaled"].values())
        metrics = {
            "jobs_per_s": statistics.median(n / sum(r["scaled"].values()) for r in plain),
            "job_p50_ms": 1e3 * statistics.median(latency),
            "job_p90_ms": 1e3 * percentile(latency, 0.9),
            "peak_rss_mb": max(r["rss_mb"] for r in plain),
            "setup_s": statistics.median(r["import_scaled"] for r in setup + batches),
        }
        wall = sorted(t for r in plain for t in r["seconds"].values())
        info["beyond_p90"] = len(latency) - math.ceil(0.9 * len(latency))
        info["wall"] = {
            "jobs_per_s": statistics.median(n / sum(r["seconds"].values()) for r in plain),
            "job_p50_ms": 1e3 * statistics.median(wall),
            "job_p90_ms": 1e3 * percentile(wall, 0.9),
            "setup_s": statistics.median(r["import_s"] for r in setup + batches),
        }
    return summary, metrics, info


def report(workload, seed, summary, metrics, info, units):
    print("workload %s, seed %d: %d jobs, %d untraced and %d traced batches"
          % (workload, seed, info["jobs"], info["batches"], info["traced_batches"]))
    for name, value in metrics.items():
        shown = "absent" if value is None else "%.6g" % value
        note = ""
        if name == "job_p90_ms":
            note = "  (%d latencies beyond it)" % info["beyond_p90"]
        elif name == "setup_s":
            note = "  (median of %d imports)" % info["setup_samples"]
        if name in info.get("wall", {}):
            note += "  [wall %.6g]" % info["wall"][name]
        print("  %-36s %14s %s%s" % (name, shown, units.get(name, ""), note))
    ratio = summary["failed"] / summary["attempted"]
    print("  %-36s %14.6g ratio  (%d failed of %d attempted)"
          % ("fail_ratio", ratio, summary["failed"], summary["attempted"]))
    print("  reference loop: median %.4g ms, times above are scaled to %.4g ms"
          % (info["reference_ms"], 1e3 * batch.REFERENCE_S))
    for f in info["failures"]:
        print("  failed job %d (%s): %s" % (f["id"], " ".join(a for a in f["argv"] if a), f["reason"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ratsurf", "cli.py")):
        print("no ratsurf sources under %s; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0}
    out = {}
    for workload in names:
        summary, metrics, info = measure(workload, args.seed, seconds, args.trace)
        report(workload, args.seed, summary, metrics, info, units)
        total["correct"] = total["correct"] and summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        for name, value in metrics.items():
            entry = {"value": value, "unit": units[name]}
            if value is None:
                entry["absent"] = True
            out[name if len(names) == 1 else "%s.%s" % (workload, name)] = entry
    missing = set(units) - {k.split(".", 1)[1] if len(names) > 1 else k for k in out}
    if missing:
        print("metrics not produced: %s" % sorted(missing), file=sys.stderr)
        return 1
    print(json.dumps(dict(total, metrics=out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
