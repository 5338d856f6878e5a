"""One batch: a fresh interpreter runs a workload's jobs once and checks them.

    python3 perfbench/batch.py SPEC.json RESULT.json

SPEC holds the source directory, the jobs, the order to run them in, whether
to trace, and where to write spans. The batch times `import ratsurf.cli`
(the set-up cost), then calls ratsurf.cli.main(argv) for each job in turn,
one caller and one thread, timing each call alone; the output check runs
between jobs, outside the timed part. A job that raises is recorded as
failed and the batch goes on. RESULT gets the timings, the failures, the
peak RSS and, when traced, the per-layer metrics.

The reference loop, a fixed amount of pure integer bytecode, is timed
before and after the import and every job, and every SAMPLE_INTERVAL_S
during them (Speedometer). On a shared machine the speed of a CPU swings
within seconds, and a job and the loops run on its thread while it runs slow
down together; run.py divides by them to report times at one fixed speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time

import checker


REFERENCE_ITERATIONS = 1000
REFERENCE_S = 0.00025  # the loop's time at the speed times are reported at
SAMPLE_INTERVAL_S = 0.01


def reference_loop():
    """Seconds taken by a fixed loop of integer arithmetic, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    x, acc = 1, 0
    for i in range(1, REFERENCE_ITERATIONS):
        x = (x * 1103515245 + i) % 4294967291
        acc += x // (i + 1)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Speedometer:
    """Runs the reference loop every SAMPLE_INTERVAL_S inside a with block.

    A SIGALRM handler runs the loop on the block's own thread, so the loop
    sees the CPU speed the block sees. `loops` holds the loop times and
    `spent` the handler's time, which the caller takes out of the block's.
    """

    def __init__(self) -> None:
        self.loops, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.loops.append(reference_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.loops, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_job(main, argv, meter=None):
    """(exit code or None, stdout, exception text or None, seconds).

    With a Speedometer, the seconds leave out the time of its samples.
    """
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = time.perf_counter()
    try:
        with meter or contextlib.nullcontext(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as e:  # argparse rejects bad argv this way
        rc = e.code
    except Exception as e:  # a traceback where a status is documented: a failed job
        exc = "%s: %s" % (type(e).__name__, str(e)[:200])
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), exc, elapsed - (meter.spent if meter else 0.0)


def run_batch(main, jobs, order, tracer=None):
    """Run and check jobs in `order`.

    Returns (seconds per job id, the reference loop times before, during
    and after each job id, failures). A traced batch samples only between
    jobs, so that no sample falls inside the layers' spans.
    """
    seconds, reference, failures = {}, {}, []
    meter = Speedometer() if tracer is None else None
    before = reference_loop()
    for job_id in order:
        job = jobs[job_id]
        if tracer is not None:
            tracer.start_job(job_id)
        rc, stdout, exc, dt = run_job(main, job["argv"], meter)
        after = reference_loop()
        seconds[job_id], reference[job_id] = dt, [before] + (meter.loops if meter else []) + [after]
        before = after
        if exc is not None:
            failures.append({"id": job_id, "raised": True, "reason": exc})
            continue
        reason = checker.check(job, rc, stdout)
        if reason is not None:
            failures.append({"id": job_id, "raised": False, "reason": reason})
    return seconds, reference, failures


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    reference_loop()  # the first run also warms the loop itself up
    before = reference_loop()
    start = time.perf_counter()
    with Speedometer() as meter:
        import ratsurf.cli
    import_s = time.perf_counter() - start - meter.spent
    import_reference = [before] + meter.loops + [reference_loop()]
    if not os.path.abspath(ratsurf.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit("ratsurf was imported from %s, not from %s" % (ratsurf.cli.__file__, src))
    entry, tracer = ratsurf.cli.main, None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap("cli.main", entry)
    seconds, reference, failures = run_batch(entry, spec["jobs"], spec["order"], tracer)
    result = {
        "import_s": import_s,
        "import_reference": import_reference,
        "seconds": seconds,
        "reference": reference,
        "failures": failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracing.write_spans(tracer, spec["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
