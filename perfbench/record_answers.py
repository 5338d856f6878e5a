"""Record the default seed's answers, so that any change to them shows.

    python3 perfbench/record_answers.py

Runs every job of every workload at workloads.DEFAULT_SEED once, in process,
and writes perfbench/answers/<workload>.json: per job its argv (input path
left out), exit code and the SHA-256 of its standard output. The benchmark
compares each output with these bytes whenever it runs at the default seed.
A job the checker rejects, or one that raises, is recorded with a null
digest and reported here; its status and exit code are still checked on
every run. Re-record only when an answer is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import batch  # noqa: E402
import checker  # noqa: E402
import workloads  # noqa: E402


def main():
    import ratsurf.cli

    for workload in workloads.WORKLOADS:
        jobs = workloads.make_jobs(workload, workloads.DEFAULT_SEED)
        argvs = [list(job["argv"]) for job in jobs]
        workloads.write_inputs(jobs, os.path.join(os.path.dirname(HERE), ".perfbench", "answers-inputs"))
        answers = []
        for job, argv in zip(jobs, argvs):
            rc, stdout, exc, _ = batch.run_job(ratsurf.cli.main, job["argv"])
            reason = exc or checker.check(job, rc, stdout)
            if reason:
                print("%s job %d not pinned: %s" % (workload, job["id"], reason))
            answers.append({"argv": argv, "exit": rc,
                            "sha256": None if reason else checker.digest(stdout)})
        os.makedirs(os.path.join(HERE, "answers"), exist_ok=True)
        with open(os.path.join(HERE, "answers", workload + ".json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": workloads.DEFAULT_SEED, "answers": answers}, fh, indent=0)
            fh.write("\n")


if __name__ == "__main__":
    main()
