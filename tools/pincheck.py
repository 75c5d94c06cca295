"""Check every pinned benchmark job, each workload's jobs in one interpreter.

    python3 tools/pincheck.py

Runs each job of the job universes in perfbench/workloads.py (every job any
seed can draw, each key once per workload, as perfbench/pin.py pins them)
through `fmcalc.cli.main`, one workload after another, all jobs of a
workload in one interpreter (perfbench/worker.py's session).  Each
job's exit code and stdout digest, or for a job pinned as failing its exit
code and error type, is checked against perfbench/pins.json with
perfbench/run.py's `check`.  It prints one line per workload and one per
mismatch, with the job's key, label and argv, and exits 1 if there is any
mismatch.

The benchmark runs every gamma-cold job in a fresh interpreter, but here
gamma jobs run warm, after whatever the jobs before them left in the caches
of fmcalc.cli.PROCESS_CACHES.  A mismatch that appears only here, and not in
the benchmark, is therefore a cache leak between calls.
"""

import json
import os
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  (perfbench/run.py: session runner, check and PINS)
import workloads  # noqa: E402  (perfbench/workloads.py)


def universe(name):
    """The workload's pinned jobs, each key once, in pin.py's order."""
    return list({j["key"]: j for j in workloads.UNIVERSES[name]()}.values())


def mismatches(jobs, pins, workdir):
    """(job key, label) for every job whose outcome differs from its pin.
    The jobs run in one session of perfbench/worker.py, as verify-session
    and torsion-batch run them; a job pinned as failing must fail with the
    pinned error type."""
    _, records, _ = run.run_session_pass(run.materialize(jobs, workdir), workdir)
    out = []
    for job, rec in zip(jobs, records):
        failed, _, label = run.check(job, rec, pins)
        if failed and label != pins.get(job["key"], {}).get("error"):
            out.append((job["key"], label))
    return out


def main():
    with open(run.PINS) as fh:
        pins = json.load(fh)
    total = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads.WORKLOADS:
            jobs = universe(name)
            bad = mismatches(jobs, pins, workdir)
            print("%-15s %4d jobs, %d mismatches" % (name, len(jobs), len(bad)))
            argv = {job["key"]: job["argv"] for job in jobs}
            for key, label in bad:
                print("  %s %s %s" % (key, label, shlex.join(argv[key])))
            total += len(bad)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
