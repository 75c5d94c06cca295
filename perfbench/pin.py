"""Pin the expected outcome of every job any seed can draw.

    python3 perfbench/pin.py

Runs each workload's job universe once, untraced, the way the benchmark
runs it (gamma-cold in fresh interpreters, the others in one session per
workload), and writes perfbench/pins.json: for each job key the exit code
and stdout digest, or, for a job that wrote no report, the exit code and
error type.  A job that fails here is pinned as a failure, not as an answer.
Run it only when the benchmark is made or its job universe changes.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    workdir = os.path.join(run.WORK, "pin-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    pins = {}
    try:
        for name in workloads.WORKLOADS:
            jobs = list({j["key"]: j for j in workloads.UNIVERSES[name]()}.values())
            run_pass = run.run_cold_pass if name == "gamma-cold" else run.run_session_pass
            _, records, _ = run_pass(run.materialize(jobs, workdir), workdir)
            failures = {}
            for job, rec in zip(jobs, records):
                pins[job["key"]] = entry = run.pin_entry(rec)
                if "error" in entry:
                    failures[entry["error"]] = failures.get(entry["error"], 0) + 1
            print("%-15s %4d jobs pinned, failing at the pin: %s"
                  % (name, len(jobs), json.dumps(failures, sort_keys=True)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, sort_keys=True, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
