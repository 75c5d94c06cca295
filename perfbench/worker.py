"""One fmcalc interpreter for the benchmark.

    python3 perfbench/worker.py setup SRC TOWERS_JSON
        Import fmcalc, build the given towers through `fmcalc tower check`,
        print "ready" and wait for stdin to close.

    python3 perfbench/worker.py session SRC JOBS_JSON RESULT_JSON [TRACE_JSON]
        Run the jobs one after another through `fmcalc.cli.main(argv)` in
        this interpreter, then write each job's exit code, stdout, stderr and
        latency to RESULT_JSON.  With TRACE_JSON, spans of every layer are
        recorded (see tracer.py), written to TRACE_JSON, and their per-layer
        totals added to the result.

SRC is the directory that holds the `fmcalc` package.
"""

import contextlib
import gc
import io
import json
import signal
import sys
import time

JOB_TIMEOUT_S = 60


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout("job exceeded %d s" % JOB_TIMEOUT_S)


def setup(towers):
    from fmcalc.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        for flags in towers:
            if main(["tower", "check"] + flags) != 0:
                sys.exit(1)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdin.read()


def session(jobs, result_path, trace_path):
    from fmcalc.cli import main

    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    clock = time.perf_counter
    t_start = clock()
    for job_id, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = job_id
        # Start each job from a collected heap, so that a job's latency holds
        # its own collections and not those its predecessors left due; the
        # seed reorders jobs, and this keeps a job's cost independent of order.
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = clock()
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as ex:  # a job that raises is recorded, not fatal
            code, error = None, type(ex).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        records.append({"code": code, "error": error, "latency_s": clock() - t0,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    result = {"run_s": clock() - t_start, "jobs": records}
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        tracer.write(trace_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def main(argv):
    mode, src = argv[0], argv[1]
    sys.path.insert(0, src)
    with open(argv[2]) as fh:
        spec = json.load(fh)
    if mode == "setup":
        setup(spec)
    elif mode == "session":
        session(spec, argv[3], argv[4] if len(argv) > 4 else None)
    else:
        sys.exit("unknown mode %r" % mode)


if __name__ == "__main__":
    main(sys.argv[1:])
