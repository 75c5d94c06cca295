"""fmcalc benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload gamma-cold --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the directory holding `src/fmcalc`).
The run makes its job list from the seed, times how long a fresh interpreter
takes to get ready (setup), then repeats the job list ("a pass") until the
time is used up, each pass in fresh interpreters.  Every job's exit code and
stdout digest is checked against perfbench/pins.json.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
untraced and traced passes alternate and the last line reports the
per-layer metrics of the traced passes plus the tracing overhead.  Lines
before it give the environment stamp, sample counts, failures by error type
and latency by input size.  A full record, per-job sizes included, is
written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
PINS = os.path.join(HERE, "pins.json")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
SESSION_TIMEOUT_S = 150
JOB_TIMEOUT_S = 60
RUN_LIMIT_S = 170  # a run exits within 180 s: no pass starts past this

# Metrics of the last output line with --trace 0.  job_s_p50 and job_s_p90
# are printed above it but not listed: on a shared 2-core host their spread
# over ten runs reached a quarter of their value (a fresh interpreter starts
# up to half again slower while the host is busy), too wide for a regression
# bound.  run_s, their sum over the job list, spreads less.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = tracer.LAYER_METRICS + [("trace.overhead_s", "s"), ("trace.spans", "count")]

# Towers each workload builds before it is ready.
SETUP_TOWERS = {
    "gamma-cold": [workloads.TOWERS[t] for t in workloads.RAMIFIED],
    "verify-session": [workloads.TOWERS[t] for t in workloads.SESSION_TOWERS],
    "torsion-batch": [["--p", str(p)] for p in (2, 3, 5)],
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Running jobs


def materialize(jobs, workdir):
    """argv lists with {input} replaced by the path of a written input file."""
    out = []
    for job in jobs:
        argv = list(job["argv"])
        if "input" in job:
            path = os.path.join(workdir, job["key"] + ".json")
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    json.dump(job["input"], fh)
            argv = [path if a == "{input}" else a for a in argv]
        out.append(argv)
    return out


def setup_probe(towers, workdir):
    """Seconds from spawning an interpreter until it has imported fmcalc and
    built the towers."""
    spec = os.path.join(workdir, "towers.json")
    with open(spec, "w") as fh:
        json.dump(towers, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup", SRC, spec]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env(), text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdin.close()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("setup probe failed (exit %s)" % proc.returncode)
    return elapsed


def run_cold_pass(argvs, workdir, trace_path=None):
    """Each job in its own fresh interpreter: the `fmcalc` CLI, or, with a
    trace path, the worker with tracing on.  The jobs' spans are then merged
    into one file with job ids set to the job's place in the pass."""
    records, layers, span_files = [], [], []
    env = child_env()
    t_start = time.perf_counter()
    for i, argv in enumerate(argvs):
        if trace_path:
            jobs_path = os.path.join(workdir, "job%d.json" % i)
            with open(jobs_path, "w") as fh:
                json.dump([argv], fh)
            result_path = os.path.join(workdir, "job%d.result.json" % i)
            span_files.append(os.path.join(workdir, "job%d.trace.json" % i))
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "session", SRC,
                   jobs_path, result_path, span_files[-1]]
        else:
            cmd = [sys.executable, "-m", "fmcalc.cli"] + argv
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            records.append({"code": None, "error": "JobTimeout",
                            "latency_s": time.perf_counter() - t0,
                            "stdout": "", "stderr": ""})
            continue
        latency = time.perf_counter() - t0
        if trace_path:
            if proc.returncode != 0:
                raise BenchError("traced worker failed: %s" % proc.stderr[-500:])
            with open(result_path) as fh:
                result = json.load(fh)
            rec = result["jobs"][0]
            layers.append(result["layers"])
        else:
            rec = {"code": proc.returncode, "error": None,
                   "stdout": proc.stdout, "stderr": proc.stderr}
        rec["latency_s"] = latency
        records.append(rec)
    run_s = time.perf_counter() - t_start
    if trace_path:
        merge_spans(span_files, trace_path)
    return run_s, records, sum_layers(layers)


def merge_spans(paths, out_path):
    merged = None
    for job_id, path in enumerate(paths):
        with open(path) as fh:
            spans = json.load(fh)
        if merged is None:
            merged = {k: spans[k] for k in ("names", "columns")}
            merged.update({c: [] for c in spans["columns"]})
        offset = len(merged["start"])
        merged["name"] += spans["name"]
        merged["parent"] += [p + offset if p >= 0 else p for p in spans["parent"]]
        merged["job"] += [job_id] * len(spans["job"])
        merged["start"] += spans["start"]
        merged["end"] += spans["end"]
    with open(out_path, "w") as fh:
        json.dump(merged, fh, separators=(",", ":"))


def run_session_pass(argvs, workdir, trace_path=None):
    """All jobs in one fresh, long-lived interpreter; spans go to
    trace_path when given."""
    jobs_path = os.path.join(workdir, "session.json")
    with open(jobs_path, "w") as fh:
        json.dump(argvs, fh)
    result_path = os.path.join(workdir, "session.result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "session", SRC,
           jobs_path, result_path]
    if trace_path:
        cmd.append(trace_path)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=SESSION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("session worker failed: %s" % proc.stderr[-500:])
    with open(result_path) as fh:
        result = json.load(fh)
    return result["run_s"], result["jobs"], result.get("layers")


def sum_layers(per_job):
    if not per_job:
        return None
    total = {}
    for layers in per_job:
        for name, value in layers.items():
            if name.endswith("coeff_bits_max"):
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


# ---------------------------------------------------------------------------
# Checking outputs against the pins


ERROR_RE = re.compile(r"^fmcalc: (\w+): ")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def outcome(rec):
    """('ok', digest) when the job wrote a report, else ('error', type)."""
    if rec.get("error"):
        return "error", rec["error"]
    if not rec["stdout"]:
        err = rec["stderr"]
        m = ERROR_RE.match(err)
        if m:
            return "error", "UsageError" if m.group(1) == "error" else m.group(1)
        if "Traceback" in err:
            return "error", err.strip().splitlines()[-1].split(":")[0]
        return "error", "NoOutput"
    return "ok", digest(rec["stdout"])


def pin_entry(rec):
    kind, value = outcome(rec)
    if kind == "ok":
        return {"code": rec["code"], "digest": value}
    return {"code": rec["code"], "error": value}


def check(job, rec, pins):
    """Classify one job run against its pin.

    Returns (failed, wrong, label): `failed` when the job raised, timed out,
    wrote no report, exited with another code than pinned or its digest
    differs; `wrong` when the outcome contradicts a pinned answer.  A job
    pinned as failing that now writes a report counts as a success: no
    answer was pinned for it."""
    pin = pins.get(job["key"])
    kind, value = outcome(rec)
    if pin is None:
        return True, True, "Unpinned"
    if kind == "error":
        return True, "digest" in pin, value
    if "digest" not in pin:
        return False, False, "NewAnswer"
    if rec["code"] != pin["code"]:
        return True, True, "ExitCodeMismatch"
    if value != pin["digest"]:
        return True, True, "DigestMismatch"
    return False, False, "ok"


# ---------------------------------------------------------------------------
# Size records, read from outputs and generated inputs


def _rational_bits(text):
    num, _, den = text.lstrip("-").partition("/")
    return max(int(num).bit_length(), int(den or 1).bit_length())


def _leaves(obj):
    if isinstance(obj, list):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def _poly_sizes(obj, acc):
    """Add the term count and the largest coefficient bit length of every
    polynomial ({"terms": [{"coeff": ...}, ...]}) inside a report to acc."""
    if isinstance(obj, dict):
        terms = obj.get("terms")
        if isinstance(terms, list) and all(isinstance(t, dict) and "coeff" in t
                                           for t in terms):
            acc[0] += len(terms)
            for t in terms:
                for c in _leaves(t["coeff"]):
                    if isinstance(c, str):
                        acc[1] = max(acc[1], _rational_bits(c))
            return
        obj = list(obj.values())
    if isinstance(obj, list):
        for value in obj:
            _poly_sizes(value, acc)


def size_record(job, rec):
    size = dict(job["size"])
    if rec["stdout"] and job["kind"] in ("gamma", "log", "verify"):
        report = json.loads(rec["stdout"])
        if job["kind"] == "gamma":
            images = report["table"]["images"]
            size["gamma_terms"] = {n: len(img["terms"]) for n, img in images.items()}
        acc = [0, 0]
        _poly_sizes(report, acc)
        size["terms"], size["coeff_bits_max"] = acc
    return size


def size_class(size):
    """A coarse bucket for slicing latency by input or coefficient size."""
    if "coeff_bits_max" in size:
        bits = size["coeff_bits_max"]
        for top in (16, 64, 256):
            if bits < top:
                return "coeff_bits<%d" % top
        return "coeff_bits>=256"
    if "shape" in size:
        return "matrix %dx%d" % tuple(size["shape"])
    if "generators" in size:
        return "module gens=%d" % size["generators"]
    return "splitting"


# ---------------------------------------------------------------------------
# Metrics


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def env_stamp(args):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args):
    if not os.path.isfile(os.path.join(SRC, "fmcalc", "cli.py")):
        raise BenchError("no fmcalc source at %s" % SRC)
    if not os.path.isfile(PINS):
        raise BenchError("no pins at %s" % PINS)
    with open(PINS) as fh:
        pins = json.load(fh)
    jobs = workloads.GENERATORS[args.workload](args.seed)
    workdir = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, jobs, pins, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, jobs, pins, workdir):
    t_begin = time.perf_counter()
    setup = [setup_probe(SETUP_TOWERS[args.workload], workdir)
             for _ in range(SETUP_PROBES)]
    argvs = materialize(jobs, workdir)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_path = os.path.join(WORK, "traces", args.workload + ".json")
    run_pass = run_cold_pass if args.workload == "gamma-cold" else run_session_pass

    passes = []  # (traced, run_s, records, layers, wall)
    need = 2 if args.trace else 1
    t_measure = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        run_s, records, layers = run_pass(argvs, workdir,
                                          trace_path if traced else None)
        passes.append((traced, run_s, records, layers, time.perf_counter() - t0))
        elapsed = time.perf_counter() - t_measure
        typical = statistics.median(p[4] for p in passes)
        if len(passes) >= need and (elapsed + typical > args.seconds
                                    or time.perf_counter() - t_begin + typical
                                    > RUN_LIMIT_S):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    attempted = failed = 0
    correct = True
    errors = {}
    digests = {}
    consistent = True  # traced and untraced runs of a job give one outcome
    best = ({}, {})  # untraced, traced: job key -> fastest latency
    per_job = []
    for index, (traced, _, records, _, _) in enumerate(passes):
        for job, rec in zip(jobs, records):
            bad, wrong, label = check(job, rec, pins)
            correct = correct and not wrong
            if digests.setdefault(job["key"], outcome(rec)) != outcome(rec):
                consistent = False
            fastest = best[traced]
            fastest[job["key"]] = min(fastest.get(job["key"], rec["latency_s"]),
                                      rec["latency_s"])
            if index == 0:
                per_job.append({"key": job["key"], "outcome": label,
                                "size": size_record(job, rec)})
            if traced:
                continue
            attempted += 1
            if bad:
                failed += 1
                errors[label] = errors.get(label, 0) + 1

    # A job's latency is its fastest execution in the run: the host's speed
    # drifts by a third over seconds, and the fastest of several executions
    # spread across the run is what repeats from run to run.
    ok_keys = {j["key"] for j, r in zip(jobs, passes[0][2]) if not check(j, r, pins)[0]}
    latencies = [best[False][j["key"]] for j in jobs if j["key"] in ok_keys]
    if len(latencies) < 2:
        raise BenchError("fewer than two jobs succeeded")
    by_class = {}
    for job, rec in zip(jobs, per_job):
        rec["latency_s"] = best[False][job["key"]]
        if job["key"] in ok_keys:
            by_class.setdefault(size_class(rec["size"]), []).append(rec["latency_s"])

    untraced = [p for p in passes if not p[0]]
    result = {
        "env": env_stamp(args),
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": errors,
        "correct": correct and consistent,
        "traced_equals_untraced": consistent,
        "latency_p50_by_size": {k: statistics.median(v) for k, v in sorted(by_class.items())},
        "jobs": per_job,
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "run_s": sum(best[False][j["key"]] for j in jobs),
            "job_s_p50": statistics.median(latencies),
            "job_s_p90": p90(latencies),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        },
        "pass_s": [p[1] for p in untraced],
        "samples": {"setup_s": len(setup), "passes": len(untraced),
                    "job_s": len(latencies)},
    }
    if args.trace:
        traced_layers = [p[3] for p in passes if p[0]]
        layer = {name: statistics.median(l.get(name, 0) for l in traced_layers)
                 for name, _ in tracer.LAYER_METRICS}
        traced_run = sum(best[True][j["key"]] for j in jobs)
        layer["trace.overhead_s"] = traced_run - result["end_to_end"]["run_s"]
        layer["trace.spans"] = statistics.median(l["spans"] for l in traced_layers)
        result["per_layer"] = layer
        result["samples"]["traced_passes"] = len(traced_layers)
    return result


def report(result, trace):
    """Human-readable lines, then the one-line JSON result."""
    e2e = result["end_to_end"]
    n = result["samples"]
    lines = [
        "env %s" % json.dumps(result["env"], sort_keys=True),
        "passes %d x %d jobs" % (result["passes"], result["jobs_per_pass"]),
        "setup_s      %.4f s   (median of %d)" % (e2e["setup_s"], n["setup_s"]),
        "run_s        %.4f s   (sum of the job list's fastest latencies; passes: %d)"
        % (e2e["run_s"], n["passes"]),
        "job_s_p50    %.5f s  (n=%d)" % (e2e["job_s_p50"], n["job_s"]),
        "job_s_p90    %.5f s  (n=%d)" % (e2e["job_s_p90"], n["job_s"]),
        "failed_frac  %.4f    (%d of %d failed: %s)" % (
            result["failed_frac"], result["failed"], result["attempted"],
            json.dumps(result["errors"], sort_keys=True)),
        "ok_frac      %.4f" % e2e["ok_frac"],
        "peak_rss_mb  %.1f MB" % e2e["peak_rss_mb"],
        "correct %s (outputs of traced and untraced runs equal: %s)" % (
            result["correct"], result["traced_equals_untraced"]),
    ]
    for cls, value in result["latency_p50_by_size"].items():
        lines.append("  p50 %-22s %.5f s" % (cls, value))
    names, values = (PER_LAYER, result["per_layer"]) if trace else (END_TO_END, e2e)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    return "\n".join(lines) + "\n" + json.dumps(final, sort_keys=True)


def save(result, args):
    outdir = os.path.join(WORK, "results")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=1)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as ex:
        sys.stderr.write("perfbench: %s\n" % ex)
        return 2
    save(result, args)
    print(report(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
