"""Profiled work counts of one benchmark workload's job list.

    python3 tools/workcount.py --workload gamma-cold --seed 1 [NAME ...]

Runs the seed's job list from perfbench/workloads.py through
`fmcalc.cli.main`, one job after another in this one interpreter, under
cProfile; the jobs' output is discarded.  It then prints the total number
of function calls and the call count of every function named by a NAME, written module.function: for example fractions._mul or
numberring.inverse.  Each function of that name in that module gets its own
line, keyed by its first line number.  Without NAMEs it reports the
`fractions.Fraction` arithmetic, `numberring` inverses, graded products
(`GradedPoly.__mul__`), the constructors in `gradedpoly`, one line for
`PolyRing.__init__` and one for `GradedPoly.__init__`, the normal forms
over F_p (`torsion.normal_form`) and the reductions on exponent tuples
(`torsion._remainder`) that torsion-batch's obstruct jobs take, the default-polynomial searches
(`modp.smallest_irreducible`) and weight-basis requests
(`gradedpoly.monomials_of_weight`) that a verify-session process repeats
unless it reuses them, and the divisions of a power of gamma(v_{n+1}) by
gamma(v_n) that an eventual-division scan takes (`gamma.poly_divide`, one
call per power divided).

The benchmark runs each gamma-cold job in a fresh interpreter; to match it,
every cache in fmcalc.cli.PROCESS_CACHES is cleared between jobs here.
Call counts do not depend on the speed of the host, so they compare two
versions of the program where wall times cannot.
"""

import argparse
import contextlib
import cProfile
import io
import os
import pstats
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  (perfbench/run.py, for materialize)
import workloads  # noqa: E402  (perfbench/workloads.py)
from fmcalc import cli  # noqa: E402

DEFAULT_NAMES = ["fractions._mul", "fractions._add", "fractions.__new__",
                 "numberring.inverse", "gradedpoly.__mul__", "gradedpoly.__init__",
                 "torsion.normal_form", "torsion._remainder", "modp.smallest_irreducible",
                 "gradedpoly.monomials_of_weight", "gamma.poly_divide"]


def profile_jobs(job_argvs, fresh_caches):
    """Run the jobs under one profiler; returns (stats, nonzero exits,
    jobs that raised)."""
    prof = cProfile.Profile()
    nonzero = raised = 0
    for argv in job_argvs:
        if fresh_caches:
            for cache in cli.PROCESS_CACHES:
                cache.cache_clear()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            prof.enable()
            try:
                code = cli.main(argv)
            except Exception:  # a crashing job is counted, as in the benchmark
                raised += 1
            else:
                nonzero += code != 0
            finally:
                prof.disable()
    return pstats.Stats(prof), nonzero, raised


def named_counts(stats, names):
    """(name, first line, calls) for every profiled function that a
    module.function name matches."""
    rows = []
    for name in names:
        module, func = name.rsplit(".", 1)
        hits = sorted(
            (line, nc)
            for (path, line, fname), (_, nc, _, _, _) in stats.stats.items()
            if fname == func and os.path.basename(path) == module + ".py"
        )
        rows += [(name, line, nc) for line, nc in hits] or [(name, None, 0)]
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("names", nargs="*", default=DEFAULT_NAMES,
                    help="functions to count, as module.function")
    args = ap.parse_args(argv)

    jobs = workloads.GENERATORS[args.workload](args.seed)
    with tempfile.TemporaryDirectory() as workdir:
        stats, nonzero, raised = profile_jobs(
            run.materialize(jobs, workdir), fresh_caches=args.workload == "gamma-cold")
    print("workload %s seed %d: %d jobs, %d nonzero exits, %d raised"
          % (args.workload, args.seed, len(jobs), nonzero, raised))
    print("total calls %d" % stats.total_calls)
    for name, line, calls in named_counts(stats, args.names):
        where = "" if line is None else " (line %d)" % line
        print("%s%s %d" % (name, where, calls))


if __name__ == "__main__":
    main()
