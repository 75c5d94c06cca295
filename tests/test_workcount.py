"""Smoke tests of tools/workcount.py on slices of all three workloads."""

import cProfile
import importlib.util
import pathlib
import pstats

from fmcalc.formal import trivial_tower
from fmcalc.gradedpoly import PolyRing
from fmcalc.numberring import TowerDescriptor

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_workcount():
    spec = importlib.util.spec_from_file_location("workcount", ROOT / "tools" / "workcount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workcount_reports_call_counts(tmp_path):
    wc = load_workcount()
    jobs = wc.workloads.GENERATORS["gamma-cold"](1)[:3]
    stats, nonzero, raised = wc.profile_jobs(wc.run.materialize(jobs, str(tmp_path)), True)
    assert (nonzero, raised) == (0, 0)
    assert stats.total_calls > 0
    # One hazewinkel_log per job, each taking pi^-1 once.
    inverse_rows = wc.named_counts(stats, ["numberring.inverse"])
    assert sum(calls for _, _, calls in inverse_rows) == 3
    # The default report counts graded products and the polynomials built,
    # one line for each constructor in gradedpoly.
    rows = wc.named_counts(stats, wc.DEFAULT_NAMES)
    product_rows = [row for row in rows if row[0] == "gradedpoly.__mul__"]
    assert product_rows and all(calls > 0 for _, _, calls in product_rows)
    init_rows = [row for row in rows if row[0] == "gradedpoly.__init__"]
    assert len(init_rows) == 2 and all(calls > 0 for _, _, calls in init_rows)


def test_workcount_builds_each_job_tower_afresh(tmp_path):
    # Jobs 2 and 5 both run on Q2(x^3-2).  A fresh interpreter per job
    # builds that tower, and its 1/pi, again for the second job, so the
    # count clears the per-process tower cache between jobs.
    wc = load_workcount()
    jobs = wc.workloads.GENERATORS["gamma-cold"](1)[2:6]
    towers = [job["size"]["tower"] for job in jobs]
    assert len(set(towers)) < len(towers)
    stats, nonzero, raised = wc.profile_jobs(wc.run.materialize(jobs, str(tmp_path)), True)
    assert (nonzero, raised) == (0, 0)
    inverse_rows = wc.named_counts(stats, ["numberring.inverse"])
    assert sum(calls for _, _, calls in inverse_rows) == len(jobs)


def test_workcount_reports_torsion_normal_forms(tmp_path):
    # The first ten torsion-batch jobs are obstruct jobs.  Their scans start
    # at the first power of v_n that a leading monomial divides; a scan of
    # every power from v_n^1 takes 599 normal forms here.
    wc = load_workcount()
    jobs = wc.workloads.GENERATORS["torsion-batch"](1)[:10]
    assert {job["kind"] for job in jobs} == {"obstruct"}
    stats, _, raised = wc.profile_jobs(wc.run.materialize(jobs, str(tmp_path)), False)
    assert raised == 0
    rows = {name: calls for name, _, calls in wc.named_counts(stats, wc.DEFAULT_NAMES)
            if name in ("torsion.normal_form", "torsion._remainder")}
    # Each nonzero normal form is one reduction; Groebner completion takes
    # the rest.
    assert 0 < rows["torsion.normal_form"] < rows["torsion._remainder"]
    assert rows["torsion.normal_form"] < 50


def test_workcount_reports_session_reuse(tmp_path):
    # The first 40 seed-1 verify-session jobs run Q3(x^3-3) at N = 2..4 and
    # then Q3(f=2) at N = 2..5.  One process searches the f = 2 tower's
    # default polynomial once.  It asks for the weight bases of two
    # rational-iso reports, each over weights 0..26 (v_1, v_2 at N = 2, and
    # v_1..v_3 from N = 3 on), and of one ordering report over weights 0..16
    # (v_1, v_2 at every N).
    wc = load_workcount()
    jobs = wc.workloads.GENERATORS["verify-session"](1)[:40]
    assert {job["size"]["tower"] for job in jobs} == {"Q3(x^3-3)", "Q3(f=2)"}
    for cache in wc.cli.PROCESS_CACHES:
        cache.cache_clear()
    stats, nonzero, raised = wc.profile_jobs(wc.run.materialize(jobs, str(tmp_path)), False)
    assert (nonzero, raised) == (0, 0)
    rows = {name: calls for name, _, calls in wc.named_counts(stats, wc.DEFAULT_NAMES)}
    assert rows["modp.smallest_irreducible"] == 1
    assert rows["gradedpoly.monomials_of_weight"] == 2 * 27 + 17


def test_workcount_obstruct_jobs_build_no_polynomial_objects(tmp_path):
    # The first ten torsion-batch jobs are obstruct jobs.  They read each
    # module into rationals and work on F_p dicts from there to the report:
    # no GradedPoly is built and no residue is reduced, and each job
    # completes one Groebner basis.
    wc = load_workcount()
    jobs = wc.workloads.GENERATORS["torsion-batch"](1)[:10]
    assert {job["kind"] for job in jobs} == {"obstruct"}
    stats, _, raised = wc.profile_jobs(wc.run.materialize(jobs, str(tmp_path)), False)
    assert raised == 0
    rows = wc.named_counts(stats, ["gradedpoly.__init__", "modp.fq_reduce",
                                   "torsion.groebner_basis"])
    calls = {}
    for name, _, n in rows:
        calls[name] = calls.get(name, 0) + n
    assert calls == {"gradedpoly.__init__": 0, "modp.fq_reduce": 0,
                     "torsion.groebner_basis": len(jobs)}


def test_workcount_session_scans_divide_no_power(tmp_path):
    # Every eventual-division scan of the seed-1 verify-session job list is
    # settled by coefficient valuations: the zero case, except at n = 1 on
    # Q2(x^2-2), Q3(x^2-3) and Q5(x^2-5), where the least term of
    # gamma(v_2) makes every quotient non-integral.  No scan divides a
    # power of gamma(v_{n+1}) by gamma(v_n).  A name that matches no
    # profiled function also counts 0, so a scan that does divide is
    # counted under the same name: with gamma(v_1) = v_1 and gamma(v_2) =
    # v_1 + theta * v_2 over Q2(x^2-2) it divides the first two powers.
    wc = load_workcount()
    jobs = wc.workloads.GENERATORS["verify-session"](1)
    assert any("eventual-division" in job["argv"] for job in jobs)
    for cache in wc.cli.PROCESS_CACHES:
        cache.cache_clear()
    stats, nonzero, raised = wc.profile_jobs(wc.run.materialize(jobs, str(tmp_path)), False)
    assert (nonzero, raised) == (0, 0)
    rows = wc.named_counts(stats, wc.DEFAULT_NAMES)
    assert [calls for name, _, calls in rows if name == "gamma.poly_divide"] == [0]
    gm = wc.cli.gammamod
    tower = TowerDescriptor(2, [0, 1], [-2, 0, 1])
    v1, v2 = PolyRing(tower).gen(1), PolyRing(tower).gen(2)
    table = gm.GammaTable(trivial_tower(2), tower, 2, (None, v1, v1 + v2.scale(tower.theta())), {})
    prof = cProfile.Profile()
    rep = prof.runcall(gm.eventual_division_witness, table, 1, 8)
    assert (rep["case"], rep["m"]) == ("divide", 2)
    rows = wc.named_counts(pstats.Stats(prof), ["gamma.poly_divide"])
    assert [(name, calls) for name, _, calls in rows] == [("gamma.poly_divide", 2)]
