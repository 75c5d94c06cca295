"""Seeded job lists for the three benchmark workloads.

A job is a dict with an ``argv`` list for ``fmcalc`` and, for commands that
read a file, an ``input`` object written to a JSON file whose path replaces
the ``{input}`` placeholder in ``argv``.  Every job also carries ``size``:
the input-size record taken from the generated input (tower and N, module
generator count and weights, or matrix shapes).

Nothing here imports fmcalc: the program only ever sees generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random

# Tower flags for `fmcalc`, keyed by a short label.
TOWERS = {
    "Q2(x^2-2)": ["--p", "2", "--e", "2"],
    "Q2(x^3-2)": ["--p", "2", "--e", "3"],
    "Q3(x^2-3)": ["--p", "3", "--e", "2"],
    "Q3(x^3-3)": ["--p", "3", "--e", "3"],
    "Q5(x^2-5)": ["--p", "5", "--e", "2"],
    "Q2(f=2)": ["--p", "2", "--f", "2"],
    "Q3(f=2)": ["--p", "3", "--f", "2"],
    "Q2(f=2,x^2-2)": ["--p", "2", "--f", "2", "--e", "2"],
}
RAMIFIED = ["Q2(x^2-2)", "Q2(x^3-2)", "Q3(x^2-3)", "Q3(x^3-3)", "Q5(x^2-5)"]
GAMMA_N_MAX = {2: 6, 3: 5, 5: 4}

# gamma-cold: per pass, FLOOR jobs below a tower's N_max, TOP jobs at N_max
# and DEEP jobs.  Fixed counts per cost class keep pass time steady across
# seeds; the seed picks which tower and N fill the remaining slots and the
# order.  A pass takes 25-35 s, so a 40 s run is always one pass, and each
# command recurs in it (4-10 times, the deep one twice).
GAMMA_FLOOR_JOBS = 95
GAMMA_TOP_JOBS = 50
GAMMA_DEEP_JOBS = 2
GAMMA_DEEP = [("Q2(x^2-2)", 7)]

# verify-session: N_max per tower and the suites that apply to it (exit 0).
# A suite is left out where its theorem does not cover the tower: the
# unramified formula needs e = 1; low-degree, kappa, rational-iso and
# ordering need a totally ramified extension of the base.
SESSION_TOWERS = {
    "Q2(x^2-2)": 5,
    "Q2(x^3-2)": 5,
    "Q3(x^2-3)": 4,
    "Q3(x^3-3)": 4,
    "Q5(x^2-5)": 3,
    "Q2(f=2)": 6,
    "Q3(f=2)": 5,
    "Q2(f=2,x^2-2)": 5,
}
RAMIFIED_SUITES = ["log-oracle", "low-degree", "rational-iso", "kappa",
                   "eventual-division", "ordering"]
UNRAMIFIED_SUITES = ["log-oracle", "unramified"]
MIXED_SUITES = ["log-oracle", "eventual-division"]
ORDERING_SEEDS = (0, 1, 2, 3)

# torsion-batch: pools made from one fixed pool seed, so that every job a
# workload seed can draw has a pinned outcome.  Each pass runs every module
# and presentation of the pools, in an order set by the workload seed, plus
# a seeded sample of `splitting` jobs.  A seeded sample of modules would
# make pass time swing with a handful of slow ones (0.2-0.4 s against a
# median of 5 ms).
POOL_SEED = 20151116
# Above this generator weight some p = 5, N = 4 modules keep Buchberger busy
# for over a minute; the cap keeps every job within the per-job timeout.
MODULE_WEIGHT_CAP = 48
OBSTRUCT_POOL = 600
LOCALCOH_SHAPES = [(8, 8), (12, 10), (16, 16), (20, 18), (25, 25), (32, 30), (40, 40)]
LOCALCOH_POOL_PER_SHAPE = 2
SPLITTING_POOL = 40
SPLITTING_JOBS = 6

WORKLOADS = ("gamma-cold", "verify-session", "torsion-batch")


def job_key(job):
    """Stable identity of a job: hash of its argv and input."""
    blob = json.dumps([job["argv"], job.get("input")], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _job(argv, size, kind, input_obj=None):
    job = {"argv": argv, "size": size, "kind": kind}
    if input_obj is not None:
        job["input"] = input_obj
    job["key"] = job_key(job)
    return job


def _tower_p(label):
    return int(TOWERS[label][1])


# ---------------------------------------------------------------------------
# gamma-cold


def gamma_job(label, N):
    return _job(["gamma"] + TOWERS[label] + ["--N", str(N)],
                {"tower": label, "N": N}, "gamma")


def gamma_universe():
    """Every gamma job any seed can draw, split by cost class."""
    floor, top = [], []
    for label in RAMIFIED:
        n_max = GAMMA_N_MAX[_tower_p(label)]
        floor += [gamma_job(label, N) for N in range(1, n_max)]
        top.append(gamma_job(label, n_max))
    deep = [gamma_job(label, N) for label, N in GAMMA_DEEP]
    return floor, top, deep


def _draw(rng, pool, n):
    """n jobs from pool: each job equally often, the remainder drawn by
    the seed without replacement."""
    return pool * (n // len(pool)) + rng.sample(pool, n % len(pool))


def gamma_cold(seed):
    rng = random.Random(seed)
    floor, top, deep = gamma_universe()
    jobs = (_draw(rng, floor, GAMMA_FLOOR_JOBS) + _draw(rng, top, GAMMA_TOP_JOBS)
            + _draw(rng, deep, GAMMA_DEEP_JOBS))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# verify-session


def suites_for(label):
    flags = TOWERS[label]
    if "--f" not in flags:
        return RAMIFIED_SUITES
    if "--e" not in flags:
        return UNRAMIFIED_SUITES
    return MIXED_SUITES


def session_jobs(label, ordering_seed):
    flags = TOWERS[label]
    jobs = []
    for N in range(2, SESSION_TOWERS[label] + 1):
        size = {"tower": label, "N": N}
        jobs.append(_job(["log"] + flags + ["--N", str(N)], size, "log"))
        jobs.append(_job(["gamma"] + flags + ["--N", str(N)], size, "gamma"))
        for suite in suites_for(label):
            argv = ["verify", suite] + flags + ["--N", str(N)]
            if suite == "ordering":
                argv += ["--seed", str(ordering_seed)]
            jobs.append(_job(argv, size, "verify"))
    return jobs


def verify_universe():
    return [job for label in SESSION_TOWERS for s in ORDERING_SEEDS
            for job in session_jobs(label, s)]


def verify_session(seed):
    """All towers, each swept at ascending N; the seed orders the towers and
    picks the sampling seed of the `ordering` suite."""
    rng = random.Random(seed)
    labels = list(SESSION_TOWERS)
    rng.shuffle(labels)
    jobs = []
    for label in labels:
        jobs += session_jobs(label, rng.choice(ORDERING_SEEDS))
    return jobs


# ---------------------------------------------------------------------------
# torsion-batch


def _monomials_of_weight(w, p, N):
    """Exponent tuples (a_1..a_N) with sum a_n (p^n - 1) = w."""
    weights = [p ** n - 1 for n in range(1, N + 1)]
    out = []

    def rec(n, left, acc):
        if n < 0:
            if left == 0:
                out.append(tuple(acc))
            return
        wn = weights[n]
        for a in range(left // wn + 1):
            acc[n] = a
            rec(n - 1, left - a * wn, acc)
        acc[n] = 0

    rec(N - 1, w, [0] * N)
    return out


def random_module(rng):
    """A homogeneous cyclic module R/J with p in J: p in {2,3,5},
    N in {2,3,4}, and 1-3 further homogeneous generators of 1-3 terms, of
    weight up to 2 (p^N - 1) (the default Groebner degree bound) capped at
    MODULE_WEIGHT_CAP."""
    p = rng.choice((2, 3, 5))
    N = rng.choice((2, 3, 4))
    top = min(2 * (p ** N - 1), MODULE_WEIGHT_CAP)
    ideal = [{"terms": [{"exps": {}, "coeff": str(p)}]}]
    weights = []
    for _ in range(rng.randint(1, 3)):
        while True:
            w = (p - 1) * rng.randint(1, top // (p - 1))
            monos = _monomials_of_weight(w, p, N)
            if monos:
                break
        chosen = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
        terms = []
        for exps in sorted(chosen, reverse=True):
            coeff = rng.choice([c for c in range(-(p - 1), p) if c % p])
            terms.append({"exps": {str(n + 1): a for n, a in enumerate(exps) if a},
                          "coeff": str(coeff)})
        ideal.append({"terms": terms})
        weights.append(w)
    module = {"p": p, "N": N, "ideal": ideal, "finitely_presented": True,
              "context": "bp"}
    size = {"p": p, "N": N, "generators": len(ideal), "weights": weights}
    return module, size


def random_presentations(rng, rows, cols):
    """One integer presentation matrix per degree, with entries mostly small
    and some multiples of p so that H0 is nontrivial."""
    p = rng.choice((2, 3, 5))
    degrees = {}
    for d in range(2):
        degrees[str(d)] = [
            [rng.choice((0, 0, 1, -1, p, -p, p * p, rng.randint(-9, 9)))
             for _ in range(cols)]
            for _ in range(rows)
        ]
    return {"p": p, "degrees": degrees}


def random_poly(rng):
    """x^d + a_{d-1} x^{d-1} + ... + a_0 as a `splitting` argument."""
    d = rng.randint(2, 5)
    coeffs = [rng.randint(-5, 5) for _ in range(d)]
    coeffs[0] = coeffs[0] or rng.choice((-2, 2, 3))
    text = "x^%d" % d
    for k in range(d - 1, -1, -1):
        c = coeffs[k]
        if c:
            mono = ("x^%d" % k if k > 1 else "x") if k else ""
            text += ("+%d%s" if c > 0 else "%d%s") % (c, mono)
    return text


def torsion_pools():
    rng = random.Random(POOL_SEED)
    obstruct = []
    for _ in range(OBSTRUCT_POOL):
        module, size = random_module(rng)
        obstruct.append(_job(["obstruct", "{input}"], size, "obstruct", module))
    localcoh = {}
    for rows, cols in LOCALCOH_SHAPES:
        localcoh[(rows, cols)] = [
            _job(["localcoh", "{input}"], {"shape": [rows, cols]}, "localcoh",
                 random_presentations(rng, rows, cols))
            for _ in range(LOCALCOH_POOL_PER_SHAPE)
        ]
    splitting = []
    for _ in range(SPLITTING_POOL):
        poly = random_poly(rng)
        splitting.append(_job(["splitting", poly, "--pmax", "100"],
                              {"poly": poly}, "splitting"))
    return obstruct, localcoh, splitting


def torsion_universe():
    obstruct, localcoh, splitting = torsion_pools()
    return obstruct + [j for js in localcoh.values() for j in js] + splitting


def torsion_batch(seed):
    rng = random.Random(seed)
    obstruct, localcoh, splitting = torsion_pools()
    jobs = obstruct + [j for js in localcoh.values() for j in js]
    jobs += rng.sample(splitting, SPLITTING_JOBS)
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "gamma-cold": gamma_cold,
    "verify-session": verify_session,
    "torsion-batch": torsion_batch,
}
UNIVERSES = {
    "gamma-cold": lambda: [j for part in gamma_universe() for j in part],
    "verify-session": verify_universe,
    "torsion-batch": torsion_universe,
}
