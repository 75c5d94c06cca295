"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that every job generator is deterministic for a given seed (also
across interpreters with different hash seeds), that every job a seed draws
has a pinned outcome, and that the output check counts a job as failed when
its pinned digest or exit code has been tampered with.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

import run
import workloads

SEEDS = (0, 1, 7)


def keys(name, seed):
    return [job["key"] for job in workloads.GENERATORS[name](seed)]


class GeneratorDeterminism(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                self.assertEqual(workloads.GENERATORS[name](seed),
                                 workloads.GENERATORS[name](seed), (name, seed))

    def test_seed_changes_jobs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(keys(name, 1), keys(name, 2), name)

    def test_same_jobs_in_another_interpreter(self):
        code = ("import json, sys; sys.path.insert(0, %r); import workloads; "
                "print(json.dumps({n: [j['key'] for j in workloads.GENERATORS[n](7)] "
                "for n in workloads.WORKLOADS}))" % run.HERE)
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            self.assertEqual(json.loads(out.stdout),
                             {n: keys(n, 7) for n in workloads.WORKLOADS})

    def test_every_drawn_job_is_pinned(self):
        with open(run.PINS) as fh:
            pins = json.load(fh)
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                missing = [k for k in keys(name, seed) if k not in pins]
                self.assertEqual(missing, [], (name, seed))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(run.PINS) as fh:
            cls.pins = json.load(fh)
        cls.workdir = os.path.join(run.WORK, "selftest-%d" % os.getpid())
        os.makedirs(cls.workdir, exist_ok=True)
        cls.job = workloads.gamma_job("Q2(x^2-2)", 2)
        _, records, _ = run.run_cold_pass([cls.job["argv"]], cls.workdir)
        cls.rec = records[0]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_pinned_job_passes(self):
        self.assertEqual(run.check(self.job, self.rec, self.pins), (False, False, "ok"))

    def test_tampered_digest_fails(self):
        pins = dict(self.pins)
        pin = dict(pins[self.job["key"]])
        pin["digest"] = "0" * len(pin["digest"])
        pins[self.job["key"]] = pin
        self.assertEqual(run.check(self.job, self.rec, pins),
                         (True, True, "DigestMismatch"))

    def test_tampered_exit_code_fails(self):
        pins = dict(self.pins)
        pins[self.job["key"]] = dict(pins[self.job["key"]], code=1)
        self.assertEqual(run.check(self.job, self.rec, pins),
                         (True, True, "ExitCodeMismatch"))

    def test_unpinned_job_fails(self):
        self.assertEqual(run.check(self.job, self.rec, {}), (True, True, "Unpinned"))

    def test_pinned_failure_counts_as_failed_not_wrong(self):
        rec = {"code": 1, "error": None, "stdout": "",
               "stderr": "fmcalc: TruncationUnsound: basis was degree-truncated\n"}
        pins = {self.job["key"]: {"code": 1, "error": "TruncationUnsound"}}
        self.assertEqual(run.check(self.job, rec, pins),
                         (True, False, "TruncationUnsound"))
        # A later fix that makes it answer is a success, not a mismatch.
        self.assertEqual(run.check(self.job, self.rec, pins),
                         (False, False, "NewAnswer"))


if __name__ == "__main__":
    unittest.main()
