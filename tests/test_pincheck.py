"""Smoke test of tools/pincheck.py on a slice of each job universe."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_pincheck():
    spec = importlib.util.spec_from_file_location("pincheck", ROOT / "tools" / "pincheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pincheck_matches_pins_and_reports_a_changed_digest(tmp_path):
    pc = load_pincheck()
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    jobs = [job for name in pc.workloads.WORKLOADS for job in pc.universe(name)[:8]]
    # The slice holds no localcoh, splitting or unramified job: add one
    # localcoh job per matrix shape and the first of the other two.
    rest = pc.universe("torsion-batch") + pc.universe("verify-session")
    shapes = {}
    for job in rest:
        if job["kind"] == "localcoh":
            shapes.setdefault(tuple(job["size"]["shape"]), job)
    jobs += list(shapes.values())
    jobs.append(next(job for job in rest if job["kind"] == "splitting"))
    jobs.append(next(job for job in rest if job["argv"][:2] == ["verify", "unramified"]))
    assert pc.mismatches(jobs, pins, str(tmp_path)) == []
    # A pin whose digest no longer matches is reported under the job's key.
    ok_job = next(job for job in jobs if "digest" in pins[job["key"]])
    tampered = dict(pins, **{ok_job["key"]: dict(pins[ok_job["key"]], digest="0" * 32)})
    assert pc.mismatches([ok_job], tampered, str(tmp_path)) == [
        (ok_job["key"], "DigestMismatch")]
