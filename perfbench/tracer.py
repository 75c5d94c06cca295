"""Span tracing of fmcalc layers from outside the package.

`install()` wraps the public functions and methods listed in TARGETS.  Each
call becomes a span: name, start, end, parent span and job id, kept in
memory in flat arrays and written out by `Tracer.write` when the run ends.
A module function is replaced in every fmcalc module that holds it by name
(for example `leading_term`, imported into both `gamma` and `torsion`); a
method is replaced on its class, under every alias such as `__rmul__`.

Self time of a span is its duration minus the time its direct child spans
cover.  Size counters (terms out, coefficient bits, bytes) are taken after
a span ends, and the time they take is charged to neither the span nor its
parent.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time
from fractions import Fraction

# (module, attribute or Class.method, layer metric prefix)
TARGETS = [
    ("cli", "run_command", "cli.run_command"),
    ("report", "emit", "report.emit"),
    ("formal", "hazewinkel_log", "formal.hazewinkel_log"),
    ("formal", "log_closed_form", "formal.log_closed_form"),
    ("gamma", "compute_gamma", "gamma.compute_gamma"),
    ("gamma", "gamma_sharp_matrix", "gamma.gamma_sharp_matrix"),
    ("gamma", "eventual_division_witness", "gamma.eventual_division_witness"),
    ("gamma", "poly_divide", "gamma.poly_divide"),
    ("gamma", "order_preservation_check", "gamma.order_preservation_check"),
    ("gradedpoly", "GradedPoly.__mul__", "gradedpoly.mul"),
    ("gradedpoly", "GradedPoly.__pow__", "gradedpoly.pow"),
    ("gradedpoly", "apply_ring_map", "gradedpoly.apply_ring_map"),
    ("gradedpoly", "graded_basis", "gradedpoly.graded_basis"),
    ("gradedpoly", "reduce_mod_ideal", "gradedpoly.reduce_mod_ideal"),
    ("numberring", "FieldElement.__mul__", "numberring.mul"),
    ("numberring", "FieldElement.inverse", "numberring.inverse"),
    ("numberring", "valuation", "numberring.valuation"),
    ("numberring", "is_integral", "numberring.is_integral"),
    ("numberring", "ResidueElement.__mul__", "numberring.residue_mul"),
    ("torsion", "groebner_basis", "torsion.groebner_basis"),
    ("torsion", "normal_form", "torsion.normal_form"),
    ("torsion", "smith_normal_form", "torsion.smith_normal_form"),
    ("torsion", "realizability_obstruction", "torsion.realizability_obstruction"),
    ("modp", "fq_mul", "modp.fq_mul"),
    ("modp", "fq_inv", "modp.fq_inv"),
    ("modp", "factor_degrees", "modp.factor_degrees"),
]

# Per-layer metrics reported by the traced run: (name, unit).
LAYER_METRICS = [
    ("gradedpoly.mul.calls", "count"),
    ("gradedpoly.mul.self_s", "s"),
    ("gradedpoly.mul.terms_out", "count"),
    ("gradedpoly.mul.coeff_bits_max", "bits"),
    ("gradedpoly.pow.calls", "count"),
    ("gradedpoly.pow.self_s", "s"),
    ("numberring.mul.calls", "count"),
    ("numberring.mul.self_s", "s"),
    ("numberring.inverse.calls", "count"),
    ("numberring.inverse.self_s", "s"),
    ("numberring.valuation.calls", "count"),
    ("numberring.valuation.self_s", "s"),
    ("numberring.is_integral.calls", "count"),
    ("formal.hazewinkel_log.calls", "count"),
    ("formal.hazewinkel_log.self_s", "s"),
    ("formal.log_closed_form.self_s", "s"),
    ("gamma.compute_gamma.calls", "count"),
    ("gamma.compute_gamma.self_s", "s"),
    ("gamma.gamma_sharp_matrix.self_s", "s"),
    ("gamma.eventual_division_witness.self_s", "s"),
    ("gamma.poly_divide.self_s", "s"),
    ("gamma.order_preservation_check.self_s", "s"),
    ("gradedpoly.apply_ring_map.self_s", "s"),
    ("gradedpoly.graded_basis.self_s", "s"),
    ("gradedpoly.reduce_mod_ideal.self_s", "s"),
    ("torsion.groebner_basis.calls", "count"),
    ("torsion.groebner_basis.self_s", "s"),
    ("torsion.normal_form.calls", "count"),
    ("torsion.normal_form.self_s", "s"),
    ("torsion.smith_normal_form.calls", "count"),
    ("torsion.smith_normal_form.self_s", "s"),
    ("torsion.realizability_obstruction.self_s", "s"),
    ("numberring.residue_mul.calls", "count"),
    ("numberring.residue_mul.self_s", "s"),
    ("modp.fq_mul.calls", "count"),
    ("modp.fq_inv.calls", "count"),
    ("modp.factor_degrees.self_s", "s"),
    ("report.emit.self_s", "s"),
    ("report.emit.bytes", "bytes"),
    ("cli.run_command.self_s", "s"),
]


def _coeff_bits(c):
    """Largest numerator or denominator bit length in one coefficient."""
    if hasattr(c, "coords"):
        return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                    for row in c.coords for x in row), default=0)
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return max((int(x).bit_length() for x in getattr(c, "vec", ())), default=0)


def _poly_sizes(result):
    terms = result.terms
    return len(terms), max((_coeff_bits(c) for c in terms.values()), default=0)


# Layer -> (sizer of a call's result, name of the summed size, name of the
# maximum size or None).
SIZE_COUNTERS = {
    "gradedpoly.mul": (_poly_sizes, "terms_out", "coeff_bits_max"),
    "report.emit": (lambda text: (len(text.encode()), 0), "bytes", None),
}


class Tracer:
    """Spans of one process, in flat arrays indexed by span id."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.tail = array.array("d")  # counter time after `end`, not charged
        self.sizes = {}  # name -> [sum of first size, max of second size]
        self.stack = [-1]
        self.job_id = -1

    def wrap(self, fn, name):
        nid = self.names.index(name)
        sizer = SIZE_COUNTERS.get(name, (None,))[0]
        acc = self.sizes.setdefault(name, [0, 0]) if sizer else None
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.job.append(self.job_id)
            self.end.append(0.0)
            self.tail.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[sid] = t1
                stack.pop()
            if sizer is not None:
                first, second = sizer(result)
                acc[0] += first
                if second > acc[1]:
                    acc[1] = second
                self.tail[sid] = clock() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every target; call after importing fmcalc.cli."""
        mods = {name: importlib.import_module("fmcalc." + name)
                for name in {m for m, _, _ in TARGETS}}
        loaded = [m for key, m in sys.modules.items()
                  if key == "fmcalc" or key.startswith("fmcalc.")]
        for modname, attr, name in TARGETS:
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(mods[modname], clsname)
                orig = cls.__dict__[meth]
                wrapped = self.wrap(orig, name)
                for key, value in list(cls.__dict__.items()):
                    if value is orig:
                        setattr(cls, key, wrapped)
            else:
                orig = getattr(mods[modname], attr)
                wrapped = self.wrap(orig, name)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)

    def aggregate(self):
        """Per-layer calls, self time and size counters over all spans."""
        n = len(self.start)
        covered = [0.0] * n
        for sid in range(n):
            par = self.parent[sid]
            if par >= 0:
                covered[par] += self.end[sid] - self.start[sid] + self.tail[sid]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid in range(n):
            nid = self.name_id[sid]
            calls[nid] += 1
            self_s[nid] += self.end[sid] - self.start[sid] - covered[sid]
        out = {"spans": n}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid]
            out[name + ".self_s"] = self_s[nid]
        for name, (total, largest) in self.sizes.items():
            _, total_name, max_name = SIZE_COUNTERS[name]
            out[name + "." + total_name] = total
            if max_name:
                out[name + "." + max_name] = largest
        return out

    def write(self, path):
        """Write the spans as JSON: names plus one column per field."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "parent", "job", "start", "end"],
                "name": self.name_id.tolist(),
                "parent": self.parent.tolist(),
                "job": self.job.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            }, fh, separators=(",", ":"))
