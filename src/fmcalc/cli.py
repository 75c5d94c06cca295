"""Command-line front end.

Subcommands: tower check, log, gamma, verify <suite>, obstruct <module.json>,
splitting <poly> --pmax, localcoh <matrices.json>.  Exit code 0 on all-pass
or verdict produced, 1 on any check failure, 2 on usage/config errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import gamma as gammamod
from . import modp
from .errors import ConfigParseError, FmcalcError, UsageError
from .formal import hazewinkel_log, log_closed_form, log_entries, trivial_tower
from .gradedpoly import _monomials_of_weight, monomial_count
from .numberring import (
    TowerDescriptor,
    embed,
    find_nonsplit_prime,
    is_integer,
    is_prime,
    parse_integer,
)
from .report import emit

# ---------------------------------------------------------------------------
# Configuration


def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as ex:
        raise ConfigParseError("cannot read %s: %s" % (what, ex))


def load_config(path):
    if not path:
        return {}
    cfg = _read_json(path, "config " + path)
    if not isinstance(cfg, dict):
        raise ConfigParseError("config must be a JSON object")
    return cfg


# Integer settings: name -> (default, lowest accepted value).  Each is a
# --<name> flag (underscores become dashes) and a config key; a flag wins
# over the config file, and a value absent from both (or null) takes the
# default.
# f and e default to None: the degree of the polynomial given, else 1 (see
# _tower).  weight_bound defaults to None: the suites that read it work it
# out from q.
INTEGER_SETTINGS = {
    "p": (None, 2),
    "f": (None, 1),
    "e": (None, 1),
    "N": (6, 0),
    "weight_bound": (None, 0),
    "kmax": (20, 1),
    "mmax": (32, 0),
    "seed": (0, 0),
}


def _integer_setting(key, value):
    """A setting as an int: an integer number or integer text such as "2".
    Booleans, fractions and other text are refused, as are values below
    the setting's lowest."""
    low = INTEGER_SETTINGS[key][1]
    try:
        value = parse_integer(value)
    except ValueError:
        value = None
    if value is None or value < low:
        raise UsageError("%s must be an integer >= %d" % (key, low))
    return value


def resolve_settings(args):
    """Merge config file (or FMCALC_CONFIG) with flags; flags win.  Integer
    settings come back as ints, or None where unset and without default."""
    path = args.config or os.environ.get("FMCALC_CONFIG")
    cfg = load_config(path)
    settings = {
        "unram": cfg.get("unram"),
        "eis": cfg.get("eis"),
        "tower": cfg.get("tower"),
        "output": args.output or cfg.get("output", "json"),
    }
    for key, (default, _) in INTEGER_SETTINGS.items():
        value = getattr(args, key)
        if value is None:
            value = cfg.get(key)
        settings[key] = default if value is None else _integer_setting(key, value)
    for key in ("unram", "eis"):
        if getattr(args, key, None):
            settings[key] = str(getattr(args, key)).replace(",", " ").split()
    try:
        if settings["unram"]:
            settings["unram"] = tuple(parse_integer(c) for c in settings["unram"])
        if settings["eis"]:
            settings["eis"] = tuple(Fraction(str(c)) for c in settings["eis"])
    except (TypeError, ValueError, ZeroDivisionError) as ex:
        raise UsageError("bad polynomial coefficient: %s" % ex)
    return settings


def resolve_tower(settings):
    """Build the working tower from settings: an explicit tower JSON, built
    on each call, or the flag settings (see _tower)."""
    if settings.get("tower"):
        return TowerDescriptor.from_json(settings["tower"])
    if settings["p"] is None:
        raise UsageError("no tower: provide --p (with --f/--e/--unram/--eis) or a config tower")
    return _tower(settings["p"], settings["f"], settings["e"],
                  settings["unram"] or None, settings["eis"] or None)


@functools.lru_cache(maxsize=None)
def _tower(p, f, e, unram, eis):
    """The tower of flag settings (None where unset), with the default
    label: built once per process, and its structure constants and 1/pi
    with it.  The unramified polynomial is `unram`, else the smallest monic
    irreducible of degree f mod p; the Eisenstein one is `eis`, else x^e - p
    (x when e = 1).  A degree that is set must be that of its polynomial."""
    for name, degree, flag, poly in (("f", f, "unram", unram), ("e", e, "eis", eis)):
        if degree is not None and poly is not None and degree != len(poly) - 1:
            raise UsageError("%s = %d, but the %s polynomial has degree %d"
                             % (name, degree, flag, len(poly) - 1))
    if unram is None:
        # A composite p has no F_p to search; the constructor refuses it.
        unram = modp.smallest_irreducible(p, f) if f and is_prime(p) else (0, 1)
    if eis is None:
        eis = (-p,) + (0,) * (e - 1) + (1,) if e and e > 1 else (0, 1)
    return TowerDescriptor(p, unram, eis)


def _with_common(report, settings, tower=None):
    report = dict(report)
    report["seed"] = settings["seed"]
    if tower is not None:
        report["tower"] = tower.to_json()
        report["uniformizer"] = tower.uniformizer_name()
    return report


# Limits on the largest polynomial a gamma build makes, from measurements.
# e > 1: gamma(v_N), bounded by the monomials of weight p^N - 1.  Q2(x^2-2)
# at N = 8 has 42,987 (18 s), the f = e = 2 tower of Q2 at N = 12 85,689
# (126 s), Q3(x^3-3) at N = 7 401,983 (past 15 minutes).  e = 1: gamma(v_N)
# is v_{N/f} or 0, and the log coefficient l_{N//f} has 2^(N//f - 1) terms;
# N//f = 19 took 17 s and 501 MB, and each step up doubles both.
GAMMA_MONOMIAL_LIMIT = 50_000
GAMMA_LOG_LEVEL_LIMIT = 19


def _gamma_table(tower, N):
    """The gamma table the CLI reports: from Q_p, the base of the tower."""
    if tower.e == 1 and N // tower.f > GAMMA_LOG_LEVEL_LIMIT:
        raise UsageError("gamma to v_%d builds the log coefficient l_%d, above the limit "
                         "of l_%d" % (N, N // tower.f, GAMMA_LOG_LEVEL_LIMIT))
    count = tower.e > 1 and monomial_count(tower.q, N, tower.p ** N - 1, GAMMA_MONOMIAL_LIMIT)
    if count > GAMMA_MONOMIAL_LIMIT:
        raise UsageError("gamma(v_%d) lives in a weight piece of at least %d monomials, "
                         "above the limit of %d" % (N, count, GAMMA_MONOMIAL_LIMIT))
    return gammamod.compute_gamma(trivial_tower(tower.p), tower, N)


def _generators_within(q, N, weight_bound):
    """min(N, the largest n with q^n - 1 <= weight_bound): no monomial of
    weight at most the bound names a generator above it, so a report read
    in those weights alone is the same for every N from there on."""
    n = 0
    while n < N and q ** (n + 1) - 1 <= weight_bound:
        n += 1
    return n


# ---------------------------------------------------------------------------
# Verification suites: each takes (tower, N, settings) and returns a report
# without the suite name, which cmd_verify adds


def suite_log_oracle(tower, N, settings):
    rec = hazewinkel_log(tower, N)
    closed = log_closed_form(tower, N)
    failures = [n for n in range(N + 1) if rec[n] != closed[n]]
    return {
        "N": N,
        "passed": not failures,
        "failures": failures,
        "entries": rec.to_json()["entries"],
    }


def suite_unramified(tower, N, settings):
    table = _gamma_table(tower, N)
    rep = gammamod.check_unramified_formula(table)
    rep["images"] = {str(n): table.image(n).to_json(N) for n in range(1, N + 1)}
    return rep


def suite_low_degree(tower, N, settings):
    """gamma(v_1), gamma(v_2) against the closed low-degree formulas for a
    totally ramified extension of the base."""
    table = _gamma_table(tower, max(N, 2)).totally_ramified("low-degree check")
    pi_a = embed(table.source.uniformizer(), tower)
    pi_b = tower.uniformizer()
    q = table.source.q
    ring = table.target_ring
    expected1 = ring.gen(1).scale(pi_a / pi_b)
    expected2 = ring.gen(2).scale(pi_a / pi_b) + ring.gen(1, q + 1).scale(
        pi_a / pi_b ** 2 - pi_a ** q / pi_b ** (q + 1)
    )
    ok1 = table.image(1) == expected1
    ok2 = table.image(2) == expected2

    def side(computed, expected, match):
        return {"computed": computed.to_json(table.N), "expected": expected.to_json(table.N),
                "match": match}

    return {
        "passed": ok1 and ok2,
        "gamma_v1": side(table.image(1), expected1, ok1),
        "gamma_v2": side(table.image(2), expected2, ok2),
    }


def suite_rational_iso(tower, N, settings):
    wb = settings["weight_bound"]
    weight_bound = tower.q ** 3 - 1 if wb is None else wb
    return _rational_iso_report(tower, _generators_within(tower.q, N, weight_bound), weight_bound)


@functools.lru_cache(maxsize=None)
def _rational_iso_report(tower, N, weight_bound):
    """The rational-iso report, once per process for each equal tower, N
    (see _generators_within) and bound; it names no tower, and callers must
    not change it."""
    table = _gamma_table(tower, N).totally_ramified("rational isomorphism check")
    weights = {}
    passed = True
    for w in range(weight_bound + 1):
        rep = gammamod.gamma_sharp_matrix(table, w)
        passed = passed and rep["triangular"] and rep["injective"]
        weights[str(w)] = {
            "triangular": rep["triangular"],
            "injective": rep["injective"],
            "diagonal_valuations": rep["diagonal_valuations"],
            "basis_size": len(rep["basis"]),
        }
    return {
        "weight_bound": weight_bound,
        "passed": passed,
        "weights": weights,
    }


def suite_kappa(tower, N, settings):
    table = _gamma_table(tower, N).totally_ramified("kappa congruence")
    n = table.e_rel
    results = []
    passed = True
    for j in range(1, N // n + 1):
        try:
            rep = gammamod.kappa_congruence(table, j)
            results.append(rep)
        except FmcalcError as ex:
            passed = False
            results.append({"j": j, "passed": False, "error": str(ex)})
    return {"n": n, "passed": passed, "checks": results}


def suite_eventual_division(tower, N, settings):
    # Each scan at n reads gamma(v_{n+1}) and tries m = 1..mmax; below N = 2
    # or at mmax = 0 it scans nothing, and a pass would check nothing.
    if N < 2:
        raise UsageError("verify eventual-division needs N >= 2")
    m_max = settings["mmax"]
    if m_max < 1:
        raise UsageError("verify eventual-division needs mmax >= 1")
    table = _gamma_table(tower, N)
    results = [gammamod.eventual_division_witness(table, n, m_max) for n in range(1, min(N, 3))]
    return {
        "m_max": m_max,
        "passed": True,  # raw search outcomes; no theorem asserted here
        "witnesses": results,
    }


def suite_ordering(tower, N, settings):
    wb = settings["weight_bound"]
    weight_bound = 2 * (tower.q ** 2 - 1) if wb is None else wb
    # Below these limits the one monomial to sample is 1 (see
    # _generators_within), and a pass would compare nothing.
    if N == 0 or weight_bound < tower.q - 1:
        raise UsageError("verify ordering needs N >= 1 and a weight bound >= q - 1 = %d"
                         % (tower.q - 1))
    return _ordering_report(tower, _generators_within(tower.q, N, weight_bound), weight_bound,
                            settings["seed"])


@functools.lru_cache(maxsize=None)
def _ordering_report(tower, N, weight_bound, seed):
    """The ordering report, cached as _rational_iso_report is."""
    return gammamod.order_preservation_check(_gamma_table(tower, N), 100, weight_bound, seed=seed)


VERIFY_SUITES = {
    "log-oracle": suite_log_oracle,
    "unramified": suite_unramified,
    "low-degree": suite_low_degree,
    "rational-iso": suite_rational_iso,
    "kappa": suite_kappa,
    "eventual-division": suite_eventual_division,
    "ordering": suite_ordering,
}


# ---------------------------------------------------------------------------
# Polynomial string parsing for `splitting`


def parse_poly_string(text):
    """Parse expressions like "x^3-2" or "x^2 + x + 1" into integer
    coefficients, constant first.  A term is an optional sign and then an
    integer, x^k or an integer times x^k (x alone for x^1); every term after
    the first starts with its sign."""
    import re

    cleaned = text.replace(" ", "").replace("*", "")
    if not cleaned:
        raise UsageError("empty polynomial")
    parts = re.split(r"(?=[+-])", cleaned)
    if not parts[0]:  # the text starts with a sign
        del parts[0]
    coeffs = {}
    for part in parts:
        m = re.fullmatch(r"([+-]?)(\d*)(?:(x)(?:\^(\d+))?)?", part)
        if not m or not (m[2] or m[3]):
            raise UsageError("cannot parse polynomial term %r" % part)
        sign, digits, x, exp = m.groups()
        c = int(digits or 1)
        k = (int(exp) if exp else 1) if x else 0
        coeffs[k] = coeffs.get(k, 0) + (-c if sign == "-" else c)
    deg = max(coeffs)
    return [coeffs.get(i, 0) for i in range(deg + 1)]


# ---------------------------------------------------------------------------
# Commands


def cmd_tower(args, settings):
    tower = resolve_tower(settings)
    report = _with_common(
        {
            "command": "tower check",
            "valid": True,
            "p": tower.p,
            "e": tower.e,
            "f": tower.f,
            "q": tower.q,
            "degree": tower.d,
        },
        settings,
        tower,
    )
    return report, 0


def cmd_log(args, settings):
    tower = resolve_tower(settings)
    N = settings["N"]
    logs = hazewinkel_log(tower, N)
    report = _with_common({"command": "log", "N": N, "log": logs.to_json()}, settings, tower)
    return report, 0


def cmd_gamma(args, settings):
    tower = resolve_tower(settings)
    table = _gamma_table(tower, settings["N"])
    report = _with_common({"command": "gamma", "table": table.to_json()}, settings, tower)
    return report, 0


def cmd_verify(args, settings):
    tower = resolve_tower(settings)
    report = VERIFY_SUITES[args.suite](tower, settings["N"], settings)
    report = _with_common({"command": "verify", "suite": args.suite} | report, settings, tower)
    return report, 0 if report.get("passed", False) else 1


def cmd_obstruct(args, settings):
    spec = _read_json(args.module_spec, "module spec")
    from . import torsion

    module = torsion.CyclicModulePresentation.from_json(spec)
    cert = torsion.realizability_obstruction(
        module, k_max=settings["kmax"], m_max=settings["mmax"]
    )
    report = _with_common(
        {"command": "obstruct", "module": module.to_json(), "certificate": cert.to_json()},
        settings,
    )
    return report, 0


def cmd_splitting(args, settings):
    if args.pmax < 2:
        raise UsageError("pmax must be an integer >= 2")
    poly = parse_poly_string(args.poly)
    report = {"command": "splitting", "poly": poly, "p_max": args.pmax}
    try:
        found = find_nonsplit_prime(poly, args.pmax)
    except FmcalcError as ex:
        scan = getattr(ex, "scan_table", [])
        report |= {"found": False, "error": str(ex), "scan_table": [r.to_json() for r in scan]}
        return _with_common(report, settings), 1
    report |= {"found": True, "report": found.to_json()}
    return _with_common(report, settings), 0


def _read_presentations(spec):
    """The {degree: matrix} object of a matrices file, checked: each matrix
    a list of rows of integers (integral floats included), all rows of one
    length."""
    degrees = spec.get("degrees", {}) if isinstance(spec, dict) else None
    if not isinstance(degrees, dict):
        raise ConfigParseError("matrices file must be an object with a 'degrees' object")
    for degree, matrix in degrees.items():
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise ConfigParseError("degree %s: a matrix must be a list of rows" % degree)
        if len({len(row) for row in matrix}) > 1:
            raise ConfigParseError("degree %s: matrix rows differ in length" % degree)
        if not all(is_integer(x) for row in matrix for x in row):
            raise ConfigParseError("degree %s: matrix entries must be integers" % degree)
    return degrees


def cmd_localcoh(args, settings):
    spec = _read_json(args.matrices, "matrices file")
    degrees = _read_presentations(spec)
    try:
        p = parse_integer(spec.get("p", settings["p"] or 0))
    except ValueError:
        raise ConfigParseError("matrices file: p must be an integer")
    if not is_prime(p):
        raise UsageError("localcoh requires a prime p in the JSON or via --p")
    from . import torsion

    rep = torsion.local_cohomology_degreewise(degrees, p)
    report = _with_common({"command": "localcoh"} | rep, settings)
    return report, 0


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every run_command call can share it."""
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file (or FMCALC_CONFIG)")
    for key in INTEGER_SETTINGS:
        common.add_argument("--" + key.replace("_", "-"), dest=key, type=int)
    common.add_argument("--unram", help="unramified polynomial coefficients, constant first")
    common.add_argument("--eis", help="Eisenstein polynomial coefficients, constant first")
    common.add_argument("--output", choices=("json", "text"))

    # The common options belong to the subcommands alone: given before the
    # subcommand name they are refused, not overwritten by its defaults.
    parser = _Parser(prog="fmcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, func, arguments in (
        ("tower", cmd_tower, [("action", {"choices": ("check",)})]),
        ("log", cmd_log, []),
        ("gamma", cmd_gamma, []),
        ("verify", cmd_verify, [("suite", {"choices": VERIFY_SUITES})]),
        ("obstruct", cmd_obstruct, [("module_spec", {})]),
        ("splitting", cmd_splitting, [("poly", {}), ("--pmax", {"type": int, "default": 100})]),
        ("localcoh", cmd_localcoh, [("matrices", {})]),
    ):
        subparser = sub.add_parser(name, parents=[common])
        for argument, options in arguments:
            subparser.add_argument(argument, **options)
        subparser.set_defaults(func=func)
    return parser


# Every cache that carries work from one call of main to the next in a
# process.  A fresh interpreter starts with all of them empty, and
# tools/workcount.py clears them between jobs to count as one does.
PROCESS_CACHES = (log_entries, trivial_tower, gammamod.gamma_images,
                  _monomials_of_weight, _tower,
                  _rational_iso_report, _ordering_report, build_parser)


def run_command(argv):
    """Run one CLI invocation; returns the exit code and writes the report
    to stdout (diagnostics to stderr)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("no subcommand given")
        settings = resolve_settings(args)
        report, code = args.func(args, settings)
        sys.stdout.write(emit(report, settings["output"]))
        return code
    except (UsageError, ConfigParseError) as ex:
        sys.stderr.write("fmcalc: error: %s\n" % ex)
        return 2
    except FmcalcError as ex:
        sys.stderr.write("fmcalc: %s: %s\n" % (type(ex).__name__, ex))
        return 1


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
