"""Command line front end.

Three modes: `verify` runs the exact-arithmetic suites, `solve` evaluates
the contour-integral solution over a lambda grid, `residuals` recomputes
residuals for an earlier solve report or an inline configuration.

Configuration is a JSON file parsed strictly: unknown keys are rejected so
a typo cannot silently fall back to a default.  Command line flags override
file values.  Reports are JSON with a versioned schema; everything under
the "body" key is a deterministic function of the configuration and seed,
wall-clock timings live outside it.

Exit codes: 0 all checks pass, 1 a verification failure, 2 a configuration
or regime error, such as a non-finite number, a quadrature rule over its
node budget or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from . import __version__
from .sampling import SamplingExhausted
from .scalar_field import RATIONAL_BACKEND
from . import suites as suite_mod

SCHEMA_VERSION = 1
MATCH_TOLERANCE = 1e-12
# Input bounds, checked before any work starts: the solver builds operators
# over the whole space of dimension (2*half_dim)^n, and max_refine counts
# halvings of the trapezoidal step, each of which doubles the node count.
DIM_BUDGET = 256
MAX_REFINE_CAP = 6


class ConfigError(ValueError):
    """Malformed configuration: unknown key, wrong type, missing field."""


_TOP_KEYS = {"mode", "model", "verify", "solve", "output"}
_MODEL_KEYS = {"n", "half_dim", "c", "k", "y"}
_VERIFY_KEYS = {"suites", "samples", "seed"}
_SOLVE_KEYS = {
    "lambda_grid",
    "degrees",
    "rtol",
    "atol",
    "panels_per_unit",
    "max_refine",
    "tolerance",
}
_OUTPUT_KEYS = {"report", "csv"}
# Keys `residuals --in` reads from each stored solution.
_STORED_KEYS = ("lambda", "cycle", "qkz_residuals", "ode_residual")

_DEFAULT_LAMBDA_GRID = (-0.7, -0.35, -0.1, 0.15, 0.4)
_DEFAULT_Y = (0.3, -0.15, 0.2)


def _check_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError("%s must be an object" % where)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(
            "unknown key%s in %s: %s (allowed: %s)"
            % ("s" if len(unknown) > 1 else "", where, ", ".join(unknown),
               ", ".join(sorted(allowed)))
        )


def _is_int(value) -> bool:
    """An integer, not a bool: JSON true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float, not a bool: json reads NaN, Infinity and 1e999
    as floats, and an int too large for a float is no usable number."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _as_complex(value, where: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    raise ConfigError("%s must be a number or a [re, im] pair" % where)


def default_config() -> dict:
    return {
        "mode": "verify",
        "model": {
            "n": 1,
            "half_dim": 2,
            "c": [0.1, 0.2],
            "k": [0.05, 1.0],
            "y": None,
        },
        "verify": {"suites": None, "samples": None, "seed": 0},
        "solve": {
            "lambda_grid": list(_DEFAULT_LAMBDA_GRID),
            "degrees": None,
            "rtol": 1e-9,
            "atol": 1e-14,
            "panels_per_unit": 4.0,
            "max_refine": 5,
            "tolerance": 1e-7,
        },
        "output": {"report": None, "csv": None},
    }


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s %s: %s" % (what, path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("%s %s is not valid JSON: %s" % (what, path, exc))


def load_config(path: str | None) -> dict:
    """Read and strictly validate a config file, merged over defaults."""
    merged = default_config()
    if path is None:
        return merged
    raw = _read_json(path, "config file")
    _check_keys(raw, _TOP_KEYS, "config")
    if "mode" in raw:
        if raw["mode"] not in ("verify", "solve", "residuals"):
            raise ConfigError("mode must be verify, solve or residuals")
        merged["mode"] = raw["mode"]
    for section, allowed in (
        ("model", _MODEL_KEYS),
        ("verify", _VERIFY_KEYS),
        ("solve", _SOLVE_KEYS),
        ("output", _OUTPUT_KEYS),
    ):
        if section in raw:
            _check_keys(raw[section], allowed, section)
            merged[section].update(raw[section])
    _validate_config(merged)
    return merged


def _validate_config(cfg: dict):
    model = cfg["model"]
    if not _is_int(model["n"]) or model["n"] < 1:
        raise ConfigError("model.n must be a positive integer")
    if not _is_int(model["half_dim"]) or model["half_dim"] < 1:
        raise ConfigError("model.half_dim must be a positive integer")
    dim = 1
    for _ in range(model["n"]):
        dim *= 2 * model["half_dim"]
        if dim > DIM_BUDGET:
            raise ConfigError(
                "model.n and model.half_dim give a space of dimension (2*half_dim)^n "
                "above the budget of %d" % DIM_BUDGET
            )
    _as_complex(model["c"], "model.c")
    _as_complex(model["k"], "model.k")
    if model["y"] is not None:
        if not isinstance(model["y"], list) or not all(map(_is_real, model["y"])):
            raise ConfigError("model.y must be a list of real numbers")
        if len(model["y"]) != model["n"]:
            raise ConfigError("model.y must have model.n entries")
    ver = cfg["verify"]
    if ver["suites"] is not None:
        if not isinstance(ver["suites"], list):
            raise ConfigError("verify.suites must be a list of suite names")
        for name in ver["suites"]:
            suite_mod.check_name(name)
    if ver["samples"] is not None and (not _is_int(ver["samples"]) or ver["samples"] < 1):
        raise ConfigError("verify.samples must be a positive integer")
    if not _is_int(ver["seed"]) or ver["seed"] < 0:
        raise ConfigError("verify.seed must be a non-negative integer")
    sol = cfg["solve"]
    if not isinstance(sol["lambda_grid"], list) or not sol["lambda_grid"]:
        raise ConfigError("solve.lambda_grid must be a non-empty list")
    for v in sol["lambda_grid"]:
        _as_complex(v, "solve.lambda_grid entries")
    if sol["degrees"] is not None:
        _as_cycle(sol["degrees"], "solve.degrees")
    for field in ("rtol", "atol", "tolerance", "panels_per_unit"):
        if not _is_real(sol[field]) or sol[field] <= 0:
            raise ConfigError("solve.%s must be a positive number" % field)
    if not _is_int(sol["max_refine"]) or sol["max_refine"] < 0:
        raise ConfigError("solve.max_refine must be a non-negative integer")
    if sol["max_refine"] > MAX_REFINE_CAP:
        raise ConfigError("solve.max_refine must be at most %d" % MAX_REFINE_CAP)
    for field in ("report", "csv"):
        if cfg["output"][field] is not None and not isinstance(cfg["output"][field], str):
            raise ConfigError("output.%s must be a path string" % field)


def _versions() -> dict:
    return {
        "package": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "rational_backend": RATIONAL_BACKEND,
        "schema": SCHEMA_VERSION,
    }


def _check_output(path: str | None, key: str):
    """Refuse an output path whose file cannot be written, before any work."""
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError("cannot write %s to %s" % (key, path))


def _write_output(path: str, key: str, text: str):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s to %s: %s" % (key, path, exc.strerror or exc))


def _write_report(path: str | None, cfg: dict, timing: dict, seed=None, suites=(),
                  solutions=()):
    """Write the versioned report; everything under "body" is deterministic."""
    if path is None:
        return
    report = {
        "schema_version": SCHEMA_VERSION,
        "body": {
            "config": cfg,
            "seed": seed,
            "versions": _versions(),
            "suites": list(suites),
            "solutions": list(solutions),
        },
        "timing": timing,
    }
    _write_output(path, "output.report", json.dumps(report, indent=2, sort_keys=True) + "\n")


def _default_y(n: int) -> list:
    if n <= len(_DEFAULT_Y):
        return list(_DEFAULT_Y[:n])
    return [0.3 - 0.45 * i for i in range(n)]


def _solver_params(cfg: dict, lam: complex):
    from .integral_solver import SolverParams

    model = cfg["model"]
    sol = cfg["solve"]
    y = model["y"] if model["y"] is not None else _default_y(model["n"])
    return SolverParams(
        n=model["n"],
        lam=lam,
        c=_as_complex(model["c"], "model.c"),
        k=_as_complex(model["k"], "model.k"),
        y=tuple(y),
        half_dim=model["half_dim"],
        panels_per_unit=float(sol["panels_per_unit"]),
        max_refine=sol["max_refine"],
        rtol=float(sol["rtol"]),
        atol=float(sol["atol"]),
    )


def _as_cycle(terms, where: str):
    """Cycle from a list of [degree, coefficient] pairs."""
    from .integral_solver import CycleW

    if not isinstance(terms, list) or not terms:
        raise ConfigError("%s must be a non-empty list" % where)
    for term in terms:
        if not (isinstance(term, list) and len(term) == 2 and _is_int(term[0])):
            raise ConfigError("%s entries must be [degree, coefficient]" % where)
    return CycleW(tuple((d, _as_complex(cf, where + " coefficients")) for d, cf in terms))


def _cycle_for(cfg: dict, lam: complex):
    degrees = cfg["solve"]["degrees"]
    if degrees is None:
        degrees = [[math.floor(lam.real) + 1, 1]]
    return _as_cycle(degrees, "solve.degrees")


def _grid_reports(points):
    """Integrate the (cycle, params) points of a lambda grid on one rule,
    compute their residuals in one pass and assemble each point's report;
    returns (reports, timing).  The only route by which the CLI runs the
    solver, so only a solve or a recheck loads numpy."""
    import numpy as np

    from .integral_solver import grid_residuals, grid_solutions, residual_report

    # The solver reports an integrand that overflows as a QuadratureError,
    # so numpy's per-operation warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        start = time.perf_counter()
        solved = grid_solutions(points)
        timing = {"quadrature": time.perf_counter() - start}
        start = time.perf_counter()
        residuals = grid_residuals(points, solved)
        timing["residuals"] = time.perf_counter() - start
        reports = []
        for (cycle, params), sols, res in zip(points, solved, residuals):
            start = time.perf_counter()
            reports.append(residual_report(cycle, params, sols, res))
            timing["lambda=%r" % params.lam] = time.perf_counter() - start
    return reports, timing


def _solve_grid(cfg: dict):
    """Solve the whole lambda grid through _grid_reports and print one
    residual line per lambda; returns (grid, solutions, timing)."""
    grid = [_as_complex(v, "solve.lambda_grid entries") for v in cfg["solve"]["lambda_grid"]]
    points = [(_cycle_for(cfg, lam), _solver_params(cfg, lam)) for lam in grid]
    solutions, timing = _grid_reports(points)
    for lam, entry in zip(grid, solutions):
        print(
            "lambda=%g%+gi max_qkz=%.3e ode=%.3e ftilde=%.3e"
            % (lam.real, lam.imag, entry["max_qkz_residual"],
               entry["ode_residual"], entry["ftilde_residual"])
        )
    return grid, solutions, timing


def _report_grid(cfg: dict, solutions: list, timing: dict) -> int:
    """Write the grid's report, print its worst residual, and exit 0 iff that
    is within the tolerance."""
    _write_report(cfg["output"]["report"], cfg, timing, solutions=solutions)
    tolerance = cfg["solve"]["tolerance"]
    worst = max(
        max(entry["max_qkz_residual"], entry["ode_residual"], entry["ftilde_residual"])
        for entry in solutions
    )
    print("worst residual %.3e (tolerance %g)" % (worst, tolerance))
    return 0 if worst <= tolerance else 1


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.suite:
        cfg["verify"]["suites"] = list(args.suite)
    if args.seed is not None:
        cfg["verify"]["seed"] = args.seed
    if args.samples is not None:
        cfg["verify"]["samples"] = args.samples
    if args.out is not None:
        cfg["output"]["report"] = args.out
    _validate_config(cfg)
    _check_output(cfg["output"]["report"], "output.report")
    names = cfg["verify"]["suites"] or list(suite_mod.suite_names())
    seed = cfg["verify"]["seed"]
    samples = cfg["verify"]["samples"]

    results = []
    timing = {}
    for result, elapsed in suite_mod.run_suites(names, samples=samples, seed=seed):
        results.append(result)
        timing[result.name] = elapsed
        flag = "pass" if result.exact_zero else "FAIL"
        print(
            "%-4s %-18s exact_zero=%-5s samples=%-4d [%s]"
            % (flag, result.name, result.exact_zero, result.samples, result.anchor)
        )
        for note in result.notes:
            print("     defect: %s" % note)
    _write_report(cfg["output"]["report"], cfg, timing, seed=seed,
                  suites=[r.body() for r in results])
    return 0 if all(r.exact_zero for r in results) else 1


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if args.out_csv is not None:
        cfg["output"]["csv"] = args.out_csv
    if args.out_json is not None:
        cfg["output"]["report"] = args.out_json
    if cfg["output"]["csv"] is None or cfg["output"]["report"] is None:
        raise ConfigError("solve needs --out-csv and --out-json (or output.csv/output.report)")
    for key in ("csv", "report"):
        _check_output(cfg["output"][key], "output." + key)

    grid, solutions, timing = _solve_grid(cfg)
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(["lambda_re", "lambda_im", "j", "coeff_re", "coeff_im"])
    for lam, entry in zip(grid, solutions):
        for j, (re, im) in enumerate(entry["coefficients"], start=1):
            writer.writerow([lam.real, lam.imag, j, re, im])
    _write_output(cfg["output"]["csv"], "output.csv", table.getvalue())
    return _report_grid(cfg, solutions, timing)


def _recheck(path: str) -> int:
    """Recompute every solution stored in a solve report, its lambdas as one
    grid; exit 0 iff each matches its stored residuals."""
    prior = _read_json(path, "input report")
    try:
        cfg = prior["body"]["config"]
        entries = prior["body"]["solutions"]
        _validate_config(cfg)
    except (KeyError, TypeError):
        raise ConfigError("input report lacks body.config / body.solutions")
    if not entries:
        raise ConfigError("input report has no solutions to recompute")
    sites = {str(m) for m in range(1, cfg["model"]["n"] + 1)}
    stored = []
    for entry in entries:
        missing = [key for key in _STORED_KEYS if not isinstance(entry, dict) or key not in entry]
        if missing:
            raise ConfigError("stored solution lacks %s" % ", ".join(missing))
        lam = _as_complex(entry["lambda"], "stored solution lambda")
        qkz = entry["qkz_residuals"]
        if not (isinstance(qkz, dict) and set(qkz) == sites
                and all(map(_is_real, qkz.values()))):
            raise ConfigError("stored solution qkz_residuals must map each site to a number")
        for key in ("ode_residual", "ftilde_residual"):
            if key in entry and not _is_real(entry[key]):
                raise ConfigError("stored solution %s must be a number" % key)
        stored.append((entry, lam, _as_cycle(entry["cycle"], "stored solution cycle")))
    # The stored grid is integrated again as one rule, so the recheck
    # evaluates the same node set as the solve.
    points = [(cycle, _solver_params(cfg, lam)) for _, lam, cycle in stored]
    fresh_reports, _ = _grid_reports(points)
    ok = True
    for (entry, _, _), (_, params), fresh in zip(stored, points, fresh_reports):
        drift = max(
            abs(fresh["qkz_residuals"][m] - entry["qkz_residuals"][m])
            for m in entry["qkz_residuals"]
        )
        drift = max(drift, abs(fresh["ode_residual"] - entry["ode_residual"]))
        if "ftilde_residual" in entry:
            drift = max(drift, abs(fresh["ftilde_residual"] - entry["ftilde_residual"]))
        matched = drift <= MATCH_TOLERANCE
        ok = ok and matched
        print(
            "lambda=%g%+gi recompute drift %.3e %s"
            % (params.lam.real, params.lam.imag, drift,
               "matches" if matched else "DIFFERS")
        )
    return 0 if ok else 1


def cmd_residuals(args) -> int:
    if args.infile is None and args.config is None:
        raise ConfigError("residuals needs --in <report> or --config <file>")
    if args.infile is not None:
        return _recheck(args.infile)
    cfg = load_config(args.config)
    _check_output(cfg["output"]["report"], "output.report")
    _, solutions, timing = _solve_grid(cfg)
    return _report_grid(cfg, solutions, timing)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqkz",
        description="certify transport identities exactly and evaluate the "
        "contour-integral solution numerically",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run exact certification suites")
    p_verify.add_argument("--config", help="JSON configuration file")
    p_verify.add_argument(
        "--suite", action="append", help="suite name, repeatable (default: all)"
    )
    p_verify.add_argument("--seed", type=int, help="run seed (overrides config)")
    p_verify.add_argument(
        "--samples", type=int, help="samples per suite (overrides config)"
    )
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_solve = sub.add_parser("solve", help="evaluate the solution on a lambda grid")
    p_solve.add_argument("--config", help="JSON configuration file")
    p_solve.add_argument("--out-csv", help="coefficient table destination")
    p_solve.add_argument("--out-json", help="JSON report destination")
    p_solve.set_defaults(func=cmd_solve)

    p_res = sub.add_parser(
        "residuals", help="recompute residuals from a report or a config"
    )
    p_res.add_argument("--in", dest="infile", help="prior solve report to recheck")
    p_res.add_argument("--config", help="JSON configuration file")
    p_res.set_defaults(func=cmd_residuals)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, SamplingExhausted) as exc:
        kind = "overflow: " if isinstance(exc, OverflowError) else ""
        print("error: %s%s" % (kind, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
