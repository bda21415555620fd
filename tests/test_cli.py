"""Command line surface: config handling, reports, exit codes."""

import collections
import csv
import json
import re
import time

import pytest

from bqkz import cli, compat_ops, integral_solver, rqkz, suites
from bqkz.cli import ConfigError, default_config, load_config


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def body_text(path):
    with open(path) as fh:
        report = json.load(fh)
    return json.dumps(report["body"], sort_keys=True)


# ------------------------------------------------------------------ config


def test_default_config_is_self_consistent():
    assert load_config(None) == default_config()


def test_unknown_config_key_is_rejected(tmp_path):
    path = write_json(tmp_path / "cfg.json", {"solve": {"panels": 3}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "unknown key" in str(err.value)
    assert "panels_per_unit" in str(err.value)


def test_config_value_validation(tmp_path):
    bad = [
        {"model": {"n": 0}},
        {"model": {"c": "x"}},
        {"verify": {"seed": -1}},
        {"solve": {"lambda_grid": []}},
        {"solve": {"degrees": [[1.5, 1.0]]}},
        {"output": {"csv": 7}},
        {"mode": "other"},
        {"mode": "solve"},
    ]
    for i, raw in enumerate(bad):
        path = write_json(tmp_path / ("bad%d.json" % i), raw)
        with pytest.raises(ConfigError):
            load_config(path)


# ------------------------------------------------------------------ verify


def test_verify_runs_named_suites(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "--suite", "ybe", "--suite", "phi-iso",
         "--samples", "4", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("pass")]
    assert len(lines) == 2
    with open(out) as fh:
        report = json.load(fh)
    assert sorted(report) == ["body", "schema_version", "timing"]
    assert sorted(report["body"]) == [
        "config", "seed", "solutions", "suites", "versions",
    ]
    names = [entry["name"] for entry in report["body"]["suites"]]
    assert names == ["ybe", "phi-iso"]
    for entry in report["body"]["suites"]:
        assert entry["exact_zero"] is True
        assert entry["failures"] == 0
    assert report["body"]["versions"]["schema"] == cli.SCHEMA_VERSION


def test_verify_line_prints_seconds_per_sample_and_the_body_holds_no_time(tmp_path, capsys):
    """Each suite's line ends its counts with s_per_sample, its timing entry
    over its sample count; the report body holds no time."""
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "ybe", "--suite", "phi-iso",
                     "--samples", "3", "--seed", "7", "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("pass")]
    with open(out) as fh:
        report = json.load(fh)
    for line, name in zip(lines, ("ybe", "phi-iso"), strict=True):
        printed = re.search(r" samples=3 +s_per_sample=(\S+) +\[", line).group(1)
        assert float(printed) > 0
        assert printed == "%.3g" % (report["timing"][name] / 3)
    assert "s_per_sample" not in json.dumps(report["body"])
    assert all(sorted(entry) == ["anchor", "exact_zero", "failures", "name", "notes",
                                 "samples", "sizes"] for entry in report["body"]["suites"])


def test_verify_is_deterministic(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "ybe", "--suite", "unitarity",
            "--samples", "4", "--seed", "11", "--out", str(out)]
    assert cli.main(list(argv)) == 0
    first = body_text(out)
    assert cli.main(list(argv)) == 0
    assert body_text(out) == first


def test_verify_unknown_suite_name(capsys):
    code = cli.main(["verify", "--suite", "nope"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nope" in err and "ybe" in err


def test_bad_suite_name_in_config_or_flag_gives_one_message(tmp_path, capsys):
    """A bad verify.suites entry and a bad --suite are rejected by the same
    check: exit 2 and the same list of valid names."""
    path = write_json(tmp_path / "cfg.json", {"verify": {"suites": ["nope"]}})
    assert cli.main(["verify", "--config", path]) == 2
    from_config = capsys.readouterr().err
    assert cli.main(["verify", "--suite", "nope"]) == 2
    from_flag = capsys.readouterr().err
    assert from_config == from_flag
    assert "valid names: " + ", ".join(sorted(suites.suite_names())) in from_flag


def test_verify_suites_must_be_a_non_empty_list_of_distinct_names(tmp_path, capsys):
    """An empty verify.suites and a suite named twice, in the config or by
    --suite, exit 2 before any suite runs; a repeat is named."""
    out = tmp_path / "report.json"
    path = write_json(tmp_path / "cfg.json", {"verify": {"suites": []}})
    assert cli.main(["verify", "--config", path, "--samples", "1", "--out", str(out)]) == 2
    empty = capsys.readouterr()
    assert empty.err == "error: verify.suites must be a non-empty list of suite names\n"
    assert empty.out == ""
    path = write_json(tmp_path / "cfg.json", {"verify": {"suites": ["ybe", "bybe", "ybe"]}})
    assert cli.main(["verify", "--config", path, "--samples", "1", "--out", str(out)]) == 2
    from_config = capsys.readouterr()
    argv = ["verify", "--suite", "ybe", "--suite", "ybe", "--samples", "1", "--out", str(out)]
    assert cli.main(argv) == 2
    from_flag = capsys.readouterr()
    assert from_config.err == from_flag.err == "error: verify.suites names 'ybe' more than once\n"
    assert from_config.out == from_flag.out == ""
    assert not out.exists()


def test_bad_samples_or_seed_flag_gives_the_config_message(tmp_path, capsys):
    """--samples and --seed obey the rules of verify.samples and verify.seed:
    exit 2 before any suite runs, with the message a bad config value gives."""
    for flag, value, key in (("--samples", 0, "samples"), ("--samples", -4, "samples"),
                             ("--seed", -1, "seed")):
        path = write_json(tmp_path / "cfg.json", {"verify": {key: value}})
        assert cli.main(["verify", "--config", path]) == 2
        from_config = capsys.readouterr()
        out = tmp_path / "report.json"
        assert cli.main(["verify", flag, str(value), "--out", str(out)]) == 2
        from_flag = capsys.readouterr()
        assert from_flag.err == from_config.err
        assert from_flag.err.startswith("error: verify.%s must be" % key)
        assert from_flag.out == ""
        assert not out.exists()


def test_samples_above_the_budget_are_rejected_in_the_config(tmp_path):
    """verify.samples is bounded like the other axes of the work."""
    path = write_json(tmp_path / "cfg.json", {"verify": {"samples": 10001}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == "verify.samples must be at most 10000"
    load_config(write_json(tmp_path / "edge.json", {"verify": {"samples": 10000}}))
    assert cli.SAMPLE_BUDGET == 10000


def test_samples_above_the_budget_exit_two_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    """A huge --samples is rejected by the config rule; no suite starts."""

    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(suites, "run_suites", no_run)
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "ybe", "--samples", "1000000000000", "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: verify.samples must be at most 10000\n"
    assert captured.out == ""
    assert not out.exists()


def _count_rules(monkeypatch) -> list:
    """A list that gains one entry each time a trapezoidal rule starts."""
    rules = []
    real = integral_solver._trapezoid
    monkeypatch.setattr(integral_solver, "_trapezoid",
                        lambda *args: rules.append(1) or real(*args))
    return rules


def test_a_grid_above_the_budget_exits_two_before_any_quadrature(tmp_path, capsys, monkeypatch):
    """solve.lambda_grid is bounded like the other axes of the work: 257
    lambdas exit 2 with one error line and no rule runs, while 256 pass
    the config check."""
    assert cli.GRID_BUDGET == 256
    rules = _count_rules(monkeypatch)
    grid = [round(0.05 + 0.001 * i, 3) for i in range(257)]
    path = write_json(tmp_path / "cfg.json",
                      {"model": {"n": 1}, "solve": {"lambda_grid": grid}})
    argv = ["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
            "--out-json", str(tmp_path / "s.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: solve.lambda_grid must have at most 256 entries\n"
    assert captured.out == "" and rules == []
    assert not (tmp_path / "c.csv").exists() and not (tmp_path / "s.json").exists()
    load_config(write_json(tmp_path / "edge.json", {"solve": {"lambda_grid": grid[:256]}}))


def test_a_stored_grid_above_the_budget_exits_two_before_any_quadrature(
        tmp_path, capsys, monkeypatch):
    """`residuals --in` bounds the stored solutions it would integrate as
    one grid by the same budget: a report whose one solution is repeated
    257 times exits 2 with one error line, and no rule runs."""
    path = write_json(tmp_path / "cfg.json",
                      {"model": {"n": 1}, "solve": {"lambda_grid": [0.25]}})
    json_path = tmp_path / "solve.json"
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(json_path)]) == 0
    capsys.readouterr()
    report = json.loads(json_path.read_text())
    report["body"]["solutions"] *= 257
    big = write_json(tmp_path / "big.json", report)
    rules = _count_rules(monkeypatch)
    assert cli.main(["residuals", "--in", big]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: input report body.solutions must have at most 256 entries\n"
    assert captured.out == "" and rules == []


@pytest.mark.parametrize("raw,message", [
    ({"model": {"n": True}, "verify": {"samples": True, "seed": False}},
     "model.n must be a positive integer"),
    ({"solve": {"degrees": [[1, True]]}},
     "solve.degrees coefficients must be a number or a [re, im] pair"),
    ({"model": {"n": 1, "y": [True]}}, "model.y must be a list of real numbers"),
    ({"model": {"c": True}}, "model.c must be a number or a [re, im] pair"),
    ({"model": {"k": [0.05, True]}}, "model.k must be a number or a [re, im] pair"),
    ({"verify": {"samples": True}}, "verify.samples must be a positive integer"),
    ({"verify": {"seed": False}}, "verify.seed must be a non-negative integer"),
    ({"solve": {"lambda_grid": [True]}},
     "solve.lambda_grid entries must be a number or a [re, im] pair"),
    ({"solve": {"degrees": [[True, 1.0]]}}, "solve.degrees entries must be [degree, coefficient]"),
    ({"solve": {"max_refine": True}}, "solve.max_refine must be an integer from 1 to 6"),
    ({"solve": {"rtol": True}}, "solve.rtol must be a positive number"),
    ({"solve": {"atol": True}}, "solve.atol must be a positive number"),
    ({"solve": {"tolerance": True}}, "solve.tolerance must be a positive number"),
    ({"solve": {"panels_per_unit": True}}, "solve.panels_per_unit must be a positive number"),
])
def test_a_bool_where_a_number_is_needed_exits_two(tmp_path, capsys, raw, message):
    """JSON true and false are ints to Python; the config takes neither as
    a number.  Each exits 2 with the message any bad value of that key
    gives, before any suite runs (one cheap suite is named in case one
    does run)."""
    path = write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--config", path, "--suite", "ybe", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ('{"model": {"n": 1, "y": [NaN]}, "solve": {"lambda_grid": [0.25]}}',
     "model.y must be a list of real numbers"),
    ('{"model": {"c": [NaN, 0.2]}}', "model.c must be a number or a [re, im] pair"),
    ('{"solve": {"lambda_grid": [Infinity]}}',
     "solve.lambda_grid entries must be a number or a [re, im] pair"),
    ('{"model": {"k": [1e999, 1.0]}}', "model.k must be a number or a [re, im] pair"),
    ('{"solve": {"rtol": -Infinity}}', "solve.rtol must be a positive number"),
])
def test_a_non_finite_number_exits_two(tmp_path, capsys, text, message):
    """json reads NaN, Infinity and 1e999 as floats; the config takes none
    of them as a number.  Each solve exits 2 with the key's message before
    any quadrature runs."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["solve", "--config", str(path), "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "s.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


def test_output_paths_are_checked_before_any_work(tmp_path, capsys, monkeypatch):
    """A report or table that cannot be written exits 2 before any suite or
    quadrature runs; a write that fails all the same exits 2 too."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(suites, "run_suite", no_work)
    monkeypatch.setattr(integral_solver, "grid_solutions", no_work)
    missing = str(tmp_path / "missing" / "out")
    good = str(tmp_path / "ok")
    runs = (
        (["verify", "--suite", "ybe", "--out", missing], "output.report"),
        (["solve", "--out-csv", missing, "--out-json", good], "output.csv"),
        (["solve", "--out-csv", good, "--out-json", str(tmp_path)], "output.report"),
        (["residuals", "--config", write_json(tmp_path / "cfg.json",
                                              {"output": {"report": missing}})],
         "output.report"),
    )
    for argv, key in runs:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write %s to " % key), argv
        assert captured.out == ""
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_check_output", lambda path, key: None)
    assert cli.main(["verify", "--suite", "ybe", "--samples", "1", "--out", missing]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output.report to ")


@pytest.mark.parametrize("argv,key", [
    (["verify", "--suite", "ybe", "--samples", "1", "--out", ""], "output.report"),
    (["verify", "--suite", "ybe", "--samples", "1", "--config", "{empty}"], "output.report"),
    (["solve", "--out-csv", "", "--out-json", "{good}"], "output.csv"),
    (["solve", "--out-csv", "{good}", "--out-json", ""], "output.report"),
    (["residuals", "--config", "{empty}"], "output.report"),
], ids=["verify-flag", "verify-config", "solve-csv", "solve-report", "residuals-config"])
def test_an_empty_output_path_exits_two_before_any_work(tmp_path, capsys, argv, key):
    """An empty output path, by flag or by config, exits 2 naming its key
    before any suite or quadrature runs: no suite line and no lambda line
    is printed."""
    paths = {"good": str(tmp_path / "ok"),
             "empty": write_json(tmp_path / "cfg.json", {"output": {"report": ""}})}
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write %s to " % key)
    assert not [line for line in captured.out.splitlines()
                if line.startswith(("pass", "FAIL")) or "lambda=" in line]


def test_solve_refuses_one_file_for_the_table_and_the_report(tmp_path, capsys, monkeypatch):
    """A CSV path and a report path that resolve to the same file, by
    flags, by config or through a link, exit 2 naming both keys before any
    quadrature, and nothing is written."""

    def no_work(*args, **kwargs):
        raise AssertionError("quadrature started before the output paths were checked")

    monkeypatch.setattr(integral_solver, "grid_solutions", no_work)
    out = tmp_path / "out"
    (tmp_path / "link").symlink_to(tmp_path)
    config = write_json(tmp_path / "cfg.json", {"output": {"csv": str(out), "report": str(out)}})
    for argv in (["solve", "--out-csv", str(out), "--out-json", str(out)],
                 ["solve", "--out-csv", str(out), "--out-json", str(tmp_path / "link" / "out")],
                 ["solve", "--config", config]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: output.csv and output.report "), argv
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()


# ------------------------------------------------------------------- solve


def test_solve_writes_csv_and_report(tmp_path, capsys):
    csv_path = tmp_path / "coeffs.csv"
    json_path = tmp_path / "solve.json"
    code = cli.main(
        ["solve", "--out-csv", str(csv_path), "--out-json", str(json_path)]
    )
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda_re", "lambda_im", "j", "coeff_re", "coeff_im"]
    assert len(rows) == 11
    with open(json_path) as fh:
        report = json.load(fh)
    solutions = report["body"]["solutions"]
    assert len(solutions) == 5
    for entry in solutions:
        assert entry["n"] == 1
        assert len(entry["coefficients"]) == 2
        assert entry["max_qkz_residual"] <= 1e-7
        assert entry["ode_residual"] <= 1e-7
        assert entry["ftilde_residual"] <= 1e-7
        assert set(entry["contour"]) == {
            "delta", "trunc", "poles_checked", "min_gap_above", "min_gap_below",
        }
    assert "worst residual" in capsys.readouterr().out


def test_solve_needs_output_paths(capsys):
    assert cli.main(["solve"]) == 2
    assert "out-csv" in capsys.readouterr().err


def test_solve_degree_violation(tmp_path, capsys):
    cfg = {
        "solve": {"lambda_grid": [0.25], "degrees": [[9, 1.0]]},
    }
    path = write_json(tmp_path / "cfg.json", cfg)
    code = cli.main(
        ["solve", "--config", path,
         "--out-csv", str(tmp_path / "c.csv"), "--out-json", str(tmp_path / "r.json")]
    )
    assert code == 2
    assert "convergence window" in capsys.readouterr().err


def test_solve_failing_tolerance_exits_one(tmp_path, capsys):
    cfg = {
        "solve": {"lambda_grid": [0.25], "tolerance": 1e-30},
    }
    path = write_json(tmp_path / "cfg.json", cfg)
    code = cli.main(
        ["solve", "--config", path,
         "--out-csv", str(tmp_path / "c.csv"), "--out-json", str(tmp_path / "r.json")]
    )
    assert code == 1
    capsys.readouterr()


def test_solve_integrates_the_grid_on_one_rule(tmp_path, capsys, monkeypatch):
    """A 4-lambda `bqkz solve` runs one trapezoidal rule, evaluates the
    lambda-independent kernel once at each of its kernel_evals nodes, gives
    each lambda's coefficients within 1e-12 of that lambda solved alone, and
    writes a body that a rerun reproduces bit for bit."""
    rules, nodes = [], []
    real_rule, real_kernel = integral_solver._trapezoid, integral_solver._log_kernel

    def counting_rule(values, params, contour, lams, names):
        rules.append(lams)
        return real_rule(values, params, contour, lams, names)

    def counting_kernel(t, *args):
        nodes.extend(t.tolist())
        return real_kernel(t, *args)

    grid = [-0.8, -0.35, 0.25, 0.7]
    path = write_json(tmp_path / "cfg.json", {"model": {"n": 2}, "solve": {"lambda_grid": grid}})
    argv = ["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
            "--out-json", str(tmp_path / "r.json")]
    monkeypatch.setattr(integral_solver, "_trapezoid", counting_rule)
    monkeypatch.setattr(integral_solver, "_log_kernel", counting_kernel)
    assert cli.main(argv) == 0
    monkeypatch.undo()
    assert rules == [[complex(lam) for lam in grid]]
    with open(tmp_path / "r.json") as fh:
        report = json.load(fh)
    entries = report["body"]["solutions"]
    assert set(report["timing"]) == ({"quadrature", "residuals"}
                                     | {"lambda=%r" % complex(lam) for lam in grid})
    cfg = load_config(path)
    widened = 0
    for lam, entry in zip(grid, entries):
        quad = entry["quadrature"]
        assert quad["lambdas"] == 4
        assert quad["kernel_evals"] == len(nodes) == len(set(nodes))
        (alone,), _ = cli._grid_reports(
            [(cli._cycle_for(cfg, complex(lam)), cli._solver_params(cfg, complex(lam)))])
        got = [complex(*v) for v in entry["coefficients"]]
        want = [complex(*v) for v in alone["coefficients"]]
        top = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * top, lam
        widened += alone["quadrature"]["panels"] < quad["panels"]
    assert widened > 0
    first = body_text(tmp_path / "r.json")
    assert cli.main(argv) == 0
    assert body_text(tmp_path / "r.json") == first
    capsys.readouterr()


def test_solve_builds_the_lambda_independent_operators_once(tmp_path, capsys, monkeypatch):
    """A 4-lambda n = 2 `bqkz solve` builds op_A's terms and every transport
    factor but the coordinate reflection Kx once for the grid, and n Kx
    factors and op_B's terms once for each lambda."""
    builds = collections.Counter()

    def counted(name, real):
        def wrapper(*args):
            builds[name(args)] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(rqkz, "_factor_op", counted(lambda args: args[0], rqkz._factor_op))
    for name in ("op_A_terms", "op_B_terms"):
        monkeypatch.setattr(compat_ops, name, counted(lambda args, name=name: name,
                                                      getattr(compat_ops, name)))
    grid, n = [-0.8, -0.35, 0.25, 0.7], 2
    path = write_json(tmp_path / "cfg.json", {"model": {"n": n}, "solve": {"lambda_grid": grid}})
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "r.json")]) == 0
    want = collections.Counter(op_A_terms=1, op_B_terms=len(grid))
    for m in range(1, n + 1):
        for desc in rqkz.q_factor_list(m, n):
            want[desc] += len(grid) if desc[0] == "Kx" else 1
    assert builds == want
    capsys.readouterr()


def test_grid_non_convergence_names_its_lambda(tmp_path, capsys):
    """With two halvings allowed, lambda = 0.885 converges and 0.25 does
    not; the error names each group of 0.25 and nothing of 0.885."""
    cfg = {"solve": {"lambda_grid": [0.25, 0.885], "max_refine": 2}}
    path = write_json(tmp_path / "cfg.json", cfg)
    assert cli.main(
        ["solve", "--config", path,
         "--out-csv", str(tmp_path / "c.csv"), "--out-json", str(tmp_path / "r.json")]
    ) == 2
    err = capsys.readouterr().err
    for group in ("base", "derivative", "shift-1"):
        assert "lambda=(0.25+0j) %s" % group in err, group
    assert "0.885" not in err


@pytest.mark.parametrize("grid,bad", [([0.25, 1.0], 1.0), ([0.25, 0.5], 0.5)])
def test_a_lambda_outside_the_domain_is_named_before_any_quadrature(
        tmp_path, capsys, monkeypatch, grid, bad):
    """e^{2 pi i lam} = 1 and e^{2 pi i lam} = -1 exit 2 with a message that
    names the lambda, and no trapezoidal rule runs."""
    rules = []
    real = integral_solver._trapezoid
    monkeypatch.setattr(integral_solver, "_trapezoid", lambda *args: rules.append(1) or real(*args))
    path = write_json(tmp_path / "cfg.json", {"solve": {"lambda_grid": grid}})
    csv_path, json_path = tmp_path / "c.csv", tmp_path / "r.json"
    assert cli.main(["solve", "--config", path,
                     "--out-csv", str(csv_path), "--out-json", str(json_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lambda=%r: " % complex(bad))
    assert rules == []
    assert not csv_path.exists() and not json_path.exists()


# --------------------------------------------------------------- residuals


def test_residuals_recompute_matches(tmp_path, capsys):
    cfg = {"solve": {"lambda_grid": [0.25, [0.15, 0.1]]}}
    path = write_json(tmp_path / "cfg.json", cfg)
    json_path = tmp_path / "solve.json"
    assert cli.main(
        ["solve", "--config", path,
         "--out-csv", str(tmp_path / "c.csv"), "--out-json", str(json_path)]
    ) == 0
    capsys.readouterr()
    code = cli.main(["residuals", "--in", str(json_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("matches") == 2
    assert "DIFFERS" not in out


def test_residuals_recheck_compares_the_stored_coefficients_exactly(tmp_path, capsys):
    """A default solve report whose coefficients are doubled keeps its
    residuals, and `residuals --in` still reports it as DIFFERS, naming
    each lambda, and exits 1: a rerun reproduces the coefficients bit for
    bit."""
    json_path = tmp_path / "solve.json"
    assert cli.main(["solve", "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    lams = [entry["lambda"] for entry in report["body"]["solutions"]]
    for entry in report["body"]["solutions"]:
        entry["coefficients"] = [[2 * re, 2 * im] for re, im in entry["coefficients"]]
    json_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert cli.main(["residuals", "--in", str(json_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(lams) == 5
    for line, (re, im) in zip(lines, lams):
        assert line.startswith("lambda=%g%+gi recompute drift 0.000e+00" % (re, im)), line
        assert line.endswith(", coefficients differ DIFFERS"), line


@pytest.fixture(scope="module")
def one_lambda_report(tmp_path_factory):
    """The JSON text of a solve report at the default config, lambda 0.25
    only."""
    tmp = tmp_path_factory.mktemp("one_lambda")
    json_path = tmp / "solve.json"
    assert cli.main(["solve", "--config", write_json(tmp / "cfg.json",
                                                     {"solve": {"lambda_grid": [0.25]}}),
                     "--out-csv", str(tmp / "c.csv"), "--out-json", str(json_path)]) == 0
    return json_path.read_text()


@pytest.mark.parametrize("record,key,tamper", [
    ("quadrature", "panels", lambda v: v + 7), ("contour", "min_gap_above", lambda v: 99.0)])
def test_residuals_recheck_compares_the_stored_records(tmp_path, capsys, one_lambda_report,
                                                       record, key, tamper):
    """A solve report whose stored contour or quadrature record was changed
    keeps its residuals and coefficients, and `residuals --in` reports it
    as DIFFERS, naming the lambda and the record, and exits 1: a rerun
    reproduces both records exactly."""
    report = json.loads(one_lambda_report)
    entry = report["body"]["solutions"][0]
    entry[record][key] = tamper(entry[record][key])
    path = write_json(tmp_path / "solve.json", report)
    capsys.readouterr()
    assert cli.main(["residuals", "--in", path]) == 1
    assert capsys.readouterr().out == (
        "lambda=0.25+0i recompute drift 0.000e+00, %s differs DIFFERS\n" % record)


@pytest.mark.parametrize("record", ["contour", "quadrature"])
def test_residuals_names_a_missing_stored_record(tmp_path, capsys, monkeypatch,
                                                 one_lambda_report, record):
    """A stored solution without its contour or quadrature record is an
    exit-2 message that names it, given before anything is recomputed."""
    monkeypatch.setattr(integral_solver, "grid_solutions", None)
    report = json.loads(one_lambda_report)
    del report["body"]["solutions"][0][record]
    path = write_json(tmp_path / "solve.json", report)
    capsys.readouterr()
    assert cli.main(["residuals", "--in", path]) == 2
    assert capsys.readouterr().err == "error: stored solution lacks %s\n" % record


def test_a_stored_report_holding_the_removed_mode_key_still_rechecks(tmp_path, capsys):
    """Reports written before the config lost its `mode` key record it in
    body.config; `residuals --in` reads only the model and solve sections
    and rechecks such a report."""
    json_path = tmp_path / "solve.json"
    assert cli.main(["solve", "--config", write_json(tmp_path / "cfg.json",
                                                     {"solve": {"lambda_grid": [0.25]}}),
                     "--out-csv", str(tmp_path / "c.csv"), "--out-json", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    assert "mode" not in report["body"]["config"]
    report["body"]["config"] = {"mode": "verify", **report["body"]["config"]}
    json_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert cli.main(["residuals", "--in", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("matches") == 1 and "DIFFERS" not in out


def test_residuals_rebuilds_the_solve_params(tmp_path, capsys, monkeypatch):
    """`residuals --in` rebuilds the exact SolverParams of the solve from the
    stored config, n, y and the quadrature settings included."""
    seen = []

    def recording_report(cycle, params, coeffs, diag, residuals):
        seen.append(params)
        return real_report(cycle, params, coeffs, diag, residuals)

    real_report = integral_solver.residual_report
    monkeypatch.setattr(integral_solver, "residual_report", recording_report)
    cfg = {"model": {"n": 2, "y": [0.25, -0.4]},
           "solve": {"lambda_grid": [0.31], "max_refine": 4, "rtol": 1e-8}}
    path = write_json(tmp_path / "cfg.json", cfg)
    json_path = tmp_path / "solve.json"
    assert cli.main(
        ["solve", "--config", path,
         "--out-csv", str(tmp_path / "c.csv"), "--out-json", str(json_path)]
    ) == 0
    assert cli.main(["residuals", "--in", str(json_path)]) == 0
    assert "DIFFERS" not in capsys.readouterr().out
    assert len(seen) == 2
    assert (seen[0].n, seen[0].y, seen[0].max_refine, seen[0].rtol) == (
        2, (0.25, -0.4), 4, 1e-8)
    assert seen[1] == seen[0]


def test_a_report_that_stores_half_dim_still_rechecks(tmp_path, capsys):
    """model.half_dim has left the config schema, so a config file naming
    it is refused as an unknown key.  A report written while the key
    existed stores it in body.config; `residuals --in` reads only the keys
    the solve uses and reproduces every stored residual exactly."""
    with pytest.raises(ConfigError, match="unknown key in model: half_dim"):
        load_config(write_json(tmp_path / "old.json", {"model": {"half_dim": 2}}))
    path = write_json(tmp_path / "cfg.json",
                      {"model": {"n": 2}, "solve": {"lambda_grid": [0.31, -0.35]}})
    json_path = tmp_path / "solve.json"
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    report["body"]["config"]["model"]["half_dim"] = 2
    json_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert cli.main(["residuals", "--in", str(json_path)]) == 0
    assert capsys.readouterr().out.count("recompute drift 0.000e+00 matches") == 2


def test_recheck_integrates_the_stored_grid_as_one_rule(tmp_path, capsys):
    """`residuals --in` integrates the stored lambdas and cycles as one grid
    again, so it evaluates the solve's node set.  On this grid the cycle
    degree is 0 at lambda = -0.35 and 1 at 0.25 and 0.885, and the grid's
    node set is wider than -0.35 or 0.885 would get alone; every recheck
    reproduces its stored residuals exactly."""
    cfg = {"solve": {"lambda_grid": [-0.35, 0.25, 0.885]}}
    path = write_json(tmp_path / "cfg.json", cfg)
    json_path = tmp_path / "solve.json"
    assert cli.main(
        ["solve", "--config", path,
         "--out-csv", str(tmp_path / "c.csv"), "--out-json", str(json_path)]
    ) == 0
    with open(json_path) as fh:
        entries = json.load(fh)["body"]["solutions"]
    assert [e["cycle"][0][0] for e in entries] == [0, 1, 1]
    capsys.readouterr()
    assert cli.main(["residuals", "--in", str(json_path)]) == 0
    assert capsys.readouterr().out.count("recompute drift 0.000e+00 matches") == 3


def test_residuals_from_config_inline(tmp_path, capsys):
    cfg = {"solve": {"lambda_grid": [0.25]}}
    path = write_json(tmp_path / "cfg.json", cfg)
    assert cli.main(["residuals", "--config", path]) == 0
    assert "max_qkz" in capsys.readouterr().out


def test_residuals_requires_some_input(capsys):
    assert cli.main(["residuals"]) == 2
    assert "--in" in capsys.readouterr().err


def test_residuals_refuses_a_report_and_a_config_together(tmp_path, capsys, monkeypatch):
    """A config beside --in would be ignored, so the pair is refused before
    any work, even when the config is malformed."""
    monkeypatch.setattr(cli, "_recheck", lambda path: pytest.fail("rechecked"))
    report = write_json(tmp_path / "solve.json", {})
    config = write_json(tmp_path / "cfg.json", {"bogus": 1})
    assert cli.main(["residuals", "--in", report, "--config", config]) == 2
    err = capsys.readouterr().err
    assert "--in" in err and "--config" in err


def test_residuals_rejects_malformed_report(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{\"schema_version\": 1}")
    assert cli.main(["residuals", "--in", str(path)]) == 2
    assert "body.config" in capsys.readouterr().err


def test_residuals_rejects_solutions_that_are_not_a_list(tmp_path, capsys, monkeypatch):
    """A `body.solutions` that is no list is an exit-2 message, given before
    anything is recomputed."""
    monkeypatch.setattr(integral_solver, "residual_report", None)
    for bad in (5, "ab", {"lambda": [0.25, 0.0]}, None):
        report = {"schema_version": cli.SCHEMA_VERSION,
                  "body": {"config": default_config(), "solutions": bad}}
        path = write_json(tmp_path / "bad.json", report)
        assert cli.main(["residuals", "--in", path]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "body.solutions" in err, err


def test_residuals_names_a_missing_stored_key(tmp_path, capsys):
    report = {
        "schema_version": cli.SCHEMA_VERSION,
        "body": {"config": default_config(), "solutions": [{"cycle": [[1, [1.0, 0.0]]]}]},
    }
    path = write_json(tmp_path / "partial.json", report)
    assert cli.main(["residuals", "--in", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    for key in ("lambda", "qkz_residuals", "ode_residual"):
        assert key in err


def test_residuals_names_the_first_key_a_stored_config_lacks(tmp_path, capsys, monkeypatch):
    """A stored config that lacks a key of the defaults, or holds a section
    that is no object, is an exit-2 message naming that key or section,
    given before anything is recomputed."""
    monkeypatch.setattr(integral_solver, "residual_report", None)
    good = {"lambda": [0.25, 0.0], "cycle": [[1, [1.0, 0.0]]],
            "qkz_residuals": {"1": 0.0}, "ode_residual": 0.0}
    lacking = default_config()
    del lacking["solve"]["max_refine"]
    no_section = default_config()
    del no_section["output"]
    cases = ((lacking, "input report body.config lacks solve.max_refine"),
             (dict(default_config(), solve="x"), "input report body.config.solve must be an object"),
             (no_section, "input report body.config.output must be an object"))
    for cfg, message in cases:
        report = {"schema_version": cli.SCHEMA_VERSION,
                  "body": {"config": cfg, "solutions": [good]}}
        path = write_json(tmp_path / "bad.json", report)
        assert cli.main(["residuals", "--in", path]) == 2, message
        assert capsys.readouterr().err == "error: %s\n" % message


def test_residuals_names_a_malformed_stored_value(tmp_path, capsys, monkeypatch):
    """A stored value of the wrong shape, or a non-finite one, is an exit-2
    message that names the key, given before anything is recomputed."""
    monkeypatch.setattr(integral_solver, "residual_report", None)
    good = {"lambda": [0.25, 0.0], "cycle": [[1, [1.0, 0.0]]], "coefficients": [[1.0, 0.0]],
            "qkz_residuals": {"1": 0.0}, "ode_residual": 0.0, "contour": {}, "quadrature": {}}
    for key, bad in (("lambda", "ab"), ("lambda", [1.0]), ("cycle", "ab"),
                     ("coefficients", "ab"), ("coefficients", [[1.0]]),
                     ("coefficients", [1.0, 0.0]), ("coefficients", [["x", 0.0]]),
                     ("cycle", [[1, "x"]]), ("cycle", [["one", [1.0, 0.0]]]),
                     ("qkz_residuals", "ab"), ("qkz_residuals", {"2": 0.0}),
                     ("qkz_residuals", {"1": "x"}), ("ode_residual", [0.0]),
                     ("ftilde_residual", "x"), ("ode_residual", float("nan")),
                     ("qkz_residuals", {"1": float("inf")}),
                     ("cycle", [[1, [1.0, 0.0]], [1, [2.0, 0.0]]])):
        entry = dict(good, **{key: bad})
        report = {"schema_version": cli.SCHEMA_VERSION,
                  "body": {"config": default_config(), "solutions": [good, entry]}}
        path = write_json(tmp_path / "bad.json", report)
        assert cli.main(["residuals", "--in", path]) == 2, (key, bad)
        err = capsys.readouterr().err
        assert err.startswith("error:") and "stored solution " + key in err, err


def test_oversized_config_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    """More sites than the space of dimension 4^n <= 256 allows, or a
    refinement count outside 1 .. 6, exits 2 with a message naming the key
    and the bound; no rule runs and no lambda is named.  The rule compares
    two estimates, so max_refine = 0 could never converge: it once
    integrated the first grid and then refused every solution by lambda."""
    rules = _count_rules(monkeypatch)
    cases = (
        ({"model": {"n": 5}}, ("model.n", "at most 4", "4^n", "256")),
        ({"solve": {"max_refine": 7}}, ("solve.max_refine", "from 1 to 6")),
        ({"solve": {"max_refine": 0}}, ("solve.max_refine", "from 1 to 6")),
    )
    for raw, words in cases:
        path = write_json(tmp_path / "big.json", raw)
        assert cli.main(
            ["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
             "--out-json", str(tmp_path / "s.json")]
        ) == 2, raw
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error:") and "lambda=" not in captured.out + err, (raw, err)
        for word in words:
            assert word in err, (raw, err)
    assert rules == []
    assert (cli.MAX_N, cli.MAX_REFINE_CAP) == (4, 6)
    for raw in ({"model": {"n": 4}}, {"solve": {"max_refine": 6}}, {"solve": {"max_refine": 1}}):
        load_config(write_json(tmp_path / "edge.json", raw))


def test_the_largest_space_solves_within_tolerance(tmp_path, capsys):
    """At n = 4 the solver's space has the largest dimension the bound
    allows, 4^4 = 256; one lambda solves there with every residual within
    the default tolerance."""
    path = write_json(tmp_path / "cfg.json",
                      {"model": {"n": 4}, "solve": {"lambda_grid": [0.25]}})
    json_path = tmp_path / "s.json"
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(json_path)]) == 0
    (entry,) = json.loads(json_path.read_text())["body"]["solutions"]
    assert len(entry["coefficients"]) == 8 and sorted(entry["qkz_residuals"]) == list("1234")
    assert "worst residual" in capsys.readouterr().out


@pytest.mark.parametrize("solve,message", [
    ({"degrees": [[1, 1], [1, 2]]}, "solve.degrees: duplicate monomial degree"),
    ({"lambda_grid": [0.25], "degrees": [[5, 1]]},
     "lambda=(0.25+0j): cycle degree 5 outside the convergence window (0.25, 2.25)"),
], ids=["duplicate", "window"])
def test_a_cycle_refusal_names_its_input(tmp_path, capsys, monkeypatch, solve, message):
    """A cycle with a repeated degree is refused naming its key, and a
    degree outside a lambda's convergence window naming that lambda, each
    in one line and before any rule runs."""
    rules = _count_rules(monkeypatch)
    path = write_json(tmp_path / "cfg.json", {"solve": solve})
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "s.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == "" and rules == []


@pytest.mark.parametrize("command", ["solve", "residuals --config", "residuals --in"])
def test_a_cycle_whose_every_coefficient_is_zero_exits_two_before_any_quadrature(
        tmp_path, capsys, monkeypatch, one_lambda_report, command):
    """A cycle whose every coefficient is 0 integrates to the zero solution,
    against which no residual exists: `solve` and `residuals --config`
    refuse it naming solve.degrees, and `residuals --in` naming the stored
    solution cycle, each in one line, before any rule runs."""
    cfg = write_json(tmp_path / "cfg.json",
                     {"solve": {"lambda_grid": [0.25], "degrees": [[1, 0], [2, [0, 0]]]}})
    report = json.loads(one_lambda_report)
    report["body"]["solutions"][0]["cycle"] = [[1, [0.0, 0.0]]]
    argv, where = {
        "solve": (["solve", "--config", cfg, "--out-csv", str(tmp_path / "c.csv"),
                   "--out-json", str(tmp_path / "s.json")], "solve.degrees"),
        "residuals --config": (["residuals", "--config", cfg], "solve.degrees"),
        "residuals --in": (["residuals", "--in", write_json(tmp_path / "solve.json", report)],
                           "stored solution cycle"),
    }[command]
    rules = _count_rules(monkeypatch)
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s: every coefficient of the cycle is 0\n" % where
    assert captured.out == "" and rules == []


@pytest.mark.parametrize("raw,words", [
    ({"model": {"c": [1e6, 0.2]}}, ("budget of 131072",)),
    ({"model": {"k": [1e8, 1.0]}}, ("lambda=",)),
    ({"solve": {"lambda_grid": [[0.25, 50]]}}, ("lambda=(0.25+50j)",)),
    ({"solve": {"lambda_grid": [[0.25, -50]]}}, ("lambda=(0.25-50j)",)),
    ({"model": {"c": [0.1, 1e-9]}}, ("budget of 131072",)),
    ({"model": {"c": [1e300, 0.2]}}, ("lambda=", "budget of 131072")),
    ({"model": {"c": [1e200, 0.2]}}, ("lambda=", "budget of 131072")),
    ({"solve": {"lambda_grid": [[0.25, -300]]}}, ("lambda=(0.25-300j)", "overflows")),
    ({"solve": {"degrees": [[1, [1e308, 0]]], "lambda_grid": [0.25]}},
     ("lambda=(0.25+0j)", "not finite")),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_unbounded_quadrature_exits_two_within_seconds(tmp_path, capsys, raw, words):
    """Finite configs whose rule would not end, or would not fit in memory,
    exit 2 with a one-line message and no numpy warning: the node budget,
    a non-finite integrand or a sum that overflows stops them.  A |c|
    whose square overflows gives an infinite truncation, which the budget
    names by its lambda.  A lambda whose e^{2 pi i lambda} overflows is
    named before any rule."""
    path = write_json(tmp_path / "cfg.json", raw)
    start = time.perf_counter()
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "s.json")]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for word in words:
        assert word in err, err


@pytest.mark.parametrize("model", [{"n": 1, "y": [1e300]}, {"n": 2, "y": [0.3, 1e200]}])
def test_a_vanishing_solution_exits_two(tmp_path, capsys, model):
    """Every coefficient underflows to zero, so no residual relative to the
    solution exists: the run names its lambda, says that the coefficients
    underflowed and writes no output."""
    path = write_json(tmp_path / "cfg.json", {"model": model, "solve": {"lambda_grid": [0.25]}})
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lambda=(0.25+0j): every coefficient") and err.count("\n") == 1
    assert "underflowed" in err
    assert not (tmp_path / "c.csv").exists() and not (tmp_path / "s.json").exists()


def test_a_non_finite_residual_exits_two(tmp_path, capsys, monkeypatch):
    """A NaN coefficient of op_B makes the ODE residuals NaN while the qKZ
    residuals stay finite; a max over the three would hide it, so the run
    fails."""
    real = compat_ops.op_B_terms

    def nan_first(*args):
        (_, op), *rest = real(*args)
        return [(float("nan"), op)] + rest

    monkeypatch.setattr(compat_ops, "op_B_terms", nan_first)
    assert cli.main(["solve", "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == "error: lambda=(-0.7+0j): a residual is not finite\n"


@pytest.mark.parametrize("y", [3.0, 10.0])
def test_a_small_solution_is_integrated_to_its_own_accuracy(tmp_path, capsys, y):
    """At n = 1, lambda = 0.25 the largest coefficient is about 3e-19 at
    y = 3 and 2e-74 at y = 10.  The rule's truncation and halving tests
    are relative to each solution's scale, so both solves pass with every
    residual near rounding rather than with quadrature error of the size
    of the answer."""
    path = write_json(tmp_path / "cfg.json",
                      {"model": {"y": [y]}, "solve": {"lambda_grid": [0.25]}})
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "s.json")]) == 0
    capsys.readouterr()
    with open(tmp_path / "s.json") as fh:
        (entry,) = json.load(fh)["body"]["solutions"]
    residuals = [*entry["qkz_residuals"].values(), entry["ode_residual"],
                 entry["ftilde_residual"]]
    assert max(residuals) <= 1e-12, residuals


def test_the_node_budget_stops_a_rule_between_sweeps(tmp_path, capsys, monkeypatch):
    """The default grid's rule evaluates 1,048 nodes, 320 of them in its
    first sweep and 104 in its second: under a budget of 400 the first
    sweep passes its check and the rule stops before the second, naming
    the solutions of the grid's first three lambdas, the count of all 15
    solutions, and the budget."""
    assert integral_solver.NODE_BUDGET == 1 << 17
    monkeypatch.setattr(integral_solver, "NODE_BUDGET", 400)
    assert cli.main(["solve", "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lambda=(-0.7+0j) base, lambda=(-0.7+0j) derivative")
    assert err.endswith("the rule needs 424 nodes, above the budget of 400\n"), err
    assert "lambda=(-0.1+0j) shift-1 and 6 more (15 solutions in all): " in err, err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("grid, named", [
    # 1 - frac(lambda) = 1e-8 stretches the left tail of the default cycle:
    # that lambda alone needs 5.13e8 nodes, wherever it sits in the grid.
    ([0.15, 0.99999999], "lambda=(0.99999999+0j)"),
    ([0.99999999, 0.15], "lambda=(0.99999999+0j)"),
    # With the cycle fixed at degree 1, 0.999936 stretches the left side
    # and -0.999936 the right side; each alone needs about 8e4 nodes, the
    # line over both widest sides 1.6e5.
    ([0.15, 0.999936, -0.999936], "lambda=(0.999936+0j), lambda=(-0.999936+0j)"),
])
def test_a_node_budget_refusal_names_the_lambdas_that_need_the_nodes(
        tmp_path, capsys, grid, named):
    solve = {"lambda_grid": grid}
    if len(grid) == 3:
        solve["degrees"] = [[1, 1]]
    path = write_json(tmp_path / "cfg.json", {"model": {"n": 1}, "solve": solve})
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: the rule needs " % named), err


def test_a_rule_refusal_on_a_long_grid_stays_one_short_line(tmp_path, capsys):
    """With one halving allowed and tolerances no estimate can meet, none
    of the 32 solutions of an 8-lambda n = 2 grid converges; the refusal
    names those of the first three lambdas and the estimates of the first
    only."""
    grid = [0.05 + 0.1 * i for i in range(8)]
    solve = {"lambda_grid": grid, "max_refine": 1, "rtol": 1e-300, "atol": 1e-300}
    path = write_json(tmp_path / "cfg.json", {"model": {"n": 2}, "solve": solve})
    assert cli.main(["solve", "--config", path, "--out-csv", str(tmp_path / "c.csv"),
                     "--out-json", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lambda=(0.05+0j) base, ") and err.count("\n") == 1, err
    assert "and 20 more (32 solutions in all): no convergence" in err, err
    assert len(err) < 2000, len(err)


# -------------------------------------------------------------- refinement


def test_tighter_quadrature_does_not_hurt(tmp_path, capsys):
    """Residuals under the default quadrature settings stay at or below a
    deliberately coarse run, up to the noise floor."""
    results = {}
    for tag, solve_extra in (
        ("loose", {"panels_per_unit": 0.2, "rtol": 1e-4, "max_refine": 3}),
        ("tight", {}),
    ):
        cfg = {"solve": dict({"lambda_grid": [0.25], "tolerance": 1.0}, **solve_extra)}
        path = write_json(tmp_path / ("%s.json" % tag), cfg)
        json_path = tmp_path / ("%s-out.json" % tag)
        assert cli.main(
            ["solve", "--config", path,
             "--out-csv", str(tmp_path / ("%s.csv" % tag)),
             "--out-json", str(json_path)]
        ) == 0
        with open(json_path) as fh:
            entry = json.load(fh)["body"]["solutions"][0]
        results[tag] = max(entry["max_qkz_residual"], entry["ode_residual"])
    capsys.readouterr()
    assert results["tight"] <= results["loose"] or results["tight"] < 1e-9


# ---------------------------------------------------------------- coverage


def test_suite_registry_is_complete():
    names = suites.suite_names()
    assert sorted(names) == sorted(
        [
            "ybe",
            "bybe",
            "unitarity",
            "qkz-consistency",
            "lemma-AA",
            "lemma-LL",
            "cross-derivative",
            "comm-IM",
            "compatibility",
            "aha-relations",
            "phi-iso",
            "cbar-qinv",
            "l-restriction",
        ]
    )
    values = [suite.anchor for suite in suites._SUITES.values()]
    assert all(values)
    assert len(set(values)) == len(values)
