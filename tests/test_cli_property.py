"""Every input ends plainly: a property test over `cli.main`.

Configs are drawn over the schema's keys, each key set to a valid value,
a boundary value (0, -1, 1e308, 1e-308, huge ints, NaN) or a value of the
wrong type or shape, and run in-process as `verify`, `solve` or
`residuals --config`; stored solve reports, mutated the same way, are fed
to `residuals --in`.  Valid verify sample counts stay at 1 or 2 and valid
lambda grids hold one lambda, so a valid example is cheap.

The property: `main` returns 0, 1 or 2, no exception escapes it, and an
exit 2 prints exactly one `error:` line.  An example that runs longer than
EXAMPLE_SECONDS is cut by an in-process alarm and fails the test, so an
unbounded input shows as a failure, not as a hang.
"""

import contextlib
import copy
import io
import json
import math
import signal

import pytest
from hypothesis import HealthCheck, Phase, event, given, settings, strategies as st

from bqkz import cli

EXAMPLE_SECONDS = 10


def _property(examples: int):
    """Fixed, derandomized examples.  Shrinking would rerun a slow example
    many times; a failure prints the example it drew."""
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                    phases=(Phase.explicit, Phase.generate),
                    suppress_health_check=[HealthCheck.too_slow])


HUGE = 10 ** 400
BOUNDARY = [0, -1, 1, 1e308, -1e308, 1e-308, 10 ** 12, HUGE, -HUGE, math.nan, math.inf]
WRONG = [None, True, "x", "", [], {}, [1], [1, 2, 3], [[0.1, 0.2]], {"a": 1}, ["ybe"]]
# Suites cheap at one or two samples.
CHEAP_SUITES = ["ybe", "bybe", "unitarity", "lemma-AA", "comm-IM", "phi-iso"]


def _values(valid):
    """A key's valid values, half the time, else a boundary value or one of
    the wrong type or shape."""
    valid = st.sampled_from(valid)
    return st.one_of(valid, valid, st.sampled_from(BOUNDARY), st.sampled_from(WRONG))


LAMBDAS = [0.15, -0.35, 0.4, [0.2, 0.1], 1e15, -1e-308, [0.25, -300]]
KEYS = {
    "model": {
        "n": _values([1, 2]),
        "c": _values([[0.1, 0.2], [0.1, 1e-9], [1e6, 0.2], 0.5]),
        "k": _values([[0.05, 1.0], [1e8, 1.0], 2]),
        "y": _values([[0.3], [0.3, -0.15], [1e300], [3.0], None]),
    },
    "verify": {
        "suites": _values([[name] for name in CHEAP_SUITES] + [["ybe", "ybe"], ["nope"]]),
        "samples": _values([1, 2]),
        "seed": _values([0, 7, HUGE]),
    },
    "solve": {
        "lambda_grid": _values([[lam] for lam in LAMBDAS] + [[]]),
        "degrees": _values([None, [[1, 1]], [[0, 1], [1, -1]], [[1, [1e308, 0]]], [[1.5, 1]]]),
        "rtol": _values([1e-9, 1e-3]),
        "atol": _values([1e-14, 1e-6]),
        "panels_per_unit": _values([4.0, 0.5]),
        "max_refine": _values([0, 2, 5, 6, 7]),
        "tolerance": _values([1e-7, 1e-20]),
    },
}
OUTPUTS = ["ok", "ok", "ok", None, "missing/out", ".", 5]


class _Overran(BaseException):
    """Raised by the alarm inside an example that ran too long."""


def _on_alarm(signum, frame):
    raise _Overran()


def _run(argv):
    """(exit code, stderr) of `cli.main(argv)` under the alarm."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except _Overran:
        raise AssertionError("%r ran longer than %d s" % (argv, EXAMPLE_SECONDS))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _assert_plain(code, err, what):
    assert code in (0, 1, 2), (code, what)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (err, what)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property")


@st.composite
def configs(draw):
    """A config over the schema's keys, starting from a cheap valid one."""
    cfg = {"verify": {"suites": ["ybe"], "samples": 1}, "solve": {"lambda_grid": [0.15]}}
    for section, keys in KEYS.items():
        for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=2, unique=True)):
            cfg.setdefault(section, {})[key] = draw(keys[key])
    # Valid sample counts stay at most 2: no count runs the suite table's.
    if cfg["verify"].get("samples") is None:
        cfg["verify"]["samples"] = 1
    cfg["output"] = {"report": draw(st.sampled_from(OUTPUTS))}
    if draw(st.booleans()):
        cfg["mode"] = draw(st.sampled_from(["verify", "solve", "residuals", "other", 3]))
    replaced = draw(st.sampled_from([None] * 9 + ["typo", "model", "solve"]))
    if replaced is not None:
        cfg[replaced] = draw(st.sampled_from(WRONG))
    return cfg


@_property(400)
@given(cfg=configs(), command=st.sampled_from(["verify", "solve", "solve", "residuals"]),
       flag=st.sampled_from([None, "--samples=2", "--samples=0", "--samples=-1",
                             "--samples=%d" % 10 ** 12, "--samples=%d" % HUGE,
                             "--seed=%d" % HUGE, "--seed=-1"]))
def test_every_config_ends_in_an_exit_code_or_one_error_line(workdir, cfg, command, flag):
    cfg = copy.deepcopy(cfg)
    report = cfg["output"]["report"]
    if isinstance(report, str):
        cfg["output"]["report"] = str(workdir / report)
    path = workdir / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    if command == "verify" and flag is not None:
        argv.append(flag)
    elif command == "solve":
        argv += ["--out-csv", str(workdir / "c.csv"), "--out-json", str(workdir / "s.json")]
    code, err = _run(argv)
    event("%s exit %r" % (command, code))
    _assert_plain(code, err, cfg)


@pytest.fixture(scope="module")
def stored_report(workdir):
    """A solve report of one lambda at n = 2, as `solve` writes it."""
    cfg = workdir / "stored.json"
    cfg.write_text(json.dumps({"model": {"n": 2}, "solve": {"lambda_grid": [0.15]}}))
    out = workdir / "stored-report.json"
    code, err = _run(["solve", "--config", str(cfg), "--out-csv", str(workdir / "s.csv"),
                      "--out-json", str(out)])
    assert code == 0, err
    return json.loads(out.read_text())


def _slots(node, path):
    """Every (path, value) at and below node, whose path is given."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _slots(child, path + (key,))


MUTATION_VALUES = st.sampled_from(BOUNDARY + WRONG + [[0.15, 0.0], {"1": 0.0}, [[1, [1.0, 0.0]]]])


@_property(100)
@given(data=st.data())
def test_every_mutated_report_ends_in_an_exit_code_or_one_error_line(
        workdir, stored_report, data):
    report = copy.deepcopy(stored_report)
    slots = [path for path, _ in _slots(report["body"], ("body",))]
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(slots))
        parent = report
        try:
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()) and isinstance(parent, dict):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(MUTATION_VALUES)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this slot
    path = workdir / "mutated.json"
    path.write_text(json.dumps(report))
    code, err = _run(["residuals", "--in", str(path)])
    event("exit %r" % (code,))
    _assert_plain(code, err, report)
