"""The suite runner: draw order, note format, failure notes, worker count."""

import hashlib
import json

from bqkz import cli, compat_ops, suites
from bqkz.tensor_ops import LinOp, Space


def _plain(value):
    """A backend-independent form of a point: rationals become
    (numerator, denominator), sequences become lists."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, str):
        return value
    return [int(value.numerator), int(value.denominator)]


# sha256 of the recorded (draw count, point) list of all 13 suites at
# samples=1, seed 6 (33 points, 35 draws), taken when each suite still had
# its own sampler function.
GOLDEN_DRAWS = "35a705bbffe3122a1717f13e014571c1d6e72510ce37da15c5b8cf3caadb0745"


def test_draws_match_the_golden_digest(monkeypatch):
    recorded = []
    real = suites.sample_point

    def recording(rng, builder, *args, **kwargs):
        draws = [0]

        def counted(r):
            draws[0] += 1
            return builder(r)

        out = real(rng, counted, *args, **kwargs)
        recorded.append([draws[0], _plain(out[1])])
        return out

    monkeypatch.setattr(suites, "sample_point", recording)
    for name in suites.suite_names():
        assert suites.run_suite(name, samples=1, seed=6).exact_zero, name
    assert len(recorded) == 33
    assert sum(draws for draws, _ in recorded) == 35
    text = json.dumps(recorded, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DRAWS


def test_failure_notes_name_the_size_and_the_check(monkeypatch):
    nonzero = LinOp.identity(Space(1, 1))
    monkeypatch.setattr(compat_ops, "comm_AA_defect", lambda *args: nonzero)
    result = suites.run_suite("lemma-AA", samples=1, seed=0)
    assert not result.exact_zero
    assert result.failures == 1
    assert result.notes[0].startswith("n=2 half=2 pair-1-2 point=")


def test_process_pool_gives_the_serial_bodies():
    def bodies(threads):
        return [
            result.body()
            for result, _ in suites.run_suites(
                ["ybe", "phi-iso"], samples=3, seed=3, threads=threads
            )
        ]

    assert bodies(2) == bodies(1)


def test_route_mismatch_is_a_suite_failure(tmp_path, monkeypatch, capsys):
    def mismatch(*args):
        raise compat_ops.RouteMismatch("derivative route and closed form disagree")

    monkeypatch.delenv("BQKZ_THREADS", raising=False)
    monkeypatch.setattr(compat_ops, "op_dK_term", mismatch)
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "--suite", "compatibility", "--samples", "1", "--out", str(out)]
    )
    assert code == 1
    with open(out) as fh:
        (entry,) = json.load(fh)["body"]["suites"]
    assert entry["exact_zero"] is False
    assert entry["failures"] == 1
    assert entry["notes"][0] == (
        "n=1 half=1 route-mismatch: derivative route and closed form disagree"
    )
    assert "route-mismatch" in capsys.readouterr().out


def test_thread_count_is_clamped_to_the_cpu_count(monkeypatch):
    monkeypatch.setenv("BQKZ_THREADS", str(10**6))
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 4)
    assert suites.thread_count() == 4
    monkeypatch.setattr(suites.os, "cpu_count", lambda: None)
    assert suites.thread_count() == 1
    monkeypatch.setenv("BQKZ_THREADS", "0")
    assert suites.thread_count() == 1
