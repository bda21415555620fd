"""The suite runner: draw order, note format, failure notes."""

import hashlib
import json
import sys
from collections import Counter

from bqkz import cli, compat_ops, hecke_module, rqkz, suites
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


def test_route_mismatch_is_a_suite_failure(tmp_path, monkeypatch, capsys):
    def mismatch(*args):
        raise compat_ops.RouteMismatch("derivative route and closed form disagree")

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


def _patch_everywhere(monkeypatch, module, attr, replacement):
    """Replace module.attr, and the copy of it in every bqkz module that
    imported the name, by replacement(original)."""
    real = getattr(module, attr)
    wrapped = replacement(real)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("bqkz") and getattr(mod, attr, None) is real:
            monkeypatch.setattr(mod, attr, wrapped)


def _calls_at_each_point(monkeypatch, name, targets, sizes=None):
    """Run one sample of a suite; for each accepted point, the arguments of
    every call to each (module, attr) in targets, by attr.  Calls made for
    a draw that hit a pole are dropped with that draw."""
    current = {}
    points = []

    def counting(attr):
        def replacement(real):
            def counted(*args):
                current[attr].append(args)
                return real(*args)

            return counted

        return replacement

    for module, attr in targets:
        _patch_everywhere(monkeypatch, module, attr, counting(attr))
    real_sample_point = suites.sample_point

    def recording(rng, builder, *args, **kwargs):
        def fresh(r):
            current.clear()
            current.update({attr: [] for _, attr in targets})
            return builder(r)

        out = real_sample_point(rng, fresh, *args, **kwargs)
        points.append({attr: list(calls) for attr, calls in current.items()})
        return out

    monkeypatch.setattr(suites, "sample_point", recording)
    assert suites.run_suite(name, samples=1, seed=0, sizes=sizes).exact_zero
    return points


def _sites(calls):
    return sorted(args[0] for args in calls)


def _builds(calls):
    """Counter of the (descriptor, y) of every _factor_op call."""
    return Counter((desc, tuple(yy)) for desc, _, yy, _ in calls["_factor_op"])


def _chains(chains):
    """Counter of (descriptor, y) over (descriptor list, y) chains, each
    built once."""
    return Counter((desc, tuple(yy)) for descs, yy in chains for desc in descs)


def test_qkz_consistency_builds_each_transport_operator_once(monkeypatch):
    """At each accepted point every transport chain and its inverse are
    built once at y, and each pair builds its two shifted chains once.  The
    split check reads no point and builds nothing."""
    points = _calls_at_each_point(monkeypatch, "qkz-consistency", [(rqkz, "_factor_op")])
    assert len(points) == 3
    for calls in points:
        _, _, y, params = calls["_factor_op"][0]
        n = params.space.n
        chains = []
        for m in range(1, n + 1):
            q_m = rqkz.q_factor_list(m, n)
            chains += [(q_m, y), (rqkz.invert_descs(q_m), y)]
            for l in range(m + 1, n + 1):
                chains += [(q_m, rqkz.shift_y(y, l, params.c)),
                           (rqkz.q_factor_list(l, n), rqkz.shift_y(y, m, params.c))]
        assert _builds(calls) == _chains(chains)


def test_compatibility_builds_each_operator_once(monkeypatch):
    """Each form builds its own transport chains once per site: the direct
    form the transport factors, plus the head for each a's derivative; the
    split form the head, the middle and tail, and their inverses.  L_a is
    built once per a and per shifted y."""
    points = _calls_at_each_point(
        monkeypatch, "compatibility", [(rqkz, "_factor_op"), (compat_ops, "op_L")]
    )
    assert len(points) == 4
    for calls in points:
        _, x, y, params = calls["_factor_op"][0]
        n, half = params.space.n, params.space.half_dim
        chains = []
        for m in range(1, n + 1):
            head, mid, tail = rqkz.q_split_descs(m, n)
            chains += [(rqkz.q_factor_list(m, n), y)] + [(head, y)] * half
            chains += [(head, y), (rqkz.invert_descs(head), y), ([mid] + tail, y),
                       (rqkz.invert_descs([mid] + tail), y)]
        assert _builds(calls) == _chains(chains)
        inputs = [(a, tuple(yy)) for a, _, yy, _ in calls["op_L"]]
        wanted = {(a, tuple(y)) for a in range(1, half + 1)} | {
            (a, rqkz.shift_y(y, m, params.c))
            for a in range(1, half + 1)
            for m in range(1, n + 1)
        }
        assert len(inputs) == len(wanted) == half * (n + 1)
        assert set(inputs) == wanted


def test_lemma_ll_builds_each_matrix_part_once(monkeypatch):
    """L_a is built once per a and shared by the block assembly check and
    the commutators: 4 op_L calls over the two sizes of one sample."""
    points = _calls_at_each_point(monkeypatch, "lemma-LL", [(compat_ops, "op_L")])
    assert len(points) == 2
    assert sum(len(calls["op_L"]) for calls in points) == 4
    for calls in points:
        half = calls["op_L"][0][3].space.half_dim
        assert _sites(calls["op_L"]) == list(range(1, half + 1))


def test_cbar_qinv_builds_each_degenerate_product_once(monkeypatch):
    """At each accepted point each degenerate chain and each inverse
    transport chain is built once at y."""
    points = _calls_at_each_point(
        monkeypatch, "cbar-qinv", [(hecke_module, "_cbar_factor"), (rqkz, "_factor_op")]
    )
    assert len(points) == 2
    for calls in points:
        _, _, y, params = calls["_cbar_factor"][0]
        sites = range(1, params.space.n + 1)
        cbar = [(hecke_module.cbar_factor_list(m, params.space.n), y) for m in sites]
        degenerate = Counter((desc, tuple(yy)) for desc, _, yy, _ in calls["_cbar_factor"])
        assert degenerate == _chains(cbar)
        inverse = [(rqkz.invert_descs(rqkz.q_factor_list(m, params.space.n)), y) for m in sites]
        assert _builds(calls) == _chains(inverse)


def _bump(op: LinOp, state) -> LinOp:
    """op plus one at the diagonal entry of a basis state."""
    i = op.space.index(state)
    return op + LinOp.of(op.space, {i: {i: 1}})


def test_a_perturbed_transport_factor_fails_both_transport_suites(monkeypatch):
    """One exchange-reflection factor is wrong wherever it is built; the
    reused transport operators must not hide it."""
    target = rqkz.q_factor_list(1, 2)[0]

    def replacement(real):
        def perturbed(desc, x, y, params):
            op = real(desc, x, y, params)
            return _bump(op, (0,) * params.space.n) if desc == target else op

        return perturbed

    monkeypatch.setattr(rqkz, "_factor_op", replacement(rqkz._factor_op))
    for name in ("qkz-consistency", "compatibility"):
        result = suites.run_suite(name, samples=1, seed=0, sizes=((2, 2),))
        assert result.failures == 1, name


def _perturbed_inverse_transport(monkeypatch, m, state):
    """Perturb, at one diagonal entry, the factor of the site-m inverse
    transport chain that the orbit check applies first; returns the
    cbar-qinv notes at n = 2."""
    target = rqkz.invert_descs(rqkz.q_factor_list(m, 2))[-1]

    def perturbed(desc, x, y, params, real=rqkz._factor_op):
        op = real(desc, x, y, params)
        return _bump(op, state) if desc == target else op

    monkeypatch.setattr(rqkz, "_factor_op", perturbed)
    return suites.run_suite("cbar-qinv", samples=1, seed=0, sizes=(2,)).notes


def test_a_split_that_drops_a_factor_fails_once_per_size_and_sampling_goes_on(monkeypatch):
    """The split check reads no point: a split that loses a factor fails
    once for the size, the first failing site named, and the points of
    both samples are still drawn and pass."""
    real = rqkz.q_split_descs

    def dropping(m, n):
        head, mid, tail = real(m, n)
        return head, mid, tail[:-1]

    monkeypatch.setattr(rqkz, "q_split_descs", dropping)
    drawn = []
    real_sample_point = suites.sample_point

    def recording(rng, builder, *args, **kwargs):
        drawn.append(1)
        return real_sample_point(rng, builder, *args, **kwargs)

    monkeypatch.setattr(suites, "sample_point", recording)
    result = suites.run_suite("qkz-consistency", samples=2, seed=0, sizes=((2, 2),))
    assert result.failures == 1
    assert result.notes == ("n=2 half=2 split-1",)
    assert len(drawn) == 2


def test_a_perturbed_orbit_column_of_the_inverse_transport_fails_its_site(monkeypatch):
    orbit_state = hecke_module.orbit_states(Space(2, 2))[0]
    (note,) = _perturbed_inverse_transport(monkeypatch, 2, orbit_state)
    assert note.startswith("n=2 site-2 point=")


def test_a_perturbed_non_orbit_column_still_passes_the_site_check(monkeypatch):
    off_orbit = (0, 0)
    assert off_orbit not in hecke_module.orbit_states(Space(2, 2))
    assert _perturbed_inverse_transport(monkeypatch, 2, off_orbit) == ()


def test_a_perturbed_degenerate_factor_fails_both_cbar_checks(monkeypatch):
    target = hecke_module.cbar_factor_list(1, 2)[-1]
    orbit_state = hecke_module.orbit_states(Space(2, 2))[0]

    def perturbed(desc, x, y, params, real=hecke_module._cbar_factor):
        op = real(desc, x, y, params)
        return _bump(op, orbit_state) if desc == target else op

    monkeypatch.setattr(hecke_module, "_cbar_factor", perturbed)
    notes = suites.run_suite("cbar-qinv", samples=1, seed=0, sizes=(2,)).notes
    assert [note.split(" point=")[0] for note in notes] == ["n=2 site-1", "n=2 grouped-1"]


def test_size_level_operators_are_built_once_per_run(monkeypatch):
    """builder_for runs once per size per run: the left-action images and
    the orbit states do not grow with the sample count."""
    counts = {}

    def counting(attr):
        def replacement(real):
            def counted(*args):
                counts[attr] += 1
                return real(*args)

            return counted

        return replacement

    for attr in ("rhoL", "orbit_states"):
        _patch_everywhere(monkeypatch, hecke_module, attr, counting(attr))
    # Per run over n = 2 and 3: distinct images (4 + 9 for the pair sums,
    # 2 + 3 generators) and one orbit per n.
    expected = {"l-restriction": 13, "aha-relations": 5, "cbar-qinv": 0}
    for name, images in expected.items():
        for samples in (1, 4):
            counts.update(rhoL=0, orbit_states=0)
            assert suites.run_suite(name, samples=samples, seed=0).exact_zero
            assert counts == {"rhoL": images, "orbit_states": 2}, (name, samples)


def test_one_wrong_left_image_fails_a_point_free_and_the_assembled_check(monkeypatch):
    """A wrong rhoL(s_12) entry on the orbit shows in the pair-sum identity
    proved once per size and in the assembled form checked at the point."""
    target = hecke_module.elem_s(1, 2, 2)
    orbit_state = hecke_module.orbit_states(Space(2, 2))[0]

    def perturbed(w, space, real=hecke_module.rhoL):
        op = real(w, space)
        return _bump(op, orbit_state) if w == target else op

    monkeypatch.setattr(hecke_module, "rhoL", perturbed)
    result = suites.run_suite("l-restriction", samples=1, seed=0, sizes=(2,))
    assert result.failures == 2
    assert result.notes[0] == "n=2 swap-pair-2-1"
    assert any(note.startswith("n=2 assembled-1 point=") for note in result.notes[1:])


def test_colliding_images_count_once_per_size_and_sampling_goes_on(monkeypatch):
    """phi sends s_1 onto the identity's basis vector.  The three words of
    seed 0 never reach s_1, so only the size-level image check fails, once
    for the size, while all three samples are still drawn."""
    s_1 = hecke_module.SignedPerm.generator(2, 1)
    identity = hecke_module.SignedPerm.identity(2)

    def colliding(w, space, real=hecke_module.phi):
        return real(identity if w == s_1 else w, space)

    monkeypatch.setattr(hecke_module, "phi", colliding)
    drawn = []
    real_sample_point = suites.sample_point

    def recording(rng, builder, *args, **kwargs):
        drawn.append(1)
        return real_sample_point(rng, builder, *args, **kwargs)

    monkeypatch.setattr(suites, "sample_point", recording)
    result = suites.run_suite("phi-iso", samples=3, seed=0, sizes=(2,))
    assert result.failures == 1
    assert result.notes == ("n=2 images-collide",)
    assert len(drawn) == 3
