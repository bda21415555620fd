"""The suite runner: draw order, note format, failure notes."""

import hashlib
import json
import math
import sys
from collections import Counter

import pytest

from bqkz import cli, compat_ops, hecke_module, rqkz, suites, tensor_ops
from bqkz.sampling import make_rng
from bqkz.scalar_field import rat
from bqkz.tensor_ops import Block, Factor, LinOp, Space


def _plain(value):
    """A plain form of a point record: residues become their canonical
    ints, sequences become lists, and a record the list of its (name,
    value) pairs in draw order."""
    if isinstance(value, dict):
        return [[name, _plain(v)] for name, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, str):
        return value
    return int(value)


# sha256 of the recorded (draw count, point record) list of all 13 suites
# at samples=1, seed 6 (33 points, 33 draws: no point of F_p hit a pole).
# The runner draws each row's declared variables (`suites._draw`), each
# uniform on F_p, from the stream of its (suite, sample, size); phi-iso's
# checks draw one word after x.
GOLDEN_DRAWS = "3cc48ebd54bd2b4b5f96bc6ccea5ada1157af6c46b88cc88953f69b8972b38b2"


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
    assert sum(draws for draws, _ in recorded) == 33
    text = json.dumps(recorded, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DRAWS


class _ReadLog:
    """A point record that logs each name read and refuses an undeclared
    one."""

    def __init__(self, values):
        self.values, self.read = values, set()

    def __getitem__(self, name):
        if name not in self.values:
            raise LookupError("undeclared variable %r" % name)
        self.read.add(name)
        return self.values[name]


def test_every_row_reads_exactly_the_variables_it_declares(monkeypatch):
    """The table is the list of what a point draws: at every suite and
    size, the row's checks read every declared variable of the accepted
    point and ask for no other; the runner reads the record only to write
    a failing note."""
    records = []
    real = suites._draw

    def logged(r, variables, space):
        records.append(_ReadLog(real(r, variables, space)))
        return records[-1]

    monkeypatch.setattr(suites, "_draw", logged)
    for name, suite in suites._SUITES.items():
        declared = {variable for variable, _, _ in suite.variables}
        for size in suite.sizes:
            assert suites.run_suite(name, samples=1, seed=0, sizes=(size,)).exact_zero
            assert records[-1].read == declared, (name, size)


def test_a_size_draws_the_same_points_alone_or_with_its_row(monkeypatch):
    """Each size of a sample draws its point and its column from streams of
    its own: run alone (`sizes=`) or with the rest of its row, a size
    accepts the same point after the same columns at every sample."""
    recorded, columns = [], []
    real_sample_point, real_column = suites.sample_point, suites.rand_column

    def recording(rng, builder):
        out = real_sample_point(rng, builder)
        recorded.append((_plain(out[1]), list(columns)))
        columns.clear()
        return out

    def column(rng, indices):
        columns.append(sorted(real_column(rng, indices).items()))
        return columns[-1]

    monkeypatch.setattr(suites, "sample_point", recording)
    monkeypatch.setattr(suites, "rand_column", lambda rng, indices: dict(column(rng, indices)))
    for name in ("unitarity", "qkz-consistency", "cbar-qinv"):
        sizes = suites._SUITES[name].sizes
        alone = []
        for size in sizes:
            recorded.clear()
            suites.run_suite(name, samples=2, seed=9, sizes=(size,))
            alone.append(list(recorded))
        recorded.clear()
        suites.run_suite(name, samples=2, seed=9)
        # With the row, each sample runs every size in turn.
        assert recorded == [runs[i] for i in range(2) for runs in alone], name


# The suites that read their identities on one random column and write no
# operator per point; cross-derivative, phi-iso and l-restriction keep their
# own routes.
COLUMN_SUITES = ("ybe", "bybe", "unitarity", "lemma-AA", "lemma-LL", "comm-IM", "aha-relations")


# sha256 of the random columns the three transport suites draw at samples=2,
# seed 6 (22 columns: no point of F_p hit a pole), as
# json.dumps([sorted(column.items()) for column in drawn]).
GOLDEN_COLUMNS = "631aacf65e2790f48eea6772d107564a8c296e39067418e596b7562efc72744f"


def test_column_draws_match_the_golden_digest(monkeypatch):
    drawn = []
    real = suites.rand_column

    def recording(rng, indices):
        column = real(rng, indices)
        drawn.append(column)
        return column

    monkeypatch.setattr(suites, "rand_column", recording)
    for name in ("qkz-consistency", "compatibility", "cbar-qinv"):
        assert suites.run_suite(name, samples=2, seed=6).exact_zero, name
    assert len(drawn) == 22
    text = json.dumps([sorted(column.items()) for column in drawn])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_COLUMNS


# sha256 of the random columns the light suites that read a column draw at
# samples=2, seed 6 (42 columns: one per size and sample, two for
# unitarity, which checks on two sites and on one), in the same form.
GOLDEN_LIGHT_COLUMNS = "e59c5cb43d4c4334b6f125b779fabc3f3069387b713b6e09c34776593762e05f"


def test_light_column_draws_match_the_golden_digest(monkeypatch):
    drawn = []
    real = suites.rand_column

    def recording(rng, indices):
        column = real(rng, indices)
        drawn.append(column)
        return column

    monkeypatch.setattr(suites, "rand_column", recording)
    for name in COLUMN_SUITES:
        assert suites.run_suite(name, samples=2, seed=6).exact_zero, name
    assert len(drawn) == 42
    text = json.dumps([sorted(column.items()) for column in drawn])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_LIGHT_COLUMNS


# sha256 of body["suites"] of `bqkz verify --samples 1 --seed 6` over all 13
# suites, as json.dumps(..., sort_keys=True) (the notes carry the point
# records, each residue as its canonical int): as it is, and with op_B's
# first coefficient 2 (alpha + beta x_a) / (x_a^2 - 1) taken 3/2 times,
# which fails lemma-LL, compatibility and l-restriction with notes.
GOLDEN_BODY = "e810261f8bce0ca6c20478dca9f90a4ceae7bd5e56260b80b8b8128df02a9570"
GOLDEN_PERTURBED_BODY = "5c7788536509729bda4c7773b992f78232040c91024f6d97c294a773bb2a9369"


def _verify_body_digest(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--samples", "1", "--seed", "6", "--out", str(out)])
    capsys.readouterr()
    with open(out) as fh:
        entries = json.load(fh)["body"]["suites"]
    assert [entry["name"] for entry in entries] == list(suites.suite_names())
    return code, hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


def test_verify_body_matches_the_golden_digest(tmp_path, capsys):
    assert _verify_body_digest(tmp_path, capsys) == (0, GOLDEN_BODY)


def _perturb_op_b(monkeypatch):
    """Take op_B's first coefficient 3/2 times."""
    real = compat_ops.op_B_terms

    def perturbed(a, x, params):
        terms = real(a, x, params)
        n = params.space.n
        return [(coef * rat(3, 2), op) for coef, op in terms[:n]] + terms[n:]

    monkeypatch.setattr(compat_ops, "op_B_terms", perturbed)


def test_failing_verify_body_matches_the_golden_digest(tmp_path, capsys, monkeypatch):
    _perturb_op_b(monkeypatch)
    assert _verify_body_digest(tmp_path, capsys) == (1, GOLDEN_PERTURBED_BODY)


def test_a_failing_note_names_the_whole_point_and_replays(monkeypatch):
    """Under the perturbed op_B every lemma-LL note names each variable its
    row declares, in draw order, each residue as its canonical int, and
    the row's checks run at the noted record fail the noted check."""
    _perturb_op_b(monkeypatch)
    suite = suites._SUITES["lemma-LL"]
    notes = suites.run_suite("lemma-LL", samples=1, seed=6).notes
    assert notes
    sizes = {suite.label % size: size for size in suite.sizes}
    for note in notes:
        head, written = note.split(" point=")
        label, check = head.rsplit(" ", 1)
        point = {name: tuple(map(rat, v)) if isinstance(v, tuple) else rat(v)
                 for name, v in eval(written).items()}
        assert list(point) == [name for name, _, _ in suite.variables], note
        space = suite.space(sizes[label])
        assert check in suites._failing(suite.checks(point, space, make_rng(0), make_rng(1)))


def test_failure_notes_name_the_size_and_the_check(monkeypatch):
    monkeypatch.setattr(compat_ops, "comm_AA_defect", lambda *args: True)
    result = suites.run_suite("lemma-AA", samples=1, seed=0)
    assert not result.exact_zero
    assert result.failures == 1
    assert result.notes[0].startswith("n=2 half=2 pair-1-2 point=")


def test_route_mismatch_is_a_suite_failure(tmp_path, monkeypatch, capsys):
    """A disagreement between op_dK_term's two routes is a named check's
    failure, noted with its size and point, not an exception."""
    real = compat_ops.op_dK_dx
    # The last argument is the weight: the derivative route doubles.
    monkeypatch.setattr(compat_ops, "op_dK_dx", lambda *args: real(*args[:-1], 2 * args[-1]))
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "--suite", "compatibility", "--samples", "1", "--out", str(out)]
    )
    assert code == 1
    with open(out) as fh:
        (entry,) = json.load(fh)["body"]["suites"]
    assert entry["exact_zero"] is False
    assert entry["failures"] == 1
    assert entry["notes"][0].startswith("n=1 half=1 dk-route-1 point=")
    assert "FAIL" in capsys.readouterr().out


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
    """Each form builds its own transport chains once per site, for every
    label at once: the direct form the transport factors and the head of
    the derivatives; the split form the head, the middle and tail, and
    their inverses.  L_a is built once per label, at y only, from op_A's
    and op_B's terms, and L_a at each shifted y once per label and site,
    from L_a."""
    points = _calls_at_each_point(
        monkeypatch, "compatibility",
        [(rqkz, "_factor_op"), (compat_ops, "op_A_terms"), (compat_ops, "op_B_terms"),
         (compat_ops, "op_L_shifted")],
    )
    assert len(points) == 4
    for calls in points:
        _, x, y, params = calls["_factor_op"][0]
        n, half = params.space.n, params.space.half_dim
        labels = range(1, half + 1)
        chains = []
        for m in range(1, n + 1):
            head, mid, tail = rqkz.q_split_descs(m, n)
            chains += [(rqkz.q_factor_list(m, n), y), (head, y)]
            chains += [(head, y), (rqkz.invert_descs(head), y), ([mid] + tail, y),
                       (rqkz.invert_descs([mid] + tail), y)]
        assert _builds(calls) == _chains(chains)
        assert sorted(a for a, xx, _ in calls["op_B_terms"]) == list(labels)
        assert all(tuple(xx) == tuple(x) for _, xx, _ in calls["op_B_terms"])
        assert sorted((a, tuple(yy)) for a, yy, _ in calls["op_A_terms"]) == [
            (a, tuple(y)) for a in labels]
        assert sorted((a, m) for a, m, _, _ in calls["op_L_shifted"]) == [
            (a, m) for a in labels for m in range(1, n + 1)]


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


def _composes_and_embeddings(monkeypatch, names) -> dict:
    """Run one sample of each named suite to warm the point-free caches,
    then one more at another seed, which must pass; the names of the
    `LinOp.compose` and `tensor_ops._embedded` calls of that second run,
    under True when made inside a `sample_point` attempt, else under
    False."""
    for name in names:
        suites.run_suite(name, samples=1, seed=0)
    inside, calls = [False], {True: [], False: []}
    for owner, attr in ((LinOp, "compose"), (tensor_ops, "_embedded")):
        real = getattr(owner, attr)

        def counted(*args, attr=attr, real=real):
            calls[inside[0]].append(attr)
            return real(*args)

        monkeypatch.setattr(owner, attr, counted)
    real_sample_point = suites.sample_point

    def attempts(rng, builder):
        def flagged(r):
            inside[0] = True
            try:
                return builder(r)
            finally:
                inside[0] = False

        return real_sample_point(rng, flagged)

    monkeypatch.setattr(suites, "sample_point", attempts)
    for name in names:
        assert suites.run_suite(name, samples=1, seed=1).exact_zero, name
    return calls


TRANSPORT_SUITES = ("qkz-consistency", "compatibility", "cbar-qinv")


def test_the_transport_chains_embed_no_factor(monkeypatch):
    """qkz-consistency, compatibility and cbar-qinv apply every factor and
    derivative term where it acts: once the point-free caches are warm, a
    one-sample run composes no two operators and embeds none into the
    whole space.  Each dK/dx_a is a reflection-shaped factor that reaches
    its block by the gather, both in the direct form (`op_dQ_dx`) and in
    the derivative route of the dk-route check (`op_dK_term`)."""
    assert _composes_and_embeddings(monkeypatch, TRANSPORT_SUITES) == {True: [], False: []}


def test_the_light_chains_embed_write_and_compose_nothing(monkeypatch):
    """The ten light suites apply every factor and block where it acts:
    once the point-free caches are warm, a one-sample run composes no two
    operators and embeds none into the whole space, inside a
    `sample_point` attempt or out of it.  phi-iso applies its generators'
    factors to a unit column by their gather, and l-restriction reads its
    images from the cache."""
    light = [name for name in suites.suite_names() if name not in TRANSPORT_SUITES]
    assert len(light) == 10
    assert _composes_and_embeddings(monkeypatch, light) == {True: [], False: []}


def test_the_orbit_suites_compose_nothing_wider_than_the_orbit(fresh_caches, monkeypatch):
    """aha-relations reads its identities on one orbit column, and
    l-restriction keeps the orbit columns of its images: from cold caches,
    a one-sample run at n = 3 composes nothing, and every image holds at
    most the 48 orbit columns."""
    calls, real = [], LinOp.compose
    monkeypatch.setattr(LinOp, "compose", lambda *args: calls.append(1) or real(*args))
    for name in ("aha-relations", "l-restriction"):
        assert suites.run_suite(name, samples=1, seed=1, sizes=(3,)).exact_zero, name
    assert calls == []
    space = Space(3, 3)
    orbit = set(hecke_module.orbit_states(space))
    assert len(orbit) == 48
    images = [op for a in (1, 2, 3) for op in hecke_module.restriction_images(a, space)]
    assert all(set(op.cols) <= orbit for op in images)
    assert max(len(op.cols) for op in images) == 48


def test_l_restriction_builds_each_point_free_image_once(fresh_caches):
    """l-restriction at sizes 2 and 3 builds the tuple of its 5n - 2
    point-free images of each label once per process, 55 images in all,
    however many samples and runs read them: the pair-sum identities sum
    the images the assembled check weights."""
    for samples in (1, 4, 2):
        assert suites.run_suite("l-restriction", samples=samples, seed=0).exact_zero
    info = hecke_module.restriction_images.cache_info()
    assert info.misses == info.currsize == 2 + 3
    assert sum(len(hecke_module.restriction_images(a, Space(n, n)))
               for n in (2, 3) for a in range(1, n + 1)) == 55


def test_the_blocks_are_built_once_per_point_and_never_embedded(monkeypatch):
    """The block route builds each one-site block and the pair block once
    per point and applies each to the column where it acts: once the
    point-free caches are warm, nothing is embedded.  lemma-LL builds op_I
    once per label and site; comm-IM builds op_M once per label and point
    and hands it to both of its checks, and its two block sums share the
    one-site blocks, so op_I is built at 2 sites per label; op_M reads
    pair_J once per label, so a build is half reads."""
    for name in ("lemma-LL", "comm-IM"):
        suites.run_suite(name, samples=1, seed=0)
    with monkeypatch.context() as patch:
        points = _calls_at_each_point(
            patch, "lemma-LL", [(tensor_ops, "_embedded"), (compat_ops, "op_L_from_blocks"),
                                (compat_ops, "op_I")]
        )
    assert len(points) == 2
    for calls in points:
        params = calls["op_L_from_blocks"][0][3]
        n, half = params.space.n, params.space.half_dim
        assert _sites(calls["op_L_from_blocks"]) == list(range(1, half + 1))
        assert len(calls["op_I"]) == half * n
        assert calls["_embedded"] == []
    with monkeypatch.context() as patch:
        points = _calls_at_each_point(
            patch, "comm-IM", [(tensor_ops, "_embedded"), (compat_ops, "op_M"),
                               (compat_ops, "pair_J"), (compat_ops, "check_comm_IM"),
                               (compat_ops, "op_I")]
        )
    assert len(points) == 3
    for calls in points:
        half = calls["op_M"][0][2].space.half_dim
        assert _sites(calls["op_M"]) == _sites(calls["check_comm_IM"]) == list(range(1, half + 1))
        assert len(calls["pair_J"]) == half * half
        assert len(calls["op_I"]) == 2 * half
        assert calls["_embedded"] == []


@pytest.fixture
def fresh_caches():
    """Clear the point-free caches of `hecke_module` before a test and
    after it, so that a test that patches what they are built from neither
    reads a stale entry nor leaves a wrong one."""
    caches = (hecke_module.rhoL, hecke_module.orbit_states, hecke_module.restriction_images)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _bump(op: LinOp, i: int) -> LinOp:
    """op plus one at the diagonal entry of basis index i."""
    return op + LinOp.of(op.space, {i: {i: 1}})


def _whole(factor) -> LinOp:
    """A placed factor's whole operator: its gather on the identity block."""
    return factor.on_block(Block.identity(factor.space)).linop()


def test_a_perturbed_transport_factor_fails_both_transport_suites(monkeypatch):
    """One exchange-reflection factor is wrong wherever it is built; the
    reused transport operators must not hide it."""
    target = rqkz.q_factor_list(1, 2)[0]

    def replacement(real):
        def perturbed(desc, x, y, params):
            op = real(desc, x, y, params)
            return _bump(_whole(op), 0) if desc == target else op

        return perturbed

    monkeypatch.setattr(rqkz, "_factor_op", replacement(rqkz._factor_op))
    for name in ("qkz-consistency", "compatibility"):
        result = suites.run_suite(name, samples=1, seed=0, sizes=((2, 2),))
        assert result.failures == 1, name


def test_one_exchange_scalar_off_by_one_fails_both_transport_suites(monkeypatch):
    """The exchange factors reach the columns by their gather, not as
    operators: one factor's swap scalar off by one fails qkz-consistency
    and compatibility once each."""
    target = rqkz.q_factor_list(1, 2)[1]
    assert target[0] == "R"

    def perturbed(desc, x, y, params, real=rqkz._factor_op):
        op = real(desc, x, y, params)
        if desc != target:
            return op
        diag, keep, swap = op.scalars
        return Factor.exchange(diag, keep, swap + 1, desc[1], op.space, over=op.over)

    monkeypatch.setattr(rqkz, "_factor_op", perturbed)
    for name in ("qkz-consistency", "compatibility"):
        result = suites.run_suite(name, samples=1, seed=0, sizes=((2, 2),))
        assert result.failures == 1, name


def test_one_exchange_scalar_off_by_one_fails_the_braid_and_unitarity_suites(monkeypatch):
    """The braid and unitarity checks compare their two sides on a column:
    every exchange factor their chains read (`rqkz.r_factor`) with its swap
    scalar off by one fails ybe, bybe and unitarity's exchange checks."""

    def perturbed(lam, k, sites, space, real=rqkz.r_factor):
        factor = real(lam, k, sites, space)
        diag, keep, swap = factor.scalars
        return Factor.exchange(diag, keep, swap + 1, sites, space, over=factor.over)

    monkeypatch.setattr(rqkz, "r_factor", perturbed)
    for name in ("ybe", "bybe"):
        result = suites.run_suite(name, samples=1, seed=0)
        assert result.failures == 1, name
        assert result.notes[0].startswith("half=1 point="), name
    notes = suites.run_suite("unitarity", samples=1, seed=0).notes
    assert [note.split(" point=")[0] for note in notes] == [
        "half=1 exchange-inverse", "half=1 swap-factor"]


def test_one_pair_block_entry_off_by_one_fails_comm_im(monkeypatch):
    """comm-IM compares the sides of both of its identities on a column v:
    one diagonal entry of op_M off by one, at the state (0, 1) whose two
    sites differ, fails the conjugation check for every label at every
    size.  The flip conjugate P op_M P reads that entry only through v's
    entry at the swapped state (1, 0), so the slot-swap check fails exactly
    where that entry is nonzero: at every size at seed 0, and nowhere once
    that entry is taken out of every column, the Freivalds miss that a
    nonzero defect meets with probability at most 1/p."""

    def perturbed(a, x, params, real=compat_ops.op_M):
        op = real(a, x, params)
        return _bump(op, op.space.index((0, 1)))

    monkeypatch.setattr(compat_ops, "op_M", perturbed)
    real_column, real_sample_point = suites.rand_column, suites.sample_point
    for drop in (False, True):
        drawn, seen = [], []

        def recording_column(rng, indices, drop=drop, drawn=drawn):
            column = real_column(rng, indices)
            if drop:
                # On Space(2, half) the state (1, 0) has index d = 2 half.
                column.pop(math.isqrt(len(indices)), None)
            drawn.append(column)
            return column

        def recording_point(rng, builder, drawn=drawn, seen=seen):
            # The column is drawn first, so the last one drawn is the point's.
            names, point = real_sample_point(rng, builder)
            seen.append((drawn[-1], names))
            return names, point

        monkeypatch.setattr(suites, "rand_column", recording_column)
        monkeypatch.setattr(suites, "sample_point", recording_point)
        notes = suites.run_suite("comm-IM", samples=1, seed=0).notes
        assert [note.split(" point=")[0] for note in notes] == [
            "half=1 conjugation-1", "half=2 conjugation-1" if drop else "half=1 slot-swap-1"]
        swapped = [Space(2, half).index((1, 0)) for half in (1, 2, 3)]
        for half, (column, names), index in zip((1, 2, 3), seen, swapped, strict=True):
            assert (index in column) != drop
            assert names == [name for a in range(1, half + 1)
                             for name in ("conjugation-%d" % a, "slot-swap-%d" % a)
                             if not drop or name.startswith("conjugation")], half


def test_one_degenerate_flip_scalar_off_by_one_fails_both_cbar_checks(monkeypatch):
    target = hecke_module.cbar_factor_list(1, 2)[-1]
    assert target[0] == "K0"

    def perturbed(desc, x, y, params, real=hecke_module._cbar_factor):
        op = real(desc, x, y, params)
        if desc != target:
            return op
        diag, down, up, *flips = op.scalars
        return Factor((diag, down + 1, up, *flips), op.over, (1,), op.space)

    monkeypatch.setattr(hecke_module, "_cbar_factor", perturbed)
    notes = suites.run_suite("cbar-qinv", samples=1, seed=0, sizes=(2,)).notes
    assert [note.split(" point=")[0] for note in notes] == ["n=2 site-1", "n=2 grouped-1"]


def _perturbed_inverse_transport(monkeypatch, m, index):
    """Perturb, at one diagonal entry, the factor of the site-m inverse
    transport chain that the orbit check applies first; returns the
    cbar-qinv notes at n = 2."""
    target = rqkz.invert_descs(rqkz.q_factor_list(m, 2))[-1]

    def perturbed(desc, x, y, params, real=rqkz._factor_op):
        op = real(desc, x, y, params)
        return _bump(_whole(op), index) if desc == target else op

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
    orbit_index = hecke_module.orbit_states(Space(2, 2))[0]
    (note,) = _perturbed_inverse_transport(monkeypatch, 2, orbit_index)
    assert note.startswith("n=2 site-2 point=")


def test_a_perturbed_non_orbit_column_still_passes_the_site_check(monkeypatch):
    off_orbit = Space(2, 2).index((0, 0))
    assert off_orbit not in hecke_module.orbit_states(Space(2, 2))
    assert _perturbed_inverse_transport(monkeypatch, 2, off_orbit) == ()


def test_a_perturbed_degenerate_factor_fails_both_cbar_checks(monkeypatch):
    target = hecke_module.cbar_factor_list(1, 2)[-1]
    orbit_index = hecke_module.orbit_states(Space(2, 2))[0]

    def perturbed(desc, x, y, params, real=hecke_module._cbar_factor):
        op = real(desc, x, y, params)
        return _bump(_whole(op), orbit_index) if desc == target else op

    monkeypatch.setattr(hecke_module, "_cbar_factor", perturbed)
    notes = suites.run_suite("cbar-qinv", samples=1, seed=0, sizes=(2,)).notes
    assert [note.split(" point=")[0] for note in notes] == ["n=2 site-1", "n=2 grouped-1"]


def test_size_level_operators_are_built_once_per_run(fresh_caches):
    """The left-action images and the orbit states are cached: with the
    caches cleared first, the builds of one run do not grow with the
    sample count."""
    builders = (hecke_module.rhoL, hecke_module.orbit_states)
    # Per run over n = 2 and 3: distinct images (4 + 9 for the pair sums,
    # 2 + 3 generators) and one orbit per n.
    expected = {"l-restriction": 13, "aha-relations": 5, "cbar-qinv": 0}
    for name, images in expected.items():
        for samples in (1, 4):
            for builder in builders + (hecke_module.restriction_images,):
                builder.cache_clear()
            assert suites.run_suite(name, samples=samples, seed=0).exact_zero
            misses = [builder.cache_info().misses for builder in builders]
            assert misses == [images, 2], (name, samples)


def test_one_wrong_left_image_fails_a_point_free_and_the_assembled_check(fresh_caches,
                                                                          monkeypatch):
    """A wrong rhoL(s_12) entry on the orbit shows in the pair-sum identity
    proved once per size and in the assembled form checked at the point."""
    target = hecke_module.elem_s(1, 2, 2)
    orbit_index = hecke_module.orbit_states(Space(2, 2))[0]

    def perturbed(w, space, real=hecke_module.rhoL):
        op = real(w, space)
        return _bump(op, orbit_index) if w == target else op

    monkeypatch.setattr(hecke_module, "rhoL", perturbed)
    result = suites.run_suite("l-restriction", samples=1, seed=0, sizes=(2,))
    assert result.failures == 2
    assert result.notes[0] == "n=2 swap-pair-2-1"
    assert any(note.startswith("n=2 assembled-1 point=") for note in result.notes[1:])


def test_colliding_images_count_once_per_size_and_sampling_goes_on(fresh_caches, monkeypatch):
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


def test_a_swap_generator_that_keeps_its_column_fails_exactly_its_words(monkeypatch):
    """phi-iso reads the support of each word's image on the unit column of
    phi(id): a swap generator s_1 that also keeps its column spreads the
    image over a second state, so exactly the words that hold s_1 fail the
    equivariance check."""
    real = hecke_module.rhoR_generator
    words, seen = [], []

    def leaky(g, x, space):
        words[-1].append(g)
        return Factor.exchange(1, 1, 1, (1, 2), space) if g == 1 else real(g, x, space)

    monkeypatch.setattr(hecke_module, "rhoR_generator", leaky)
    real_sample_point = suites.sample_point

    def recording(rng, builder, *args, **kwargs):
        def fresh(r):
            words.append([])
            return builder(r)

        names, point = real_sample_point(rng, fresh, *args, **kwargs)
        seen.append((names, words[-1]))
        return names, point

    monkeypatch.setattr(suites, "sample_point", recording)
    result = suites.run_suite("phi-iso", samples=10, seed=0)
    assert any(1 in word for _, word in seen) and any(1 not in word for _, word in seen)
    for names, word in seen:
        assert names == (["equivariance word=%r" % (word,)] if 1 in word else []), word
    assert result.failures == len({i // 2 for i, (names, _) in enumerate(seen) if names})
