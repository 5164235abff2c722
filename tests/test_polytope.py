"""LP membership and canonical-decomposition tests."""

import itertools

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from scipy.optimize import OptimizeResult

from boxlab import _tol, boxcore, discord2, polytope, qstate, tribox

RNG = np.random.default_rng(2024)


def test_is_local_on_deterministic_box():
    det = boxcore.det_box(0, 1, 1, 0)
    res = polytope.is_local(det)
    assert res.inside
    assert res.weights[boxcore.det_id(0, 1, 1, 0)] == pytest.approx(1.0, abs=1e-7)


def test_is_local_isotropic_pr_boundary():
    pr = boxcore.pr_box(0, 0, 0)
    noise = boxcore.noise_box()
    outside = polytope.is_local(boxcore.mix([pr, noise], [0.6, 0.4]))
    assert not outside.inside
    facet, margin = outside.violated_facet
    assert facet == "B000"
    assert margin == pytest.approx(0.4, abs=1e-9)
    inside = polytope.is_local(boxcore.mix([pr, noise], [0.5, 0.5]))
    assert inside.inside


def test_membership_reconstruction_tolerance():
    for _ in range(20):
        box = polytope.random_ns_box(RNG)
        weights = polytope.lp_vertex_decomposition(box, boxcore.ns_vertex_ids())
        assert weights is not None
        recon = sum(w * boxcore.vertex(v).table for v, w in weights.items())
        assert np.max(np.abs(recon - box.table)) <= 1e-7


def test_ns_membership_and_monotonicity():
    assert polytope.ns_membership(boxcore.pr_box(0, 0, 0))
    for _ in range(30):
        box = polytope.random_ns_box(RNG)
        assert polytope.ns_membership(box)
        if polytope.is_local(box).inside:
            assert polytope.ns_membership(box)


def test_pr_box_is_not_local():
    weights = polytope.lp_vertex_decomposition(boxcore.pr_box(0, 0, 0),
                                               boxcore.all_det_ids())
    assert weights is None


def test_tsirelson_decomposition_weight():
    box = boxcore.tsirelson_box(0, 0, 0)
    weights = polytope.lp_vertex_decomposition(box, boxcore.ns_vertex_ids())
    assert weights is not None  # the LP picks one of many representations
    # the advertised representation (1/sqrt2 on PR000, rest white noise)
    # reconstructs the box exactly, and the canonical split returns it
    w = 1 / np.sqrt(2)
    recon = w * boxcore.pr_box(0, 0, 0).table + (1 - w) * 0.25
    assert np.allclose(recon, box.table, atol=1e-15)
    dec = polytope.canonical_2decomposition(box)
    assert dec.mu == pytest.approx(w, abs=1e-12)
    assert np.allclose(dec.residual.table, 0.25, atol=1e-12)


def test_fine_agreement_on_random_sample():
    agree = 0
    total = 0
    for _ in range(300):
        box = polytope.random_ns_box(RNG)
        bmax = float(np.max(discord2.bell_functions(box)))
        if abs(bmax - 2.0) <= boxcore.EPS_LP:
            continue
        total += 1
        agree += polytope.is_local(box).inside == (bmax < 2.0)
    assert total > 250
    assert agree == total


def test_canonical_2decomposition_isotropic_pr():
    noise = boxcore.noise_box()
    for p in (0.0, 0.3, 0.8):
        box = boxcore.mix([boxcore.pr_box(0, 0, 0), noise], [p, 1 - p])
        dec = polytope.canonical_2decomposition(box)
        assert dec.mu == pytest.approx(p, abs=1e-12)
        assert np.allclose(dec.residual.table, 0.25, atol=1e-12)
        assert dec.nu == 0.0


def test_canonical_2decomposition_prq_maximally_entangled():
    box = qstate.born_box2(qstate.schmidt_state(np.pi / 4),
                           qstate.settings_catalog("PRQ", 1.0))
    dec = polytope.canonical_2decomposition(box)
    assert dec.mu == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert np.allclose(dec.residual.table, 0.25, atol=1e-9)


def test_canonical_2decomposition_degenerate_pr():
    dec = polytope.canonical_2decomposition(boxcore.pr_box(1, 0, 1))
    assert dec.mu == 1.0
    assert dec.pr_id == boxcore.pr_id(1, 0, 1)


def test_canonical_2decomposition_idempotent_and_reconstructs():
    for _ in range(25):
        box = polytope.random_ns_box(RNG)
        try:
            dec = polytope.canonical_2decomposition(box)
        except polytope.ResidualInvalidError:
            continue  # boxes without a PR-subtractable frame are reported, not forced
        recon = dec.reconstruction(boxcore.vertex(dec.pr_id).table, None)
        assert np.max(np.abs(recon - box.table)) <= 1e-7
        again = polytope.canonical_2decomposition(dec.residual)
        assert again.mu <= 1e-7


def test_canonical_2decomposition_reports_tilted_product_box():
    # tilted product boxes have positive formula-G but no PR-subtractable
    # weight (they vanish where every PR box has support); the structured
    # error is the contract here
    rho = qstate.density_matrix(np.kron(
        0.5 * (np.eye(2) + qstate.SIGMA_X),
        0.5 * (np.eye(2) + 0.8 * qstate.SIGMA_X + 0.1 * qstate.SIGMA_Y)))
    frame = qstate.settings([1, 0, 0], [2 / np.sqrt(5), 1 / np.sqrt(5), 0],
                            [1, 0, 0], [0, 1, 0])
    box = qstate.born_box2(rho, frame)
    assert discord2.bell_discord(box) > 0.1
    with pytest.raises(polytope.ResidualInvalidError):
        polytope.canonical_2decomposition(box)


def test_three_decomposition_mermin_box():
    dec = polytope.three_decomposition(boxcore.mermin_box(0, 0, 0))
    assert dec.mu == pytest.approx(0.0, abs=1e-12)
    assert dec.nu == pytest.approx(1.0, abs=1e-12)
    assert dec.mermin_id == boxcore.mermin_id(0, 0, 0)


def test_three_decomposition_det_box():
    det = boxcore.det_box(0, 0, 1, 1)
    dec = polytope.three_decomposition(det)
    assert dec.mu == 0.0 and dec.nu == 0.0
    assert dec.residual.allclose(det)


def test_three_decomposition_bell_state_family():
    rho = qstate.bell_psi_plus()
    for p in (0.5, 0.6, 0.75, 0.9, 1.0):
        box = qstate.born_box2(rho, qstate.settings_catalog("meb1", p))
        dec = polytope.three_decomposition(box)
        assert dec.mu == pytest.approx(np.sqrt(1 - p), abs=1e-9)
        assert dec.nu == pytest.approx(np.sqrt(p) - np.sqrt(1 - p), abs=1e-9)
        assert np.allclose(dec.residual.table, 0.25, atol=1e-9)
        recon = dec.reconstruction(boxcore.vertex(dec.pr_id).table,
                                   boxcore.vertex(dec.mermin_id).table)
        assert np.max(np.abs(recon - box.table)) <= 1e-9


def test_three_decomposition_constructed_canonical_mixtures():
    # mixtures built as mu*PR + nu*(canonical Mermin partner) + noise must
    # come back with exactly those weights
    pr = boxcore.pr_box(0, 0, 0)
    for mid in (boxcore.mermin_id(0, 0, 0), boxcore.mermin_id(1, 1, 1)):
        mm = boxcore.vertex(mid)
        for _ in range(8):
            mu, nu = RNG.dirichlet(np.ones(3))[:2]
            box = boxcore.mix([pr, mm, boxcore.noise_box()], [mu, nu, 1 - mu - nu])
            dec = polytope.three_decomposition(box)
            assert dec.mu == pytest.approx(mu, abs=1e-9)
            assert dec.nu == pytest.approx(nu, abs=1e-9)
            recon = dec.reconstruction(boxcore.vertex(dec.pr_id).table,
                                       boxcore.vertex(dec.mermin_id).table)
            assert np.max(np.abs(recon - box.table)) <= 1e-9


def test_three_decomposition_random_quantum_boxes_contract():
    # generic quantum boxes either decompose cleanly or raise the structured
    # error; a returned result must reconstruct with a double-zero residual
    frames = [qstate.settings_catalog("BSb"), qstate.settings_catalog("MSb"),
              qstate.settings_catalog("meb1", 0.7)]
    succeeded = 0
    for _ in range(8):
        rho = qstate.random_two_qubit_state(RNG)
        for frame in frames:
            box = qstate.born_box2(rho, frame)
            try:
                dec = polytope.three_decomposition(box)
            except polytope.ResidualInvalidError:
                continue
            succeeded += 1
            assert discord2.bell_discord(dec.residual) <= 1e-6
            assert discord2.mermin_discord(dec.residual) <= 1e-6
            assert abs(dec.mu - discord2.bell_discord(box) / 4) < 1e-12
            assert abs(dec.nu - discord2.mermin_discord(box) / 2) < 1e-12
            recon = dec.reconstruction(boxcore.vertex(dec.pr_id).table,
                                       boxcore.vertex(dec.mermin_id).table)
            assert np.max(np.abs(recon - box.table)) <= 1e-7
    assert succeeded >= 1


def test_random_ns_box_is_valid_and_seeded():
    a = polytope.random_ns_tables(np.random.default_rng(7), 5)
    b = polytope.random_ns_tables(np.random.default_rng(7), 5)
    assert np.array_equal(a, b)
    for t in a:
        boxcore.make_box(t)


# -- stacked LP: the regions criterion 10's random boxes never reach ----------

SIGN2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
DET = polytope.vertex_matrix(boxcore.all_det_ids())
PR = polytope.vertex_matrix(boxcore.all_pr_ids())


def _signed_chsh(tables):
    """The 8 signed CHSH values of each table in a stack, shape (n, 8)."""
    e = np.einsum("nxyab,ab->nxy", tables.reshape(-1, 2, 2, 2, 2), SIGN2)
    return discord2.chsh_values_from_expectations(e).reshape(len(e), -1)


def _pr_weighted_mixtures(rng, n):
    """p * PR + (1 - p) * random NS box, p uniform: about half nonlocal."""
    p = rng.uniform(size=(n, 1))
    ns = polytope.random_ns_tables(rng, n).reshape(n, 16)
    return p * PR[rng.integers(8, size=n)] + (1 - p) * ns


def _near_facet_tables(rng, n):
    """Boxes on the segment from a random local box to a random PR box, placed
    where the largest CHSH value is 2 +- delta, delta log-uniform in
    [1e-6, 1e-2]; returns the tables and their signed distance CHSH - 2."""
    local = rng.dirichlet(np.ones(len(DET)), size=n) @ DET
    pr = PR[rng.integers(8, size=n)]
    c_local = _signed_chsh(local)
    c_pr = _signed_chsh(pr)
    assert np.all(c_local.max(axis=1) < 2 - 1e-2)
    delta = rng.choice([-1.0, 1.0], size=n) * 10 ** rng.uniform(-6, -2, size=n)
    rising = c_pr > c_local
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(rising, (2 + delta[:, None] - c_local) / (c_pr - c_local), np.inf)
    s = s.min(axis=1)[:, None]
    tables = (1 - s) * local + s * pr
    return tables, _signed_chsh(tables).max(axis=1) - 2


def _assert_single_calls_match(stack, vertices, weights):
    """One-at-a-time calls give the stacked verdicts, and weights that, like
    the stacked ones, reconstruct the target (an inner point has many)."""
    for target, w in zip(stack, weights):
        single = polytope.lp_vertex_weights(target, vertices)
        assert (single is None) == bool(np.isnan(w).all())
        if single is not None:
            for u in (single, w):
                assert u.min() >= 0.0
                assert np.max(np.abs(u @ vertices - target)) <= boxcore.EPS_LP


def test_stacked_lp_agrees_with_chsh_on_pr_weighted_mixtures():
    rng = np.random.default_rng(4101)
    tables = _pr_weighted_mixtures(rng, 1000)
    bmax = _signed_chsh(tables).max(axis=1)
    keep = np.abs(bmax - 2.0) > boxcore.EPS_LP
    weights = polytope.lp_vertex_weights(tables[keep], DET)
    inside = ~np.isnan(weights[:, 0])
    assert np.array_equal(inside, bmax[keep] < 2.0)
    assert 0.3 < np.mean(inside) < 0.7
    _assert_single_calls_match(tables[keep][:100], DET, weights[:100])


def test_stacked_lp_agrees_with_chsh_on_near_facet_boxes():
    # deciding by the residual max|w V - t| <= EPS_LP instead of the slack
    # sum calls some of these boxes local that lie up to about 1.2e-6 above
    # the facet
    rng = np.random.default_rng(4102)
    tables, gap = _near_facet_tables(rng, 2000)
    assert np.all((np.abs(gap) >= 0.99e-6) & (np.abs(gap) <= 1.01e-2))
    weights = polytope.lp_vertex_weights(tables, DET)
    assert np.array_equal(~np.isnan(weights[:, 0]), gap < 0)
    _assert_single_calls_match(tables[:100], DET, weights[:100])


def test_stack_of_one_matches_single_target():
    mixture = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.noise_box()], [0.3, 0.7])
    target = mixture.table.reshape(-1)
    assert np.array_equal(polytope.lp_vertex_weights(target[None], DET)[0],
                          polytope.lp_vertex_weights(target, DET))
    assert polytope.lp_vertex_weights(PR[3], DET) is None
    assert np.isnan(polytope.lp_vertex_weights(PR[3:4], DET)).all()
    assert polytope.lp_vertex_weights(np.empty((0, 16)), DET).shape == (0, 16)
    # a vertex has one decomposition, so there the weights must be equal too
    assert np.allclose(polytope.lp_vertex_weights(DET, DET), np.eye(16),
                       atol=boxcore.EPS_LP)


def test_stacked_lp_over_svetlichny_polytope_all_feasible():
    rng = np.random.default_rng(4104)
    vertices = tribox.tri_vertex_matrix(tribox.sv_polytope_ids())
    w = rng.dirichlet(np.ones(len(vertices)), size=40)
    w[:20, :16] += 4.0 * rng.dirichlet(np.ones(16), size=20)  # Svetlichny-heavy
    w /= w.sum(axis=1, keepdims=True)
    targets = np.vstack([w @ vertices, vertices])
    weights = polytope.lp_vertex_weights(targets, vertices)
    assert not np.isnan(weights).any()
    assert np.max(np.abs(weights @ vertices - targets)) <= boxcore.EPS_LP


def test_nonzero_solver_status_raises(monkeypatch):
    def failing_linprog(**kwargs):
        return OptimizeResult(status=4, message="numerical difficulties", x=None)

    monkeypatch.setattr(polytope, "linprog", failing_linprog)
    target = boxcore.noise_box().table.reshape(-1)
    with pytest.raises(polytope.LpNumericalFailure, match="status 4"):
        polytope.lp_vertex_weights(target, DET)
    with pytest.raises(polytope.LpNumericalFailure, match="status 4"):
        polytope.lp_vertex_weights(np.stack([target, target]), DET)


def test_membership_accepts_tables_the_validators_admit(lp_solver):
    # make_box lets block sums and marginals miss by EPS_VALID, so such a
    # table needs a positive slack sum however deep inside the hull it lies
    eps = 0.9 * boxcore.EPS_VALID
    table = boxcore.noise_box().table.copy()
    table[0, 0, 0, 0] += eps
    table[1, 1, 0, 0] -= eps
    box = boxcore.make_box(table)
    assert polytope.is_local(box).inside
    assert polytope.ns_membership(box)
    weights = polytope.lp_vertex_weights(np.stack([table.reshape(-1)] * 2), DET)
    assert not np.isnan(weights).any()


@pytest.mark.parametrize("shape", [(64,), (2, 2, 2, 2), (3, 15), (2, 3, 16)])
def test_lp_vertex_weights_rejects_mismatched_target(shape):
    with pytest.raises(ValueError, match="does not match"):
        polytope.lp_vertex_weights(np.full(shape, 0.25), DET)


# -- one vertex matrix per target --------------------------------------------

def _tripartite_hull_targets():
    rng = np.random.default_rng(4105)
    boxes = [tribox.random_sv_polytope_box(rng) for _ in range(4)]
    ghz = qstate.ghz_state()
    boxes += [qstate.born_box3(ghz, qstate.settings_catalog("SMDghz", p)) for p in (0.5, 0.8)]
    boxes += [tribox.class8_box(), tribox.mermin3_box(0, 1, 1, 0), tribox.noise3_box(),
              tribox.det3_box(1, 0, 1, 1, 0, 1)]
    return [b.table.reshape(-1) for b in boxes]


TRI_HULLS = [tribox.tri_vertex_matrix(ids) for ids in (
    tribox.sv_polytope_ids(), tribox.two_way_local_ids(), tribox.all_det3_ids())]


def _assert_per_target_matches_single_calls(targets, vertex_sets):
    weights = polytope.lp_vertex_weights(np.stack(targets), vertex_sets)
    assert len(weights) == len(targets)
    verdicts = []
    for target, vertices, w in zip(targets, vertex_sets, weights):
        single = polytope.lp_vertex_weights(target, vertices)
        assert (single is None) == (w is None)
        if w is not None:
            assert w.shape == (len(vertices),) and w.min() >= 0.0
            assert np.max(np.abs(w @ vertices - target)) <= boxcore.EPS_LP
        verdicts.append(w is not None)
    return verdicts


def test_per_target_vertex_sets_match_separate_calls():
    seen = set()
    for target in _tripartite_hull_targets():
        seen.add(tuple(_assert_per_target_matches_single_calls([target] * 3, TRI_HULLS)))
    # inside all three, inside only the Svetlichny polytope, outside all
    assert {(True, True, True), (True, False, False), (False, False, False)} <= seen
    # targets of different boxes and vertex sets of different sizes, bipartite
    ns = polytope.vertex_matrix(boxcore.ns_vertex_ids())
    pr_mix = 0.7 * PR[2] + 0.3 * boxcore.noise_box().table.reshape(-1)
    assert _assert_per_target_matches_single_calls(
        [pr_mix, pr_mix, DET[5]], [DET, ns, PR]) == [False, True, False]


def test_per_target_vertex_sets_agree_with_chsh_on_near_facet_boxes():
    tables, gap = _near_facet_tables(np.random.default_rng(4106), 12)
    weights = polytope.lp_vertex_weights(tables, [DET] * len(tables))
    assert [w is not None for w in weights] == list(gap < 0)
    assert 0 < np.sum(gap < 0) < len(gap)


def test_per_target_vertex_sets_accept_tables_the_validators_admit(lp_solver):
    eps = 0.9 * boxcore.EPS_VALID
    table = tribox.noise3_box().table.copy()
    for x, y, z in itertools.product(range(2), repeat=3):
        table[x, y, z, 0, 0, 0] += (-1) ** (x + y + z) * eps / 2
    target = tribox.make_box3(table).table.reshape(-1)
    assert _assert_per_target_matches_single_calls([target] * 3, TRI_HULLS) == [True] * 3


def test_per_target_vertex_sets_reject_mismatched_shapes():
    target = boxcore.noise_box().table.reshape(-1)
    for bad in (np.stack([target] * 3), target, np.stack([target] * 2)[:, :15]):
        with pytest.raises(ValueError, match="does not match"):
            polytope.lp_vertex_weights(bad, [DET, DET])


# -- nested hulls from one LP ------------------------------------------------

# sv_polytope_ids(): 16 Svetlichny, 48 embedded PR, 64 deterministic rows
TRI = tribox.tri_vertex_matrix(tribox.sv_polytope_ids())
TRI_STARTS = (0, 16, 64)
TRI_THR = 64 * boxcore.EPS_LP_SLACK


def _separate_flags(target):
    return [polytope.lp_vertex_weights(target, TRI[start:]) is not None
            for start in TRI_STARTS]


def _perturbed_noise3():
    # block sums off by +-eps/2, as in test_per_target_vertex_sets_accept_...
    eps = 0.9 * boxcore.EPS_VALID
    table = tribox.noise3_box().table.copy()
    for x, y, z in itertools.product(range(2), repeat=3):
        table[x, y, z, 0, 0, 0] += (-1) ** (x + y + z) * eps / 2
    return tribox.make_box3(table).table.reshape(-1)


@hypothesis.settings(deadline=None, derandomize=True, max_examples=60)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), inner=st.sampled_from(TRI_STARTS[1:]),
                  size=st.integers(1, 8), log_eps=st.floats(-7.0, -2.0))
def test_nested_hull_flags_match_separate_lps_near_inner_hulls(seed, inner, size, log_eps):
    # a mixture of `size` vertices of an inner hull (two-way local or local)
    # with 1e-7 to 1e-2 of weight on one vertex outside it
    rng = np.random.default_rng(seed)
    rows = rng.choice(np.arange(inner, len(TRI)), size=size, replace=False)
    w = rng.exponential(size=size)
    eps = 10.0 ** log_eps
    target = (1 - eps) * (w / w.sum()) @ TRI[rows] + eps * TRI[rng.integers(inner)]
    assert polytope.nested_hull_flags(target, TRI, TRI_STARTS) == _separate_flags(target)


def test_nested_hull_flags_match_separate_lps(lp_solver):
    seen = []
    for target in [*_tripartite_hull_targets(), _perturbed_noise3()]:
        flags = polytope.nested_hull_flags(target, TRI, TRI_STARTS)
        assert flags == _separate_flags(target)
        seen.append(tuple(flags))
    assert {(True, True, True), (True, False, False), (False, False, False)} <= set(seen)
    assert seen[-1] == (True, True, True)  # the perturbed noise3 table


def test_nested_hull_flags_fall_back_to_each_hull_without_costs(monkeypatch):
    # without weight costs the LP's split over the tiers is arbitrary, so
    # some flags are left to lp_vertex_weights on their own hull
    monkeypatch.setattr(_tol, "NESTED_COST_OUTER", 0.0)
    monkeypatch.setattr(_tol, "NESTED_COST_MIDDLE", 0.0)
    single = polytope.lp_vertex_weights
    fallbacks = []

    def counted(target, vertices):
        fallbacks.append(len(vertices))
        return single(target, vertices)

    monkeypatch.setattr(polytope, "lp_vertex_weights", counted)
    rng = np.random.default_rng(4107)
    targets = _tripartite_hull_targets()
    for inner in TRI_STARTS[1:]:
        w = rng.exponential(size=len(TRI) - inner)
        targets.append(0.999 * (w / w.sum()) @ TRI[inner:] + 0.001 * TRI[0])
    for target in targets:
        flags = polytope.nested_hull_flags(target, TRI, TRI_STARTS)
        calls = len(fallbacks)
        assert flags == [single(target, TRI[start:]) is not None for start in TRI_STARTS]
        assert len(fallbacks) == calls
    assert fallbacks


def test_nested_hull_flags_two_tiers_bipartite():
    ns = polytope.vertex_matrix(boxcore.all_pr_ids() + boxcore.all_det_ids())
    pr_mix = 0.7 * PR[2] + 0.3 * boxcore.noise_box().table.reshape(-1)
    for target, want in ((pr_mix, [True, False]), (DET[5], [True, True]),
                         (0.5 * PR[1] + 0.5 * DET[3], [True, False])):
        assert polytope.nested_hull_flags(target, ns, (0, 8)) == want


@pytest.mark.parametrize("starts", [(), (1, 16), (0, 64, 16), (0, 16, 16), (0, 128),
                                    (0, 8, 16, 64)])
def test_nested_hull_flags_reject_bad_tiers(starts):
    with pytest.raises(ValueError, match="starts"):
        polytope.nested_hull_flags(TRI[0], TRI, starts)


def test_nested_hull_flags_reject_mismatched_target():
    with pytest.raises(ValueError, match="does not match"):
        polytope.nested_hull_flags(TRI[:2], TRI, TRI_STARTS)


def test_dual_certificate_never_rejects_a_target_within_the_threshold():
    # t lies within the slack threshold of the deterministic hull: it is a
    # vertex plus a little weight on one entry p of that vertex
    hull = TRI[64:]
    vertex = hull[5]
    p = int(np.flatnonzero(vertex)[0])
    bump = np.zeros(64)
    bump[p] = 1.0
    # y = -1 but +1 at p: every hull row scores below zero, so only
    # max(0, .) stops the row bound from crediting the certificate
    y = 2.0 * bump - 1.0
    target = vertex + TRI_THR / 4 * bump
    assert not polytope._certified_outside(target, y, hull, TRI_THR)
    # a y far outside [-1, 1] that scores zero on every hull row: only the
    # clip keeps its large entry at p from proving a false gap
    block = np.zeros((2,) * 6)
    block[np.unravel_index(p, block.shape)[:3]] = 1.0
    y = 1000.0 * bump - 1000.0 / 7 * (1.0 - block.reshape(-1))
    assert np.max(hull @ y) == pytest.approx(0.0, abs=1e-9)
    target = vertex + TRI_THR / 2 * bump
    assert not polytope._certified_outside(target, y, hull, TRI_THR)
    # and the certificate does fire on a vertex far outside
    assert polytope._certified_outside(TRI[0], np.clip(8 * TRI[0] - 1, -1, 1), hull, TRI_THR)
