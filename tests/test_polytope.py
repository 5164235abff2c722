"""LP membership and canonical-decomposition tests."""

import itertools
import sys
import threading

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import linalg
from scipy.optimize import linprog

from boxlab import _corr, _tol, acceptance, boxcore, discord2, polytope, qstate, tribox

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
        vertices = polytope.vertex_matrix(boxcore.ns_vertex_ids())
        weights = polytope.lp_vertex_weights(box.table.reshape(-1), vertices)
        assert weights is not None
        assert np.max(np.abs(weights @ vertices - box.table.reshape(-1))) <= 1e-7


def test_ns_membership_and_monotonicity():
    assert polytope.ns_membership(boxcore.pr_box(0, 0, 0))
    for _ in range(30):
        box = polytope.random_ns_box(RNG)
        assert polytope.ns_membership(box)
        if polytope.is_local(box).inside:
            assert polytope.ns_membership(box)


def test_pr_box_is_not_local():
    weights = polytope.lp_vertex_weights(boxcore.pr_box(0, 0, 0).table.reshape(-1),
                                         polytope.vertex_matrix(boxcore.all_det_ids()))
    assert weights is None


def test_tsirelson_decomposition_weight():
    box = boxcore.tsirelson_box(0, 0, 0)
    weights = polytope.lp_vertex_weights(box.table.reshape(-1),
                                         polytope.vertex_matrix(boxcore.ns_vertex_ids()))
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
        dec = polytope.canonical_2decomposition(box)
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


def _second_pr_witness(eps):
    """(1 - eps)(PR010 + Det0001)/2 + eps PR100."""
    parts = [boxcore.vertex(boxcore.parse_vertex_label(label))
             for label in ("PR010", "Det0001", "PR100")]
    return boxcore.mix(parts, [(1 - eps) / 2, (1 - eps) / 2, eps])


@pytest.mark.parametrize("eps", [1e-7, 1e-6])
def test_canonical_2decomposition_splits_over_the_second_pr_box(eps):
    # the argmax PR box leaves an invalid residual at mu = G/4; PR010, the
    # second in signed-CHSH order, leaves a valid one of zero Bell discord
    box = _second_pr_witness(eps)
    dec = polytope.canonical_2decomposition(box)
    assert dec.pr_id == boxcore.pr_id(0, 1, 0)
    assert dec.mu == discord2.bell_discord(box) / 4
    assert discord2.bell_discord(dec.residual) <= _tol.DISCORD_TOL
    recon = dec.reconstruction(boxcore.vertex(dec.pr_id).table, None)
    assert np.max(np.abs(recon - box.table)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_each_mermin_partner_mixes_its_top_with_a_top_of_the_complementary_label(n):
    # MerminMM(a,b,g) = (PR(a,b,g) + PR(1-a,1-b,g^b))/2 and
    # Mermin3(l,e) = (Sv(l,e) + Sv(~l, e^parity(l)))/2
    pairs = polytope._pairs(n)
    assert len(pairs.top_ids) == 2 ** (n + 1)
    for t, top in enumerate(pairs.top_ids):
        others = []
        for k in range(2):
            other = 2 * pairs.partners[t, k] - pairs.top[t]
            [u] = [u for u, row in enumerate(pairs.top) if np.array_equal(row, other)]
            assert [b ^ 1 for b in pairs.top_ids[u].params[:-1]] == list(top.params[:-1])
            others.append(u)
        assert others[0] != others[1]


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
    return _corr.operator_values(e.reshape(-1, 4), 2).reshape(len(e), -1)


def _pr_weighted_mixtures(rng, n):
    """p * PR + (1 - p) * random NS box, p uniform: about half nonlocal."""
    p = rng.uniform(size=(n, 1))
    ns = polytope.random_ns_tables(rng, n).reshape(n, 16)
    return p * PR[rng.integers(8, size=n)] + (1 - p) * ns


def _near_facet_tables(rng, n, decades=(-6, -2)):
    """Boxes on the segment from a random local box to a random PR box, placed
    where the largest CHSH value is 2 +- delta, delta log-uniform in
    [1e-6, 1e-2], or between the powers of ten `decades`; returns the
    tables and their signed distance CHSH - 2."""
    local = rng.dirichlet(np.ones(len(DET)), size=n) @ DET
    pr = PR[rng.integers(8, size=n)]
    c_local = _signed_chsh(local)
    c_pr = _signed_chsh(pr)
    assert np.all(c_local.max(axis=1) < 2 - 1e-2)
    delta = rng.choice([-1.0, 1.0], size=n) * 10 ** rng.uniform(*decades, size=n)
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
    # with no simplex iteration allowed HiGHS stops at its iteration limit
    monkeypatch.setitem(polytope._HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    target = boxcore.noise_box().table.reshape(-1)
    with pytest.raises(polytope.LpNumericalFailure, match="status 14: Iteration limit"):
        polytope.lp_vertex_weights(target, DET)
    with pytest.raises(polytope.LpNumericalFailure, match="status 14: Iteration limit"):
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
    with pytest.raises(ValueError, match="does not match"):
        polytope._inside_flags(np.full(shape, 0.25), DET)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lp_entry_points_reject_non_finite_targets(bad):
    target = boxcore.noise_box().table.reshape(-1)
    assert polytope.lp_vertex_weights(target, DET) is not None
    broken = target.copy()
    broken[3] = bad
    for call in (lambda: polytope.lp_vertex_weights(broken, DET),
                 lambda: polytope.lp_vertex_weights(np.stack([target, broken]), DET),
                 lambda: polytope.lp_vertex_weights(np.stack([target, broken]), [DET, DET]),
                 lambda: polytope._inside_flags(np.stack([target, broken]), DET),
                 lambda: polytope.nested_hull_flags(broken, DET, (0,))):
        with pytest.raises(ValueError, match="non-finite"):
            call()


# -- tripartite hull targets; vertices must be one matrix ---------------------

def _tripartite_hull_targets():
    rng = np.random.default_rng(4105)
    boxes = [tribox.random_sv_polytope_box(rng) for _ in range(4)]
    ghz = qstate.ghz_state()
    boxes += [qstate.born_box3(ghz, qstate.settings_catalog("SMDghz", p)) for p in (0.5, 0.8)]
    boxes += [tribox.class8_box(), tribox.mermin3_box(0, 1, 1, 0), tribox.noise3_box(),
              tribox.det3_box(1, 0, 1, 1, 0, 1)]
    return [b.table.reshape(-1) for b in boxes]


def test_per_target_vertex_sets_reject_mismatched_shapes():
    target = boxcore.noise_box().table.reshape(-1)
    for bad in (np.stack([target] * 3), target, np.stack([target] * 2)[:, :15]):
        with pytest.raises(ValueError, match="does not match"):
            polytope.lp_vertex_weights(bad, [DET, DET])


# -- nested hulls: certificates, then each open hull's own LP ----------------

# sv_polytope_ids(): 16 Svetlichny, 48 embedded PR, 64 deterministic rows
TRI = tribox.tri_vertex_matrix(tribox.sv_polytope_ids())
TRI_STARTS = (0, 16, 64)
TRI_THR = 64 * boxcore.EPS_LP_SLACK


def _separate_flags(target):
    return [polytope.lp_vertex_weights(target, TRI[start:]) is not None
            for start in TRI_STARTS]


def _perturbed_noise3():
    # block sums off by +-eps/2, as in test_sv_polytope_accepts_tables_make_box3_admits
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


def test_open_flags_go_to_their_own_hull_innermost_first(monkeypatch):
    # the screen settles none of these flags; each open hull goes to
    # lp_vertex_weights alone, innermost first, until one is found inside
    tables = [tribox.tri_vertex(tribox.parse_tri_vertex_label(label)).table.reshape(-1)
              for label in ("Det3000000", "Det3000001", "Mermin30000", "Class8Rep")]
    targets = [0.5 * tables[0] + 0.5 * tables[1], *tables[2:]]
    want = [_separate_flags(t) for t in targets]
    single, hulls = polytope.lp_vertex_weights, []

    def counted(target, vertices):
        hulls.append(len(vertices))
        return single(target, vertices)

    with monkeypatch.context() as counting:
        sent = _counting_solves(counting)
        counting.setattr(polytope, "lp_vertex_weights", counted)
        assert all(polytope._nested_screen(t, TRI, TRI_STARTS) == [None] * 3 for t in targets)
        flags = [polytope.nested_hull_flags(t, TRI, TRI_STARTS) for t in targets]
    assert flags == want == [[True] * 3, [True, False, False], [False] * 3]
    assert hulls == [64, 64, 112, 128, 64, 112, 128]
    assert len(sent) == len(hulls)


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


def _ghz_table(p):
    return qstate.born_box3(qstate.ghz_state(), qstate.settings_catalog("SMDghz", p)).table


def _request_strata(rng, per_stratum):
    """Tripartite boxes of the request workload's strata: flat polytope
    mixtures, Svetlichny-heavy mixtures (50-95 % of the weight on the 16
    Svetlichny rows) and GHZ boxes under SMDghz at p in [0.5, 1)."""
    for _ in range(per_stratum):
        yield tribox.random_sv_polytope_box(rng).table.reshape(-1)
        heavy = rng.uniform(0.5, 0.95)
        w = [heavy * rng.dirichlet(np.ones(16)), (1 - heavy) * rng.dirichlet(np.ones(112))]
        yield np.concatenate(w) @ TRI
        yield _ghz_table(float(rng.uniform(0.5, 1.0))).reshape(-1)


def test_certificates_settle_the_request_strata_before_highs(monkeypatch):
    # every flag equals the LP of its own hull, yet almost no target reaches
    # HiGHS: the screen's certificates settle the rest
    targets = list(_request_strata(np.random.default_rng(4501), 40))
    with monkeypatch.context() as counting:
        sent = _counting_solves(counting)
        flags = [polytope.nested_hull_flags(t, TRI, TRI_STARTS) for t in targets]
        gates = [tribox.in_sv_polytope(tribox.make_box3(t.reshape((2,) * 6))) for t in targets]
    assert flags == [_separate_flags(t) for t in targets]
    assert gates == [f[0] for f in flags]
    assert len(sent) <= 0.05 * len(targets), (len(sent), len(targets))
    assert {(True, True, True), (True, False, False)} <= set(map(tuple, flags))


def test_the_ghz_tail_is_settled_before_highs(monkeypatch):
    # GHZ boxes under SMDghz near p = 1 mix few Svetlichny rows, which
    # Lawson-Hanson steps over the 16 outer-tier rows rebuild. At p = 0.914,
    # 0.934 and 0.951, steps over all 128 rows free an embedded-PR row
    # instead and prove nothing
    ps = [*np.random.default_rng(4125).uniform(0.9, 1.0, 60), 0.914, 0.934, 0.951]
    targets = [_ghz_table(p).reshape(-1) for p in ps]
    with monkeypatch.context() as counting:
        sent = _counting_solves(counting)
        flags = [polytope.nested_hull_flags(t, TRI, TRI_STARTS) for t in targets]
        gates = [tribox.in_sv_polytope(tribox.make_box3(t.reshape((2,) * 6))) for t in targets]
    assert sent == []
    assert flags == [_separate_flags(t) for t in targets]
    assert gates == [f[0] for f in flags]


# A point of a hull has weights that sum to 1, so a target whose entries miss
# the rows' mass lies outside every hull, whatever its shape: twice the noise
# box is outside, and 1e308 entries reach no solver and raise no warning.
# numpy's pairwise sum of HUGE_SPLIT overflows to inf and -inf in its
# partial sums, which add to NaN
HUGE_SPLIT = np.tile([1e308] * 4 + [-1e308] * 4, 8)


def test_weights_of_targets_off_the_vertex_mass_are_none_or_nan():
    noise, huge = boxcore.noise_box().table.reshape(-1), np.full(16, 1e308)
    assert polytope.lp_vertex_weights(2 * noise, DET) is None
    w = polytope.lp_vertex_weights(np.stack([noise, 2 * noise, huge]), DET)
    assert not np.isnan(w[0]).any() and np.isnan(w[1:]).all()
    assert polytope._inside_flags(np.stack([noise, 2 * noise, huge, HUGE_SPLIT[:16]]),
                                  DET).tolist() == [True, False, False, False]


def test_nested_flags_of_targets_off_the_vertex_mass_are_false_without_an_lp(monkeypatch):
    noise3 = tribox.noise3_box().table.reshape(-1)
    sent = _counting_solves(monkeypatch)
    for target in (np.full(64, 1e308), HUGE_SPLIT, 2 * noise3, 0.5 * noise3):
        assert polytope.nested_hull_flags(target, TRI, TRI_STARTS) == [False] * 3
    assert sent == []
    assert polytope.nested_hull_flags(noise3, TRI, TRI_STARTS) == [True] * 3


def _sv_signed(tables):
    """The 16 signed Svetlichny values of each flat table of a stack."""
    return tribox.sv_values(tribox.make_box3(tables)).reshape(len(tables), -1)


@hypothesis.settings(deadline=None, derandomize=True, max_examples=60)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.55, 0.99),
                  log_delta=st.floats(-10.0, -3.0), sign=st.sampled_from([-1.0, 1.0]))
def test_nested_hull_flags_match_separate_lps_on_the_svetlichny_facet(seed, p, log_delta, sign):
    # A GHZ box mixed toward a two-way-local box up to where its largest
    # Svetlichny value is 4 + sign * delta. The values are linear on the
    # segment, so the crossing is solved exactly. The two-way-local box lies
    # 4 * delta below the face where the GHZ box's largest Svetlichny
    # operator reaches 4 on the two-way-local rows, so the mixture is within
    # about delta of that face: the band where the Svetlichny certificate
    # must not outrun the slack threshold
    rng = np.random.default_rng(seed)
    ghz = _ghz_table(p).reshape(-1)
    two_way = TRI[16:]
    face = two_way[np.isclose(_sv_signed(two_way)[:, np.argmax(_sv_signed(ghz[None]))], 4.0)]
    delta = 10.0 ** log_delta
    local = ((1 - delta) * rng.dirichlet(np.ones(len(face))) @ face
             + delta * tribox.noise3_box().table.reshape(-1))
    (s_ghz, s_local), level = _sv_signed(np.stack([ghz, local])), 4.0 + sign * delta
    rising = s_ghz > s_local
    lam = np.min((level - s_local[rising]) / (s_ghz[rising] - s_local[rising]))
    target = (1 - lam) * local + lam * ghz
    assert np.max(_sv_signed(target[None])) == pytest.approx(level, abs=1e-12)
    assert polytope.nested_hull_flags(target, TRI, TRI_STARTS) == _separate_flags(target)


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
    # scaling to |y| <= 1 keeps its large entry at p from proving a false gap
    block = np.zeros((2,) * 6)
    block[np.unravel_index(p, block.shape)[:3]] = 1.0
    y = 1000.0 * bump - 1000.0 / 7 * (1.0 - block.reshape(-1))
    assert np.max(hull @ y) == pytest.approx(0.0, abs=1e-9)
    target = vertex + TRI_THR / 2 * bump
    assert not polytope._certified_outside(target, y, hull, TRI_THR)
    # and the certificate does fire on a vertex far outside
    assert polytope._certified_outside(TRI[0], np.clip(8 * TRI[0] - 1, -1, 1), hull, TRI_THR)


# -- the HiGHS model path ------------------------------------------------------

def _near_inner_hull_targets(seed):
    """35 mixtures per inner hull (two-way local, then local) of 2-5 of its
    vertices with 1e-7 to 1e-2 of weight on one vertex outside it, each with
    the row of that vertex."""
    rng = np.random.default_rng(seed)
    for inner in TRI_STARTS[1:]:
        for _ in range(35):
            size = int(rng.integers(2, 6))
            rows = rng.choice(np.arange(inner, len(TRI)), size=size, replace=False)
            w = rng.exponential(size=size)
            eps = 10.0 ** rng.uniform(-7, -2)
            outer = int(rng.integers(inner))
            yield (1 - eps) * (w / w.sum()) @ TRI[rows] + eps * TRI[outer], outer


def test_membership_lps_solve_targets_just_outside_an_inner_hull():
    # At HiGHS's own feasibility tolerances of 1e-7, 46 of these 2,520 LPs
    # return weights that miss their target by more than EPS_LP and raise
    # LpNumericalFailure; the library's tolerances solve every one.
    for seed in range(12):
        for target, outer in _near_inner_hull_targets(seed):
            for start in TRI_STARTS:
                w = polytope.lp_vertex_weights(target, TRI[start:])
                if start <= outer:
                    assert w is not None


# linprog at the library's options; it takes presolve as a bool
LINPROG_OPTIONS = {key: polytope._HIGHS_OPTIONS[key]
                   for key in ("primal_feasibility_tolerance", "dual_feasibility_tolerance")}
LINPROG_OPTIONS["presolve"] = polytope._HIGHS_OPTIONS["presolve"] == "on"


def _linprog(c, a_eq, b_eq):
    res = linprog(c=c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options=LINPROG_OPTIONS)
    assert res.status == 0
    return res.x, res.eqlin.marginals


def _equivalence_cases():
    rng = np.random.default_rng(4108)
    ns = polytope.vertex_matrix(boxcore.ns_vertex_ids())
    bipartite = [*polytope.random_ns_tables(rng, 4).reshape(4, 16),
                 PR[0], DET[3], boxcore.noise_box().table.reshape(-1),
                 *_near_facet_tables(rng, 4)[0]]
    tripartite = [*(tribox.random_sv_polytope_box(rng).table.reshape(-1) for _ in range(4)),
                  *_tripartite_hull_targets()[4:], _perturbed_noise3(),
                  *(t for t, _ in itertools.islice(_near_inner_hull_targets(3), 0, 70, 12))]
    # the two inner hulls are the ones nested_hull_flags sends open flags to
    return [pytest.param(DET, bipartite, id="det"),
            pytest.param(ns, bipartite, id="ns"),
            pytest.param(TRI[TRI_STARTS[2]:], tripartite, id="local"),
            pytest.param(TRI[TRI_STARTS[1]:], tripartite, id="two-way-local"),
            pytest.param(TRI, tripartite, id="sv")]


@pytest.mark.parametrize("vertices, targets", _equivalence_cases())
def test_kept_model_is_bit_identical_to_linprog(vertices, targets):
    c = polytope._elastic_cost(*vertices.shape)
    block = polytope._elastic_block(vertices)
    answers = []
    for target in [*targets, targets[0]]:
        x, y = polytope._solve_target(vertices, target)
        ref_x, ref_y = _linprog(c, block, target)
        assert x.tobytes() == ref_x.tobytes()
        assert y.tobytes() == ref_y.tobytes()
        answers.append(x.tobytes() + y.tobytes())
    # the first target again, after all the others: its answer does not
    # depend on what the kept model solved before
    assert answers[-1] == answers[0]


@pytest.mark.parametrize("form", ["stack"])
def test_stacked_and_per_target_lps_are_bit_identical_to_linprog(form):
    d = 16
    targets = np.vstack([_near_facet_tables(np.random.default_rng(4109), 6)[0],
                         PR[:2], DET[:2]])
    vertex_sets = [DET] * len(targets)
    got = [None if np.isnan(w[0]) else w for w in polytope.lp_vertex_weights(targets, DET)]
    # one linprog call over the dense block-diagonal LP of the same targets
    x, _ = _linprog(np.concatenate([polytope._elastic_cost(len(v), d)
                                    for v in vertex_sets]),
                    linalg.block_diag(*[polytope._elastic_block(v) for v in vertex_sets]),
                    targets.reshape(-1))
    segments = np.split(x, np.cumsum([len(v) + 2 * d for v in vertex_sets]))
    want = [np.clip(seg[:len(v)], 0.0, None) if seg[len(v):].sum() <= d * _tol.EPS_LP_SLACK
            else None for seg, v in zip(segments, vertex_sets)]
    assert [w is None for w in got] == [w is None for w in want]
    assert {w is None for w in got} == {True, False}
    for g, w in zip(got, want):
        assert w is None or g.tobytes() == w.tobytes()


def test_kept_stack_models_give_the_same_bits_whatever_they_solved_before(monkeypatch):
    # stack A (two full blocks and a trailing partial block), stack B, then
    # A again and A on freshly built models give the same bytes
    rng = np.random.default_rng(4114)
    stack_a = np.vstack([_pr_weighted_mixtures(rng, 2 * polytope._LP_BLOCK),
                         _near_facet_tables(rng, 17)[0]])
    stack_b = _near_facet_tables(rng, polytope._LP_BLOCK + 3)[0]
    first = polytope.lp_vertex_weights(stack_a, DET).tobytes()
    polytope.lp_vertex_weights(stack_b, DET)
    assert polytope.lp_vertex_weights(stack_a, DET).tobytes() == first
    polytope._target_model.cache_clear()
    assert polytope.lp_vertex_weights(stack_a, DET).tobytes() == first
    # a model built under other options is not reused once they are undone
    monkeypatch.setitem(polytope._HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    with pytest.raises(polytope.LpNumericalFailure, match="Iteration limit"):
        polytope.lp_vertex_weights(stack_a, DET)
    monkeypatch.undo()
    assert polytope.lp_vertex_weights(stack_a, DET).tobytes() == first


def _verdicts(cases, nested):
    """Membership verdicts: one-target and stacked lp_vertex_weights of each
    case's targets, then the nested flags of each of `nested` over TRI."""
    out = []
    for vertices, targets in cases:
        out += [polytope.lp_vertex_weights(t, vertices) is not None for t in targets]
        stacked = polytope.lp_vertex_weights(np.stack(targets), vertices)
        out += [bool(v) for v in ~np.isnan(stacked[:, 0])]
    out += [tuple(polytope.nested_hull_flags(t, TRI, TRI_STARTS)) for t in nested]
    return out


def test_membership_verdicts_do_not_depend_on_presolve(monkeypatch):
    # the library solves without presolve; switched back on, every verdict
    # stays, on these cases and on targets within 1e-6 to 1e-2 of a facet
    # or just outside an inner hull
    cases = [param.values for param in _equivalence_cases()]
    near_tri = [t for t, _ in itertools.islice(_near_inner_hull_targets(5), 0, 70, 5)]
    nested = [*cases[-1][1], *near_tri]  # the targets of the sv case, then near_tri
    cases += [(DET, list(_near_facet_tables(np.random.default_rng(4111), 40)[0])),
              (TRI, near_tri), (TRI[16:], near_tri)]
    assert polytope._HIGHS_OPTIONS["presolve"] == "off"
    without = _verdicts(cases, nested)
    monkeypatch.setitem(polytope._HIGHS_OPTIONS, "presolve", "on")
    built = polytope._target_model.cache_info().misses
    assert _verdicts(cases, nested) == without
    assert polytope._target_model.cache_info().misses > built  # fresh kept models
    flat = [v for verdict in without for v in np.atleast_1d(verdict)]
    assert {True, False} <= set(flat)


def _near_sv_polytope_targets():
    """Sparse mixtures of three polytope vertices with 1e-8 to 1 of weight
    on a box outside the polytope: the class-8 box, or an embedded PR
    vertex whose spectator answers 1 (the catalog's spectators answer 0
    or their input)."""
    flip = tribox.Lro3(relabels=(boxcore.IDENTITY_RELABEL,) * 2 + (boxcore.PartyRelabel(0, 0, 1),))
    outside = [tribox.class8_box().table.reshape(-1),
               tribox.apply_lro3(tribox.pr2_box("AB", 0, 0, 0, 0), flip).table.reshape(-1)]
    rng = np.random.default_rng(4112)
    for out in outside:
        for eps in 10.0 ** np.arange(-8, 0.1, 0.5):
            w = np.zeros(len(TRI))
            w[rng.choice(len(TRI), size=3, replace=False)] = rng.exponential(size=3)
            yield (1 - eps) * (w / w.sum()) @ TRI + eps * out


def test_in_sv_polytope_equals_lp_over_its_vertices(monkeypatch):
    rng = np.random.default_rng(4113)
    targets = [*(tribox.random_sv_polytope_box(rng).table.reshape(-1) for _ in range(4)),
               *TRI[::9], _perturbed_noise3(), *_near_sv_polytope_targets()]
    single = polytope.lp_vertex_weights
    fallbacks = []

    def counted(target, vertices):
        fallbacks.append(len(vertices))
        return single(target, vertices)

    seen = set()
    for target in targets:
        want = single(target, TRI) is not None
        monkeypatch.setattr(polytope, "lp_vertex_weights", counted)
        got = tribox.in_sv_polytope(tribox.TripartiteBox(target.reshape((2,) * 6)))
        monkeypatch.setattr(polytope, "lp_vertex_weights", single)
        assert got == want
        seen.add(got)
    assert seen == {True, False}
    # some targets just outside are left by both certificates to the
    # zero-cost LP over all 128 vertices
    assert fallbacks and set(fallbacks) == {len(TRI)}


def test_kept_models_tell_apart_matrices_with_the_same_ends():
    # the matrices differ only in row 40, an embedded PR vertex, which is
    # outside the hull once its row is replaced
    other = TRI.copy()
    other[40] = other[41]
    assert polytope.lp_vertex_weights(TRI[40], TRI) is not None
    assert polytope.lp_vertex_weights(TRI[40], other) is None
    assert polytope.lp_vertex_weights(TRI[40], TRI) is not None


def test_kept_model_gives_each_thread_its_own_answer():
    # threads share one kept model per vertex matrix; each must still get
    # the answer a lone call gives for its own target
    rng = np.random.default_rng(4110)
    targets = [tribox.random_sv_polytope_box(rng).table.reshape(-1) for _ in range(6)]
    want = [polytope._solve_target(TRI, t)[0].tobytes() for t in targets]
    wrong = []

    def worker(k):
        for _ in range(25):
            for i in np.roll(np.arange(len(targets)), k):
                if polytope._solve_target(TRI, targets[i])[0].tobytes() != want[i]:
                    wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def test_kept_stack_model_gives_each_thread_its_own_answer():
    # blocks of the same size share one kept model across threads, as
    # single targets do
    rng = np.random.default_rng(4115)
    stacks = [_pr_weighted_mixtures(rng, polytope._LP_BLOCK) for _ in range(3)]
    want = [polytope.lp_vertex_weights(s, DET).tobytes() for s in stacks]
    wrong = []

    def worker(k):
        for _ in range(10):
            for i in np.roll(np.arange(len(stacks)), k):
                if polytope.lp_vertex_weights(stacks[i], DET).tobytes() != want[i]:
                    wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


# -- the verdicts-only stacked path from a fixed start basis -------------------

def _verdict_strata():
    """(vertices, targets) on both sides of a hull: PR-weighted mixtures and
    near-facet boxes over the 16 deterministic vertices, and targets near
    the 128-vertex Svetlichny polytope and near its two inner hulls."""
    rng = np.random.default_rng(4116)
    near_tri = np.stack([*(tribox.random_sv_polytope_box(rng).table.reshape(-1)
                           for _ in range(8)), *_near_sv_polytope_targets()])
    near_inner = np.stack([t for t, _ in _near_inner_hull_targets(6)])
    return [(DET, _pr_weighted_mixtures(rng, 600)),
            (DET, _near_facet_tables(rng, 600)[0]),
            (TRI, near_tri), (TRI[16:], near_inner), (TRI[64:], near_inner)]


def _cold_verdicts(targets, vertices):
    return ~np.isnan(polytope.lp_vertex_weights(targets, vertices)[:, 0])


def test_inside_flags_give_the_verdicts_of_lp_vertex_weights():
    seen = set()
    for vertices, targets in _verdict_strata():
        flags = polytope._inside_flags(targets, vertices)
        assert flags.dtype == bool and flags.shape == (len(targets),)
        assert np.array_equal(flags, _cold_verdicts(targets, vertices))
        seen.update(flags.tolist())
    assert seen == {True, False}
    assert polytope._inside_flags(np.empty((0, 16)), DET).shape == (0,)
    assert polytope._inside_flags(DET[0], DET).tolist() == [True]


def test_inside_flags_do_not_depend_on_kept_models():
    strata = _verdict_strata()
    first = [polytope._inside_flags(t, v) for v, t in strata]
    polytope._target_model.cache_clear()
    polytope._start_basis.cache_clear()
    assert all(np.array_equal(polytope._inside_flags(t, v), f)
               for (v, t), f in zip(strata, first))


def test_warm_solves_leave_the_cold_weights_unchanged():
    # the stacks of test_kept_stack_models_give_the_same_bits_whatever_they_
    # solved_before, solved cold, then warm on the same kept models, then cold
    rng = np.random.default_rng(4114)
    stack_a = np.vstack([_pr_weighted_mixtures(rng, 2 * polytope._LP_BLOCK),
                         _near_facet_tables(rng, 17)[0]])
    stack_b = _near_facet_tables(rng, polytope._LP_BLOCK + 3)[0]
    first = polytope.lp_vertex_weights(stack_a, DET).tobytes()
    for stack in (stack_a, stack_b):
        warm = polytope._inside_flags(stack, DET)
        assert np.array_equal(warm, _cold_verdicts(stack, DET))
        assert polytope.lp_vertex_weights(stack_a, DET).tobytes() == first


def test_inside_flags_raise_when_the_solver_stops_early(monkeypatch):
    targets = _pr_weighted_mixtures(np.random.default_rng(4117), 60)
    start, options = polytope._start_basis, tuple(polytope._HIGHS_OPTIONS.items())
    polytope._inside_flags(targets, DET)
    monkeypatch.setitem(polytope._HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    with pytest.raises(polytope.LpNumericalFailure, match="status 14: Iteration limit"):
        polytope._inside_flags(targets, DET)
    # from the start basis found under the library's options, the blocks
    # themselves stop at the limit
    monkeypatch.setattr(polytope, "_start_basis", lambda key, m, _: start(key, m, options))
    with pytest.raises(polytope.LpNumericalFailure, match="status 14: Iteration limit"):
        polytope._inside_flags(targets, DET)


@pytest.mark.parametrize("seed", [9000, 9001])
def test_inside_flags_give_the_cold_verdicts_within_1e_6_of_the_facet(seed):
    # closer to the CHSH facet than any stratum above: |CHSH - 2| down to
    # 1e-11, where the L1 distance to the hull crosses the slack threshold
    rng = np.random.default_rng(seed)
    near, gap = _near_facet_tables(rng, 2000, decades=(-11, -6))
    assert np.all((np.abs(gap) >= 0.9e-11) & (np.abs(gap) <= 1.01e-6))
    stack = rng.permutation(np.vstack([_pr_weighted_mixtures(rng, 2000), near]))
    assert np.array_equal(polytope._inside_flags(stack, DET), _cold_verdicts(stack, DET))


def _counting_solves(monkeypatch):
    """Replace polytope._solve_target by a wrapper; returns the list of the
    target counts it is given, one entry per call."""
    solve, sent = polytope._solve_target, []

    def counted(vertices, targets, *args, **kwargs):
        sent.append(targets.size // vertices.shape[1])
        return solve(vertices, targets, *args, **kwargs)

    monkeypatch.setattr(polytope, "_solve_target", counted)
    return sent


def test_inside_flags_send_few_of_criterion_10s_targets_to_the_solver(monkeypatch):
    # the certificates of the first blocks settle almost all of the stack:
    # count the targets that reach an LP inside criterion 10's verdict call
    flags, stacks, sent = polytope._inside_flags, [], []

    def screened(targets, vertices):
        stacks.append(len(targets))
        with monkeypatch.context() as inner:
            calls = _counting_solves(inner)
            out = flags(targets, vertices)
        sent.extend(calls)
        return out

    monkeypatch.setattr(polytope, "_inside_flags", screened)
    assert acceptance.criterion_10().passed
    assert len(stacks) == 1 and stacks[0] > 10_900
    assert 0 < sum(sent) <= 0.1 * stacks[0], (sum(sent), stacks)
    assert all(m == polytope._LP_BLOCK for m in sent[:-1])


def test_inside_flags_of_a_shuffled_stack_are_the_flags_shuffled():
    rng = np.random.default_rng(4118)
    stack = np.vstack([_pr_weighted_mixtures(rng, 600), _near_facet_tables(rng, 600)[0]])
    flags = polytope._inside_flags(stack, DET)
    order = rng.permutation(len(stack))
    assert np.array_equal(polytope._inside_flags(stack[order], DET), flags[order])
    assert {True, False} <= set(flags.tolist())


def test_copies_of_one_box_take_one_lp_block(monkeypatch):
    sent = _counting_solves(monkeypatch)
    inside = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.noise_box()], [0.3, 0.7])
    outside = boxcore.mix([boxcore.pr_box(1, 0, 1), boxcore.noise_box()], [0.8, 0.2])
    for box, want in ((inside, True), (outside, False)):
        sent.clear()
        flags = polytope._inside_flags(np.repeat(box.table.reshape(1, 16), 500, axis=0), DET)
        assert flags.tolist() == [want] * 500
        assert sent == [polytope._LP_BLOCK]


def _outside_first_stack(n):
    """n PR-weighted mixtures, about half of them outside, then n boxes
    within 1e-6 to 1e-2 of a CHSH facet: 2n targets over the 16 vertices."""
    rng = np.random.default_rng(4120)
    return np.vstack([_pr_weighted_mixtures(rng, n), _near_facet_tables(rng, n)[0]])


def test_weight_stacks_skip_targets_that_earlier_blocks_prove_outside(monkeypatch):
    stack = _outside_first_stack(2 * polytope._LP_BLOCK)  # four blocks
    sent = _counting_solves(monkeypatch)
    weights = polytope.lp_vertex_weights(stack, DET)
    assert sum(sent) < len(stack), sent
    assert sent[0] == polytope._LP_BLOCK
    inside = ~np.isnan(weights[:, 0])
    assert inside.tolist() == [polytope.lp_vertex_weights(t, DET) is not None for t in stack]
    assert {True, False} <= set(inside.tolist())
    assert np.isnan(weights[~inside]).all()
    assert weights[inside].min() >= 0.0
    assert np.max(np.abs(weights[inside] @ DET - stack[inside])) <= boxcore.EPS_LP


@pytest.mark.parametrize("n", [1, 17, polytope._LP_BLOCK])
def test_weight_stacks_of_one_block_are_the_linprog_block(monkeypatch, n):
    # no screen and no start basis: the bytes of the one cold block LP
    d, k = DET.shape[1], len(DET)
    stack = _outside_first_stack(polytope._LP_BLOCK)[-n:]
    sent = _counting_solves(monkeypatch)
    got = polytope.lp_vertex_weights(stack, DET)
    assert sent == [n]
    x, _ = _linprog(np.tile(polytope._elastic_cost(k, d), n),
                    linalg.block_diag(*[polytope._elastic_block(DET)] * n), stack.reshape(-1))
    x = x.reshape(n, k + 2 * d)
    want = np.clip(x[:, :k], 0.0, None)
    want[x[:, k:].sum(axis=1) > d * _tol.EPS_LP_SLACK] = np.nan
    assert got.tobytes() == want.tobytes()
