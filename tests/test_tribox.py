"""Tripartite boxes: catalog, measures, decomposition, marginals."""

import itertools

import numpy as np
import pytest

from boxlab import _corr, boxcore, discord2, polytope, qstate, tribox

RNG = np.random.default_rng(77)
SQRT2 = np.sqrt(2.0)


def brute_sv_functions(box):
    """Independent oracle for the Svetlichny moduli."""
    e = np.zeros((2, 2, 2))
    for idx in itertools.product(range(2), repeat=6):
        x, y, z, a, b, c = idx
        e[x, y, z] += (-1) ** (a ^ b ^ c) * box.table[idx]
    out = np.zeros((2, 2, 2))
    for al, be, ga in itertools.product(range(2), repeat=3):
        v = 0.0
        for i, j, k in itertools.product(range(2), repeat=3):
            sgn = (i & j) ^ (i & k) ^ (j & k) ^ (al & i) ^ (be & j) ^ (ga & k)
            v += (-1) ** sgn * e[i, j, k]
        out[al, be, ga] = abs(v)
    return out


# tribox's name of each party-generic discord2 reader
ALIASES = {"sv_values": "chsh_values", "sv_functions": "bell_functions",
           "mermin3_values": "mermin_values", "mermin3_functions": "mermin_functions",
           "mermin3_discord": "mermin_discord", "total_correlation3": "total_correlation",
           "classical_correlation3": "classical_correlation"}


@pytest.mark.parametrize("name, reader", ALIASES.items())
def test_tripartite_reader_is_the_discord2_reader(name, reader):
    assert getattr(tribox, name) is getattr(discord2, reader)


def test_tripartite_ids_are_boxcores():
    assert tribox.TriVertexId is boxcore.TriVertexId


def test_svetlichny_values_doc_gives_the_svetlichny_bounds():
    doc = tribox.sv_values.__doc__
    assert "hybrid-local bound 4" in doc and "maximum 8" in doc


def test_sv_box_table_and_functions():
    box = tribox.sv_box(0, 0, 0, 0)
    for x, y, z, a, b, c in itertools.product(range(2), repeat=6):
        par = (x & y) ^ (x & z) ^ (y & z)
        assert box.prob(x, y, z, a, b, c) == (0.25 if a ^ b ^ c == par else 0.0)
    s = tribox.sv_functions(box)
    assert s[0, 0, 0] == 8.0 and np.allclose(np.delete(s.ravel(), 0), 0.0)
    assert tribox.svetlichny_discord(box) == 8.0
    assert tribox.mermin3_discord(box) == 0.0


def test_sv_functions_match_brute_force():
    for _ in range(15):
        box = tribox.random_sv_polytope_box(RNG)
        assert np.allclose(tribox.sv_functions(box), brute_sv_functions(box),
                           atol=1e-12)


def test_vertex_counts_and_validity():
    ids = tribox.sv_polytope_ids()
    assert len(ids) == 128
    assert len(tribox.all_sv_ids()) == 16
    assert len(tribox.all_pr2_ids()) == 48
    assert len(tribox.all_det3_ids()) == 64
    for vid in ids[::5]:
        tribox.make_box3(tribox.tri_vertex(vid).table)
    # the kept id tuple looks up the very matrix the id list gives
    matrix = tribox.tri_vertex_matrix(ids)
    assert tribox.tri_vertex_matrix(tribox._sv_polytope_key()) is matrix
    assert list(tribox._sv_polytope_key()) == ids


def test_all_polytope_vertices_have_zero_mermin_discord_except_none():
    # PR-embedded and deterministic vertices: G = Q = 0; Svetlichny: G = 8
    for vid in tribox.all_pr2_ids()[::5] + tribox.all_det3_ids()[::9]:
        box = tribox.tri_vertex(vid)
        assert tribox.svetlichny_discord(box) <= 1e-12
        assert tribox.mermin3_discord(box) <= 1e-12


def test_mermin3_box_identities():
    m = tribox.mermin3_box(0, 0, 0, 0)
    mixed = 0.5 * (tribox.sv_box(0, 0, 0, 0).table + tribox.sv_box(1, 1, 1, 0).table)
    assert np.array_equal(m.table, mixed)
    assert tribox.mermin3_discord(m) == 4.0
    assert tribox.svetlichny_discord(m) == 0.0
    # maximally mixed bipartite marginals
    for pair in ("AB", "AC", "BC"):
        assert np.allclose(tribox.marginal2(m, pair).table, 0.25)


def test_sixteen_distinct_mermin3_boxes_each_maximize_one_inequality():
    tables = []
    for vid in tribox.all_mermin3_ids():
        box = tribox.tri_vertex(vid)
        tables.append(box.table.ravel())
        vals = [tribox.mermin3_value(box, *p)
                for p in itertools.product(range(2), repeat=4)]
        assert sum(abs(v - 4.0) < 1e-12 for v in vals) == 1
        assert tribox.mermin3_discord(box) == pytest.approx(4.0, abs=1e-12)
    assert len(np.unique(np.round(np.stack(tables), 12), axis=0)) == 16


def test_pr2_vertices_embed_pr_boxes():
    box = tribox.pr2_box("AB", 0, 1, 1, 0)
    assert tribox.marginal2(box, "AB").allclose(boxcore.pr_box(0, 1, 1))
    box_bc = tribox.pr2_box("BC", 1, 0, 0, 1)
    assert tribox.marginal2(box_bc, "BC").allclose(boxcore.pr_box(1, 0, 0))


def test_class8_box_expectations_and_value():
    box = tribox.class8_box()
    e = tribox.expectations3(box)
    assert e.ab[0, 0] == 1.0 and e.ab[0, 1] == 1.0
    assert e.ac[0, 0] == 1.0
    assert e.bc[0, 0] == 1.0 and e.bc[1, 0] == 1.0
    assert e.abc[1, 0, 1] == 1.0 and e.abc[1, 1, 1] == -1.0
    assert tribox.class99_value(box) == 5.0
    assert not tribox.in_sv_polytope(box)
    assert tribox.svetlichny_discord(box) <= 1e-12
    assert tribox.mermin3_discord(box) <= 1e-12


def test_class99_noise_is_zero():
    assert tribox.class99_value(tribox.noise3_box()) == 0.0


def test_expectation_round_trip_exact():
    for _ in range(10):
        box = tribox.random_sv_polytope_box(RNG)
        again = tribox.box3_from_expectations(tribox.expectations3(box))
        assert np.max(np.abs(again.table - box.table)) <= 1e-14


def test_make_box3_rejects_signaling():
    # P(a|x=0) flips with the C input
    t = tribox.det3_box(0, 0, 0, 0, 0, 0).table.copy()
    t[0, 0, 1] = 0.0
    t[0, 0, 1, 1, 0, 0] = 1.0
    with pytest.raises(boxcore.SignalingError):
        tribox.make_box3(t)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_box3_rejects_non_finite(bad):
    t = np.full((2,) * 6, 0.125)
    t[0, 1, 1, 0, 0, 1] = bad
    with pytest.raises(boxcore.BoxError, match="non-finite"):
        tribox.make_box3(t)


@pytest.mark.parametrize("label", ["Sv00", "Sv00000", "Sv2222", "Det301",
                                   "PrAB011", "Class8Rep1"])
def test_parse_tri_vertex_label_rejects_wrong_parameters(label):
    with pytest.raises(ValueError):
        tribox.parse_tri_vertex_label(label)


def test_discord_groupings_structure():
    # the tripartite discords minimise over nine groupings of the eight labels
    groups = _corr.GROUPINGS[3]
    assert groups.shape == (9, 8)
    for order in groups:
        assert sorted(order.tolist()) == list(range(8))
    assert len({tuple(order) for order in groups.tolist()}) == 9


def test_ghz_paradox_examples():
    assert tribox.ghz_paradox_check(tribox.mermin3_box(0, 0, 0, 0))
    assert not tribox.ghz_paradox_check(tribox.noise3_box())
    # computed from the vertex table: the canonical Svetlichny box satisfies
    # the four-sign pattern too (its eight joint expectations are all +-1)
    assert tribox.ghz_paradox_check(tribox.sv_box(0, 0, 0, 0))
    assert not tribox.ghz_paradox_check(tribox.sv_box(0, 0, 0, 1))


def test_marginal2_of_w_class_follows_min_law():
    # derived oracle: under the matched z/x frame the AB marginal has
    # Q12 = 2 min(|1 - 2 gamma^2|, C12); under the Svetlichny frame G12 is
    # sqrt2 times that
    mdxz = qstate.settings_catalog("MDxz")
    sdxz = qstate.settings_catalog("SDxz")
    for _ in range(10):
        v = np.abs(RNG.normal(size=3))
        v /= np.linalg.norm(v)
        al, be, ga = v
        law = 2 * min(abs(1 - 2 * ga ** 2), 2 * al * be)
        box_m = qstate.born_box3(qstate.w_class_state(al, be, ga), mdxz)
        assert discord2.mermin_discord(tribox.marginal2(box_m, "AB")) == \
            pytest.approx(law, abs=1e-12)
        box_s = qstate.born_box3(qstate.w_class_state(al, be, ga), sdxz)
        assert discord2.bell_discord(tribox.marginal2(box_s, "AB")) == \
            pytest.approx(SQRT2 * law, abs=1e-12)


def test_marginal2_refuses_an_unknown_pair():
    with pytest.raises(ValueError, match="unknown pair 'XY'"):
        tribox.marginal2(tribox.tri_vertex(tribox.NOISE3_ID), "XY")


def test_total_correlation3_product_and_noise():
    assert tribox.total_correlation3(tribox.noise3_box()) == 0.0
    # rho_A (x) rho_BC products have T = 0
    rho_bc = qstate.random_two_qubit_state(RNG)
    rho_a = 0.5 * (np.eye(2) + 0.4 * qstate.SIGMA_Z)
    rho = qstate.density_matrix(np.kron(rho_a, rho_bc.mat))
    box = qstate.born_box3(rho, qstate.random_settings3(RNG))
    assert tribox.total_correlation3(box) <= 1e-12


def test_monogamy3_boundary_mixture():
    # a deterministic box with input-dependent response on an odd number of
    # parties puts Svetlichny weight 4 on the even-parity labels, so its
    # aligned mixture with Sv(0,0,0,0) saturates S_i + S_j = 8 for every p
    for p in (0.0, 0.4, 1.0):
        t = (p * tribox.sv_box(0, 0, 0, 0).table
             + (1 - p) * tribox.det3_box(1, 0, 0, 0, 0, 0).table)
        rep = tribox.monogamy_checks3(tribox.make_box3(t))
        assert rep.holds
        assert rep.sv_pair_margin == pytest.approx(0.0, abs=1e-12)
    rep = tribox.monogamy_checks3(tribox.noise3_box())
    assert rep.sv_pair_margin == 8.0 and rep.discord_margin == 8.0


def test_monogamy3_marginal_relations_reported_not_asserted():
    # hard relations hold; the marginal-discord relations are quantum-only
    # *expectations* and skewed W-class boxes do break them, so the report
    # keeps them out of `holds`
    mdxz = qstate.settings_catalog("MDxz")
    saw_marginal_violation = False
    for _ in range(8):
        v = np.abs(RNG.normal(size=3))
        v /= np.linalg.norm(v)
        box = qstate.born_box3(qstate.w_class_state(*v), mdxz)
        rep = tribox.monogamy_checks3(box)
        assert rep.holds
        saw_marginal_violation |= not rep.marginal_holds
    # the symmetric W state satisfies the marginal relations comfortably
    box = qstate.born_box3(qstate.w_state(), mdxz)
    rep = tribox.monogamy_checks3(box)
    assert rep.holds and rep.marginal_holds
    assert rep.marginal_mermin_margins["A"] == pytest.approx(2 - 4 / 3, abs=1e-9)
    assert saw_marginal_violation  # seeded draw includes a violating box


def test_svetlichny_value_signed():
    box = tribox.sv_box(1, 0, 1, 1)
    assert tribox.sv_value(box, 1, 0, 1, 1) == pytest.approx(8.0)
    assert tribox.sv_value(box, 1, 0, 1, 0) == pytest.approx(-8.0)


def test_three_decomposition3_sv_box():
    dec = tribox.three_decomposition3(tribox.sv_box(0, 1, 0, 1))
    assert dec.mu == pytest.approx(1.0)
    assert dec.pr_id == tribox.sv_id(0, 1, 0, 1)


def test_three_decomposition3_werner3():
    sdxy = qstate.settings_catalog("SDxy")
    for p in (0.3, 0.7, 1.0):
        box = qstate.born_box3(qstate.werner3_state(p), sdxy)
        dec = tribox.three_decomposition3(box)
        assert dec.mu == pytest.approx(p / SQRT2, abs=1e-9)
        assert dec.nu == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(dec.residual.table, 1 / 8.0, atol=1e-9)


def test_three_decomposition3_rejects_outside_polytope():
    with pytest.raises(tribox.NotInPolytopeError):
        tribox.three_decomposition3(tribox.class8_box())


def test_sv_polytope_accepts_tables_make_box3_admits(lp_solver):
    # block sums off by +-eps/2 in a pattern whose marginals stay within
    # EPS_VALID: the LP needs a slack sum of 8 * eps/2 to reach this box
    eps = 0.9 * boxcore.EPS_VALID
    table = tribox.noise3_box().table.copy()
    for x, y, z in itertools.product(range(2), repeat=3):
        table[x, y, z, 0, 0, 0] += (-1) ** (x + y + z) * eps / 2
    box = tribox.make_box3(table)
    assert tribox.in_sv_polytope(box)
    assert tribox.three_decomposition3(box).mu == pytest.approx(0.0, abs=1e-7)


def test_three_decomposition3_reconstructs_random_polytope_boxes():
    done = 0
    attempts = 0
    while done < 6 and attempts < 40:
        attempts += 1
        box = tribox.random_sv_polytope_box(RNG)
        try:
            dec = tribox.three_decomposition3(box)
        except polytope.ResidualInvalidError:
            continue
        recon = dec.reconstruction(tribox.tri_vertex(dec.pr_id).table,
                                   tribox.tri_vertex(dec.mermin_id).table)
        assert np.max(np.abs(recon - box.table)) <= 1e-7
        assert tribox.svetlichny_discord(dec.residual) <= 1e-6
        assert tribox.mermin3_discord(dec.residual) <= 1e-6
        done += 1
    assert done == 6


def test_svetlichny_linearity_on_canonical_mixtures():
    # zero-discord locals: deterministic mixtures sharing the A and B
    # responses (factorized expectations with +-1 parts); the Svetlichny box
    # mixed in is the one the local box's signed values already favor
    for _ in range(6):
        a = (RNG.integers(2), RNG.integers(2))
        b = (RNG.integers(2), RNG.integers(2))
        ids = [tribox.det3_id(a[0], a[1], b[0], b[1], z, e)
               for z in range(2) for e in range(2)]
        w = RNG.exponential(size=4)
        w /= w.sum()
        local = tribox.make_box3(
            sum(wi * tribox.tri_vertex(v).table for wi, v in zip(w, ids)))
        assert tribox.svetlichny_discord(local) <= 1e-12
        vals = tribox.sv_values(local)
        label = np.unravel_index(np.argmax(vals), vals.shape)
        sv = tribox.sv_box(*label)
        mu = RNG.uniform()
        mixed = tribox.make_box3(mu * sv.table + (1 - mu) * local.table)
        assert tribox.svetlichny_discord(mixed) == pytest.approx(8 * mu, abs=1e-9)



def oracle_apply_lro3(table, g):
    """The per-cell relabeling: party permutation first, then the relabels."""
    p = g.perm
    t = table.transpose(p[0], p[1], p[2], 3 + p[0], 3 + p[1], 3 + p[2])
    out = np.empty((2,) * 6)
    r = g.relabels
    for x, y, z, a, b, c in itertools.product(range(2), repeat=6):
        out[x, y, z, a, b, c] = t[
            x ^ r[0].input_flip, y ^ r[1].input_flip, z ^ r[2].input_flip,
            a ^ (r[0].out_by_input & x) ^ r[0].out_const,
            b ^ (r[1].out_by_input & y) ^ r[1].out_const,
            c ^ (r[2].out_by_input & z) ^ r[2].out_const,
        ]
    return out


def test_apply_lro3_matches_per_cell_relabeling():
    rng = np.random.default_rng(5151)
    box = tribox.random_sv_polytope_box(rng)
    flat = box.table.ravel()
    for g in tribox.lro3_samples(rng, 200):
        want = oracle_apply_lro3(box.table, g)
        assert np.array_equal(tribox.apply_lro3(box, g).table, want)
        assert np.array_equal(flat[boxcore._index_permutation(g.relabels, g.perm)],
                              want.ravel())

def test_lro3_group_and_invariance():
    box = tribox.random_sv_polytope_box(RNG)
    base = (tribox.svetlichny_discord(box), tribox.mermin3_discord(box),
            tribox.total_correlation3(box))
    for g in tribox.lro3_samples(RNG, 40):
        moved = tribox.apply_lro3(box, g)
        now = (tribox.svetlichny_discord(moved), tribox.mermin3_discord(moved),
               tribox.total_correlation3(moved))
        assert np.allclose(base, now, atol=1e-12)


def test_compatible_third_party_forces_zero_tripartite_discord():
    for _ in range(10):
        rho = qstate.random_pure_state(RNG, 8)
        c0 = qstate.random_unit_vector(RNG)
        frame = qstate.settings(qstate.random_unit_vector(RNG),
                                qstate.random_unit_vector(RNG),
                                qstate.random_unit_vector(RNG),
                                qstate.random_unit_vector(RNG), c0, c0)
        box = qstate.born_box3(rho, frame)
        assert tribox.svetlichny_discord(box) <= 1e-12
        assert tribox.mermin3_discord(box) <= 1e-12


def test_two_way_local_membership():
    two_way = tribox.tri_vertex_matrix([*tribox.all_pr2_ids(), *tribox.all_det3_ids()])
    # PR-embedded vertices and deterministic mixtures belong to the hull
    mix = 0.5 * (tribox.pr2_box("AB", 0, 0, 0, 1).table
                 + tribox.det3_box(1, 0, 0, 1, 1, 0).table)
    assert polytope.lp_vertex_weights(mix.reshape(-1), two_way) is not None
    # a Svetlichny box is not two-way local
    sv_w = polytope.lp_vertex_weights(
        tribox.sv_box(0, 0, 0, 0).table.reshape(-1), two_way)
    assert sv_w is None
    # the catalog's spectator responses are o = eps*k only, so the Mermin box
    # (physically two-way local, it violates no Svetlichny inequality) sits
    # outside this 112-vertex hull even though it is inside the 128-vertex
    # Svetlichny polytope
    m_box = tribox.mermin3_box(0, 0, 0, 0)
    assert float(np.max(tribox.sv_values(m_box))) <= 4.0 + 1e-12
    assert tribox.in_sv_polytope(m_box)
    assert polytope.lp_vertex_weights(m_box.table.reshape(-1), two_way) is None


def test_local_criterion_against_lp_ground_truth():
    """Empirical check of the Mermin+marginal-CHSH locality criterion.

    The sound direction (LP-local => criterion holds) is asserted; converse
    agreement is recorded but not asserted, matching the open question.
    """
    det_matrix = tribox.tri_vertex_matrix(tribox.all_det3_ids())
    agree = 0
    total = 0
    for _ in range(60):
        box = tribox.random_sv_polytope_box(RNG)
        lp_local = polytope.lp_vertex_weights(box.table.reshape(-1),
                                              det_matrix) is not None
        mermin_ok = float(np.max(tribox.mermin3_functions(box))) <= 2.0 + 1e-7
        marg_ok = all(
            float(np.max(discord2.bell_functions(tribox.marginal2(box, pr))))
            <= 2.0 + 1e-7
            for pr in ("AB", "AC", "BC"))
        criterion = mermin_ok and marg_ok
        if lp_local:
            assert criterion
        total += 1
        agree += criterion == lp_local
    assert total == 60


def test_json3_round_trip():
    box = tribox.random_sv_polytope_box(RNG)
    again = tribox.box3_from_json(tribox.box3_to_json(box))
    assert again.allclose(box, tol=1e-15)
