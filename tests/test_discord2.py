"""Bipartite measures: worked examples, derived oracles and invariants."""

import itertools

import numpy as np

from boxlab import boxcore, discord2, polytope, qstate

RNG = np.random.default_rng(99)
SQRT2 = np.sqrt(2.0)


def brute_bell_functions(box):
    """Independent oracle: Bell moduli straight from the definition."""
    e = np.zeros((2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        e[x, y] += (-1) ** (a ^ b) * box.prob(x, y, a, b)
    out = np.zeros((2, 2))
    for al, be in itertools.product(range(2), repeat=2):
        out[al, be] = abs(e[0, 0] + (-1) ** be * e[0, 1] + (-1) ** al * e[1, 0]
                          + (-1) ** (al ^ be ^ 1) * e[1, 1])
    return out


def brute_pairing_min(f):
    f = list(np.asarray(f).ravel())
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    return min(abs(abs(f[i] - f[j]) - abs(f[k] - f[l]))
               for (i, j), (k, l) in pairings)


def test_bell_functions_examples():
    b = discord2.bell_functions(boxcore.pr_box(0, 0, 0))
    assert b[0, 0] == 4.0 and np.allclose(np.delete(b.ravel(), 0), 0.0)
    assert np.allclose(discord2.bell_functions(boxcore.noise_box()), 0.0)
    assert np.allclose(discord2.bell_functions(boxcore.det_box(0, 0, 0, 0)), 2.0)


def test_bell_functions_match_brute_force():
    for _ in range(100):
        box = polytope.random_ns_box(RNG)
        assert np.allclose(discord2.bell_functions(box),
                           brute_bell_functions(box), atol=1e-12)


def test_bell_discord_examples():
    iso = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.noise_box()], [0.5, 0.5])
    assert abs(discord2.bell_discord(iso) - 2.0) < 1e-12
    assert discord2.bell_discord(boxcore.det_box(1, 1, 0, 1)) == 0.0
    # computed with the brute-force oracle: the Mermin box has all four Bell
    # functions in {2, 0} pattern giving zero minimum
    mm = boxcore.mermin_box(0, 0, 0)
    assert brute_pairing_min(brute_bell_functions(mm)) == 0.0
    assert discord2.bell_discord(mm) == 0.0


def test_bell_discord_matches_brute_force():
    for _ in range(200):
        box = polytope.random_ns_box(RNG)
        assert abs(discord2.bell_discord(box)
                   - brute_pairing_min(brute_bell_functions(box))) < 1e-12


def test_mermin_functions_table():
    # the index table is anchored by MerminMM(0,0,0) -> only m[0,0] = 2
    m = discord2.mermin_functions(boxcore.mermin_box(0, 0, 0))
    assert m[0, 0] == 2.0
    assert np.allclose(np.delete(m.ravel(), 0), 0.0)
    e = boxcore.joint_expectations(boxcore.mermin_box(0, 0, 0))
    assert e[0, 0] == 1.0 and e[1, 1] == -1.0


def test_mermin_function_identity():
    for _ in range(100):
        box = polytope.random_ns_box(RNG)
        e = boxcore.joint_expectations(box)
        m = discord2.mermin_functions(box)
        lhs = m[0, 0] ** 2 + m[1, 0] ** 2
        rhs = 2 * (e[0, 0] ** 2 + e[1, 1] ** 2)
        assert abs(lhs - rhs) < 1e-12
        assert np.all(m <= 2 + 1e-12)


def test_mermin_discord_examples():
    assert abs(discord2.mermin_discord(boxcore.mermin_box(0, 0, 0)) - 2.0) < 1e-12
    assert discord2.mermin_discord(boxcore.pr_box(0, 0, 0)) == 0.0
    assert discord2.mermin_discord(boxcore.det_box(0, 1, 1, 0)) == 0.0
    for p in (0.2, 0.6, 1.0):
        iso = boxcore.mix([boxcore.mermin_box(0, 0, 0), boxcore.noise_box()],
                          [p, 1 - p])
        assert abs(discord2.mermin_discord(iso) - 2 * p) < 1e-12
    for variant in range(32):
        assert abs(discord2.mermin_discord(boxcore.mermin_nmm_box(variant))
                   - 2.0) < 1e-12


def test_all_mermin_nmm_boxes_are_maximally_local():
    for variant in range(32):
        b = discord2.bell_functions(boxcore.mermin_nmm_box(variant))
        assert abs(np.max(b) - 2.0) < 1e-12


def test_total_correlation_examples():
    # any product box has T = 0
    for _ in range(30):
        pa = RNG.uniform(size=(2, 2))
        pa /= pa.sum(axis=1, keepdims=True)
        pb = RNG.uniform(size=(2, 2))
        pb /= pb.sum(axis=1, keepdims=True)
        table = np.einsum("xa,yb->xyab", pa, pb)
        assert discord2.total_correlation(boxcore.make_box(table)) < 1e-12
    assert discord2.total_correlation(boxcore.noise_box()) == 0.0


def test_classical_correlation_product_box():
    assert discord2.classical_correlation(boxcore.noise_box()) == 0.0
    sp = discord2.correlation_split(
        boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.noise_box()], [0.4, 0.6]))
    assert abs(sp.total - sp.bell) < 1e-12 and sp.classical < 1e-12


def test_correlation_split_residual_is_within_twice_eps_valid():
    # T - G - Q = sign * C but where T - G - Q lies within EPS_VALID below 0:
    # there the sign reads +1, which leaves at most twice that gap
    tables = polytope.random_ns_tables(np.random.default_rng(2901), 500).reshape(500, 16)
    split = discord2.correlation_split(boxcore.make_box(tables))
    assert np.max(np.abs(split.residual)) <= 2 * boxcore.EPS_VALID
    for vid in boxcore.all_pr_ids() + boxcore.all_mermin_ids() + boxcore.all_cc_ids():
        residual = discord2.correlation_split(boxcore.vertex(vid)).residual
        assert abs(residual) <= 2 * boxcore.EPS_VALID


def test_chsh_value_tsirelson():
    assert abs(discord2.chsh_value(boxcore.tsirelson_box(0, 0, 0), 0, 0, 0)
               - 2 * SQRT2) < 1e-12


def test_steering_examples():
    mm = boxcore.mermin_box(0, 0, 0)
    assert discord2.steering_value(mm) == 2.0
    assert discord2.steering_flags(mm)[0, 0]
    assert discord2.is_epr_steerable(mm)
    cc = boxcore.cc_box(0, 0, 0)
    assert discord2.mermin_discord(cc) == 0.0
    assert not discord2.is_epr_steerable(cc)
    assert not discord2.is_epr_steerable(boxcore.tsirelson_box(0, 0, 0))


def test_is_epr_steerable_of_a_stack_flags_each_box():
    # Werner p = 0.2 under MSb has steering value 0.4 < sqrt2, p = 0.9 has 1.8;
    # the classically correlated box passes the flags but has Q = 0
    msb = qstate.settings_catalog("MSb")
    werner = qstate.born_box2(qstate.werner2_state(np.array([0.2, 0.9])), msb)
    assert discord2.is_epr_steerable(werner).tolist() == [False, True]
    mm, cc = boxcore.mermin_box(0, 0, 0), boxcore.cc_box(0, 0, 0)
    assert discord2.is_epr_steerable(boxcore.make_box(np.stack([cc.flat, mm.flat]))).tolist() \
        == [False, True]
    assert discord2.is_epr_steerable(qstate.born_box2(qstate.werner2_state(0.9), msb)) is True
    assert discord2.is_epr_steerable(cc) is False


def test_monogamy_report_examples():
    # PR/deterministic mixtures sit exactly on the pair boundary
    for p in (0.0, 0.3, 1.0):
        box = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.det_box(0, 0, 0, 0)],
                          [p, 1 - p])
        rep = discord2.monogamy_checks(box)
        assert rep.holds
        assert abs(rep.bell_pair_margin) < 1e-12
    rep = discord2.monogamy_checks(boxcore.noise_box())
    assert rep.bell_pair_margin == 4.0 and rep.discord_margin == 4.0


def test_lro_invariance_of_measures():
    group = boxcore.lro_group()
    for _ in range(10):
        box = polytope.random_ns_box(RNG)
        base = (discord2.bell_discord(box), discord2.mermin_discord(box),
                discord2.total_correlation(box))
        for g in group[:: 11]:
            moved = boxcore.apply_lro(box, g)
            now = (discord2.bell_discord(moved), discord2.mermin_discord(moved),
                   discord2.total_correlation(moved))
            assert np.allclose(base, now, atol=1e-12)


def _random_zero_discord_local_box():
    """Deterministic mixture with both discords zero.

    Generic deterministic mixtures have nonzero discord (the nonconvexity),
    so draws share Alice's response function, which forces factorized
    expectations with +-1 Alice part and hence zero G and Q; the cross-check
    discards any draw that ever failed it.
    """
    while True:
        al, be = RNG.integers(2), RNG.integers(2)
        ids = [boxcore.det_id(al, be, g, e) for g in range(2) for e in range(2)]
        w = RNG.exponential(size=4)
        box = boxcore.mix([boxcore.vertex(v) for v in ids], w / w.sum())
        if discord2.bell_discord(box) < 1e-12 and \
                discord2.mermin_discord(box) < 1e-12:
            return box


def test_bell_discord_linear_on_canonical_mixtures():
    # linearity holds along the canonical pairing: the PR box whose signed
    # CHSH the local box already favors (an anti-aligned PR partially
    # cancels, which is why the decomposition picks labels by signed argmax)
    for _ in range(10):
        local = _random_zero_discord_local_box()
        chsh = discord2.chsh_values(local)
        label = np.unravel_index(np.argmax(chsh), chsh.shape)
        pr = boxcore.pr_box(*label)
        mu = RNG.uniform()
        mixed = boxcore.mix([pr, local], [mu, 1 - mu])
        assert abs(discord2.bell_discord(mixed) - 4 * mu) < 1e-9


def test_mermin_discord_linear_on_canonical_mixtures():
    for _ in range(10):
        local = _random_zero_discord_local_box()
        e_local = boxcore.joint_expectations(local)
        cands = [boxcore.mermin_box(*vid.params) for vid in boxcore.all_mermin_ids()]
        mm = max(cands, key=lambda m: float(
            np.sum(boxcore.joint_expectations(m) * e_local)))
        nu = RNG.uniform()
        mixed = boxcore.mix([mm, local], [nu, 1 - nu])
        assert abs(discord2.mermin_discord(mixed) - 2 * nu) < 1e-9


def test_nonconvexity_witness():
    # even mixture of two zero-G Mermin boxes equals the p=1/2 isotropic PR box
    m1 = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.pr_box(1, 1, 1)], [0.5, 0.5])
    m2 = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.pr_box(1, 1, 0)], [0.5, 0.5])
    assert discord2.bell_discord(m1) == 0.0
    assert discord2.bell_discord(m2) == 0.0
    mixed = boxcore.mix([m1, m2], [0.5, 0.5])
    iso = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.noise_box()], [0.5, 0.5])
    assert mixed.allclose(iso, tol=1e-15)
    assert abs(discord2.bell_discord(mixed) - 2.0) < 1e-12


def test_bell_mermin_relation_for_phased_bell_mixtures():
    frame_n = qstate.settings_catalog("M_N")
    frame_c = qstate.settings_catalog("M_C")
    for _ in range(20):
        w = RNG.exponential(size=8)
        rho = qstate.bell_diagonal_state(w / w.sum())
        g = discord2.bell_discord(qstate.born_box2(rho, frame_n))
        q = discord2.mermin_discord(qstate.born_box2(rho, frame_c))
        assert abs(g - SQRT2 * q) < 1e-12
