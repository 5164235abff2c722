"""Density matrices, Born boxes, catalogs and the Hardy construction."""

import itertools

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from boxlab import boxcore, discord2, qstate, tribox

RNG = np.random.default_rng(31)
SQRT2 = np.sqrt(2.0)


def projector(n, outcome):
    return 0.5 * (qstate.ID2 + (1.0 if outcome == 0 else -1.0)
                  * qstate.bloch_operator(n))


def party_dirs(frame):
    return [frame.a, frame.b] + ([] if frame.c is None else [frame.c])


def born_table_by_definition(rho, frame):
    """Oracle: Tr(rho Pi_a^x (x) Pi_b^y (x) ..) one cell at a time."""
    parties = party_dirs(frame)
    n = len(parties)
    t = np.empty((2,) * (2 * n))
    for idx in itertools.product(range(2), repeat=2 * n):
        op = np.ones((1, 1))
        for k, dirs in enumerate(parties):
            op = np.kron(op, projector(dirs[idx[k]], idx[n + k]))
        t[idx] = np.trace(rho.mat @ op).real
    return t


def correlation_data_by_definition(rho):
    """Oracle: r_i = Tr(rho s_i (x) I), s_j = Tr(rho I (x) s_j),
    C_ij = Tr(rho s_i (x) s_j)."""
    def ev(p, q):
        return np.trace(rho.mat @ np.kron(p, q)).real

    r = np.array([ev(p, qstate.ID2) for p in qstate.PAULI])
    s = np.array([ev(qstate.ID2, p) for p in qstate.PAULI])
    c = np.array([[ev(pi, pj) for pj in qstate.PAULI] for pi in qstate.PAULI])
    return r, s, c


def random_mixed_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return qstate.density_matrix(m / np.trace(m).real)


def born_box(rho, frame):
    if frame.parties == 2:
        return qstate.born_box2(rho, frame)
    return qstate.born_box3(rho, frame)


def test_density_matrix_validation():
    with pytest.raises(qstate.InvalidStateError):
        qstate.density_matrix(np.eye(4))  # trace 4
    with pytest.raises(qstate.InvalidStateError):
        qstate.density_matrix(np.diag([1.2, -0.2, 0.0, 0.0]))
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.3
    with pytest.raises(qstate.InvalidStateError):
        qstate.density_matrix(bad)
    qstate.density_matrix(np.eye(4) / 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite(bad):
    m = np.eye(4, dtype=complex) / 4
    m[2, 2] = bad
    with pytest.raises(qstate.InvalidStateError, match="non-finite"):
        qstate.density_matrix(m)


@pytest.mark.parametrize("vec", [[np.nan, 0, 0, 1], [np.inf, 0, 0, 1], [0, 0, 0, 0],
                                 [1, 0, 0], [1e200] * 8, np.ones(16)])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_pure_dm_rejects_invalid_vectors(vec):
    with pytest.raises(qstate.InvalidStateError):
        qstate.pure_dm(vec)


def test_pure_dm_equals_the_validated_outer_product():
    for dim in (4, 8):
        v = 3.0 * (RNG.normal(size=dim) + 1j * RNG.normal(size=dim))
        rho = qstate.pure_dm(v)
        v = v / np.linalg.norm(v)
        assert np.array_equal(rho.mat, qstate.density_matrix(np.outer(v, v.conj())).mat)
        assert not rho.mat.flags.writeable


def test_settings_rejects_non_finite_direction():
    with pytest.raises(qstate.InvalidStateError):
        qstate.settings([np.nan, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0])


def test_singlet_correlations_minus_cosine():
    rho = qstate.singlet()
    for _ in range(20):
        frame = qstate.random_settings2(RNG)
        box = qstate.born_box2(rho, frame)
        e = boxcore.joint_expectations(box)
        for x, y in itertools.product(range(2), repeat=2):
            assert e[x, y] == pytest.approx(-float(frame.a[x] @ frame.b[y]),
                                            abs=1e-12)


def test_bell_state_mermin_frame_reproduces_mermin_box():
    box = qstate.born_box2(qstate.bell_psi_plus(), qstate.settings_catalog("MSb"))
    assert box.allclose(boxcore.mermin_box(0, 0, 0), tol=1e-12)


def test_schmidt_bsb_gives_isotropic_pr():
    for th in (0.2, np.pi / 8, np.pi / 4):
        box = qstate.born_box2(qstate.schmidt_state(th),
                               qstate.settings_catalog("BSb"))
        w = np.sin(2 * th) / SQRT2
        expected = w * boxcore.pr_box(0, 0, 0).table + (1 - w) * 0.25
        assert np.allclose(box.table, expected, atol=1e-12)


def test_born_boxes_are_nonsignaling_to_1e12():
    for _ in range(25):
        box = qstate.born_box2(qstate.random_two_qubit_state(RNG),
                               qstate.random_settings2(RNG))
        marg_a = box.table.sum(axis=3)
        assert np.max(np.abs(marg_a[:, 0] - marg_a[:, 1])) <= 1e-12
        marg_b = box.table.sum(axis=2)
        assert np.max(np.abs(marg_b[0] - marg_b[1])) <= 1e-12
    box3 = qstate.born_box3(qstate.random_pure_state(RNG, 8),
                            qstate.random_settings3(RNG))
    mab = box3.table.sum(axis=5)
    assert np.max(np.abs(mab[:, :, 0] - mab[:, :, 1])) <= 1e-12


def test_correlation_shortcut_agrees_with_born_rule():
    for _ in range(50):
        rho = qstate.random_two_qubit_state(RNG)
        frame = qstate.random_settings2(RNG)
        shortcut = qstate.joint_expectations_shortcut(rho, frame)
        full = boxcore.joint_expectations(qstate.born_box2(rho, frame))
        assert np.max(np.abs(shortcut - full)) <= 1e-10


def test_compatible_measurements_force_zero_discord():
    for _ in range(50):
        rho = qstate.random_two_qubit_state(RNG)
        a0 = qstate.random_unit_vector(RNG)
        frame = qstate.settings(a0, a0, qstate.random_unit_vector(RNG),
                                qstate.random_unit_vector(RNG))
        box = qstate.born_box2(rho, frame)
        assert discord2.bell_discord(box) <= 1e-12
        assert discord2.mermin_discord(box) <= 1e-12


def test_cq_state_nullity_in_aligned_frames():
    # frames whose first Alice vector matches the classical basis direction
    # (the regime where the nullity property actually holds)
    for _ in range(30):
        r_hat = qstate.random_unit_vector(RNG)
        rho = qstate.cq_state(RNG.uniform(), r_hat,
                              qstate.random_bloch_vector(RNG),
                              qstate.random_bloch_vector(RNG))
        perp = np.cross(r_hat, qstate.random_unit_vector(RNG))
        perp /= np.linalg.norm(perp)
        frame = qstate.settings(r_hat, perp, qstate.random_unit_vector(RNG),
                                qstate.random_unit_vector(RNG))
        box = qstate.born_box2(rho, frame)
        assert discord2.bell_discord(box) <= 1e-9
        assert discord2.mermin_discord(box) <= 1e-9


def test_cq_state_has_factorized_expectations():
    for _ in range(20):
        rho = qstate.random_cq_state(RNG)
        _, _, corr = qstate.correlation_data(rho)
        # rank-1 correlation matrix up to numerical noise
        svals = np.linalg.svd(corr, compute_uv=False)
        assert svals[1] <= 1e-12


def test_ghz_mdxy_reproduces_tripartite_mermin_box():
    box = qstate.born_box3(qstate.ghz_state(), qstate.settings_catalog("MDxy"))
    assert box.allclose(tribox.mermin3_box(0, 0, 0, 0), tol=1e-12)


def test_gghz_sdxy_gives_isotropic_svetlichny():
    for th in (0.3, np.pi / 4):
        box = qstate.born_box3(qstate.gghz_state(th),
                               qstate.settings_catalog("SDxy"))
        w = np.sin(2 * th) / SQRT2
        expected = w * tribox.sv_box(0, 0, 0, 0).table + (1 - w) / 8.0
        assert np.allclose(box.table, expected, atol=1e-12)


def test_product_state_z_measurements_deterministic():
    rho = qstate.pure_dm([1, 0, 0, 0, 0, 0, 0, 0])  # |000>
    frame = qstate.settings(qstate.ZHAT, qstate.XHAT, qstate.ZHAT, qstate.XHAT,
                            qstate.ZHAT, qstate.XHAT)
    box = qstate.born_box3(rho, frame)
    assert box.prob(0, 0, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)


def test_settings_catalog_entries():
    assert len(qstate.settings_names()) >= 14
    bsb = qstate.settings_catalog("BSb")
    assert np.allclose(bsb.a[0], [1, 0, 0])
    assert np.allclose(bsb.b[0], [1 / SQRT2, -1 / SQRT2, 0])
    mdxy = qstate.settings_catalog("MDxy")
    assert mdxy.parties == 3
    for party in (mdxy.a, mdxy.b, mdxy.c):
        assert np.allclose(party, [[1, 0, 0], [0, 1, 0]])
    ghose = qstate.settings_catalog("Ghose(0.7)")
    assert np.allclose(np.linalg.norm(ghose.c, axis=1), 1.0)
    with pytest.raises(qstate.UnknownNameError):
        qstate.settings_catalog("NoSuchFrame")
    with pytest.raises(qstate.UnknownNameError):
        qstate.settings_catalog("PRQ")  # parameter required


def test_state_families_are_valid_states():
    cases = [
        ("Schmidt", {"theta": 0.5}),
        ("Werner2", {"p": 0.7}),
        ("BellCC", {"p": 0.4}),
        ("GGHZ", {"theta": 0.3}),
        ("GhzClass", {"theta": 0.5, "theta3": 1.0}),
        ("WClass", {"alpha": 0.6, "beta": 0.5, "gamma": 0.6245}),
        ("Werner3", {"p": 0.5}),
        ("GhzWMix", {"p": 0.3}),
        ("BisepW", {}),
        ("Hardy", {"b": 0.5, "c": 0.5, "d": 0.70710678}),
    ]
    for name, params in cases:
        rho = qstate.state_family(name, **params)
        assert rho.dim in (4, 8)
    with pytest.raises(qstate.UnknownNameError):
        qstate.state_family("Nonsense")


def test_bell_diagonal_state_needs_normalized_weights():
    with pytest.raises(qstate.InvalidStateError):
        qstate.bell_diagonal_state(np.ones(8))
    qstate.bell_diagonal_state(np.ones(8) / 8)


def test_entanglement_params():
    assert qstate.entanglement_params("Schmidt", theta=np.pi / 4)["tangle"] == \
        pytest.approx(1.0)
    pars = qstate.entanglement_params("GhzClass", theta=0.6, theta3=0.8)
    assert pars["three_tangle"] == pytest.approx((np.sin(1.2) * np.sin(0.8)) ** 2)
    assert pars["c12"] == pytest.approx(np.sin(1.2) * np.cos(0.8))
    w = qstate.entanglement_params("WClass", alpha=1 / np.sqrt(3),
                                   beta=1 / np.sqrt(3), gamma=1 / np.sqrt(3))
    assert w["ca_min"] == pytest.approx(2 / 3)
    with pytest.raises(qstate.UnknownNameError):
        qstate.entanglement_params("BellCC", p=0.3)


def test_hardy_probability_values():
    val = qstate.hardy_probability(1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3))
    assert val == pytest.approx(1 / 12, abs=1e-12)
    assert qstate.hardy_probability(0.6, 0.8, 0.0) == 0.0
    assert qstate.hardy_probability(0.0, 0.6, 0.8) == 0.0
    # the closed form survives complex phases
    val_c = qstate.hardy_probability(0.5j, 0.5, np.sqrt(0.5) * np.exp(0.3j))
    assert val_c == pytest.approx((0.25 * 0.25 * 0.5) / (0.75 * 0.75), abs=1e-12)


def test_state_json_round_trip():
    rho = qstate.random_two_qubit_state(RNG)
    again = qstate.state_from_json(qstate.state_to_json(rho))
    assert np.allclose(again.mat, rho.mat, atol=1e-15)
    with pytest.raises(qstate.InvalidStateError):
        qstate.state_from_json('{"dim": 4, "re": [[1]], "im": [[0]]}')


def test_settings_json_round_trip():
    frame = qstate.settings_catalog("SDxz")
    again = qstate.settings_from_json(qstate.settings_to_json(frame))
    assert np.allclose(again.a, frame.a)
    assert np.allclose(again.c, frame.c)
    frame2 = qstate.settings_from_json(qstate.settings_to_json(
        qstate.settings_catalog("BSb")))
    assert frame2.parties == 2


@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize("kind", ["mixed", "pure"])
def test_born_rule_matches_definition_on_random_states(dim, kind):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        if kind == "mixed":
            rho = random_mixed_state(rng, dim)
        else:
            rho = qstate.random_pure_state(rng, dim)
        frame = (qstate.random_settings2(rng) if dim == 4
                 else qstate.random_settings3(rng))
        box = born_box(rho, frame)
        assert np.max(np.abs(box.table - born_table_by_definition(rho, frame))) <= 1e-12
        if dim == 4:
            for got, want in zip(qstate.correlation_data(rho),
                                 correlation_data_by_definition(rho)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name", qstate.settings_names())
def test_born_rule_matches_definition_on_named_frames(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    # 0.4 lies in range for every parametric frame (tau >= 0, p and theta in [0, 1])
    frame = qstate.settings_catalog(name, 0.4)
    dim = 4 if frame.parties == 2 else 8
    for rho in (random_mixed_state(rng, dim), qstate.random_pure_state(rng, dim)):
        box = born_box(rho, frame)
        assert np.max(np.abs(box.table - born_table_by_definition(rho, frame))) <= 1e-12


def flip_output_at(x):
    """Relabel that flips one party's output at input x only."""
    return boxcore.PartyRelabel(input_flip=0, out_by_input=1, out_const=1 - x)


def negate_direction(frame, party, x):
    dirs = party_dirs(frame)
    flipped = dirs[party].copy()
    flipped[x] = -flipped[x]
    dirs[party] = flipped
    return qstate.settings(*(v for d in dirs for v in d))


@hypothesis.settings(deadline=None, derandomize=True, max_examples=40)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), party=st.integers(0, 1),
                  x=st.integers(0, 1))
def test_negating_a_direction_flips_that_output_bipartite(seed, party, x):
    rng = np.random.default_rng(seed)
    rho = random_mixed_state(rng, 4)
    frame = qstate.random_settings2(rng)
    relabel = {"ab"[party]: flip_output_at(x)}
    want = boxcore.apply_lro(qstate.born_box2(rho, frame), boxcore.Lro(**relabel))
    got = qstate.born_box2(rho, negate_direction(frame, party, x))
    assert got.allclose(want, tol=1e-12)


@hypothesis.settings(deadline=None, derandomize=True, max_examples=40)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), party=st.integers(0, 2),
                  x=st.integers(0, 1))
def test_negating_a_direction_flips_that_output_tripartite(seed, party, x):
    rng = np.random.default_rng(seed)
    rho = random_mixed_state(rng, 8)
    frame = qstate.random_settings3(rng)
    relabels = [boxcore.IDENTITY_RELABEL] * 3
    relabels[party] = flip_output_at(x)
    want = tribox.apply_lro3(qstate.born_box3(rho, frame),
                             tribox.Lro3(relabels=tuple(relabels)))
    got = qstate.born_box3(rho, negate_direction(frame, party, x))
    assert got.allclose(want, tol=1e-12)


@pytest.mark.parametrize("builder", [qstate.bell_psi_plus, qstate.singlet,
                                     qstate.ghz_state, qstate.w_state])
def test_constant_catalog_states_are_shared_and_read_only(builder):
    rho = builder()
    assert builder() is rho
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.0
