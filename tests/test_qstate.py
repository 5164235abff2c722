"""Density matrices, Born boxes, catalogs and the Hardy construction."""

import itertools
import threading

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from boxlab import _corr, boxcore, cli, discord2, polytope, qstate, tribox

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


@pytest.mark.parametrize("direction", [[1, 0], [1, 0, 0, 0], [[1, 0], [0, 1]],
                                       "abc", None, [1, 0, "x"]])
def test_settings_rejects_malformed_direction(direction):
    with pytest.raises(qstate.InvalidStateError):
        qstate.settings(direction, [1, 0, 0], [1, 0, 0], [0, 1, 0])


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
        _, _, c = qstate.correlation_data(rho)
        shortcut = np.einsum("xi,ij,yj->xy", frame.a, c, frame.b)
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


def _perpendicular(rng, v):
    u = np.cross(v, qstate.random_unit_vector(rng))
    return u / np.linalg.norm(u)


def _same_projection(rng, v, d):
    """A unit vector u with |u.d| = |v.d|: v turned about d by a random
    angle, its sign flipped at random."""
    k, th = d / np.linalg.norm(d), rng.uniform(0, 2 * np.pi)
    u = v * np.cos(th) + np.cross(k, v) * np.sin(th) + k * (k @ v) * (1 - np.cos(th))
    return rng.choice([-1.0, 1.0]) * u


# A CQ state's correlators factorize, e_xy = f_x g_y with f_x = a_x.r and
# g_y = b_y.w, w = p0 s0 - p1 s1. Each of these frame sets nulls both
# discords; a names the classical party's directions, b the quantum party's
NULLING_FRAMES = ["a0 perp r", "|a0.r| = |a1.r|", "b0 perp w", "|b0.w| = |b1.w|"]


def _nulling_frame(rng, frames, r, w):
    """Random (a0, a1, b0, b1) in one of NULLING_FRAMES."""
    a0, a1, b0, b1 = (qstate.random_unit_vector(rng) for _ in range(4))
    if frames == "a0 perp r":
        a0 = _perpendicular(rng, r)
    elif frames == "|a0.r| = |a1.r|":
        a1 = _same_projection(rng, a0, r)
    elif frames == "b0 perp w":
        b0 = _perpendicular(rng, w)
    else:
        b1 = _same_projection(rng, b0, w)
    return a0, a1, b0, b1


@pytest.mark.parametrize("quantum_first", [False, True])
@pytest.mark.parametrize("frames", NULLING_FRAMES)
def test_cq_and_qc_discords_vanish_on_each_nulling_frame_set(frames, quantum_first):
    # QC states swap the parties; whether these sets are the whole zero set
    # is open, and random frames do not null the discords
    rng = np.random.default_rng(9)
    nulled, generic = [], []
    for _ in range(50):
        p0, r, s0, s1 = (rng.uniform(), qstate.random_unit_vector(rng),
                         qstate.random_bloch_vector(rng), qstate.random_bloch_vector(rng))
        rho = (qstate.qc_state if quantum_first else qstate.cq_state)(p0, r, s0, s1)
        a0, a1, b0, b1 = _nulling_frame(rng, frames, r, p0 * s0 - (1 - p0) * s1)
        frame = qstate.settings(*((b0, b1, a0, a1) if quantum_first else (a0, a1, b0, b1)))
        for found, box in ((nulled, qstate.born_box2(rho, frame)),
                           (generic, qstate.born_box2(rho, qstate.random_settings2(rng)))):
            found.append(max(discord2.bell_discord(box), discord2.mermin_discord(box)))
    assert max(nulled) <= 1e-12
    assert max(generic) > 1e-2


def test_cq_state_has_factorized_expectations():
    for _ in range(20):
        rho = qstate.random_cq_state(RNG)
        _, _, corr = qstate.correlation_data(rho)
        # rank-1 correlation matrix up to numerical noise
        svals = np.linalg.svd(corr, compute_uv=False)
        assert svals[1] <= 1e-12


def test_cq_and_qc_states_equal_a_kron_reference_bit_for_bit():
    rng = np.random.default_rng(4431)
    for _ in range(50):
        p0, r_hat = rng.uniform(), qstate.random_unit_vector(rng)
        s0, s1 = (rng.uniform(-1, 1, 3) / 2 for _ in range(2))
        op = qstate.bloch_operator(r_hat)
        projs = 0.5 * (qstate.ID2 + op), 0.5 * (qstate.ID2 - op)
        chis = [0.5 * (qstate.ID2 + qstate.bloch_operator(s)) for s in (s0, s1)]
        cq = p0 * np.kron(projs[0], chis[0]) + (1 - p0) * np.kron(projs[1], chis[1])
        qc = p0 * np.kron(chis[0], projs[0]) + (1 - p0) * np.kron(chis[1], projs[1])
        assert qstate.cq_state(p0, r_hat, s0, s1).mat.tobytes() == cq.tobytes()
        assert qstate.qc_state(p0, r_hat, s0, s1).mat.tobytes() == qc.tobytes()


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
    assert len(qstate._FIXED_SETTINGS) + len(qstate._PARAM_SETTINGS) >= 14
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
    with pytest.raises(qstate.UnknownNameError, match=r"needs parameters \['p'\]"):
        qstate.state_family("Werner2")


def test_parameters_a_family_or_fixed_frame_does_not_take_are_refused():
    with pytest.raises(qstate.UnknownNameError, match=r"takes no parameters \['q', 'r'\]"):
        qstate.state_family("Werner2", p=0.5, q=3.0, r=1.0)
    with pytest.raises(qstate.UnknownNameError, match=r"\['theta'\]"):
        qstate.state_family("GHZ", theta=0.3)
    for name, param in (("BSb", 0.3), ("BSb(0.3)", None), ("MDxy", 1.0)):
        with pytest.raises(qstate.UnknownNameError, match="takes no parameter"):
            qstate.settings_catalog(name, param)
    assert qstate.family_parameter_names("GhzClass") == ("theta", "theta3")


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
    # Werner: concurrence max(0, (3p - 1)/2); GGHZ: three-tangle sin^2(2 theta)
    # and no pairwise concurrence; W: every pairwise concurrence 2/3
    for p in (0.2, 1 / 3, 0.6, 1.0):
        assert qstate.entanglement_params("Werner2", p=p) == \
            pytest.approx({"concurrence": max(0.0, (3 * p - 1) / 2)})
    assert qstate.entanglement_params("GGHZ", theta=0.3) == \
        pytest.approx({"three_tangle": np.sin(0.6) ** 2, "c12": 0.0})
    assert qstate.entanglement_params("W") == \
        pytest.approx(dict.fromkeys(("c12", "c13", "c23", "ca_min"), 2 / 3))


def test_hardy_probability_values():
    val = qstate.hardy_probability(1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3))
    assert val == pytest.approx(1 / 12, abs=1e-12)
    assert qstate.hardy_probability(0.6, 0.8, 0.0) == 0.0
    assert qstate.hardy_probability(0.0, 0.6, 0.8) == 0.0
    # the closed form survives complex phases
    val_c = qstate.hardy_probability(0.5j, 0.5, np.sqrt(0.5) * np.exp(0.3j))
    assert val_c == pytest.approx((0.25 * 0.25 * 0.5) / (0.75 * 0.75), abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_hardy_probability_rejects_non_finite_amplitudes_without_a_warning(bad):
    # the suite turns RuntimeWarnings into errors, so a division by a
    # non-finite norm would fail here before the state is refused
    for amps in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
        with pytest.raises(qstate.InvalidStateError, match="finite"):
            qstate.hardy_probability(*amps)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e150, 1e300])
def test_hardy_probability_does_not_depend_on_the_amplitudes_scale(scale):
    # equal amplitudes give the value of (1, 1, 1) exactly at any scale;
    # others are rounded once when scaled, so to a few ulps
    assert qstate.hardy_probability(scale, scale, scale) == qstate.hardy_probability(1, 1, 1)
    amps = np.array([0.5j, 0.5, np.sqrt(0.5) * np.exp(0.3j)])
    want = qstate.hardy_probability(*amps)
    assert qstate.hardy_probability(*(scale * amps)) == pytest.approx(want, rel=1e-14, abs=0.0)
    with pytest.raises(qstate.InvalidStateError, match="zero"):
        qstate.hardy_probability(0, 0, 0)


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


@pytest.mark.parametrize("name", sorted(qstate._FIXED_SETTINGS) + sorted(qstate._PARAM_SETTINGS))
def test_born_rule_matches_definition_on_named_frames(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    # 0.4 lies in range for every parametric frame (tau >= 0, p and theta in
    # [0, 1]); a fixed frame refuses a parameter
    frame = qstate.settings_catalog(name, 0.4 if name in qstate._PARAM_SETTINGS else None)
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


def born_operator_by_kron(frame):
    """Oracle: column (x, a) of B is (P_a1^x1 (x) .. (x) P_an^xn)^T, flattened,
    so that Tr(rho P) = rho.reshape(-1) @ column."""
    parties = party_dirs(frame)
    n = len(parties)
    b = np.empty((4 ** n, 4 ** n), dtype=complex)
    for col, idx in enumerate(itertools.product(range(2), repeat=2 * n)):
        op = np.ones((1, 1))
        for k, dirs in enumerate(parties):
            op = np.kron(op, projector(dirs[idx[k]], idx[n + k]))
        b[:, col] = op.T.reshape(-1)
    return b


@pytest.mark.parametrize("parties", [2, 3])
def test_born_operator_matches_the_kron_born_rule(parties):
    rng = np.random.default_rng(1400 + parties)
    dim = 2 ** parties
    for k in range(200):
        rho = random_mixed_state(rng, dim) if k % 2 else qstate.random_pure_state(rng, dim)
        frame = qstate.random_settings2(rng) if parties == 2 else qstate.random_settings3(rng)
        want = born_operator_by_kron(frame)
        assert np.max(np.abs(frame.born_operator - want)) <= 1e-15
        table = (rho.mat.reshape(-1) @ want).real
        assert np.max(np.abs(born_box(rho, frame).table.reshape(-1) - table)) <= 1e-15


@pytest.mark.parametrize("parties", [2, 3])
def test_frame_stack_born_tables_equal_the_kron_born_rule_per_frame(parties):
    rng = np.random.default_rng(1410 + parties)
    dirs = rng.normal(size=(40, parties, 2, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    stack = qstate.settings(*dirs.reshape(40, -1, 3).swapaxes(0, 1))
    assert stack.stacked and stack.a.shape == (40, 2, 3) and stack.born_operator is None
    for name in ("a", "b", "c")[:parties]:
        assert not getattr(stack, name).flags.writeable
    states = np.stack([random_mixed_state(rng, 2 ** parties).mat for _ in range(40)])
    tables = born_box(qstate.density_matrix(states), stack).flat
    assert tables.shape == (40, 4 ** parties)
    for d, m, table in zip(dirs, states, tables):
        want = (m.reshape(-1) @ born_operator_by_kron(qstate.settings(*d.reshape(-1, 3)))).real
        assert np.max(np.abs(table - want)) <= 1e-15


def test_born_operator_directions_and_box_correlators_are_read_only():
    frame = qstate.settings_catalog("SDxy")
    b = frame.born_operator
    assert frame.born_operator is b
    box = qstate.born_box3(qstate.ghz_state(), frame)
    assert box.correlators is box.correlators
    for array in (b, frame.a, frame.b, frame.c, box.correlators,
                  boxcore.joint_expectations(qstate.born_box2(qstate.singlet(),
                                                              qstate.settings_catalog("BSb")))):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.reshape(-1)[0] = 0.0


def _fresh_box():
    return boxcore.make_box(polytope.random_ns_tables(np.random.default_rng(1402), 1)[0])


def _fresh_frame():
    return qstate.random_settings3(np.random.default_rng(1403))


@pytest.mark.parametrize("make, name, compute", [
    (_fresh_box, "correlators", lambda box: _corr.correlators(box.table.reshape(-1), 2)),
    (_fresh_frame, "born_operator", born_operator_by_kron),
])
def test_kept_properties_compute_once_and_stay_read_only(make, name, compute):
    # set at construction and kept in the instance; the value is the one the
    # definition gives, and it cannot be written over
    obj = make()
    value = vars(obj)[name]
    assert getattr(obj, name) is value
    assert np.allclose(value, compute(obj), rtol=0.0, atol=1e-15)
    assert not value.flags.writeable
    with pytest.raises(ValueError):
        value.reshape(-1)[0] = 0.0
    # two threads reading a fresh instance first both get the same value
    for _ in range(20):
        obj, got = make(), [None, None]
        barrier = threading.Barrier(2)

        def read(i, obj=obj, got=got, barrier=barrier):
            barrier.wait()
            got[i] = getattr(obj, name)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert np.array_equal(got[0], got[1])
        assert np.array_equal(getattr(obj, name), got[0])


@pytest.mark.parametrize("family, formula", [
    (qstate.werner2_state, lambda p: p * qstate.bell_psi_plus().mat + (1 - p) * np.eye(4) / 4.0),
    (qstate.bell_cc_state, lambda p: p * qstate.bell_psi_plus().mat
     + (1 - p) * np.diag([0.5, 0, 0, 0.5]).astype(complex)),
    (qstate.werner3_state, lambda p: p * qstate.ghz_state().mat + (1 - p) * np.eye(8) / 8.0),
    (qstate.ghz_w_mix_state, lambda p: p * qstate.ghz_state().mat
     + (1 - p) * qstate.w_state().mat),
])
def test_one_parameter_mixtures_equal_their_formulas(family, formula):
    grid = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-17, 1 / 3, 1 - 1e-16]])
    for p in grid:
        assert np.array_equal(family(float(p)).mat, formula(float(p)))
    with pytest.raises(ValueError):
        qstate._NOISE2[0, 0] = 0.0


# The benchmark's four sweep families, with their CLI arguments, swept
# parameter, measures and a state and frame for each value
_SWEEP_FAMILIES = {
    "schmidt_bsb": (["--family", "Schmidt", "--settings", "BSb"], "theta:0.1:0.7:9",
                    ["CHSH000", "G"],
                    lambda v: (qstate.schmidt_state(v), qstate.settings_catalog("BSb"))),
    "werner_msb": (["--family", "Werner2", "--settings", "MSb"], "p:0:1:11", ["Q"],
                   lambda v: (qstate.werner2_state(v), qstate.settings_catalog("MSb"))),
    "ghz_smdghz": (["--family", "GHZ", "--settings", "SMDghz", "--settings-param", "sweep"],
                   "p:0.5:1:6", ["G", "Q", "T"],
                   lambda v: (qstate.ghz_state(), qstate.settings_catalog("SMDghz", v))),
    "gghz_sdxy": (["--family", "GGHZ", "--settings", "SDxy"], "theta:0:0.785:7", ["G"],
                  lambda v: (qstate.gghz_state(v), qstate.settings_catalog("SDxy"))),
    # longer than one chunk of cli._SWEEP_CHUNK points, with every measure
    "werner_msb_chunks": (["--family", "Werner2", "--settings", "MSb"], "p:0:1:70",
                          list(cli._MEASURES2),
                          lambda v: (qstate.werner2_state(v), qstate.settings_catalog("MSb"))),
    "ghz_smdghz_chunks": (["--family", "GHZ", "--settings", "SMDghz",
                           "--settings-param", "sweep"], "p:0.5:1:67", list(cli._MEASURES3),
                          lambda v: (qstate.ghz_state(), qstate.settings_catalog("SMDghz", v))),
    "prq_settings": (["--family", "Schmidt", "--param", "theta=0.4", "--settings", "PRQ"],
                     "settings:0.2:1.8:5", ["G", "Q", "CHSH"],
                     lambda v: (qstate.schmidt_state(0.4), qstate.settings_catalog("PRQ", v))),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_FAMILIES))
def test_sweep_csv_matches_a_per_point_reference_loop(name, tmp_path):
    args, spec, measures, point = _SWEEP_FAMILIES[name]
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *args, "--sweep", spec, "--measures", ",".join(measures),
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    _, start, stop, steps = spec.split(":")
    values = np.linspace(float(start), float(stop), int(steps))
    assert lines[0] == ",".join([spec.split(":")[0], *measures])
    assert len(lines) == len(values) + 1
    for line, value in zip(lines[1:], values):
        row = list(map(float, line.split(",")))
        rho, frame = point(float(value))
        ref = born_table_by_definition(rho, frame)
        box = boxcore.make_box(ref) if frame.parties == 2 else tribox.make_box3(ref)
        table = cli._MEASURES2 if frame.parties == 2 else cli._MEASURES3
        want = [float(value)] + [table[m](box) for m in measures]
        # rtol is the CSV's rounding to 12 significant digits, atol the
        # difference allowed between the two computations
        np.testing.assert_allclose(row, want, rtol=5e-12, atol=1e-12)


def _valid_stack(k=6):
    rng = np.random.default_rng(1420)
    return np.stack([random_mixed_state(rng, 4).mat for _ in range(k)])


def _bad_member(kind):
    m = np.eye(4, dtype=complex) / 4
    if kind == "non-finite":
        m[2, 2] = np.nan
    elif kind == "both_infs":  # inf - inf in a trace would be NaN, with a warning
        m[1, 1], m[2, 2] = np.inf, -np.inf
    elif kind == "non-Hermitian":
        m[0, 1] = 0.3
    elif kind == "trace":
        m = m * 1.01
    else:  # a negative eigenvalue
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    return m


@pytest.mark.parametrize("kind", ["non-finite", "both_infs", "non-Hermitian", "trace",
                                  "negative"])
def test_a_state_stack_with_one_bad_member_raises_its_density_matrix_message(kind):
    mats = _valid_stack()
    mats[3] = _bad_member(kind)
    mats[5] = _bad_member("non-finite" if kind == "negative" else "negative")
    with pytest.raises(qstate.InvalidStateError) as want:
        qstate.density_matrix(mats[3])
    with pytest.raises(qstate.InvalidStateError) as got:
        qstate.density_matrix(mats)
    assert str(got.value) == str(want.value)


def test_a_valid_state_stack_is_a_read_only_copy():
    mats = _valid_stack()
    rho = qstate.density_matrix(mats)
    assert rho.dim == 4 and rho.mat.shape == (6, 4, 4)
    assert np.array_equal(rho.mat, mats) and not np.shares_memory(rho.mat, mats)
    assert not rho.mat.flags.writeable
    with pytest.raises(qstate.InvalidStateError):
        qstate.density_matrix(mats[None])


def test_a_state_stack_gives_born_boxes_a_box_stack():
    two = qstate.density_matrix(_valid_stack(1))
    three = qstate.density_matrix(np.eye(8)[None] / 8)
    for born, rho, frame in ((qstate.born_box2, two, qstate.settings_catalog("BSb")),
                             (qstate.born_box3, three, qstate.settings_catalog("SDxy"))):
        stack = born(rho, frame)
        assert stack.stacked and len(stack.table) == 1
        one = born(qstate.density_matrix(rho.mat[0]), frame)
        assert stack.table[0].tobytes() == one.table.tobytes()
    with pytest.raises(qstate.InvalidStateError, match="needs a 4x4"):
        qstate.born_box2(three, qstate.settings_catalog("BSb"))


def test_born_boxes_refuse_unequal_stacks_an_empty_frame_stack_and_lists():
    states = qstate.density_matrix(_valid_stack(2))
    frames, empty = (qstate.settings_catalog("PRQ", np.linspace(0.1, 0.9, k)) for k in (3, 0))
    rho, frame = qstate.bell_psi_plus(), qstate.settings_catalog("BSb")
    for states, frames in [(states, frames), (rho, empty), ([rho] * 2, frame),
                           (rho, [frame] * 2), (rho.mat, frame)]:
        with pytest.raises(qstate.InvalidStateError):
            qstate.born_box2(states, frames)


def test_fixed_catalog_frames_are_built_once_and_read_only():
    for name in ("BSb", "M_N", "SDxy"):
        frame = qstate.settings_catalog(name)
        assert qstate.settings_catalog(name) is frame
        assert not any(d.flags.writeable for d in frame.dirs)
        assert not frame.born_operator.flags.writeable


def test_correlation_data_of_a_stack_is_that_of_each_state():
    rho = qstate.density_matrix(_valid_stack())
    r, s, c = qstate.correlation_data(rho)
    assert (r.shape, s.shape, c.shape) == ((6, 3), (6, 3), (6, 3, 3))
    for k, mat in enumerate(rho.mat):
        for got, want in zip((r[k], s[k], c[k]),
                             qstate.correlation_data(qstate.density_matrix(mat))):
            assert np.max(np.abs(got - want)) <= 1e-15


def test_correlation_data_refuses_a_three_qubit_state():
    with pytest.raises(qstate.InvalidStateError, match="4x4"):
        qstate.correlation_data(qstate.state_family("GHZ"))


@pytest.mark.parametrize("state", [qstate.cq_state, qstate.qc_state])
@pytest.mark.parametrize("p0", [np.inf, -np.inf, np.nan, np.array([0.3, np.inf, 0.5])])
def test_cq_and_qc_states_refuse_a_p0_that_is_not_finite_without_a_warning(state, p0, recwarn):
    r_hat, s0, s1 = np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.0]), np.zeros(3)
    if np.ndim(p0):
        r_hat, s0, s1 = (np.tile(v, (3, 1)) for v in (r_hat, s0, s1))
    with pytest.raises(qstate.InvalidStateError, match="p0 is not finite"):
        state(p0, r_hat, s0, s1)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("state", [qstate.cq_state, qstate.qc_state])
@pytest.mark.parametrize("p0, s0", [(0.3, np.tile(qstate.XHAT / 2, (2, 1))),
                                    (np.full(2, 0.3), qstate.XHAT / 2)])
def test_cq_and_qc_states_refuse_point_counts_that_do_not_match(state, p0, s0):
    # directions of 2 and 3 points, or 2 weights against 3 directions
    with pytest.raises(qstate.InvalidStateError,
                       match=r"^p0 and directions of \[2, 3\] points do not match$"):
        state(p0, np.tile(qstate.ZHAT, (3, 1)), s0, qstate.ZHAT / 2)


@pytest.mark.parametrize("quantum_first", [False, True])
def test_cq_and_qc_stacks_equal_their_single_states(quantum_first):
    rng = np.random.default_rng(1430)
    p0 = rng.uniform(size=30)
    r_hat = rng.normal(size=(30, 3))
    r_hat /= np.linalg.norm(r_hat, axis=1, keepdims=True)
    s0, s1 = (rng.uniform(-1, 1, (30, 3)) / 2 for _ in range(2))
    stack = qstate._classical_quantum(p0, r_hat, s0, s1, quantum_first)
    one = qstate.qc_state if quantum_first else qstate.cq_state
    for k in range(30):
        assert stack.mat[k].tobytes() == one(p0[k], r_hat[k], s0[k], s1[k]).mat.tobytes()
    r_hat[7] *= 1.1
    with pytest.raises(qstate.InvalidStateError) as want:
        one(p0[7], r_hat[7], s0[7], s1[7])
    with pytest.raises(qstate.InvalidStateError) as got:
        qstate._classical_quantum(p0, r_hat, s0, s1, quantum_first)
    assert str(got.value) == str(want.value)


def test_born_box2_of_a_state_and_a_frame_stack_equals_the_per_point_boxes():
    rng = np.random.default_rng(1440)
    mats = _valid_stack(8)
    dirs = rng.normal(size=(8, 4, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    stack = qstate.born_box2(qstate.density_matrix(mats), qstate.settings(*dirs.swapaxes(0, 1)))
    for t, e, m, d in zip(stack.flat, stack.correlators, mats, dirs):
        box = qstate.born_box2(qstate.density_matrix(m), qstate.settings(*d))
        assert np.max(np.abs(t - box.table.reshape(-1))) <= 1e-15
        assert np.max(np.abs(e - box.correlators)) <= 1e-15
    dirs[5, 2] *= 1.5
    dirs[6, 0] *= 2.0
    with pytest.raises(qstate.InvalidStateError) as want:
        qstate.settings(*dirs[5])
    with pytest.raises(qstate.InvalidStateError) as got:
        qstate.settings(*dirs.swapaxes(0, 1))
    assert str(got.value) == str(want.value)


def test_stacked_born_tables_with_a_signaling_row_raise_the_error_of_make_box(monkeypatch):
    # swapping P(0,0|0,1) and P(1,0|0,1) in one table keeps it normalized
    # and nonnegative but makes it signal
    rng = np.random.default_rng(1450)
    mats = _valid_stack(8)
    dirs = rng.normal(size=(8, 4, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    born_tables = qstate._born_tables

    def one_bad(m, d):
        tables = born_tables(m, d)
        tables[6, [4, 6]] = tables[6, [6, 4]]
        return tables

    monkeypatch.setattr(qstate, "_born_tables", one_bad)
    rho, frames = qstate.density_matrix(mats), qstate.settings(*dirs.swapaxes(0, 1))
    table = qstate._born_table(rho, frames, 2)[6]
    with pytest.raises(boxcore.SignalingError) as want:
        boxcore.make_box(table)
    with pytest.raises(boxcore.SignalingError) as got:
        qstate.born_box2(rho, frames)
    assert str(got.value) == str(want.value)


def _family_arrays(name, rng, k):
    """k points of each parameter of a family, as state_family takes them."""
    t = rng.uniform(0.05, 0.95, k)
    if name == "BellDiagonal":
        return {"weights": rng.dirichlet(np.ones(8), k)}
    if name in ("CQ", "QC"):
        unit = rng.normal(size=(k, 3))
        return {"p0": t if name == "CQ" else 0.4,  # a scalar weight serves every point
                "r_hat": unit / np.linalg.norm(unit, axis=1, keepdims=True),
                "s0": rng.uniform(-0.5, 0.5, (k, 3)), "s1": rng.uniform(-0.5, 0.5, (k, 3))}
    if name == "Hardy":
        return {"b": t, "c": t[::-1] + 0.3j, "d": 0.7}  # a scalar serves every point
    if name == "WClass":
        return {"alpha": t, "beta": 0.4, "gamma": t[::-1]}
    if name == "GhzClass":
        return {"theta": t, "theta3": 1.1}
    return {param: t for param in qstate.family_parameter_names(name)}


@pytest.mark.parametrize("name", [name for name in sorted(qstate._FAMILIES)
                                  if qstate.family_parameter_names(name)])
def test_a_family_of_parameter_arrays_is_the_stack_of_its_scalar_calls(name):
    rng = np.random.default_rng(2300)
    params = _family_arrays(name, rng, 9)
    stack = qstate.state_family(name, **params)
    points = [{key: value[i] if np.ndim(value) else value for key, value in params.items()}
              for i in range(9)]
    want = np.stack([qstate.state_family(name, **point).mat for point in points])
    assert stack.mat.shape == want.shape and np.array_equal(stack.mat, want)
    assert not stack.mat.flags.writeable


@pytest.mark.parametrize("name", sorted(qstate._PARAM_SETTINGS))
def test_a_frame_stack_of_the_catalog_gives_the_per_frame_born_tables(name):
    values = np.linspace(0.1, 0.9, 7)
    stack = qstate.settings_catalog(name, values)
    assert stack.stacked and stack.born_operator is None
    for party in stack.dirs:
        assert party.shape == (7, 2, 3)
    n = stack.parties
    rho = random_mixed_state(np.random.default_rng(2310), 2 ** n)
    states = qstate.density_matrix(np.stack([rho.mat] * 7))
    for state in (rho, states):  # one state serving every point, and a stack
        tables = born_box(state, stack).flat
        for table, value in zip(tables, values):
            one = qstate.settings_catalog(name, float(value))
            assert np.max(np.abs(table - born_box(rho, one).flat)) <= 1e-15


def test_a_frame_stack_names_the_first_bad_point_and_pure_dm_the_first_bad_row():
    with pytest.raises(qstate.InvalidStateError) as want:
        qstate.settings_catalog("PRQ", -0.5)
    with pytest.raises(qstate.InvalidStateError) as got:
        qstate.settings_catalog("PRQ", np.array([0.5, -0.5, np.inf]))
    assert str(got.value) == str(want.value)
    v = np.ones((4, 4))
    v[1], v[2, 0] = 0.0, np.nan
    with pytest.raises(qstate.InvalidStateError, match="state vector has norm 0.0"):
        qstate.pure_dm(v)
    v[1] = 1.0
    with pytest.raises(qstate.InvalidStateError, match="non-finite entries"):
        qstate.pure_dm(v)
