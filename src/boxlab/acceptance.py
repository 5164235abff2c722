"""Acceptance suite: one callable check per advertised closed-form guarantee.

Each criterion returns a CriterionResult with the worst observed error, so the
CLI `verify` command and tests/test_acceptance.py share the same code path.
Closed-form tolerances are 1e-9; criteria 9, 10 and 11 state their own bounds.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import _corr, boxcore, discord2, polytope, qstate, tribox
from ._tol import TOL_CLOSED

SEED = 20240811
SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    description: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0  # wall time, set by run_all


def _result(number, description, max_err, tol, extra="") -> CriterionResult:
    detail = f"max error {max_err:.3e} (tol {tol:.0e})"
    if extra:
        detail += ", " + extra
    return CriterionResult(number, description, bool(max_err <= tol), detail)


def _closed_forms(number, description, *pairs) -> CriterionResult:
    """The result of a criterion whose closed forms are (got, want) pairs of
    arrays or numbers: its error is the largest |got - want| over every
    entry of every pair (NaN if any is NaN), its tolerance TOL_CLOSED."""
    worst = np.max([np.max(np.abs(np.subtract(got, want, dtype=float))) for got, want in pairs])
    return _result(number, description, float(worst), TOL_CLOSED)


# -- criteria ----------------------------------------------------------------
#
# Criteria 1-5, 7, 14 and 16, and the GGHZ, Werner3 and GHZ-class parts of
# 12, run on stacks: one state stack for the curve's points, a frame stack
# where the frame moves with them, one Born call per frame, and each measure
# read as a (k,) array.

def criterion_1() -> CriterionResult:
    """Isotropic PR family: G(p) = 4p and signed CHSH B000 = 4p."""
    p = np.linspace(0.0, 1.0, 11)[:, None]
    box = boxcore.make_box(p * boxcore.pr_box(0, 0, 0).flat + (1 - p) * boxcore.noise_box().flat)
    return _closed_forms(1, "isotropic PR: G = 4p, B000 = 4p",
                         (discord2.bell_discord(box), 4 * p[:, 0]),
                         (discord2.chsh_value(box, 0, 0, 0), 4 * p[:, 0]))


def criterion_2() -> CriterionResult:
    """Schmidt states, BSb settings: box = (sin2t/sqrt2) PR + noise, G = CHSH = 2 sqrt(2 tau)."""
    th = np.linspace(0.0, np.pi / 4, 20)
    s = np.sin(2 * th)
    box = qstate.born_box2(qstate.schmidt_state(th), qstate.settings_catalog("BSb"))
    w = (s / SQRT2)[:, None, None, None, None]
    want = 2 * np.sqrt(2 * s * s)
    return _closed_forms(2, "Schmidt + BSb: noisy PR box, G = CHSH = 2 sqrt(2 tau)",
                         (box.table, w * boxcore.pr_box(0, 0, 0).table + (1 - w) * 0.25),
                         (discord2.bell_discord(box), want),
                         (discord2.chsh_value(box, 0, 0, 0), want))


def criterion_3() -> CriterionResult:
    """Schmidt states, PRQ settings: CHSH = 2 sqrt(1+tau), G = 4 tau / sqrt(1+tau)."""
    th = np.linspace(0.0, np.pi / 4, 20)
    tau = np.sin(2 * th) ** 2
    box = qstate.born_box2(qstate.schmidt_state(th), qstate.settings_catalog("PRQ", tau))
    return _closed_forms(3, "Schmidt + PRQ: CHSH = 2 sqrt(1+tau), G = 4 tau/sqrt(1+tau)",
                         (discord2.chsh_value(box, 0, 0, 0), 2 * np.sqrt(1 + tau)),
                         (discord2.bell_discord(box), 4 * tau / np.sqrt(1 + tau)))


def criterion_4() -> CriterionResult:
    """Schmidt states: Q = 2 sqrt(tau) under MSb, Q = 2 sqrt2 tau / sqrt(1+tau) under CSB."""
    th = np.linspace(0.0, np.pi / 4, 20)
    tau = np.sin(2 * th) ** 2
    rho = qstate.schmidt_state(th)
    box = qstate.born_box2(rho, qstate.settings_catalog("MSb"))
    box_c = qstate.born_box2(rho, qstate.settings_catalog("CSB", tau))
    want_flag = 2 * np.sqrt(tau) > discord2.STEERING_BOUND + TOL_CLOSED
    return _closed_forms(4, "Schmidt: Q(MSb) = 2 sqrt tau, Q(CSB) = 2 sqrt2 tau/sqrt(1+tau)",
                         (discord2.mermin_discord(box), 2 * np.sqrt(tau)),
                         (discord2.steering_value(box), 2 * np.sqrt(tau)),
                         (discord2.steering_flags(box).any(axis=(1, 2)), want_flag),
                         (discord2.mermin_discord(box_c), 2 * SQRT2 * tau / np.sqrt(1 + tau)))


def criterion_5() -> CriterionResult:
    """Werner states: G = 2 sqrt2 p under BSb, Q = 2p under MSb."""
    p = np.linspace(0.0, 1.0, 20)
    rho = qstate.werner2_state(p)
    return _closed_forms(5, "Werner: G = 2 sqrt2 p (BSb), Q = 2p (MSb)",
                         (discord2.bell_discord(qstate.born_box2(
                             rho, qstate.settings_catalog("BSb"))), 2 * SQRT2 * p),
                         (discord2.mermin_discord(qstate.born_box2(
                             rho, qstate.settings_catalog("MSb"))), 2 * p))


def criterion_6() -> CriterionResult:
    """Bell-state 3-decomposition: mu = sqrt(1-p), nu = sqrt(p) - sqrt(1-p),
    residual white noise, reconstruction to 1e-9."""
    pairs = []
    rho = qstate.bell_psi_plus()
    noise = boxcore.noise_box()
    for p in np.linspace(0.5, 1.0, 11):
        box = qstate.born_box2(rho, qstate.settings_catalog("meb1", p))
        dec = polytope.three_decomposition(box)
        recon = dec.reconstruction(boxcore.vertex(dec.pr_id).table,
                                   boxcore.vertex(dec.mermin_id).table)
        pairs += [(dec.mu, np.sqrt(1 - p)), (dec.nu, np.sqrt(p) - np.sqrt(1 - p)),
                  (dec.residual.table, noise.table), (recon, box.table)]
    return _closed_forms(6, "Bell state + meb1: 3-decomposition closed form", *pairs)


def criterion_7() -> CriterionResult:
    """Additivity catalog: T/G/Q/C closed forms for six named frames."""
    th = np.linspace(0.01, np.pi / 4, 15)
    s = np.sin(2 * th)
    rho = qstate.schmidt_state(th)
    bsb, prq, zsb1, msb1, csb2 = (
        discord2.correlation_split(qstate.born_box2(rho, qstate.settings_catalog(*frame)))
        for frame in (("BSb",), ("PRQ", s * s), ("ZSb1",), ("MSb1",), ("CSB2",)))
    p = np.linspace(0.01, 0.99, 15)
    bmw = discord2.correlation_split(qstate.born_box2(qstate.werner2_state(p),
                                                      qstate.settings_catalog("BMW", p)))
    sp_, sm = np.sqrt(p), np.sqrt(1 - p)
    return _closed_forms(
        7, "additivity catalog (six frames)",
        (bsb.total, 2 * SQRT2 * s), (bsb.bell, 2 * SQRT2 * s),
        (prq.total, 4 * s * s / np.sqrt(1 + s * s)), (prq.bell, 4 * s * s / np.sqrt(1 + s * s)),
        (zsb1.classical, SQRT2 * s * (1 - s)), (zsb1.total, SQRT2 * s * (1 + s)),
        (zsb1.bell, 2 * SQRT2 * s), (msb1.total, 2 * s), (msb1.mermin, 2 * s),
        (csb2.classical, s * (1 - s)), (csb2.total, s * (1 + s)),
        (bmw.bell, 2 * SQRT2 * p * abs(sp_ - sm)),
        (bmw.mermin, SQRT2 * p * (sp_ + sm - abs(sp_ - sm))),
        (bmw.total, np.where(p <= 0.5, 2 * p * np.sqrt(2 * (1 - p)), 2 * p * np.sqrt(2 * p))),
        (bmw.total - bmw.bell, bmw.mermin))


def _two_qubit_states(normals: np.ndarray) -> qstate.DensityMatrix:
    """The stack of random_two_qubit_state's states from its 16 + 16 normals
    per state, (k, 32): g g^H / tr of g = the first 16 + i the next 16."""
    g = normals[:, :16].reshape(-1, 4, 4) + 1j * normals[:, 16:].reshape(-1, 4, 4)
    m = g @ g.conj().swapaxes(1, 2)
    return qstate.density_matrix(m / np.trace(m, axis1=1, axis2=2).real[:, None, None])


def _monogamy_boxes(rng: np.random.Generator) -> boxcore.BipartiteBox:
    """Criterion 8's stack of 1,000 Born boxes of random two-qubit states,
    each under a random frame, made by one born_box2 call on a state stack
    and a frame stack. Per pair, random_two_qubit_state and then
    random_settings2 draw 16 + 16 + 4 x 3 normals, one after another, so
    one (1000, 44) draw is the same stream."""
    x = rng.normal(size=(1_000, 44))
    dirs = x[:, 32:].reshape(-1, 4, 3)
    dirs = dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
    return qstate.born_box2(_two_qubit_states(x[:, :32]), qstate.settings(*dirs.swapaxes(0, 1)))


def criterion_8() -> CriterionResult:
    """Monogamy sweep: B_i + B_j <= 4 and G + 2Q <= 4 on 1e4 random NS boxes
    and 1e3 random two-qubit state/settings pairs."""
    rng = np.random.default_rng(SEED)
    tables = polytope.random_ns_tables(rng, 10_000).reshape(-1, 16)
    # the Born boxes' correlators were computed when make_box built them
    e = np.vstack([_corr.correlators(tables, 2), _monogamy_boxes(rng).correlators])
    e = e.reshape(-1, 2, 2)
    b = discord2.bell_functions_from_expectations(e).reshape(-1, 4)
    i, j = discord2._PAIRS
    pair_max = max(0.0, float(np.max(b[:, i] + b[:, j])))
    g = discord2.bell_discord_from_expectations(e)
    q = discord2.mermin_discord_from_expectations(e)
    gq_max = float(np.max(g + 2 * q))
    worst = max(pair_max - 4.0, gq_max - 4.0)
    return _result(8, "monogamy: B_i+B_j <= 4, G+2Q <= 4 (1e4 boxes + 1e3 states)",
                   max(worst, 0.0), TOL_CLOSED,
                   extra=f"tightest margin {-worst:.3e}")


def _nullity_states(rng: np.random.Generator, n: int) -> tuple[qstate.DensityMatrix, ...]:
    """Criterion 9's stacks of n states of random_cq_state, random_qc_state
    and random_two_qubit_state, on the stream of a loop calling the three n
    times. A CQ or QC state interleaves uniform and normal draws (p0, r_hat
    and s0's direction, s0's radius, s1's direction, s1's radius), so only
    they are drawn one call at a time; the rest is done on the stacks."""
    p = np.empty((n, 2, 3))        # [state, CQ/QC, (p0, s0 radius, s1 radius)]
    normals = np.empty((n, 2, 9))  # [state, CQ/QC, (r_hat, s0, s1) directions]
    g = np.empty((n, 32))
    for k in range(n):
        for kind in range(2):
            p[k, kind, 0] = rng.uniform()
            normals[k, kind, :6] = rng.normal(size=6)
            p[k, kind, 1] = rng.uniform()
            normals[k, kind, 6:] = rng.normal(size=3)
            p[k, kind, 2] = rng.uniform()
        g[k] = rng.normal(size=32)
    v = normals.reshape(n, 2, 3, 3)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    s = v[:, :, 1:] * p[:, :, 1:, None] ** (1.0 / 3.0)
    cq, qc = (state(p[:, kind, 0], v[:, kind, 0], s[:, kind, 0], s[:, kind, 1])
              for kind, state in enumerate((qstate.cq_state, qstate.qc_state)))
    return cq, qc, _two_qubit_states(g)


def criterion_9() -> CriterionResult:
    """CQ/QC and compatible-measurement nullity: G, Q <= 1e-8 on a
    1e3 x 1e3 state/settings grid (correlation-matrix path) plus a Born-rule
    subsample."""
    rng = np.random.default_rng(SEED + 1)
    n_states, n_settings = 1_000, 1_000
    a_dirs = rng.normal(size=(n_settings, 2, 3))
    a_dirs /= np.linalg.norm(a_dirs, axis=2, keepdims=True)
    b_dirs = rng.normal(size=(n_settings, 2, 3))
    b_dirs /= np.linalg.norm(b_dirs, axis=2, keepdims=True)

    def grid_max(corrs: np.ndarray, a=a_dirs, b=b_dirs) -> float:
        # e[n,s,x,y] = a[s,x] . corrs[n] . b[s,y], as a matrix product of
        # the 9 entries of each corrs[n] with the settings' outer products
        # (a three-operand einsum loops naively), 100 states at a time:
        # a whole (1000, 1000, 2, 2) grid and its discords take about 90 MB
        ab = np.einsum("sxi,syj->ijsxy", a, b).reshape(9, -1)
        flat = corrs.reshape(len(corrs), 9)
        worst = 0.0
        for start in range(0, len(flat), 100):
            e = (flat[start:start + 100] @ ab).reshape(-1, len(a), 2, 2)
            worst = max(worst, discord2.bell_discord_from_expectations(e).max(),
                        discord2.mermin_discord_from_expectations(e).max())
        return float(worst)

    cq_corr, qc_corr, any_corr = (qstate.correlation_data(rho)[2]
                                  for rho in _nullity_states(rng, n_states))
    sweep_max = max(grid_max(cq_corr), grid_max(qc_corr))
    # tie the shortcut to the full Born rule on a subsample
    for n in range(100):
        rho = qstate.random_cq_state(rng) if n % 2 else qstate.random_qc_state(rng)
        frame = qstate.random_settings2(rng)
        box = qstate.born_box2(rho, frame)
        sweep_max = max(sweep_max, discord2.bell_discord(box),
                        discord2.mermin_discord(box))
    compat_a = np.repeat(a_dirs[:, :1, :], 2, axis=1)  # a1 = a0
    compat_max = grid_max(any_corr, a=compat_a)
    # The random sweep cannot reach 1e-8: classical-quantum (even product)
    # states give factorized joint expectations e = outer(f, g), and the
    # discord minima over the three pairings are nonzero for generic tilted
    # f, g; only frames aligned with the classical basis direction null
    # them (see README, known limitations). The compatible-measurement
    # clause is exact and asserted at full strength.
    return _result(
        9, "CQ/QC and compatible-measurement nullity (1e6 grid)",
        max(sweep_max, compat_max), 1e-8,
        extra=f"random-frame sweep max {sweep_max:.3e} (unattainable, see README), "
              f"compatible-frame max {compat_max:.3e}")


def _two_sided_tables(rng: np.random.Generator, n: int) -> np.ndarray:
    """(2n, 16): n mixtures p PR + (1 - p) NS, p uniform (about half nonlocal),
    then n boxes on segments from a random local box to a PR box where the
    largest signed CHSH value is 2 +- delta, delta log-uniform in [1e-6, 1e-2]."""
    det, pr = map(polytope.vertex_matrix, (boxcore.all_det_ids(), boxcore.all_pr_ids()))
    p = rng.uniform(size=(n, 1))
    ns = polytope.random_ns_tables(rng, n).reshape(n, 16)
    mixtures = p * pr[rng.integers(8, size=n)] + (1 - p) * ns
    local, top = rng.dirichlet(np.ones(len(det)), size=n) @ det, pr[rng.integers(8, size=n)]
    c_local, c_top = (_corr.operator_values(_corr.correlators(t, 2), 2).reshape(n, 8)
                      for t in (local, top))
    delta = rng.choice([-1.0, 1.0], size=n) * 10 ** rng.uniform(-6, -2, size=n)
    s = np.divide(2 + delta[:, None] - c_local, c_top - c_local,
                  out=np.full_like(c_local, np.inf), where=c_top > c_local).min(axis=1)[:, None]
    return np.vstack([mixtures, (1 - s) * local + s * top])


def criterion_10() -> CriterionResult:
    """Fine cross-check: LP locality agrees with the complete CHSH criterion
    on 1e4 random NS boxes and on 1e3 boxes on both sides of the local
    polytope (_two_sided_tables), eps-boundary cases excluded. The verdicts
    of every box come from the warm-started stacked LP; the two-sided boxes
    are checked with the weights of lp_vertex_weights too."""
    rng = np.random.default_rng(SEED + 2)
    tables = np.vstack([polytope.random_ns_tables(rng, 10_000).reshape(-1, 16),
                        _two_sided_tables(np.random.default_rng(SEED + 5), 500)])
    e = _corr.correlators(tables, 2).reshape(-1, 2, 2)
    bmax = np.max(discord2.bell_functions_from_expectations(e).reshape(-1, 4),
                  axis=1)
    keep = np.abs(bmax - 2.0) > boxcore.EPS_LP
    det = polytope.vertex_matrix(boxcore.all_det_ids())
    local = polytope._inside_flags(tables[keep], det)
    side = bmax[10_000:][keep[10_000:]] < 2.0
    weights = polytope.lp_vertex_weights(tables[10_000:][keep[10_000:]], det)
    disagree = int(np.count_nonzero(local != (bmax[keep] < 2.0))
                   + np.count_nonzero(~np.isnan(weights[:, 0]) != side))
    return _result(10, "Fine cross-check: LP vs complete CHSH set (1e4 + 1e3 boxes)",
                   float(disagree), 0.5,
                   extra=f"{np.count_nonzero(keep[:10_000])} non-boundary boxes, "
                         f"two-sided {side.sum()} inside / {(~side).sum()} outside")


def criterion_11() -> CriterionResult:
    """G, Q, T invariant across all 128 relabelings on 100 random boxes."""
    rng = np.random.default_rng(SEED + 3)
    tables = polytope.random_ns_tables(rng, 100).reshape(100, 16)
    perms = np.stack([boxcore.lro_index_permutation(g) for g in boxcore.lro_group()])
    measures = _corr.measures(tables[:, perms].transpose(1, 0, 2), 2)  # (128, 100) each
    spread = max(float(np.max(np.ptp(m, axis=0))) for m in measures)
    return _result(11, "LRO invariance of G, Q, T (100 boxes x 128 elements)",
                   spread, 1e-12)


def criterion_12() -> CriterionResult:
    """Tripartite closed forms: GGHZ, Werner3, GHZ-class (optimal-violation
    frame), W-class with marginal discords."""
    sdxy, mdxy = qstate.settings_catalog("SDxy"), qstate.settings_catalog("MDxy")
    s, p = np.sin(2 * np.linspace(0.0, np.pi / 4, 8)), np.linspace(0.0, 1.0, 8)
    gghz, werner3 = qstate.gghz_state(np.linspace(0.0, np.pi / 4, 8)), qstate.werner3_state(p)
    th, t3 = (g.ravel() for g in np.meshgrid(np.linspace(0.2, np.pi / 4, 4),
                                             np.linspace(0.3, np.pi / 2, 4), indexing="ij"))
    pars = qstate.entanglement_params("GhzClass", theta=th, theta3=t3)
    tau3, c12 = pars["three_tangle"], pars["c12"]
    ghz_class = qstate.born_box3(qstate.ghz_class_state(th, t3),
                                 qstate.settings_catalog("Ghose", t3))
    pairs = [(tribox.svetlichny_discord(qstate.born_box3(gghz, sdxy)), 4 * SQRT2 * s),
             (tribox.mermin3_discord(qstate.born_box3(gghz, mdxy)), 4 * s),
             (tribox.svetlichny_discord(qstate.born_box3(werner3, sdxy)), 4 * SQRT2 * p),
             (tribox.mermin3_discord(qstate.born_box3(werner3, mdxy)), 4 * p),
             (tribox.svetlichny_discord(ghz_class), 8 * tau3 / np.sqrt(c12 ** 2 + 2 * tau3))]
    sdxz, mdxz = qstate.settings_catalog("SDxz"), qstate.settings_catalog("MDxz")
    for amps in [(1, 1, 1), (0.6, 0.5, np.sqrt(1 - 0.61)), (0.45, 0.7, 0.55),
                 (0.35, 0.36, 0.866), (0.3, 0.5, 0.812)]:
        al, be, ga = np.asarray(amps, dtype=float) / np.linalg.norm(amps)
        pars = qstate.entanglement_params("WClass", alpha=al, beta=be, gamma=ga)
        rho = qstate.w_class_state(al, be, ga)
        box_s, box_m = qstate.born_box3(rho, sdxz), qstate.born_box3(rho, mdxz)
        pairs += [(tribox.svetlichny_discord(box_s), 4 * SQRT2 * pars["ca_min"]),
                  (tribox.mermin3_discord(box_m), 4 * pars["ca_min"])]
        # the marginal closed forms G12 = 2 sqrt2 C12 and Q12 = 2 C12 are
        # exact iff C12 <= |1 - 2 gamma^2| (generally the minimum of the two;
        # see the decisions ledger); assert them where they are exact
        if pars["c12"] <= abs(1 - 2 * ga ** 2):
            pairs += [(discord2.bell_discord(tribox.marginal2(box_s, "AB")),
                       2 * SQRT2 * pars["c12"]),
                      (discord2.mermin_discord(tribox.marginal2(box_m, "AB")),
                       2 * pars["c12"])]
    return _closed_forms(12, "tripartite closed forms (GGHZ/Werner3/GHZ-class/W-class)", *pairs)


def criterion_13() -> CriterionResult:
    """GHZ + SMDghz: decomposition weights, T = G + Q = 4(sqrt p + sqrt(1-p)),
    G + 2Q = 8 sqrt(p) <= 8."""
    pairs = []
    rho = qstate.ghz_state()
    for p in np.linspace(0.5, 1.0, 9):
        box = qstate.born_box3(rho, qstate.settings_catalog("SMDghz", p))
        dec = tribox.three_decomposition3(box)
        g = tribox.svetlichny_discord(box)
        q = tribox.mermin3_discord(box)
        t = tribox.total_correlation3(box)
        pairs += [(dec.mu, np.sqrt(1 - p)), (dec.nu, np.sqrt(p) - np.sqrt(1 - p)),
                  (t, 4 * (np.sqrt(p) + np.sqrt(1 - p))), (t - g, q),
                  (g + 2 * q, 8 * np.sqrt(p)), (max(0.0, g + 2 * q - 8.0), 0.0),
                  (tribox.monogamy_checks3(box).holds, True)]
    return _closed_forms(13, "GHZ + SMDghz: weights, T = G+Q, G+2Q = 8 sqrt p <= 8", *pairs)


def criterion_14() -> CriterionResult:
    """Class-99 values: GGHZ curve 1 + 2 sqrt(1+sin^2 2t), maximum 1 + 2 sqrt2,
    class-8 representative exactly 5."""
    th = np.linspace(0.0, np.pi / 4, 12)
    values = tribox.class99_value(qstate.born_box3(qstate.gghz_state(th),
                                                   qstate.settings_catalog("class99", th)))
    return _closed_forms(14, "class-99 inequality values",
                         (values, 1 + 2 * np.sqrt(1 + np.sin(2 * th) ** 2)),
                         (values[-1], 1 + 2 * SQRT2),  # the maximum, at th = pi/4
                         (tribox.class99_value(tribox.class8_box()), 5.0))


def criterion_15() -> CriterionResult:
    """GHZ-paradox flag true for the tripartite Mermin box and for the GHZ
    state under MDxy, with the advertised perfect-correlation signs."""
    m_box = tribox.mermin3_box(0, 0, 0, 0)
    born = qstate.born_box3(qstate.ghz_state(), qstate.settings_catalog("MDxy"))
    pairs = [(tribox.ghz_paradox_check(m_box), True), (tribox.ghz_paradox_check(born), True)]
    for box in (m_box, born):
        e3 = tribox.expectations3(box).abc
        pairs += [(e3[0, 0, 0], 1.0), (e3[0, 1, 1], -1.0), (e3[1, 0, 1], -1.0),
                  (e3[1, 1, 0], -1.0)]
    return _closed_forms(15, "GHZ paradox flags and signs", *pairs, (born.table, m_box.table))


def _phased_bell_mixtures(rng: np.random.Generator) -> qstate.DensityMatrix:
    """Criterion 16's stack of 100 Bell-diagonal states of normalized
    exponential weights: one (100, 8) draw, the stream of 100 draws of 8."""
    w = rng.exponential(size=(100, 8))
    return qstate.bell_diagonal_state(w / w.sum(axis=1, keepdims=True))


def criterion_16() -> CriterionResult:
    """Phased-Bell-mixture identity: G under the Tsirelson frame equals
    sqrt2 times Q under the parity frame, 100 random mixtures."""
    rho = _phased_bell_mixtures(np.random.default_rng(SEED + 4))
    g = discord2.bell_discord(qstate.born_box2(rho, qstate.settings_catalog("M_N")))
    q = discord2.mermin_discord(qstate.born_box2(rho, qstate.settings_catalog("M_C")))
    return _closed_forms(16, "Bell-diagonal mixtures: G(M_N) = sqrt2 Q(M_C)", (g, SQRT2 * q))


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14, criterion_15,
    criterion_16,
]


def run_all(numbers=None) -> list[CriterionResult]:
    """The results of the criteria numbered in `numbers`, or of all, in
    order, each with its wall time."""
    results = []
    for idx, crit in enumerate(ALL_CRITERIA, start=1):
        if not numbers or idx in numbers:
            start = time.perf_counter()
            result = crit()
            results.append(dataclasses.replace(result, seconds=time.perf_counter() - start))
    return results
