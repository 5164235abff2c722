"""Acceptance suite: one callable check per advertised closed-form guarantee.

Each criterion returns a CriterionResult with the worst observed error, so the
CLI `verify` command and tests/test_acceptance.py share the same code path.
Closed-form tolerances are 1e-9; criteria 9, 10 and 11 state their own bounds.
"""

from __future__ import annotations

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


def _result(number, description, max_err, tol, extra="") -> CriterionResult:
    detail = f"max error {max_err:.3e} (tol {tol:.0e})"
    if extra:
        detail += ", " + extra
    return CriterionResult(number, description, bool(max_err <= tol), detail)


# -- criteria ----------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Isotropic PR family: G(p) = 4p and signed CHSH B000 = 4p."""
    errs = []
    pr = boxcore.pr_box(0, 0, 0)
    noise = boxcore.noise_box()
    for p in np.linspace(0.0, 1.0, 11):
        box = boxcore.mix([pr, noise], [p, 1 - p])
        errs.append(abs(discord2.bell_discord(box) - 4 * p))
        errs.append(abs(discord2.chsh_value(box, 0, 0, 0) - 4 * p))
    return _result(1, "isotropic PR: G = 4p, B000 = 4p", max(errs), TOL_CLOSED)


def criterion_2() -> CriterionResult:
    """Schmidt states, BSb settings: box = (sin2t/sqrt2) PR + noise, G = CHSH = 2 sqrt(2 tau)."""
    errs = []
    frame = qstate.settings_catalog("BSb")
    pr = boxcore.pr_box(0, 0, 0).table
    for th in np.linspace(0.0, np.pi / 4, 20):
        s = np.sin(2 * th)
        tau = s * s
        box = qstate.born_box2(qstate.schmidt_state(th), frame)
        w = s / SQRT2
        expected = w * pr + (1 - w) * 0.25
        errs.append(float(np.max(np.abs(box.table - expected))))
        errs.append(abs(discord2.bell_discord(box) - 2 * np.sqrt(2 * tau)))
        errs.append(abs(discord2.chsh_value(box, 0, 0, 0) - 2 * np.sqrt(2 * tau)))
    return _result(2, "Schmidt + BSb: noisy PR box, G = CHSH = 2 sqrt(2 tau)",
                   max(errs), TOL_CLOSED)


def criterion_3() -> CriterionResult:
    """Schmidt states, PRQ settings: CHSH = 2 sqrt(1+tau), G = 4 tau / sqrt(1+tau)."""
    errs = []
    for th in np.linspace(0.0, np.pi / 4, 20):
        tau = np.sin(2 * th) ** 2
        box = qstate.born_box2(qstate.schmidt_state(th),
                               qstate.settings_catalog("PRQ", tau))
        errs.append(abs(discord2.chsh_value(box, 0, 0, 0) - 2 * np.sqrt(1 + tau)))
        errs.append(abs(discord2.bell_discord(box) - 4 * tau / np.sqrt(1 + tau)))
    return _result(3, "Schmidt + PRQ: CHSH = 2 sqrt(1+tau), G = 4 tau/sqrt(1+tau)",
                   max(errs), TOL_CLOSED)


def criterion_4() -> CriterionResult:
    """Schmidt states: Q = 2 sqrt(tau) under MSb, Q = 2 sqrt2 tau / sqrt(1+tau) under CSB."""
    errs = []
    msb = qstate.settings_catalog("MSb")
    for th in np.linspace(0.0, np.pi / 4, 20):
        tau = np.sin(2 * th) ** 2
        rho = qstate.schmidt_state(th)
        box = qstate.born_box2(rho, msb)
        errs.append(abs(discord2.mermin_discord(box) - 2 * np.sqrt(tau)))
        errs.append(abs(discord2.steering_value(box) - 2 * np.sqrt(tau)))
        want_flag = 2 * np.sqrt(tau) > discord2.STEERING_BOUND + TOL_CLOSED
        if want_flag != bool(discord2.steering_flags(box).any()):
            errs.append(1.0)
        box_c = qstate.born_box2(rho, qstate.settings_catalog("CSB", tau))
        errs.append(abs(discord2.mermin_discord(box_c)
                        - 2 * SQRT2 * tau / np.sqrt(1 + tau)))
    return _result(4, "Schmidt: Q(MSb) = 2 sqrt tau, Q(CSB) = 2 sqrt2 tau/sqrt(1+tau)",
                   max(errs), TOL_CLOSED)


def criterion_5() -> CriterionResult:
    """Werner states: G = 2 sqrt2 p under BSb, Q = 2p under MSb."""
    errs = []
    bsb = qstate.settings_catalog("BSb")
    msb = qstate.settings_catalog("MSb")
    for p in np.linspace(0.0, 1.0, 20):
        rho = qstate.werner2_state(p)
        errs.append(abs(discord2.bell_discord(qstate.born_box2(rho, bsb))
                        - 2 * SQRT2 * p))
        errs.append(abs(discord2.mermin_discord(qstate.born_box2(rho, msb))
                        - 2 * p))
    return _result(5, "Werner: G = 2 sqrt2 p (BSb), Q = 2p (MSb)", max(errs),
                   TOL_CLOSED)


def criterion_6() -> CriterionResult:
    """Bell-state 3-decomposition: mu = sqrt(1-p), nu = sqrt(p) - sqrt(1-p),
    residual white noise, reconstruction to 1e-9."""
    errs = []
    rho = qstate.bell_psi_plus()
    noise = boxcore.noise_box()
    for p in np.linspace(0.5, 1.0, 11):
        box = qstate.born_box2(rho, qstate.settings_catalog("meb1", p))
        dec = polytope.three_decomposition(box)
        errs.append(abs(dec.mu - np.sqrt(1 - p)))
        errs.append(abs(dec.nu - (np.sqrt(p) - np.sqrt(1 - p))))
        errs.append(float(np.max(np.abs(dec.residual.table - noise.table))))
        recon = dec.reconstruction(boxcore.vertex(dec.pr_id).table,
                                   boxcore.vertex(dec.mermin_id).table)
        errs.append(float(np.max(np.abs(recon - box.table))))
    return _result(6, "Bell state + meb1: 3-decomposition closed form",
                   max(errs), TOL_CLOSED)


def criterion_7() -> CriterionResult:
    """Additivity catalog: T/G/Q/C closed forms for six named frames."""
    errs = []
    for th in np.linspace(0.01, np.pi / 4, 15):
        s = np.sin(2 * th)
        rho = qstate.schmidt_state(th)

        sp = discord2.correlation_split(
            qstate.born_box2(rho, qstate.settings_catalog("BSb")))
        errs.append(abs(sp.total - 2 * SQRT2 * s))
        errs.append(abs(sp.bell - 2 * SQRT2 * s))

        sp = discord2.correlation_split(
            qstate.born_box2(rho, qstate.settings_catalog("PRQ", s * s)))
        errs.append(abs(sp.total - 4 * s * s / np.sqrt(1 + s * s)))
        errs.append(abs(sp.bell - 4 * s * s / np.sqrt(1 + s * s)))

        sp = discord2.correlation_split(
            qstate.born_box2(rho, qstate.settings_catalog("ZSb1")))
        errs.append(abs(sp.classical - SQRT2 * s * (1 - s)))
        errs.append(abs(sp.total - SQRT2 * s * (1 + s)))
        errs.append(abs(sp.bell - 2 * SQRT2 * s))

        sp = discord2.correlation_split(
            qstate.born_box2(rho, qstate.settings_catalog("MSb1")))
        errs.append(abs(sp.total - 2 * s))
        errs.append(abs(sp.mermin - 2 * s))

        sp = discord2.correlation_split(
            qstate.born_box2(rho, qstate.settings_catalog("CSB2")))
        errs.append(abs(sp.classical - s * (1 - s)))
        errs.append(abs(sp.total - s * (1 + s)))
    for p in np.linspace(0.01, 0.99, 15):
        rho = qstate.werner2_state(p)
        sp = discord2.correlation_split(
            qstate.born_box2(rho, qstate.settings_catalog("BMW", p)))
        sp_, sm = np.sqrt(p), np.sqrt(1 - p)
        errs.append(abs(sp.bell - 2 * SQRT2 * p * abs(sp_ - sm)))
        errs.append(abs(sp.mermin - SQRT2 * p * (sp_ + sm - abs(sp_ - sm))))
        want_t = 2 * p * np.sqrt(2 * (1 - p)) if p <= 0.5 else 2 * p * np.sqrt(2 * p)
        errs.append(abs(sp.total - want_t))
        errs.append(abs(sp.total - sp.bell - sp.mermin))
    return _result(7, "additivity catalog (six frames)", max(errs), TOL_CLOSED)


def criterion_8() -> CriterionResult:
    """Monogamy sweep: B_i + B_j <= 4 and G + 2Q <= 4 on 1e4 random NS boxes
    and 1e3 random two-qubit state/settings pairs."""
    rng = np.random.default_rng(SEED)
    tables = polytope.random_ns_tables(rng, 10_000)
    e = _corr.correlators(tables.reshape(-1, 16), 2).reshape(-1, 2, 2)
    b = discord2.bell_functions_from_expectations(e).reshape(-1, 4)
    pair_max = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            pair_max = max(pair_max, float(np.max(b[:, i] + b[:, j])))
    g = discord2.bell_discord_from_expectations(e)
    q = discord2.mermin_discord_from_expectations(e)
    gq_max = float(np.max(g + 2 * q))
    worst = max(pair_max - 4.0, gq_max - 4.0)
    for _ in range(1_000):
        box = qstate.born_box2(qstate.random_two_qubit_state(rng),
                               qstate.random_settings2(rng))
        rep = discord2.monogamy_checks(box)
        worst = max(worst, -rep.bell_pair_margin, -rep.discord_margin)
    return _result(8, "monogamy: B_i+B_j <= 4, G+2Q <= 4 (1e4 boxes + 1e3 states)",
                   max(worst, 0.0), TOL_CLOSED,
                   extra=f"tightest margin {-worst:.3e}")


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
        e = np.einsum("sxi,nij,syj->nsxy", a, corrs, b)
        g = discord2.bell_discord_from_expectations(e)
        q = discord2.mermin_discord_from_expectations(e)
        return float(max(g.max(), q.max()))

    cq_corr = np.empty((n_states, 3, 3))
    qc_corr = np.empty((n_states, 3, 3))
    any_corr = np.empty((n_states, 3, 3))
    for n in range(n_states):
        _, _, cq_corr[n] = qstate.correlation_data(qstate.random_cq_state(rng))
        _, _, qc_corr[n] = qstate.correlation_data(qstate.random_qc_state(rng))
        _, _, any_corr[n] = qstate.correlation_data(qstate.random_two_qubit_state(rng))
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


def criterion_10() -> CriterionResult:
    """Fine cross-check: LP locality agrees with the complete CHSH criterion
    on 1e4 random NS boxes (eps-boundary cases excluded)."""
    rng = np.random.default_rng(SEED + 2)
    tables = polytope.random_ns_tables(rng, 10_000)
    e = _corr.correlators(tables.reshape(-1, 16), 2).reshape(-1, 2, 2)
    bmax = np.max(discord2.bell_functions_from_expectations(e).reshape(-1, 4),
                  axis=1)
    keep = np.abs(bmax - 2.0) > boxcore.EPS_LP
    weights = polytope.lp_vertex_weights(
        tables[keep].reshape(-1, 16),
        polytope.vertex_matrix(boxcore.all_det_ids()))
    local = ~np.isnan(weights[:, 0])
    disagree = int(np.count_nonzero(local != (bmax[keep] < 2.0)))
    return _result(10, "Fine cross-check: LP vs complete CHSH set (1e4 boxes)",
                   float(disagree), 0.5,
                   extra=f"{np.count_nonzero(keep)} non-boundary boxes")


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
    errs = []
    sdxy = qstate.settings_catalog("SDxy")
    mdxy = qstate.settings_catalog("MDxy")
    sdxz = qstate.settings_catalog("SDxz")
    mdxz = qstate.settings_catalog("MDxz")
    for th in np.linspace(0.0, np.pi / 4, 8):
        s = np.sin(2 * th)
        rho = qstate.gghz_state(th)
        errs.append(abs(tribox.svetlichny_discord(qstate.born_box3(rho, sdxy))
                        - 4 * SQRT2 * s))
        errs.append(abs(tribox.mermin3_discord(qstate.born_box3(rho, mdxy))
                        - 4 * s))
    for p in np.linspace(0.0, 1.0, 8):
        rho = qstate.werner3_state(p)
        errs.append(abs(tribox.svetlichny_discord(qstate.born_box3(rho, sdxy))
                        - 4 * SQRT2 * p))
        errs.append(abs(tribox.mermin3_discord(qstate.born_box3(rho, mdxy))
                        - 4 * p))
    for th in np.linspace(0.2, np.pi / 4, 4):
        for t3 in np.linspace(0.3, np.pi / 2, 4):
            rho = qstate.ghz_class_state(th, t3)
            pars = qstate.entanglement_params("GhzClass", theta=th, theta3=t3)
            tau3, c12 = pars["three_tangle"], pars["c12"]
            box = qstate.born_box3(rho, qstate.settings_catalog("Ghose", t3))
            errs.append(abs(tribox.svetlichny_discord(box)
                            - 8 * tau3 / np.sqrt(c12 ** 2 + 2 * tau3)))
    for amps in [(1, 1, 1), (0.6, 0.5, np.sqrt(1 - 0.61)), (0.45, 0.7, 0.55),
                 (0.35, 0.36, 0.866), (0.3, 0.5, 0.812)]:
        al, be, ga = np.asarray(amps, dtype=float) / np.linalg.norm(amps)
        pars = qstate.entanglement_params("WClass", alpha=al, beta=be, gamma=ga)
        rho = qstate.w_class_state(al, be, ga)
        box_s = qstate.born_box3(rho, sdxz)
        errs.append(abs(tribox.svetlichny_discord(box_s)
                        - 4 * SQRT2 * pars["ca_min"]))
        box_m = qstate.born_box3(rho, mdxz)
        errs.append(abs(tribox.mermin3_discord(box_m) - 4 * pars["ca_min"]))
        # the marginal closed forms G12 = 2 sqrt2 C12 and Q12 = 2 C12 are
        # exact iff C12 <= |1 - 2 gamma^2| (generally the minimum of the two;
        # see the decisions ledger); assert them where they are exact
        if pars["c12"] <= abs(1 - 2 * ga ** 2):
            errs.append(abs(discord2.bell_discord(tribox.marginal2(box_s, "AB"))
                            - 2 * SQRT2 * pars["c12"]))
            errs.append(abs(discord2.mermin_discord(tribox.marginal2(box_m, "AB"))
                            - 2 * pars["c12"]))
    return _result(12, "tripartite closed forms (GGHZ/Werner3/GHZ-class/W-class)",
                   max(errs), TOL_CLOSED)


def criterion_13() -> CriterionResult:
    """GHZ + SMDghz: decomposition weights, T = G + Q = 4(sqrt p + sqrt(1-p)),
    G + 2Q = 8 sqrt(p) <= 8."""
    errs = []
    rho = qstate.ghz_state()
    for p in np.linspace(0.5, 1.0, 9):
        box = qstate.born_box3(rho, qstate.settings_catalog("SMDghz", p))
        dec = tribox.three_decomposition3(box)
        errs.append(abs(dec.mu - np.sqrt(1 - p)))
        errs.append(abs(dec.nu - (np.sqrt(p) - np.sqrt(1 - p))))
        g = tribox.svetlichny_discord(box)
        q = tribox.mermin3_discord(box)
        t = tribox.total_correlation3(box)
        errs.append(abs(t - 4 * (np.sqrt(p) + np.sqrt(1 - p))))
        errs.append(abs(t - g - q))
        errs.append(abs(g + 2 * q - 8 * np.sqrt(p)))
        errs.append(max(0.0, g + 2 * q - 8.0))
        if not tribox.monogamy_checks3(box).holds:
            errs.append(1.0)
    return _result(13, "GHZ + SMDghz: weights, T = G+Q, G+2Q = 8 sqrt p <= 8",
                   max(errs), TOL_CLOSED)


def criterion_14() -> CriterionResult:
    """Class-99 values: GGHZ curve 1 + 2 sqrt(1+sin^2 2t), maximum 1 + 2 sqrt2,
    class-8 representative exactly 5."""
    errs = []
    for th in np.linspace(0.0, np.pi / 4, 12):
        box = qstate.born_box3(qstate.gghz_state(th),
                               qstate.settings_catalog("class99", th))
        errs.append(abs(tribox.class99_value(box)
                        - (1 + 2 * np.sqrt(1 + np.sin(2 * th) ** 2))))
    box_max = qstate.born_box3(qstate.gghz_state(np.pi / 4),
                               qstate.settings_catalog("class99", np.pi / 4))
    errs.append(abs(tribox.class99_value(box_max) - (1 + 2 * SQRT2)))
    errs.append(abs(tribox.class99_value(tribox.class8_box()) - 5.0))
    return _result(14, "class-99 inequality values", max(errs), TOL_CLOSED)


def criterion_15() -> CriterionResult:
    """GHZ-paradox flag true for the tripartite Mermin box and for the GHZ
    state under MDxy, with the advertised perfect-correlation signs."""
    errs = []
    m_box = tribox.mermin3_box(0, 0, 0, 0)
    born = qstate.born_box3(qstate.ghz_state(), qstate.settings_catalog("MDxy"))
    if not tribox.ghz_paradox_check(m_box):
        errs.append(1.0)
    if not tribox.ghz_paradox_check(born):
        errs.append(1.0)
    for box in (m_box, born):
        e3 = tribox.expectations3(box).abc
        errs.append(abs(e3[0, 0, 0] - 1.0))
        errs.append(abs(e3[0, 1, 1] + 1.0))
        errs.append(abs(e3[1, 0, 1] + 1.0))
        errs.append(abs(e3[1, 1, 0] + 1.0))
    errs.append(float(np.max(np.abs(born.table - m_box.table))))
    return _result(15, "GHZ paradox flags and signs", max(errs), TOL_CLOSED)


def criterion_16() -> CriterionResult:
    """Phased-Bell-mixture identity: G under the Tsirelson frame equals
    sqrt2 times Q under the parity frame, 100 random mixtures."""
    rng = np.random.default_rng(SEED + 4)
    frame_n = qstate.settings_catalog("M_N")
    frame_c = qstate.settings_catalog("M_C")
    worst = 0.0
    for _ in range(100):
        w = rng.exponential(size=8)
        rho = qstate.bell_diagonal_state(w / w.sum())
        g = discord2.bell_discord(qstate.born_box2(rho, frame_n))
        q = discord2.mermin_discord(qstate.born_box2(rho, frame_c))
        worst = max(worst, abs(g - SQRT2 * q))
    return _result(16, "Bell-diagonal mixtures: G(M_N) = sqrt2 Q(M_C)",
                   worst, TOL_CLOSED)


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14, criterion_15,
    criterion_16,
]


def run_all(numbers=None) -> list[CriterionResult]:
    wanted = set(numbers) if numbers else None
    results = []
    for idx, crit in enumerate(ALL_CRITERIA, start=1):
        if wanted is None or idx in wanted:
            results.append(crit())
    return results
