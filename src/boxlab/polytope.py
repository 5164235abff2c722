"""Polytope membership tests and canonical convex decompositions.

Membership is decided by elastic LPs over named vertex sets
(16 deterministic / 24 nonsignaling vertices bipartite; the tripartite sets
live in :mod:`boxlab.tribox` and reuse :func:`lp_vertex_weights`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import boxcore, discord2
from .boxcore import EPS_LP, EPS_LP_SLACK, EPS_VALID, BipartiteBox, VertexId

DISCORD_TOL = 1e-6  # residuals of canonical decompositions must be this close to zero


class LpNumericalFailure(RuntimeError):
    pass


class ResidualInvalidError(RuntimeError):
    pass


@dataclass(frozen=True)
class MembershipResult:
    inside: bool
    weights: dict[VertexId, float] | None = None
    violated_facet: tuple[str, float] | None = None  # (label, violation margin)


@dataclass(frozen=True)
class DecompositionResult:
    """Convex split P = mu * PR + nu * Mermin + (1 - mu - nu) * residual."""

    mu: float
    nu: float
    pr_id: object | None
    mermin_id: object | None
    residual: object

    def reconstruction(self, pr_table, mermin_table) -> np.ndarray:
        rest = 1.0 - self.mu - self.nu
        out = rest * self.residual.table
        if pr_table is not None:
            out = out + self.mu * pr_table
        if mermin_table is not None:
            out = out + self.nu * mermin_table
        return out


def vertex_matrix(vertex_ids: list[VertexId]) -> np.ndarray:
    """Stack vertex tables as rows of a (n_vertices, 16) matrix."""
    return np.stack([boxcore.vertex(v).table.reshape(-1) for v in vertex_ids])


_DET_IDS = boxcore.all_det_ids()
_NS_IDS = boxcore.ns_vertex_ids()
_DET_MATRIX = vertex_matrix(_DET_IDS)
_NS_MATRIX = vertex_matrix(_NS_IDS)

_LP_BLOCK = 500  # targets per block-diagonal LP; HiGHS slows on larger ones


def lp_vertex_weights(target: np.ndarray, vertices: np.ndarray,
                      tol: float = EPS_LP) -> np.ndarray | None:
    """Nonnegative weights w with w @ vertices = target, for one target or a stack.

    `target` is one flattened probability table of shape (d,) or a stack of
    them, shape (n, d). One target gives its (k,) weights, or None if it lies
    outside the hull of the k vertex rows; a stack gives (n, k) weights with
    NaN rows for the targets outside. The weights sum to 1 automatically
    because every vertex row has the same normalization.

    Each target is posed as an elastic LP, minimise sum(s+ + s-) subject to
    w @ vertices + s+ - s- = target and w, s+, s- >= 0, which is always
    feasible. A target is inside exactly when its slack sum is at most
    d * EPS_LP_SLACK, which covers the error the table validators admit.
    Stacks are solved _LP_BLOCK targets at a time as one block-diagonal LP,
    whose optimum splits into the per-target optima. Raises ValueError for
    a target of any other shape, and LpNumericalFailure when the solver does
    not report an optimum, or when the weights of a target found inside miss
    it by more than `tol`.
    """
    t = np.asarray(target, dtype=float)
    if t.ndim not in (1, 2) or t.shape[-1] != vertices.shape[1]:
        raise ValueError(f"target of shape {t.shape} does not match vertices "
                         f"of {vertices.shape[1]} entries")
    stack = t.reshape(-1, vertices.shape[1])
    w = np.empty((len(stack), vertices.shape[0]))
    for i in range(0, len(stack), _LP_BLOCK):
        w[i:i + _LP_BLOCK] = _elastic_lp(stack[i:i + _LP_BLOCK], vertices, tol)
    if t.ndim == 1:
        return None if np.isnan(w[0, 0]) else w[0]
    return w


def _elastic_lp(targets: np.ndarray, vertices: np.ndarray,
                tol: float) -> np.ndarray:
    """Weights of each target, NaN rows for targets outside the hull."""
    m, (k, d) = len(targets), vertices.shape
    eye = np.eye(d)
    # one target's variables are [w, s+, s-]; a block repeats them per target
    block = np.hstack([vertices.T, eye, -eye])
    # A single block goes in dense: HiGHS's sparse input handling costs
    # more than the whole solve of one target.
    a_eq = block if m == 1 else sparse.kron(sparse.identity(m), block, format="csc")
    res = linprog(
        c=np.tile(np.concatenate([np.zeros(k), np.ones(2 * d)]), m),
        A_eq=a_eq,
        b_eq=targets.reshape(-1),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise LpNumericalFailure(f"linprog status {res.status}: {res.message}")
    x = res.x.reshape(m, k + 2 * d)
    w = np.clip(x[:, :k], 0.0, None)
    inside = x[:, k:].sum(axis=1) <= d * EPS_LP_SLACK
    if np.max(np.abs(w[inside] @ vertices - targets[inside]), initial=0.0) > tol:
        raise LpNumericalFailure("LP solution does not reconstruct the target")
    w[~inside] = np.nan
    return w


def lp_vertex_decomposition(box, vertex_ids: list[VertexId],
                            tol: float = EPS_LP) -> dict[VertexId, float] | None:
    """Weights over a named vertex set reconstructing the box, or None."""
    w = lp_vertex_weights(box.table.reshape(-1), vertex_matrix(vertex_ids), tol)
    if w is None:
        return None
    return {vid: float(wi) for vid, wi in zip(vertex_ids, w) if wi > tol}


def ns_membership(box: BipartiteBox) -> bool:
    """Feasibility over the 24 nonsignaling vertices."""
    return lp_vertex_weights(box.table.reshape(-1), _NS_MATRIX) is not None


def is_local(box: BipartiteBox) -> MembershipResult:
    """LP membership in the convex hull of the 16 deterministic boxes."""
    w = lp_vertex_weights(box.table.reshape(-1), _DET_MATRIX)
    if w is not None:
        weights = {vid: float(wi) for vid, wi in zip(_DET_IDS, w) if wi > EPS_LP}
        return MembershipResult(inside=True, weights=weights)
    chsh = discord2.chsh_values(box)
    idx = np.unravel_index(np.argmax(chsh), chsh.shape)
    label = "B" + "".join(str(i) for i in idx)
    return MembershipResult(
        inside=False,
        violated_facet=(label, float(chsh[idx] - discord2.CHSH_LOCAL_BOUND)),
    )


def chsh_criterion_local(box: BipartiteBox, eps: float = EPS_VALID) -> bool:
    """Locality via the complete CHSH set: every |B_abc| <= 2."""
    return bool(np.max(discord2.bell_functions(box)) <= 2.0 + eps)


def _argmax_chsh_id(box: BipartiteBox) -> VertexId:
    """PR label with the largest signed CHSH value, lexicographic tie-break."""
    chsh = discord2.chsh_values(box)
    best = max(
        product(range(2), repeat=3),
        key=lambda abg: (chsh[abg] - 1e-12 * (4 * abg[0] + 2 * abg[1] + abg[2])),
    )
    return boxcore.pr_id(*best)


def _valid_zero_discord_residual(table: np.ndarray, need_q_zero: bool,
                                 tol: float) -> BipartiteBox | None:
    try:
        res = boxcore.make_box(table)
    except boxcore.BoxError:
        return None
    if discord2.bell_discord(res) > tol:
        return None
    if need_q_zero and discord2.mermin_discord(res) > tol:
        return None
    return res


def canonical_2decomposition(box: BipartiteBox,
                             tol: float = DISCORD_TOL) -> DecompositionResult:
    """Split into an irreducible PR box and a local box with zero Bell discord.

    mu equals bell_discord/4; the PR label is the signed-CHSH argmax. If the
    direct residual is invalid, mu is lowered by bisection to the largest value
    giving a valid box, which must still have zero Bell discord.
    """
    mu = discord2.bell_discord(box) / 4.0
    pid = _argmax_chsh_id(box)
    pr = boxcore.vertex(pid)
    if mu >= 1.0 - EPS_VALID:
        return DecompositionResult(mu=1.0, nu=0.0, pr_id=pid, mermin_id=None,
                                   residual=pr)
    residual = _valid_zero_discord_residual(
        (box.table - mu * pr.table) / (1.0 - mu), need_q_zero=False, tol=tol)
    if residual is None:
        lo, hi = 0.0, mu
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                boxcore.make_box((box.table - mid * pr.table) / (1.0 - mid))
                lo = mid
            except boxcore.BoxError:
                hi = mid
        mu = lo
        residual = _valid_zero_discord_residual(
            (box.table - mu * pr.table) / (1.0 - mu), need_q_zero=False, tol=tol)
        if residual is None:
            raise ResidualInvalidError(
                "no valid zero-discord residual for any PR weight")
    return DecompositionResult(mu=mu, nu=0.0, pr_id=pid, mermin_id=None,
                               residual=residual)


def _mermin_candidates(pid: VertexId, box: BipartiteBox) -> list[VertexId]:
    """The two Mermin boxes canonical to a PR label, best-matching first.

    They are the even mixtures of PR(a,b,g) with PR(1-a,1-b,g') for g' in
    {0,1}; ordering prefers the candidate whose single surviving Mermin
    function is the box's largest one.
    """
    al, be, ga = pid.params
    cands = []
    m_box = discord2.mermin_functions(box)
    for gp in (0, 1):
        mid = _identify_mermin_mixture(al, be, ga, gp)
        m_cand = discord2.mermin_functions(boxcore.vertex(mid))
        idx = np.unravel_index(np.argmax(m_cand), m_cand.shape)
        cands.append((float(m_box[idx]), mid))
    cands.sort(key=lambda t: -t[0])
    return [mid for _, mid in cands]


def _identify_mermin_mixture(al: int, be: int, ga: int, gp: int) -> VertexId:
    # (PR(a,b,g) + PR(1-a,1-b,g^b))/2 is MerminMM(a,b,g); the other partner
    # (g' = g^b^1) is MerminMM(1-a,1-b,g') by the same identity.
    if gp == ga ^ be:
        return boxcore.mermin_id(al, be, ga)
    return boxcore.mermin_id(al ^ 1, be ^ 1, ga ^ be ^ 1)


def three_decomposition(box: BipartiteBox,
                        tol: float = DISCORD_TOL) -> DecompositionResult:
    """Split into PR box, Mermin box and a residual with both discords zero.

    mu = bell_discord/4, nu = mermin_discord/2. The PR label is the
    signed-CHSH argmax; the Mermin partner is fixed by the surviving Mermin
    function. A relabeling-frame search over the 128 LRO elements runs before
    giving up.
    """
    direct = _three_decomposition_direct(box, tol)
    if direct is not None:
        return direct
    for g in boxcore.lro_group():
        moved = boxcore.apply_lro(box, g)
        result = _three_decomposition_direct(moved, tol)
        if result is None:
            continue
        ginv = boxcore.invert_lro(g)
        pr = boxcore.apply_lro(boxcore.vertex(result.pr_id), ginv)
        mm = boxcore.apply_lro(boxcore.vertex(result.mermin_id), ginv)
        return DecompositionResult(
            mu=result.mu,
            nu=result.nu,
            pr_id=_match_catalog(pr, boxcore.all_pr_ids()),
            mermin_id=_match_catalog(mm, boxcore.all_mermin_ids()),
            residual=boxcore.apply_lro(result.residual, ginv),
        )
    raise ResidualInvalidError("no frame yields a valid double-zero residual")


def _three_decomposition_direct(box: BipartiteBox,
                                tol: float) -> DecompositionResult | None:
    mu = discord2.bell_discord(box) / 4.0
    nu = discord2.mermin_discord(box) / 2.0
    pid = _argmax_chsh_id(box)
    pr = boxcore.vertex(pid)
    rest = 1.0 - mu - nu
    for mid in _mermin_candidates(pid, box):
        mm = boxcore.vertex(mid)
        if rest <= EPS_VALID:
            recon = mu * pr.table + nu * mm.table
            if np.max(np.abs(recon - box.table)) <= EPS_LP:
                return DecompositionResult(mu=mu, nu=nu, pr_id=pid,
                                           mermin_id=mid,
                                           residual=boxcore.noise_box())
            continue
        residual = _valid_zero_discord_residual(
            (box.table - mu * pr.table - nu * mm.table) / rest,
            need_q_zero=True, tol=tol)
        if residual is not None:
            return DecompositionResult(mu=mu, nu=nu, pr_id=pid, mermin_id=mid,
                                       residual=residual)
    return None


def _match_catalog(box: BipartiteBox, ids: list[VertexId]) -> VertexId | None:
    for vid in ids:
        if box.allclose(boxcore.vertex(vid), tol=EPS_LP):
            return vid
    return None


def random_ns_box(rng: np.random.Generator) -> BipartiteBox:
    """One draw from the normalized-exponential (flat Dirichlet) vertex mixture."""
    return boxcore.make_box(random_ns_tables(rng, 1)[0])


def random_ns_tables(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random nonsignaling tables, shape (n, 2, 2, 2, 2).

    Weights over the 24 extremal boxes are exponential(1) draws normalized to
    sum 1, i.e. uniform on the simplex; seeded generators make runs
    reproducible.
    """
    w = rng.exponential(size=(n, _NS_MATRIX.shape[0]))
    w /= w.sum(axis=1, keepdims=True)
    return (w @ _NS_MATRIX).reshape(n, 2, 2, 2, 2)
