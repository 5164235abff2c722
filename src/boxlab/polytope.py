"""Polytope membership tests and canonical convex decompositions.

Membership is decided by elastic LPs over named vertex sets
(16 deterministic / 24 nonsignaling vertices bipartite; the tripartite sets
live in :mod:`boxlab.tribox` and reuse :func:`lp_vertex_weights`). The
canonical pair screen of both three-way decompositions lives here too.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.optimize import linprog

from . import _corr, boxcore, discord2
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


def lp_vertex_weights(target: np.ndarray, vertices: np.ndarray | list[np.ndarray],
                      tol: float = EPS_LP) -> np.ndarray | list | None:
    """Nonnegative weights w with w @ vertices = target, for one target or a stack.

    `target` is one flattened probability table of shape (d,) or a stack of
    them, shape (n, d). One target gives its (k,) weights, or None if it lies
    outside the hull of the k vertex rows; a stack gives (n, k) weights with
    NaN rows for the targets outside. The weights sum to 1 automatically
    because every vertex row has the same normalization. `vertices` may also
    be a list of n matrices (k_i, d), one per row of an (n, d) stack; the
    result is then a list of each target's (k_i,) weights or None.

    Each target is posed as an elastic LP, minimise sum(s+ + s-) subject to
    w @ vertices + s+ - s- = target and w, s+, s- >= 0, which is always
    feasible. A target is inside exactly when its slack sum is at most
    d * EPS_LP_SLACK, which covers the error the table validators admit.
    Stacks are solved _LP_BLOCK targets at a time as one block-diagonal LP,
    whose optimum splits into the per-target optima; a list of vertex
    matrices is one such LP. Raises ValueError for a target of any other
    shape, and LpNumericalFailure when the solver does not report an
    optimum, or when the weights of a target found inside miss it by more
    than `tol`.
    """
    t = np.asarray(target, dtype=float)
    if isinstance(vertices, list):
        if t.ndim != 2 or len(t) != len(vertices) or any(
                v.shape[1] != t.shape[1] for v in vertices):
            raise ValueError(f"target of shape {t.shape} does not match "
                             f"{len(vertices)} vertex matrices")
        return _elastic_lp_per_target(t, vertices, tol)
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


def _elastic_block(vertices: np.ndarray) -> np.ndarray:
    """Equality rows of one target; its variables are [w, s+, s-]."""
    eye = np.eye(vertices.shape[1])
    return np.hstack([vertices.T, eye, -eye])


def _elastic_cost(k: int, d: int) -> np.ndarray:
    return np.concatenate([np.zeros(k), np.ones(2 * d)])


def _solve(c: np.ndarray, a_eq, b_eq: np.ndarray) -> np.ndarray:
    res = linprog(c=c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise LpNumericalFailure(f"linprog status {res.status}: {res.message}")
    return res.x


def _elastic_lp(targets: np.ndarray, vertices: np.ndarray,
                tol: float) -> np.ndarray:
    """Weights of each target, NaN rows for targets outside the hull."""
    m, (k, d) = len(targets), vertices.shape
    block = _elastic_block(vertices)
    # A single block goes in dense: HiGHS's sparse input handling costs
    # more than the whole solve of one target.
    a_eq = block if m == 1 else sparse.kron(sparse.identity(m), block, format="csc")
    x = _solve(np.tile(_elastic_cost(k, d), m), a_eq, targets.reshape(-1))
    x = x.reshape(m, k + 2 * d)
    w = np.clip(x[:, :k], 0.0, None)
    inside = x[:, k:].sum(axis=1) <= d * EPS_LP_SLACK
    if np.max(np.abs(w[inside] @ vertices - targets[inside]), initial=0.0) > tol:
        raise LpNumericalFailure("LP solution does not reconstruct the target")
    w[~inside] = np.nan
    return w


def _elastic_lp_per_target(targets: np.ndarray, vertex_sets: list,
                           tol: float) -> list:
    """Each target's weights over its own vertex rows, None outside its hull."""
    d = targets.shape[1]
    # dense, as for a single target: a few blocks solve faster that way
    a_eq = linalg.block_diag(*[_elastic_block(v) for v in vertex_sets])
    x = _solve(np.concatenate([_elastic_cost(len(v), d) for v in vertex_sets]),
               a_eq, targets.reshape(-1))
    out = []
    for target, vertices, seg in zip(targets, vertex_sets,
                                     np.split(x, np.cumsum([len(v) + 2 * d for v in vertex_sets]))):
        k = len(vertices)
        w = np.clip(seg[:k], 0.0, None)
        if seg[k:].sum() > d * EPS_LP_SLACK:
            out.append(None)
        elif np.max(np.abs(w @ vertices - target)) > tol:
            raise LpNumericalFailure("LP solution does not reconstruct the target")
        else:
            out.append(w)
    return out


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


def _zero_bell_residual(table: np.ndarray, tol: float) -> BipartiteBox | None:
    try:
        res = boxcore.make_box(table)
    except boxcore.BoxError:
        return None
    return res if discord2.bell_discord(res) <= tol else None


def canonical_2decomposition(box: BipartiteBox,
                             tol: float = DISCORD_TOL) -> DecompositionResult:
    """Split into an irreducible PR box and a local box with zero Bell discord.

    mu equals bell_discord/4; the PR label is the signed-CHSH argmax, the
    first top of the three-way split's order. If the direct residual is
    invalid, mu is lowered by bisection to the largest value giving a valid
    box, which must still have zero Bell discord.
    """
    mu = discord2.bell_discord(box) / 4.0
    corr = _corr.correlators(box.table.reshape(-1), 2)
    pid = _bipartite_pairs().top_ids[_tops_by_value(corr, 2)[0]]
    pr = boxcore.vertex(pid)
    if mu >= 1.0 - EPS_VALID:
        return DecompositionResult(mu=1.0, nu=0.0, pr_id=pid, mermin_id=None,
                                   residual=pr)
    residual = _zero_bell_residual((box.table - mu * pr.table) / (1.0 - mu), tol)
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
        residual = _zero_bell_residual((box.table - mu * pr.table) / (1.0 - mu), tol)
        if residual is None:
            raise ResidualInvalidError(
                "no valid zero-discord residual for any PR weight")
    return DecompositionResult(mu=mu, nu=0.0, pr_id=pid, mermin_id=None,
                               residual=residual)


def _identify_mermin_mixture(al: int, be: int, ga: int, gp: int) -> VertexId:
    # (PR(a,b,g) + PR(1-a,1-b,g^b))/2 is MerminMM(a,b,g); the other partner
    # (g' = g^b^1) is MerminMM(1-a,1-b,g') by the same identity.
    if gp == ga ^ be:
        return boxcore.mermin_id(al, be, ga)
    return boxcore.mermin_id(al ^ 1, be ^ 1, ga ^ be ^ 1)


def three_decomposition(box: BipartiteBox,
                        tol: float = DISCORD_TOL) -> DecompositionResult:
    """Split into PR box, Mermin box and a residual with both discords zero.

    mu = bell_discord/4, nu = mermin_discord/2, taken over the first of the
    16 canonical (PR, Mermin) pairs that leaves a valid residual, in the
    order of _canonical_split. Raises ResidualInvalidError if none does.
    """
    result = _three_decomposition_direct(box, tol)
    if result is None:
        raise ResidualInvalidError("no canonical pair yields a valid double-zero residual")
    return result


def _three_decomposition_direct(box: BipartiteBox,
                                tol: float) -> DecompositionResult | None:
    """The split of three_decomposition, or None."""
    return _canonical_split(box, _bipartite_pairs(), discord2.bell_discord(box) / 4.0,
                            discord2.mermin_discord(box) / 2.0, tol)


# ---------------------------------------------------------------------------
# canonical pair screen, shared by both party counts

@dataclass(frozen=True)
class _CanonicalPairs:
    """The top vertices of one party count (PR boxes at n = 2, Svetlichny
    boxes at n = 3) in label order, each with its two canonical Mermin
    partners.

    `top` and `partners` hold their flat tables, shapes (T, 4**n) and
    (T, 2, 4**n); `labels[t, k]` is the label of the one surviving Mermin
    function of partner k of top t. `make` validates a residual table and
    `noise()` is the residual when no weight is left.
    """

    n: int
    top_ids: list
    partner_ids: list
    top: np.ndarray
    partners: np.ndarray
    labels: np.ndarray
    make: Callable
    noise: Callable


def _canonical_pairs(n: int, top_ids: list, partner_ids: list, matrix: Callable,
                     make: Callable, noise: Callable) -> _CanonicalPairs:
    """Pair tables of the tops `top_ids`, top t with the two partners
    `partner_ids[t]`; `matrix` stacks the flat tables of a vertex list."""
    partners = matrix([m for pair in partner_ids for m in pair]).reshape(len(top_ids), 2, -1)
    mermin = _corr.moduli(_corr.correlators(partners, n), n, mermin=True)
    return _CanonicalPairs(n, top_ids, partner_ids, matrix(top_ids), partners,
                           np.argmax(mermin, axis=-1), make, noise)


def _tops_by_value(corr: np.ndarray, n: int) -> np.ndarray:
    """Top-vertex labels by descending signed operator value of correlators
    `corr`; the 1e-12 * label tie-break puts the lowest label first on ties."""
    signed = _corr.operator_values(corr, n).reshape(-1)
    return np.argsort(-(signed - 1e-12 * np.arange(signed.size)), kind="stable")


def _canonical_split(box, pairs: _CanonicalPairs, mu: float, nu: float,
                     tol: float) -> DecompositionResult | None:
    """box = mu * top + nu * Mermin + (1 - mu - nu) * residual over the first
    canonical pair whose residual is a valid box with both discords at most
    `tol`, or None if no pair leaves one.

    The pairs run top by top in _tops_by_value order, the two partners of a
    top best match first: the one whose surviving Mermin function is larger
    on the box. The first two pairs are thus the split at the argmax top.
    All residuals are screened at once by _double_zero; the survivors, in
    order, go through the exact validator and discords, and the first that
    passes wins. A relabeling maps canonical pairs to canonical pairs, so
    every pair a relabeling frame of the box would split over is here.
    """
    n, table = pairs.n, box.table.reshape(-1)
    corr = _corr.correlators(table, n)
    tops = _tops_by_value(corr, n)
    score = _corr.moduli(corr, n, mermin=True)[pairs.labels[tops]]
    top = np.repeat(tops, 2)
    partner = ((score[:, 1] > score[:, 0])[:, None] ^ np.arange(2)).reshape(-1)
    rest = 1.0 - mu - nu
    num = table - mu * pairs.top[top] - nu * pairs.partners[top, partner]
    for i in np.flatnonzero(_double_zero(num, n, rest, tol)):
        if rest <= EPS_VALID:
            residual = pairs.noise()
        else:
            try:
                residual = pairs.make(num[i] / rest)
            except boxcore.BoxError:
                continue
            e = _corr.correlators(residual.table.reshape(-1), n)
            if _corr.discord(e, n) > tol or _corr.discord(e, n, mermin=True) > tol:
                continue
        t = top[i]
        return DecompositionResult(mu=mu, nu=nu, pr_id=pairs.top_ids[t],
                                   mermin_id=pairs.partner_ids[t][partner[i]],
                                   residual=residual)
    return None


def _double_zero(num: np.ndarray, n: int, rest: float, tol: float) -> np.ndarray:
    """Whether each residual numerator `num` (rows of 4**n) divided by `rest`
    is a nonnegative table with both discords at most `tol`; with no weight
    left, whether the numerator vanishes. Affine combinations of
    nonsignaling boxes stay nonsignaling and normalized, so these checks
    decide a residual's validity."""
    if rest <= EPS_VALID:
        return np.abs(num).max(axis=1) <= EPS_LP
    good = num.min(axis=1) >= -EPS_VALID * rest
    e = _corr.correlators(num[good] / rest, n)
    good[good] = (_corr.discord(e, n) <= tol) & (_corr.discord(e, n, mermin=True) <= tol)
    return good


@functools.cache
def _bipartite_pairs() -> _CanonicalPairs:
    """The 8 PR boxes with their canonical Mermin partners, built once."""
    tops = boxcore.all_pr_ids()
    partners = [[_identify_mermin_mixture(*pid.params, gp) for gp in (0, 1)] for pid in tops]
    return _canonical_pairs(2, tops, partners, vertex_matrix, boxcore.make_box,
                            boxcore.noise_box)


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
