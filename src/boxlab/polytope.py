"""Polytope membership tests and canonical convex decompositions.

Membership is decided by elastic LPs over named vertex sets
(16 deterministic / 24 nonsignaling vertices bipartite; the tripartite sets
live in :mod:`boxlab.tribox` and reuse :func:`lp_vertex_weights`). The
relabeling-frame screen of both three-way decompositions lives here too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

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
    giving up; only the frames that pass the screen of _screened_frames are
    tried.
    """
    direct = _three_decomposition_direct(box, tol)
    if direct is not None:
        return direct
    tables = _lro_frame_tables()
    mu = discord2.bell_discord(box) / 4.0
    nu = discord2.mermin_discord(box) / 2.0
    for f in _screened_frames(box.table.reshape(-1), tables, mu, nu, tol):
        g = tables.frames[f]
        result = _three_decomposition_direct(boxcore.apply_lro(box, g), tol)
        if result is not None:
            return _mapped_back_result(
                result, tables, f, boxcore.apply_lro(result.residual, boxcore.invert_lro(g)))
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


# ---------------------------------------------------------------------------
# relabeling-frame screen, shared by both party counts

@dataclass(frozen=True)
class _FrameTables:
    """The relabeling frames of one party count and what their screen needs.

    `top_ids` are the PR (n = 2) or Svetlichny (n = 3) vertices in the order
    of the signed operator values, `mermin_ids` the Mermin vertices, `top`
    and `mermin` their tables as rows, and `partners[s]` the rows of
    `mermin` of the two Mermin candidates of top vertex s. `top_back[g, s]`
    is the row of `top` equal to top vertex s mapped back from frame g to
    the box's own frame, that is top[s] gathered through the inverse of
    frame g's index permutation; `mermin_back` is the same for `mermin`.
    """

    n: int
    frames: list
    top_ids: list
    mermin_ids: list
    top: np.ndarray
    mermin: np.ndarray
    partners: np.ndarray     # (len(top), 2)
    top_back: np.ndarray     # (n_frames, len(top))
    mermin_back: np.ndarray  # (n_frames, len(mermin))


def _build_frame_tables(frames: list, moves: list, top_ids: list, mermin_ids: list,
                        partners: list, matrix) -> _FrameTables:
    """Screen tables of `frames`, the group of boxcore._group_permutations(moves)
    in its order; `partners` lists the two Mermin candidates of each top
    vertex and `matrix` stacks the tables of a vertex list."""
    perms = boxcore._group_permutations(moves)
    inverse = np.empty_like(perms)
    np.put_along_axis(inverse, perms, np.arange(perms.shape[1]), axis=1)
    top, mermin = matrix(top_ids), matrix(mermin_ids)
    rows = [[mermin_ids.index(m) for m in pair] for pair in partners]
    return _FrameTables(len(moves[0]), frames, top_ids, mermin_ids, top, mermin, np.array(rows),
                        _mapped_back(top, inverse), _mapped_back(mermin, inverse))


def _mapped_back_result(result: DecompositionResult, tables: _FrameTables, f: int,
                        residual) -> DecompositionResult:
    """`result`, found in frame f, with its vertices mapped back to the box's
    own frame; `residual` is its residual mapped back."""
    top = tables.top_back[f, tables.top_ids.index(result.pr_id)]
    mermin = tables.mermin_back[f, tables.mermin_ids.index(result.mermin_id)]
    return DecompositionResult(mu=result.mu, nu=result.nu, pr_id=tables.top_ids[top],
                               mermin_id=tables.mermin_ids[mermin], residual=residual)


def _mapped_back(vertices: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """index[g, v]: the row of `vertices` equal to vertices[v][inverse[g]].

    Rows are matched exactly, as byte strings of small integer codes for
    their distinct entries, a block of frames at a time. Raises ValueError
    if a mapped row is not a row of `vertices`.
    """
    codes = np.unique(vertices, return_inverse=True)[1].reshape(vertices.shape)
    codes = codes.astype(np.uint8)
    row = np.dtype((np.void, vertices.shape[1]))
    keys = codes.view(row)[:, 0]
    order = np.argsort(keys)
    sorted_keys = keys[order]
    index = np.empty((len(inverse), len(vertices)), dtype=np.intp)
    block = 512  # frames per gather, which bounds its scratch memory
    for start in range(0, len(inverse), block):
        mapped = np.take(codes, inverse[start:start + block], axis=1).view(row)[..., 0]
        pos = np.minimum(np.searchsorted(sorted_keys, mapped), len(keys) - 1)
        if (sorted_keys[pos] != mapped).any():
            raise ValueError("vertex set is not closed under the relabeling frames")
        index[start:start + block] = order[pos].T
    return index


def _screened_frames(table: np.ndarray, tables: _FrameTables, mu: float,
                     nu: float, tol: float) -> np.ndarray:
    """Indices, in search order, of the frames whose argmax components leave
    a valid double-zero residual.

    In frame g the split subtracts mu times top vertex s, the one of the
    largest signed operator value, and nu times one of its two Mermin
    partners m. Mapped back to the box's own frame, that residual is
    `table - mu * top[top_back[g, s]] - nu * mermin[mermin_back[g, m]]`, a
    permutation of the frame's own residual. Entrywise nonnegativity and
    both discords are relabeling invariants, so each distinct pair of
    mapped-back rows is judged once and its verdict holds for every frame
    with that pair. Affine combinations of nonsignaling boxes stay
    nonsignaling and normalized, so the verdict is nonnegativity plus the
    discord checks; survivors (usually none or a handful) then go through
    the exact per-frame path.
    """
    n = tables.n
    # operator s of frame g is operator top_back[g, s] of the box's own frame
    signed = _corr.operator_values(_corr.correlators(table, n), n).reshape(-1)[tables.top_back]
    sel = np.argmax(signed - 1e-12 * np.arange(signed.shape[1]), axis=1)
    frames = np.arange(len(sel))
    top = tables.top_back[frames, sel]
    n_mermin = len(tables.mermin)
    hits = np.zeros(len(sel), dtype=bool)
    for partner in tables.partners.T:
        pairs, inverse = np.unique(top * n_mermin + tables.mermin_back[frames, partner[sel]],
                                   return_inverse=True)
        top_row, mermin_row = np.divmod(pairs, n_mermin)
        num = table - mu * tables.top[top_row] - nu * tables.mermin[mermin_row]
        hits |= _double_zero(num, n, 1.0 - mu - nu, tol)[inverse]
    return np.flatnonzero(hits)


def _double_zero(num: np.ndarray, n: int, rest: float, tol: float) -> np.ndarray:
    """Whether each residual numerator `num` (rows of 4**n) divided by `rest`
    is a nonnegative table with both discords at most `tol`; with no weight
    left, whether the numerator vanishes."""
    if rest <= EPS_VALID:
        return np.abs(num).max(axis=1) <= EPS_LP
    good = num.min(axis=1) >= -EPS_VALID * rest
    e = _corr.correlators(num[good] / rest, n)
    good[good] = (_corr.discord(e, n) <= tol) & (_corr.discord(e, n, mermin=True) <= tol)
    return good


@functools.cache
def _lro_frame_tables() -> _FrameTables:
    """The 128 bipartite frames with their screen tables, built once."""
    partners = [[_identify_mermin_mixture(*pid.params, gp) for gp in (0, 1)]
                for pid in boxcore.all_pr_ids()]
    return _build_frame_tables(boxcore.lro_group(), [(0, 1), (1, 0)], boxcore.all_pr_ids(),
                               boxcore.all_mermin_ids(), partners, vertex_matrix)


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
