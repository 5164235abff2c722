"""Polytope membership tests and canonical convex decompositions.

Membership is decided by elastic LPs over named vertex sets
(16 deterministic / 24 nonsignaling vertices bipartite; the tripartite sets
live in :mod:`boxlab.tribox` and reuse :func:`lp_vertex_weights`), and in
nested hulls (:func:`nested_hull_flags`) by certificates without an LP, then
by lp_vertex_weights on each hull they leave open; every flag equals
lp_vertex_weights on its hull. The three-way split of both party counts
lives here too: its pair table, Mermin-partner rule, weights and pair screen.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import _corr, _tol, boxcore, discord2
from ._tol import DISCORD_TOL, EPS_LP, EPS_LP_SLACK, EPS_VALID
from .boxcore import BipartiteBox, VertexId


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
    """Vertex tables as rows of a read-only (n_vertices, 16) matrix.

    Each vertex list is stacked once and then served from a cache.
    """
    return boxcore._vertex_rows(vertex_ids)


_DET_IDS = boxcore.all_det_ids()
_DET_MATRIX = vertex_matrix(_DET_IDS)
_NS_MATRIX = vertex_matrix(boxcore.ns_vertex_ids())

# Targets per block-diagonal LP of a stack. Without presolve HiGHS's time
# per bipartite target grows with the block: about 0.11 ms in blocks of 25
# to 50, 0.14 ms at 100, 0.19 ms at 500 and 0.31 ms at 2,000 (10,000 random
# NS boxes over the 16 deterministic vertices, one thread, best of three).
# From the fixed start basis of _inside_flags it is flat at about 0.055 ms
# from 25 to 100, 0.08 ms at 500 and 0.11 ms at 2,000. The block also sets
# how many targets reach HiGHS before certificates settle the rest
# (_block_loop): 175, 250, 375 and 1,000 of criterion 10's 11,000 boxes in
# _inside_flags at blocks of 25, 50, 100 and 500 (0.06, 0.08, 0.11, 0.35 s),
# and 518, 527, 550 and 757 of its 1,000 two-sided boxes in
# lp_vertex_weights, which screens only outside (0.045, 0.05, 0.06, 0.16 s).
_LP_BLOCK = 50

# Options of every membership LP, kept models and stacks alike: dual simplex
# without presolve, no output, and both feasibility tolerances tightened to
# _tol.LP_FEASIBILITY_TOL. The LPs are dense, 16 to 64 rows and have nothing
# for presolve to reduce, so it only adds time: without it a target over the
# 128 tripartite vertices solves in less than half the time.
_HIGHS_OPTIONS = {
    "presolve": "off",
    "simplex_strategy": 1,  # dual simplex
    "highs_debug_level": 0,
    "output_flag": False,
    "log_to_console": False,
    "primal_feasibility_tolerance": _tol.LP_FEASIBILITY_TOL,
    "dual_feasibility_tolerance": _tol.LP_FEASIBILITY_TOL,
}
# A kept model (_target_model) holds one block of targets at a time, so
# threads take turns between writing its targets and reading its solution.
_TARGET_LOCK = threading.Lock()


def lp_vertex_weights(target: np.ndarray, vertices: np.ndarray) -> np.ndarray | None:
    """Nonnegative weights w with w @ vertices = target, for one target or a stack.

    `target` is one flattened probability table of shape (d,) or a stack of
    them, shape (n, d). One target gives its (k,) weights, or None if it lies
    outside the hull of the k vertex rows; a stack gives (n, k) weights with
    NaN rows for the targets outside. Every vertex row has one mass (entry
    sum), and the weights of a target inside sum to 1 within
    2 * d * EPS_LP_SLACK / mass.

    Each target is posed as an elastic LP, minimise sum(s+ + s-) subject to
    w @ vertices + s+ - s- = target and w, s+, s- >= 0, which is always
    feasible. A target is inside exactly when its slack sum and the gap
    between its entry sum and the mass are both at most d * EPS_LP_SLACK,
    which covers the error the table validators admit. A target off the
    mass skips the LP: |sum(t) - mass| <= ||t - w @ vertices||_1 when
    sum(w) = 1.
    Stacks are solved _LP_BLOCK targets at a time as one block-diagonal LP,
    whose optimum splits into the per-target optima; one target is a block
    of one. Each block size has a HiGHS model kept for its vertex matrix
    (_solve_target), which takes the block's targets as row bounds. Targets
    that the duals of an earlier block prove outside skip the LP (_block_loop).
    So a stack of at most _LP_BLOCK targets is one cold block, as linprog
    solves it; in a longer one, the weights of a target inside (not unique)
    depend on which earlier targets were proved outside.
    Raises ValueError unless `vertices` is one (k, d) matrix and `target`
    has the shape above and finite entries, and LpNumericalFailure
    when the solver does not report an optimum, or when the weights of a
    target found inside miss it by more than EPS_LP.
    """
    t = _finite(target)
    w = _block_loop(_rows(t, vertices), vertices)[0]
    if t.ndim == 1:
        return None if np.isnan(w[0, 0]) else w[0]
    return w


def _inside_flags(targets, vertices: np.ndarray) -> np.ndarray:
    """Whether each target lies in the hull of the vertex rows: the verdicts
    of lp_vertex_weights, as a bool array of one entry per target, with its
    checks and errors.

    Most targets are settled without an LP by the certificates of an
    earlier block of the same call, inside as well as outside (_block_loop):
    250 of criterion 10's 11,000 boxes reach the solver, in 5 blocks.

    Every block starts its dual simplex from one fixed basis (_start_basis)
    instead of from scratch. Solved block by block, criterion 10's 10,000
    random NS boxes then take 21,000 simplex iterations instead of 97,000,
    about 0.055 ms per target instead of 0.11 ms (_LP_BLOCK); screened,
    they take 400. Neither the start nor the certificates outlive the
    call, so the verdicts do not depend on what was solved before. The
    weights found this way differ from the cold ones, since a point inside
    has many decompositions; they are not returned.
    """
    return _block_loop(_rows(_finite(targets), vertices), vertices, warm=True)[1]


def _block_loop(stack: np.ndarray, vertices: np.ndarray,
                warm: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The weights (n, k) of the targets stack (n, d), NaN rows outside or
    not solved, and whether each target is inside, shape (n,). Each pass
    solves the first _LP_BLOCK open targets, from _start_basis if `warm`,
    cold otherwise; while targets stay open, _screen settles them with the
    block's duals of each target outside, and if `warm` with the weight
    support of each target inside. Both certificates are sound."""
    w, flags = np.full((len(stack), vertices.shape[0]), np.nan), np.zeros(len(stack), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN mass is outside
        todo = np.abs(stack.sum(axis=1) - vertices[0].sum()) <= vertices.shape[1] * EPS_LP_SLACK
    while todo.any():
        block = np.flatnonzero(todo)[:_LP_BLOCK]
        todo[block] = False
        rest = np.flatnonzero(todo)
        basis = (_start_basis(_matrix_key(vertices), len(block), tuple(_HIGHS_OPTIONS.items()))
                 if warm else None)
        w[block], y = _elastic_lp(stack[block], vertices, basis)
        inside = flags[block] = ~np.isnan(w[block, 0])
        if rest.size:
            proved_in, proved_out = _screen(stack, rest, vertices,
                                            w[block[inside]] if warm else w[:0], y[~inside])
            flags[rest[proved_in]] = True
            todo[rest[proved_in | proved_out]] = False
    return w, flags


# Rows of a stack screened at a time by _screen, which builds a few arrays
# of this many rows per certificate: screening criterion 10's 11,000-target
# stack in one piece raised the peak memory of a verify run by about 3 MB.
_SCREEN_ROWS = 1_000


def _screen(stack: np.ndarray, rows: np.ndarray, vertices: np.ndarray, weights: np.ndarray,
            duals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks over the targets stack[rows]: those the certificates of a
    solved block prove inside the hull of the vertex rows, and those they
    prove outside.

    - inside, when for the support S of one row of `weights` (targets found
      inside), w = max(t @ P_S, 0) with P_S the pseudo-inverse of the rows
      V_S of S (V_S.T @ inv(V_S @ V_S.T) at full row rank) gives
      ||w @ V_S - t||_1 <= d * EPS_LP_SLACK (_rebuilds). Any P_S keeps this
      sound;
    - outside, when one row of `duals` (targets found outside) proves a gap
      above the threshold (_certified_outside).
    """
    thr = stack.shape[1] * EPS_LP_SLACK
    # distinct supports by their bytes: np.unique(..., axis=0) would import
    # numpy.ma, about 1.7 MB
    supports = [(vertices[s], np.linalg.pinv(vertices[s]))
                for s in {s.tobytes(): s for s in weights > 0.0}.values()]
    proved_in, proved_out = np.zeros((2, len(rows)), dtype=bool)
    for i in range(0, len(rows), _SCREEN_ROWS):
        t, part = stack[rows[i:i + _SCREEN_ROWS]], slice(i, i + _SCREEN_ROWS)
        for v, right in supports:
            proved_in[part] |= _rebuilds(np.clip(t @ right, 0.0, None), v, t, thr)
        for y in duals:
            proved_out[part] |= _certified_outside(t, y, vertices, thr)
    return proved_in, proved_out


def _rebuilds(w: np.ndarray, v: np.ndarray, t: np.ndarray, thr: float) -> np.ndarray:
    """Whether weights w >= 0 on the rows v rebuild the target t, or each of
    a stack, within `thr` in L1: then w and its slacks are a feasible point
    of t's elastic LP at or below the threshold, so its optimum is too."""
    return np.abs(w @ v - t).sum(axis=-1) <= thr


def _rows(t: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The target (d,) or stack (n, d) `t` as a stack of rows of `vertices`."""
    if (not isinstance(vertices, np.ndarray) or vertices.ndim != 2
            or t.ndim not in (1, 2) or t.shape[-1] != vertices.shape[1]):
        raise ValueError(f"target of shape {t.shape} does not match vertices "
                         f"of shape {getattr(vertices, 'shape', None)}")
    return t.reshape(-1, vertices.shape[1])


def _finite(target) -> np.ndarray:
    # HiGHS refuses a non-finite row bound and keeps the previous one, which
    # would answer a kept model's previous target
    t = np.asarray(boxcore._numbers(target, "target", ValueError), dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("target has a non-finite entry")
    return t


def _elastic_block(vertices: np.ndarray) -> np.ndarray:
    """Equality rows of one target; its variables are [w, s+, s-]."""
    eye = np.eye(vertices.shape[1])
    return np.hstack([vertices.T, eye, -eye])


def _elastic_cost(k: int, d: int) -> np.ndarray:
    """Costs of one target's variables: 0 per vertex, 1 per slack."""
    return np.concatenate([np.zeros(k), np.ones(2 * d)])


_HIGHS_CORE = "scipy.optimize._highspy._core"
_HIGHS_LOCK = threading.Lock()
_highs_module = None


def _highs():
    """scipy's HiGHS binding, loaded on the first LP rather than on import.

    The extension file is loaded by itself, which skips importing the whole
    scipy.optimize package. It is registered in sys.modules under its real
    name, so a later `import scipy.optimize` reuses this one copy, and an
    earlier one is reused here. The lock keeps two threads from loading it
    twice, which would register its pybind11 types twice; once loaded, the
    module is read without it.
    """
    global _highs_module
    if _highs_module is None:
        with _HIGHS_LOCK:
            if _highs_module is None:
                _highs_module = sys.modules.get(_HIGHS_CORE) or _load_highs_core()
    return _highs_module


def _load_highs_core():
    """Load the extension file under its real name, registered before it runs."""
    path = _highs_core_file()
    spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_CORE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_CORE]
        raise
    return module


def _highs_core_file() -> str:
    """The HiGHS extension file in the installed scipy tree, found without
    importing scipy: the package alone takes about 15 ms to import."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    stem = os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy", "_core")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            return stem + suffix
    raise ImportError(f"scipy's HiGHS extension {stem}.* is missing")


def _block_csc(block: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column pointers, row indices and values of kron(identity(m), block)
    in CSC form, as scipy's sparse kron gives them: zeros dropped, rows
    ascending within a column, int32 indices."""
    nrows, ncols = block.shape
    cols, rows = np.nonzero(block.T)
    nnz = len(rows)
    start = np.searchsorted(cols, np.arange(ncols + 1))
    k = np.arange(m)[:, None]
    start = np.append((start[:-1] + k * nnz).ravel(), m * nnz).astype(np.int32)
    index = (rows + k * nrows).ravel().astype(np.int32)
    return start, index, np.tile(block[rows, cols], m)


def _highs_model(c: np.ndarray, block: np.ndarray, m: int):
    """The HiGHS LP of min c @ x subject to kron(identity(m), block) @ x = b
    and x >= 0, its row bounds b still to be written, and a model under
    _HIGHS_OPTIONS to pass it to; block is a dense matrix."""
    highs = _highs()
    num_row, num_col = m * block.shape[0], m * block.shape[1]
    lp = highs.HighsLp()
    lp.num_row_, lp.num_col_ = num_row, num_col
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = num_row, num_col
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = _block_csc(block, m)
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(num_col)
    lp.col_upper_ = np.full(num_col, highs.kHighsInf)
    model = highs._Highs()
    for key, value in _HIGHS_OPTIONS.items():
        if model.setOptionValue(key, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {key}={value!r}")
    return lp, model


def _run(model, basis=None):
    """Solve `model` from scratch, or from `basis`: a copy of its optimal
    solution, with the point in col_value and the duals of the equality rows
    in row_dual. clearSolver() drops the basis of any earlier solve, so the
    answer does not depend on what the model solved before."""
    model.clearSolver()
    if basis is not None and model.setBasis(basis) != _highs().HighsStatus.kOk:
        raise LpNumericalFailure("HiGHS rejects the start basis")
    model.run()
    status = model.getModelStatus()
    if status != _highs().HighsModelStatus.kOptimal:
        raise LpNumericalFailure(f"HiGHS model status {int(status)}: "
                                 f"{model.modelStatusToString(status)}")
    return model.getSolution()


def _solve_target(vertices: np.ndarray, targets: np.ndarray,
                  basis=None) -> tuple[np.ndarray, np.ndarray]:
    """_run, from `basis` if given, on the elastic LP of one target (d,)
    over `vertices`, or on the block-diagonal LP of a stack (m, d): the
    optimal point and the duals of the equality rows. Its model is kept per
    vertex matrix, block count m and solver options; a call writes the
    targets into the kept LP's row bounds and passes the LP to the model
    again, in one call."""
    m = targets.size // vertices.shape[1]
    lp, model = _target_model(_matrix_key(vertices), m, tuple(_HIGHS_OPTIONS.items()))
    bounds = targets.reshape(-1).tolist()
    with _TARGET_LOCK:
        lp.row_lower_ = lp.row_upper_ = bounds
        model.passModel(lp)
        solution = _run(model, basis)
    return np.array(solution.col_value), np.array(solution.row_dual)


def _matrix_key(matrix: np.ndarray) -> tuple:
    """Cache key of a float matrix: its shape and bytes."""
    m = np.asarray(matrix, dtype=float)
    return m.shape, m.tobytes()


@functools.lru_cache(maxsize=8)
def _target_model(key: tuple, m: int, options: tuple):
    """The LP and model of m targets kept for _solve_target, over the matrix
    of _matrix_key `key`; `options`, the items of _HIGHS_OPTIONS the model
    is built under, only keys the cache."""
    (k, d), data = key
    vertices = np.frombuffer(data).reshape(k, d)
    return _highs_model(np.tile(_elastic_cost(k, d), m), _elastic_block(vertices), m)


@functools.lru_cache(maxsize=8)
def _start_basis(key: tuple, m: int, options: tuple):
    """The optimal basis of the elastic LP of the hull's centroid, the mean
    of the vertex rows (the noise box for the 16 deterministic vertices),
    tiled over the m targets of a block: the start of _inside_flags. It is
    solved cold on a model of its own; `options` only keys the cache."""
    (k, d), data = key
    vertices = np.frombuffer(data).reshape(k, d)
    lp, model = _highs_model(_elastic_cost(k, d), _elastic_block(vertices), 1)
    lp.row_lower_ = lp.row_upper_ = vertices.mean(axis=0)
    model.passModel(lp)
    _run(model)
    one, basis = model.getBasis(), _highs().HighsBasis()
    basis.col_status, basis.row_status = list(one.col_status) * m, list(one.row_status) * m
    basis.valid = True
    return basis


def _elastic_lp(targets: np.ndarray, vertices: np.ndarray,
                basis=None) -> tuple[np.ndarray, np.ndarray]:
    """Weights of each target of the stack (m, d), NaN rows for targets
    outside the hull, and the duals of each target's equality rows, shape
    (m, d); the LP starts from `basis` if given."""
    m, (k, d) = len(targets), vertices.shape
    x, y = _solve_target(vertices, targets, basis)
    x = x.reshape(m, k + 2 * d)
    w = np.clip(x[:, :k], 0.0, None)
    inside = x[:, k:].sum(axis=1) <= d * EPS_LP_SLACK
    if np.max(np.abs(w[inside] @ vertices - targets[inside]), initial=0.0) > EPS_LP:
        raise LpNumericalFailure("LP solution does not reconstruct the target")
    w[~inside] = np.nan
    return w, y.reshape(m, d)


def nested_hull_flags(target: np.ndarray, vertices: np.ndarray, starts) -> list[bool]:
    """Whether one flattened target lies in each of nested vertex hulls.

    Hull h is the hull of vertices[starts[h]:]. `starts` ascends from 0, so
    the rows run from the outermost tier inwards; there are at most three
    tiers. Flag h equals `lp_vertex_weights(target, vertices[starts[h]:]) is
    not None`: a target whose entries miss the vertex rows' mass by more
    than d * EPS_LP_SLACK is outside every hull, before any screen or LP.
    Certificates without an LP settle most other flags (_nested_screen).
    The flags they leave open are always the outermost ones; each goes to
    lp_vertex_weights on its own hull, innermost first, and a hull found
    inside makes every hull around it inside.
    """
    return _nested_flags(target, vertices, starts, len(starts))


def _nested_flags(target, vertices: np.ndarray, starts, asked: int) -> list[bool]:
    """The first `asked` flags of nested_hull_flags, its inputs checked
    first; lp_vertex_weights runs only on the hulls the screen leaves open."""
    t = _finite(target)
    k, d = vertices.shape
    if t.shape != (d,):
        raise ValueError(f"target of shape {t.shape} does not match vertices "
                         f"of {d} entries")
    if not 1 <= len(starts) <= 3 or starts[0] != 0 or np.any(np.diff([*starts, k]) <= 0):
        raise ValueError(f"starts {starts} do not ascend from 0 below {k} "
                         f"in one to three tiers")
    with np.errstate(over="ignore", invalid="ignore"):  # as in _block_loop
        if not abs(t.sum() - vertices[0].sum()) <= d * EPS_LP_SLACK:
            return [False] * asked
    flags = _nested_screen(t, vertices, tuple(starts))[:asked]
    # the innermost open hull found inside, -1 if none: the hulls around it
    # are inside too, and the open ones within it were found outside
    n_open = flags.count(None)
    inner = next((h for h in reversed(range(n_open))
                  if lp_vertex_weights(t, vertices[starts[h]:]) is not None), -1)
    flags[:n_open] = [h <= inner for h in range(n_open)]
    return flags


# Step caps of _nested_screen: the requests workload's sparse GHZ boxes need
# at most 3 Lawson-Hanson steps, its dense boxes at most 4 re-solves
_NNLS_STEPS, _RESOLVES = 4, 4


def _nested_screen(t: np.ndarray, vertices: np.ndarray, starts: tuple) -> list:
    """The flags of nested_hull_flags settled without an LP, None where
    open; each certificate is sound for the elastic LP of its hull alone:
    - outside hull h and every hull inside it, when the sign pattern of an
      outer-tier vertex has a gap above the threshold over its rows: the
      weak-duality bound of _certified_outside, from the per-hull maxima of
      _screen_arrays. At the 128 tripartite vertices the patterns are
      Svetlichny's and the embedded CHSH inequalities;
    - inside the innermost hull left and every hull around it, when weights
      w >= 0 on its rows rebuild t (_rebuilds): first by Lawson-Hanson steps
      on the outer-tier rows if only the outermost of several hulls is left,
      then by min-norm ones."""
    basis, coords, signs, maxima = _screen_arrays(_matrix_key(vertices), starts)
    thr, n = len(t) * EPS_LP_SLACK, len(starts)
    # each functional's weak-duality gap over each hull (_certified_outside)
    gap = signs @ t - (t.sum() + thr) / vertices[0].sum() * maxima
    out = next((h for h in range(n) if (gap[h] > thr).any()), n)
    flags, inner = [None] * out + [False] * (n - out), starts[out - 1]
    try:
        if out and ((out == 1 < n and _nnls_rebuilds(t, vertices[:starts[1]], thr))
                    or _min_norm_rebuilds(t, vertices[inner:], coords[inner:], basis @ t, thr)):
            flags[:out] = [True] * out
    except np.linalg.LinAlgError:  # a singular system proves nothing
        pass
    return flags


def _nnls_rebuilds(t: np.ndarray, v: np.ndarray, thr: float) -> bool:
    """Whether up to _NNLS_STEPS Lawson-Hanson steps of min ||w @ v - t||_2
    over w >= 0 from w = 0 reach weights on the rows v that rebuild t.
    Each step frees the row of largest gradient and solves on the free rows;
    a step whose solution leaves the positive orthant ends the search."""
    b, gram = v @ t, v @ v.T
    w, free = np.zeros(len(v)), np.zeros(len(v), dtype=bool)
    for _ in range(_NNLS_STEPS):
        free[np.argmax(np.where(free, -np.inf, b - gram @ w))] = True  # largest gradient
        z = np.linalg.solve(gram[np.ix_(free, free)], b[free])
        if z.min() <= 0.0:
            return False
        w[free] = z
        if _rebuilds(w, v, t, thr):
            return True
    return False


def _min_norm_rebuilds(t, hull: np.ndarray, coords: np.ndarray, c, thr: float) -> bool:
    """Whether the min-norm weights w with w @ coords = c, the correlator
    coordinates of t (_screen_arrays), clipped at 0 and re-solved on their
    positive support up to _RESOLVES times, rebuild t from the hull rows."""
    support = np.ones(len(hull), dtype=bool)
    for _ in range(1 + _RESOLVES):
        rows = coords[support]
        z = np.linalg.solve(rows.T @ rows, c)
        w = np.zeros(len(hull))
        w[support] = np.clip(rows @ z, 0.0, None)
        if _rebuilds(w, hull, t, thr):
            return True
        support = w > 0.0
    return False


@functools.lru_cache(maxsize=8)
def _screen_arrays(key: tuple, starts: tuple) -> tuple:
    """What _nested_screen keeps per vertex matrix (of _matrix_key `key`)
    and `starts`: the columns of _corr._MARGINALS that read the correlators
    of every party set S at inputs x_S, the other parties' inputs 0, off a
    flat table of 4**n entries (coordinates of the nonsignaling span, which
    they map one to one), the vertex rows in these coordinates, the sign
    patterns of the outer-tier vertices with the largest value of each over
    each hull (0 at least), which _nested_screen's gap reads. No Gram matrix
    is kept: _nnls_rebuilds forms the outer tier's own per call."""
    (k, d), data = key
    v, side = np.frombuffer(data).reshape(k, d), round(d ** 0.5)
    mask, i = np.indices((side, side))
    basis = _corr._MARGINALS[side.bit_length() - 1][:, (i & ~mask == 0).ravel()].T
    signs = 2.0 * (v[:starts[-1]] > 0.0) - 1.0
    maxima = np.array([(v[start:] @ signs.T).max(axis=0, initial=0.0) for start in starts])
    return basis, v @ basis.T, signs, maxima


def _certified_outside(t: np.ndarray, y: np.ndarray, hull: np.ndarray,
                       thr: float) -> np.ndarray:
    """Whether the dual vector `y` proves that no weights w >= 0 on the hull
    rows bring w @ hull within `thr` of `t` in L1: a numpy bool, or one per
    target of a stack `t` (m, d).

    Weak duality, which holds for any y once divided by max|y| so that
    |y_i| <= 1, and so ||r||_1 >= y.r for every r:
    ||t - w @ hull||_1 >= y.t - sum(w) * max(0, max_i hull_i.y), and weights
    within `thr` of t have sum(w) <= (sum(t) + thr) / mass, since every row
    sums to the same mass.
    """
    y = y / (np.max(np.abs(y)) or 1.0)
    cap = (t.sum(axis=-1) + thr) / hull[0].sum()
    return t @ y - cap * max(0.0, np.max(hull @ y)) > thr


def ns_membership(box: BipartiteBox) -> bool:
    """Feasibility over the 24 nonsignaling vertices."""
    boxcore._one_box(box, "ns_membership")
    return lp_vertex_weights(box.table.reshape(-1), _NS_MATRIX) is not None


def is_local(box: BipartiteBox) -> MembershipResult:
    """LP membership in the convex hull of the 16 deterministic boxes."""
    boxcore._one_box(box, "is_local")
    w = lp_vertex_weights(box.table.reshape(-1), _DET_MATRIX)
    if w is not None:
        weights = {vid: float(wi) for vid, wi in zip(_DET_IDS, w) if wi > EPS_LP}
        return MembershipResult(inside=True, weights=weights)
    chsh = discord2.chsh_values(box).reshape(8)
    i = int(np.argmax(chsh))  # the label (alpha, beta, gamma) in binary
    return MembershipResult(
        inside=False, violated_facet=(f"B{i:03b}", float(chsh[i] - discord2.CHSH_LOCAL_BOUND)))


def canonical_2decomposition(box: BipartiteBox) -> DecompositionResult:
    """Split into an irreducible PR box and a local box with zero Bell discord.

    mu equals bell_discord/4. The PR boxes are tried in the three-way split's
    signed-CHSH order, argmax first, and the first whose residual is a valid
    box with zero Bell discord wins; ResidualInvalidError if none leaves one.
    A box with mu = 1 is the argmax PR box itself.
    """
    boxcore._one_box(box, "canonical_2decomposition")
    mu = discord2.bell_discord(box) / 4.0
    for t in _tops_by_value(box.correlators, 2):
        pid = _pairs(2).top_ids[t]
        pr = boxcore.vertex(pid)
        if mu >= 1.0 - EPS_VALID:
            return DecompositionResult(mu=1.0, nu=0.0, pr_id=pid, mermin_id=None,
                                       residual=pr)
        try:
            residual = boxcore.make_box((box.table - mu * pr.table) / (1.0 - mu))
        except boxcore.BoxError:
            continue
        if discord2.bell_discord(residual) <= DISCORD_TOL:
            return DecompositionResult(mu=mu, nu=0.0, pr_id=pid, mermin_id=None,
                                       residual=residual)
    raise ResidualInvalidError("no PR box leaves a valid zero-discord residual at mu = G/4")


def three_decomposition(box: BipartiteBox) -> DecompositionResult:
    """Split into PR box, Mermin box and a residual with both discords zero.

    The direct split that tribox.three_decomposition3 shares: mu =
    bell_discord/4, nu = mermin_discord/2, taken over the first of the 16
    canonical (PR, Mermin) pairs that leaves a valid residual, in the order
    of _three_decomposition_direct. Raises ResidualInvalidError if none does.
    """
    boxcore._one_box(box, "three_decomposition")
    result = _three_decomposition_direct(box)
    if result is None:
        raise ResidualInvalidError("no canonical pair yields a valid double-zero residual")
    return result


# ---------------------------------------------------------------------------
# canonical pair screen, shared by both party counts

@dataclass(frozen=True)
class _CanonicalPairs:
    """The top vertices of one party count (PR boxes at n = 2, Svetlichny
    boxes at n = 3) in label order, each with its two canonical Mermin
    partners.

    `top` and `partners` hold their flat tables, shapes (T, 4**n) and
    (T, 2, 4**n); `labels[t, k]` is the label of the one surviving Mermin
    function of partner k of top t.
    """

    top_ids: list
    partner_ids: list
    top: np.ndarray
    partners: np.ndarray
    labels: np.ndarray


# Per party count: the id class, the top kind and the Mermin kind
_SPLIT_KINDS = {2: (VertexId, "PR", "MerminMM"), 3: (boxcore.TriVertexId, "Sv", "Mermin3")}


def _partners(top) -> list:
    """The Mermin boxes M(l, e) and M(~l, s ^ 1) that mix the top T(l, e)
    evenly with a top of label ~l, by MerminMM(a,b,g) = (PR(a,b,g) +
    PR(1-a,1-b,g^b))/2 and Mermin3(l,e) = (Sv(l,e) + Sv(~l, e^parity(l)))/2,
    where s = e^b or e^parity(l). The first wins a tie in
    _three_decomposition_direct: M(l, e) at three parties, the one mixing in
    PR(~l, 0) at two."""
    cls, _, kind = _SPLIT_KINDS[top.parties]
    *l, e = top.params
    s = e ^ (l[-1] if top.parties == 2 else sum(l) % 2)
    pair = [cls(kind, (*l, e)), cls(kind, (*(b ^ 1 for b in l), s ^ 1))]
    return pair[::-1] if top.parties == 2 and s else pair


@functools.cache
def _pairs(n: int) -> _CanonicalPairs:
    """The tops of n parties (8 PR or 16 Svetlichny boxes) with their
    canonical Mermin partners, built on first use."""
    cls, top, _ = _SPLIT_KINDS[n]
    top_ids = list(boxcore._family(cls, top))
    partner_ids = [_partners(t) for t in top_ids]
    partners = boxcore._vertex_rows([m for pair in partner_ids for m in pair])
    partners = partners.reshape(len(top_ids), 2, -1)
    mermin = _corr.moduli(_corr.correlators(partners, n), n, mermin=True)
    return _CanonicalPairs(top_ids, partner_ids, boxcore._vertex_rows(top_ids), partners,
                           np.argmax(mermin, axis=-1))


def _tops_by_value(corr: np.ndarray, n: int) -> np.ndarray:
    """Top-vertex labels by descending signed operator value of correlators
    `corr`; the 1e-12 * label tie-break puts the lowest label first on ties."""
    signed = _corr.operator_values(corr, n).reshape(-1)
    return np.argsort(-(signed - 1e-12 * np.arange(signed.size)), kind="stable")


def _three_decomposition_direct(box) -> DecompositionResult | None:
    """box = mu * top + nu * Mermin + (1 - mu - nu) * residual at the paper's
    weights mu = G / 2**n and nu = Q / 2**(n - 1), n = box.parties, over the
    first canonical pair whose residual is a valid box with both discords at
    most DISCORD_TOL; None if no pair leaves one.

    The pairs run top by top in _tops_by_value order, the two partners of a
    top best match first: the one whose surviving Mermin function is larger
    on the box. The first two pairs are thus the split at the argmax top.
    All residuals are screened at once by _double_zero; the survivors, in
    order, go through the exact validator and discords, and the first that
    passes wins; the residual is a box of the class of `box`. A relabeling
    maps canonical pairs to canonical pairs, so every pair a relabeling
    frame of the box would split over is here.
    """
    n, table, corr = box.parties, box.table.reshape(-1), box.correlators
    mu, nu = discord2.bell_discord(box) / 2 ** n, discord2.mermin_discord(box) / 2 ** (n - 1)
    pairs, tops = _pairs(n), _tops_by_value(corr, n)
    score = _corr.moduli(corr, n, mermin=True)[pairs.labels[tops]]
    top = np.repeat(tops, 2)
    partner = ((score[:, 1] > score[:, 0])[:, None] ^ np.arange(2)).reshape(-1)
    rest = 1.0 - mu - nu
    num = table - mu * pairs.top[top] - nu * pairs.partners[top, partner]
    for i in np.flatnonzero(_double_zero(num, n, rest, DISCORD_TOL)):
        if rest <= EPS_VALID:
            residual = type(box)(boxcore._expand(n))
        else:
            try:
                residual = type(box)(boxcore._validate(num[i] / rest, n))
            except boxcore.BoxError:
                continue
            e = residual.correlators
            if _corr.discord(e, n) > DISCORD_TOL or _corr.discord(e, n, mermin=True) > DISCORD_TOL:
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
