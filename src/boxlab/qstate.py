"""Density matrices, projective measurement settings and Born-rule box generation.

Measurement convention: a two-outcome spin measurement along unit vector n has
projectors (1 +/- n.sigma)/2; outcome bit 0 maps to the +1 eigenvalue. Basis
ordering is big-endian (|ab> has index 2a+b, |abc> index 4a+2b+c).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from . import boxcore, tribox
from ._tol import EIG_TOL, EPS_VALID, HARDY_DEGENERATE, TOL_CLOSED
from .boxcore import BipartiteBox, InvalidStateError, UnknownNameError
from .tribox import TripartiteBox

SQRT2 = float(np.sqrt(2.0))

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])
ZHAT = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix of one 4x4 (two-qubit) or 8x8 (three-qubit)
    system, or a validated (k, d, d) stack of them, which density_matrix
    makes of a 3-D numpy array; correlation_data and born_box2/born_box3 read it."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]


def density_matrix(mat) -> DensityMatrix:
    """A read-only copy of a 4x4 or 8x8 matrix, checked in order: finite,
    Hermitian, unit trace, lowest eigenvalue >= -EIG_TOL. A 3-D (k, d, d)
    numpy array is a stack, checked at once and matrix by matrix only where
    that fails; nested lists are always one matrix."""
    m = np.array(boxcore._numbers(mat, "matrix", InvalidStateError, "fiuc"), dtype=complex)
    stacked = isinstance(mat, np.ndarray) and m.ndim == 3 and len(m) > 0
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (4, 8):
        raise InvalidStateError(f"expected a 4x4 or 8x8 matrix, got {m.shape}")
    if not (stacked and np.isfinite(m).all()
            and np.abs(m - m.conj().swapaxes(1, 2)).max() <= EPS_VALID
            and np.abs(np.trace(m, axis1=1, axis2=2) - 1.0).max() <= EPS_VALID
            and np.linalg.eigvalsh(m)[:, 0].min() >= -EIG_TOL):
        for one in m.reshape((-1,) + m.shape[-2:]):
            if not np.isfinite(one).all():
                raise InvalidStateError("matrix has non-finite entries")
            if np.abs(one - one.conj().T).max() > EPS_VALID:
                raise InvalidStateError("matrix is not Hermitian")
            tr = one.trace()
            if abs(tr.real - 1.0) > EPS_VALID or abs(tr.imag) > EPS_VALID:
                raise InvalidStateError(f"trace is {tr:.12f}, expected 1")
            low = np.linalg.eigvalsh(one)[0]  # ascending
            if low < -EIG_TOL:
                raise InvalidStateError(f"negative eigenvalue {low:.3e}")
    m.setflags(write=False)
    return DensityMatrix(m)


def pure_dm(vec) -> DensityMatrix:
    """|v><v| / <v|v> of a 4- or 8-entry state vector, or of each row of a
    2-D (k, d) numpy array: a stack. Nested lists are always one vector.

    Only the vectors are checked, all at once, and the first bad row raises:
    the normalized outer product is Hermitian, of unit trace and positive
    semidefinite by construction.
    """
    v = np.asarray(boxcore._numbers(vec, "state vector", InvalidStateError, "fiuc"),
                   dtype=complex)
    stacked = isinstance(vec, np.ndarray) and v.ndim == 2 and len(v) > 0
    v = v if stacked else v.reshape(1, -1)
    if v.shape[1] not in (4, 8):
        raise InvalidStateError(f"expected a 4- or 8-entry state vector, got {v.shape[1]}")
    finite = np.isfinite(v).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned
        n = np.sqrt((v.conj()[:, None, :] @ v[:, :, None])[:, 0, 0].real)  # vdot's BLAS dot
    bad = ~(finite & (n > 0) & np.isfinite(n))
    if bad.any():
        first = bad.argmax()
        if not finite[first]:
            raise InvalidStateError("state vector has non-finite entries")
        raise InvalidStateError(f"state vector has norm {n[first]}")
    v = v / n[:, None]
    m = v[:, :, None] * v.conj()[:, None, :]
    m = m if stacked else m[0]
    m.setflags(write=False)
    return DensityMatrix(m)


def _vec3(v) -> np.ndarray:
    """A Bloch vector as 3 floats, or a 2-D (k, 3) numpy array as k of them;
    InvalidStateError for anything else."""
    try:
        d = np.asarray(boxcore._numbers(v, "vector", InvalidStateError), dtype=float)
        return d if isinstance(v, np.ndarray) and d.ndim == 2 and d.shape[1] == 3 else d.reshape(3)
    except (TypeError, ValueError):
        # an array's repr runs to a line per row
        got = (f"an array of shape {v.shape} and dtype {v.dtype}" if isinstance(v, np.ndarray)
               else repr(v))
        raise InvalidStateError(f"expected a vector of 3 numbers, got {got}") from None


def _unit_directions(d: np.ndarray) -> np.ndarray:
    """`d`, directions of shape (..., 3), if each has unit norm; else
    InvalidStateError naming the norm of the first, in C order, that has not."""
    norms = np.sqrt(np.einsum("...i,...i->...", d, d))
    ok = np.abs(norms - 1.0) <= EPS_VALID  # False for NaN and inf too
    if not ok.all():
        raise InvalidStateError(f"measurement direction has norm {norms[~ok][0]:.12f}")
    return d


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Two unit Bloch vectors per party, ``c`` None for bipartite settings,
    or a frame stack: a, b, c of shape (k, 2, 3). Construction makes the
    directions read-only and, for one frame, sets born_operator, the
    read-only B with Born table (rho.mat.reshape(-1) @ B).real in [x.., a..]
    order; a frame stack has None (the Born rule traces it party by party)."""

    a: np.ndarray                 # (2, 3) or (k, 2, 3)
    b: np.ndarray                 # (2, 3) or (k, 2, 3)
    c: np.ndarray | None = None   # (2, 3) or (k, 2, 3)
    born_operator: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        for d in self.dirs:
            d.setflags(write=False)
        b = None
        if not self.stacked:
            b = _born_operator(np.stack(self.dirs))
            b.setflags(write=False)
        object.__setattr__(self, "born_operator", b)

    @property
    def parties(self) -> int:
        return 2 if self.c is None else 3

    @property
    def stacked(self) -> bool:
        return self.a.ndim == 3

    @property
    def dirs(self) -> tuple[np.ndarray, ...]:
        return (self.a, self.b) if self.c is None else (self.a, self.b, self.c)


def settings(a0, a1, b0, b1, c0=None, c1=None) -> MeasurementSettings:
    """The frame of two unit directions per party, c0 and c1 a third's. A
    direction is 3 numbers, or a 2-D (k, 3) numpy array of k points, which
    makes a frame stack, the other directions serving every point."""
    vecs = (a0, a1, b0, b1) if c0 is None and c1 is None else (a0, a1, b0, b1, c0, c1)
    vecs = [_vec3(v) for v in vecs]  # names the first that is not 3 numbers
    try:
        d = np.stack(np.broadcast_arrays(*vecs), axis=-2)  # (2n, 3) or (k, 2n, 3)
    except ValueError:
        raise InvalidStateError(f"directions of {sorted({len(v) for v in vecs if v.ndim == 2})}"
                                " points do not match") from None
    d = _unit_directions(d)  # k may be 0
    return MeasurementSettings(*(d[..., i:i + 2, :] for i in range(0, len(vecs), 2)))


def bloch_operator(n: np.ndarray) -> np.ndarray:
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


_PAULI_STACK = np.stack(PAULI)
# column 4i + j is kron(S_i, S_j).T.ravel() for S = (I, sx, sy, sz), so that
# rho.ravel() @ column = Tr(rho S_i (x) S_j)
_BLOCH_OPERATOR = np.stack([np.kron(p, q).T.ravel()
                            for p, q in itertools.product((ID2,) + PAULI, repeat=2)], axis=1)
_OUTCOME_SIGN = np.array([1.0, -1.0])


def _projector_stack(dirs: np.ndarray) -> np.ndarray:
    """P[.., a] = (1 +/- n.sigma)/2 of (.., 3) directions, shape (.., 2, 2, 2),
    indexed [.., a, row, col]; n.sigma is one matrix product of all directions."""
    ops = (dirs.reshape(-1, 3) @ _PAULI_STACK.reshape(3, 4)).reshape(dirs.shape[:-1] + (2, 2))
    return 0.5 * (ID2 + _OUTCOME_SIGN[:, None, None] * ops[..., None, :, :])


# entry [r, c] of an n-party Born operator is entry _BORN_ORDER[n][r, c] of the
# party-grouped products [i_1, j_1, x_1, a_1, i_2, ..]
_BORN_ORDER = {n: np.arange(16 ** n).reshape((2,) * (4 * n)).transpose(
    [4 * k + r for r in range(4) for k in range(n)]).reshape(4 ** n, -1) for n in (2, 3)}


def _born_operator(dirs: np.ndarray) -> np.ndarray:
    """The Born operator of one frame of (n, 2, 3) unit directions, n parties
    of two each, shape (4**n, 4**n): B[(i, j), (x, a)] = prod_p
    P_p[x_p, a_p][j_p, i_p], as outer products of the parties' entries
    [i_p, j_p, x_p, a_p], then one gather."""
    q = _projector_stack(dirs).transpose(0, 4, 3, 1, 2).reshape(len(dirs), 16)
    return functools.reduce(np.multiply.outer, q).reshape(-1)[_BORN_ORDER[len(q)]]


def _born_tables(mats: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The (k, 4**n) Born tables of (k or 1, d, d) states under k frames of
    (k, n, 2, 3) directions: each party's state indices (i_p, j_p) in turn
    are traced against its projectors P_p[x, a][j, i] in one batched
    product, so that no (4**n, 4**n) operator is built."""
    k, n = dirs.shape[:2]
    p = _projector_stack(dirs).reshape(k, n, 4, 4).swapaxes(2, 3)  # [(j, i), (x, a)]
    t = mats.reshape(-1, 2 ** n, 2 ** n)
    for party in range(n):
        # axes [k, i_party, later i, j_party, later j, traced (x, a) pairs]
        r = 2 ** (n - party - 1)
        t = t.reshape(len(t), 2, r, 2, r, -1).transpose(0, 2, 4, 5, 3, 1)
        t = t.reshape(len(t), -1, 4) @ p[:, party]
    # [x_1, a_1, .., x_n, a_n] to the table's [x_1, .., x_n, a_1, .., a_n]
    order = [0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2)]
    return t.reshape((k,) + (2,) * (2 * n)).transpose(order).reshape(k, -1).real


def born_box2(rho: DensityMatrix, s: MeasurementSettings) -> BipartiteBox:
    """P(a,b|x,y) = Tr(rho Pi_a^x (x) Pi_b^y); output passes all box invariants.

    `rho` may also be a state stack and `s` a frame stack, one per point; a
    single state or frame serves every point. Then the result is a box
    stack, validated by one make_box call on the (k, 16) tables.
    """
    return boxcore.make_box(_born_table(rho, s, 2))


def born_box3(rho: DensityMatrix, s: MeasurementSettings) -> TripartiteBox:
    """Tripartite Born rule; output passes the tripartite box invariants.
    A state stack or a frame stack gives a box stack, as in born_box2."""
    return tribox.make_box3(_born_table(rho, s, 3))


def _born_inputs(rho, s, n: int):
    """A Born call's (d, d) or (k, d, d) states and its one frame or (k, n,
    2, 3) frame directions, after its checks: a DensityMatrix of n qubits, a
    MeasurementSettings of n parties, and a frame stack that is not empty
    and, with a state stack, as long as it."""
    d = 2 ** n
    if not isinstance(rho, DensityMatrix) or rho.mat.shape[-2:] != (d, d):
        raise InvalidStateError(f"born_box{n} needs {('a 4x4', 'an 8x8')[n - 2]} density matrix")
    if not isinstance(s, MeasurementSettings) or s.parties != n:
        raise InvalidStateError(f"born_box{n} needs {('two', 'three')[n - 2]}-party settings")
    k_states = len(rho.mat) if rho.mat.ndim == 3 else 1
    if s.stacked and (not len(s.a) or (rho.mat.ndim == 3 and k_states != len(s.a))):
        raise InvalidStateError(f"born_box{n} got {k_states} states for {len(s.a)} frames")
    return rho.mat, np.stack(s.dirs, axis=1) if s.stacked else s


def _born_table(rho, s, n: int) -> np.ndarray:
    """The unvalidated Born table (4**n,) of one n-qubit state under one
    n-party frame, or the (k, 4**n) tables of k points where `rho` or `s` is
    a stack: one product with a fixed frame's Born operator, else the frames
    contracted party by party (_born_tables)."""
    mats, frames = _born_inputs(rho, s, n)
    if isinstance(frames, MeasurementSettings):
        return (mats.reshape(mats.shape[:-2] + (-1,)) @ frames.born_operator).real
    return _born_tables(mats, frames)


def correlation_data(rho: DensityMatrix):
    """Bloch decomposition (r, s, C) of a two-qubit state, or of each state
    of a (k, 4, 4) stack, shapes (k, 3), (k, 3) and (k, 3, 3).

    <A_x B_y> = a_x . C b_y, <A_x> = a_x . r, <B_y> = b_y . s; the shortcut is
    validated against the full Born rule in the test suite.
    """
    if rho.dim != 4:
        raise InvalidStateError("correlation_data needs a 4x4 density matrix")
    t = (rho.mat.reshape(-1, 16) @ _BLOCH_OPERATOR).real.reshape(rho.mat.shape)
    return t[..., 1:, 0], t[..., 0, 1:], t[..., 1:, 1:]


# ---------------------------------------------------------------------------
# settings catalog

def _tilted_pair(tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The directions (z +/- sqrt(tau) x) / sqrt(1 + tau)."""
    ct = 1.0 / np.sqrt(1.0 + tau)
    st = np.sqrt(tau) / np.sqrt(1.0 + tau)
    return ct * ZHAT + st * XHAT, ct * ZHAT - st * XHAT


def _prq_settings(tau: float) -> MeasurementSettings:
    return settings(ZHAT, XHAT, *_tilted_pair(tau))


def _csb_settings(tau: float) -> MeasurementSettings:
    return settings((ZHAT + XHAT) / SQRT2, (ZHAT - XHAT) / SQRT2, *_tilted_pair(tau))


def _meb1_settings(p: float, *third) -> MeasurementSettings:
    """meb1, or with `third` party C's two directions, SMDghz."""
    return settings(XHAT, YHAT,
                    np.sqrt(p) * XHAT - np.sqrt(1 - p) * YHAT,
                    np.sqrt(1 - p) * XHAT + np.sqrt(p) * YHAT, *third)


def _bmsb_settings(theta: float) -> MeasurementSettings:
    s, c = np.sin(2 * theta), np.cos(2 * theta)
    return settings(s * XHAT + c * YHAT, c * XHAT - s * YHAT,
                    (XHAT + YHAT) / SQRT2, (XHAT - YHAT) / SQRT2)


def _bmsb1_settings(theta: float) -> MeasurementSettings:
    s, c = np.sin(2 * theta), np.cos(2 * theta)
    return settings(c * XHAT + s * ZHAT, s * XHAT - c * ZHAT,
                    (XHAT + ZHAT) / SQRT2, (-XHAT + ZHAT) / SQRT2)


def _bmw_settings(p: float) -> MeasurementSettings:
    return settings(np.sqrt(p) * XHAT + np.sqrt(1 - p) * YHAT,
                    np.sqrt(1 - p) * XHAT - np.sqrt(p) * YHAT,
                    (XHAT + YHAT) / SQRT2, (XHAT - YHAT) / SQRT2)


def _ghose_settings(theta3: float) -> MeasurementSettings:
    den = np.sqrt(1.0 + np.sin(theta3) ** 2)
    c = [(np.sin(theta3) * XHAT + (-1.0) ** (k ^ 1) * np.sin(theta3) * YHAT
          + np.cos(theta3) * ZHAT) / den for k in range(2)]
    return settings((XHAT + YHAT) / SQRT2, (XHAT - YHAT) / SQRT2,
                    (XHAT - YHAT) / SQRT2, (XHAT + YHAT) / SQRT2,
                    c[0], c[1])


def _class99_settings(theta: float) -> MeasurementSettings:
    return settings(ZHAT, XHAT, *_tilted_pair(np.sin(2 * theta) ** 2), ZHAT, XHAT)


_FIXED_SETTINGS = {
    # orthogonal pair maximizing Bell discord (also the Tsirelson frame M_N)
    "BSb": (XHAT, YHAT, (XHAT - YHAT) / SQRT2, (XHAT + YHAT) / SQRT2),
    # matched x/y pair maximizing Mermin discord
    "MSb": (XHAT, YHAT, XHAT, YHAT),
    "M_C": (XHAT, YHAT, -YHAT, XHAT),
    "MSb1": (XHAT, -YHAT, YHAT, XHAT),
    "ZSb1": (ZHAT, XHAT, (ZHAT + XHAT) / SQRT2, (ZHAT - XHAT) / SQRT2),
    "CSB2": ((ZHAT + XHAT) / SQRT2, (ZHAT - XHAT) / SQRT2,
             (ZHAT - XHAT) / SQRT2, (ZHAT + XHAT) / SQRT2),
    # tripartite frames: Svetlichny-optimal and Mermin-optimal, xy and xz planes
    "SDxy": (XHAT, YHAT, (XHAT - YHAT) / SQRT2, (XHAT + YHAT) / SQRT2, XHAT, YHAT),
    "SDxz": (ZHAT, XHAT, (ZHAT + XHAT) / SQRT2, (ZHAT - XHAT) / SQRT2, ZHAT, XHAT),
    "MDxy": (XHAT, YHAT, XHAT, YHAT, XHAT, YHAT),
    "MDxz": (ZHAT, XHAT, ZHAT, XHAT, ZHAT, XHAT),
}
_FIXED_SETTINGS["M_N"] = _FIXED_SETTINGS["BSb"]


@functools.cache
def _fixed_settings(name: str) -> MeasurementSettings:
    """A fixed catalog frame, built once: MeasurementSettings is frozen and
    its arrays read-only, so every caller can share it."""
    return settings(*_FIXED_SETTINGS[name])


_PARAM_SETTINGS = {
    "PRQ": _prq_settings,
    "CSB": _csb_settings,
    "meb1": _meb1_settings,
    "0BMSb": _bmsb_settings,
    "0BMSb1": _bmsb1_settings,
    "BMW": _bmw_settings,
    "Ghose": _ghose_settings,
    "class99": _class99_settings,
    "SMDghz": lambda p: _meb1_settings(p, XHAT, YHAT),
}


def settings_catalog(name: str, param: float | np.ndarray | None = None) -> MeasurementSettings:
    """Named measurement frames; parametric entries accept ``name`` + ``param``
    or the combined form ``"name(value)"``, and a 1-D array of k parameters
    gives the frame stack of its k points. A parameter that is not a number
    raises InvalidStateError, and one given to a fixed frame UnknownNameError."""
    m = re.fullmatch(r"([^()]+)\(([^()]+)\)", name.strip())
    if m:
        name, param = m.group(1), m.group(2)
    try:
        if param is not None:  # a (k, 1) column makes each direction (k, 3)
            p = np.asarray(float(param) if m else
                           boxcore._numbers(param, "settings parameter", InvalidStateError),
                           dtype=float)
            param = p[:, None] if p.ndim == 1 else float(p)
    except (TypeError, ValueError):
        raise InvalidStateError(f"settings parameter {param!r} is not a number") from None
    if name in _FIXED_SETTINGS:
        if param is not None:
            raise UnknownNameError(f"settings {name!r} takes no parameter")
        return _fixed_settings(name)
    if name in _PARAM_SETTINGS:
        if param is None:
            raise UnknownNameError(f"settings {name!r} needs a parameter")
        # a parameter out of range gives NaN or inf entries, which the norm
        # check of settings names, not a numpy warning
        with np.errstate(divide="ignore", invalid="ignore"):
            return _PARAM_SETTINGS[name](param)
    raise UnknownNameError(f"unknown settings name {name!r}")


# ---------------------------------------------------------------------------
# state catalog
#
# The zero-argument states are cached: DensityMatrix is frozen and its matrix
# read-only, so every caller can share one validated instance.

@functools.cache
def bell_psi_plus() -> DensityMatrix:
    return pure_dm([1, 0, 0, 1])


@functools.cache
def singlet() -> DensityMatrix:
    return pure_dm([0, 1, -1, 0])


# A family with parameters is array-first: (k,) arrays, the other parameters
# scalars, give the stack of k states in one pure_dm or density_matrix call.

def _pure_family(d: int, amplitudes: dict) -> DensityMatrix:
    """pure_dm of the d-entry vector, zero but for {index: amplitude}, or of
    the (k, d) vector stack where amplitudes are (k,) arrays."""
    values = np.broadcast_arrays(*(boxcore._numbers(a, "amplitude", InvalidStateError, "fiuc")
                                   for a in amplitudes.values()))
    v = np.zeros(values[0].shape + (d,), dtype=complex)
    for i, a in zip(amplitudes, values):
        v[..., i] = a
    return pure_dm(v)


def _mixture(p, pure: np.ndarray, noise: np.ndarray) -> DensityMatrix:
    """density_matrix of p pure + (1 - p) noise, a stack for a (k,) array p."""
    p = np.asarray(boxcore._numbers(p, "p", InvalidStateError), dtype=float)[..., None, None]
    return density_matrix(p * pure + (1 - p) * noise)


def schmidt_state(theta: float) -> DensityMatrix:
    """cos(theta)|00> + sin(theta)|11>, theta in [0, pi/4]."""
    theta = boxcore._numbers(theta, "theta", InvalidStateError)
    return _pure_family(4, {0: np.cos(theta), 3: np.sin(theta)})


def werner2_state(p: float) -> DensityMatrix:
    return _mixture(p, _PSI_PLUS, _NOISE2)


def bell_cc_state(p: float) -> DensityMatrix:
    """Bell state mixed with the classically correlated diag(|00>,|11>) noise."""
    return _mixture(p, _PSI_PLUS, _CC)


def bell_diagonal_state(weights) -> DensityMatrix:
    """Mixture of the eight phased maximally entangled states; a (k, 8)
    array of weights gives a stack.

    Weights w[0..3] go to (|00> + (-1)^j i^k |11>)/sqrt2 and w[4..7] to
    (|01> + (-1)^j i^k |10>)/sqrt2, ordered (j,k) = 00,01,10,11.
    """
    w = np.asarray(boxcore._numbers(weights, "weights", InvalidStateError), dtype=float)
    if (w.shape[-1:] != (8,) or w.ndim > 2 or (w < -EPS_VALID).any()
            or (np.abs(w.sum(axis=-1) - 1.0) > EPS_VALID).any()):
        raise InvalidStateError("need 8 nonnegative weights summing to 1")
    m = np.zeros(w.shape[:-1] + (4, 4), dtype=complex)
    states = itertools.product(((0, 3), (1, 2)), range(2), range(2))
    for wi, (pair, j, k) in zip(np.moveaxis(w, -1, 0), states):
        psi = np.zeros(4, dtype=complex)
        psi[list(pair)] = 1, (-1.0) ** j * (1j) ** k
        psi = psi / SQRT2
        m += wi[..., None, None] * np.outer(psi, psi.conj())
    return density_matrix(m)


def _classical_quantum(p0, r_hat, s0, s1, quantum_first: bool) -> DensityMatrix:
    """p0 P+ (x) chi0 + (1 - p0) P- (x) chi1 for the projectors P+/- along r_hat
    and the Bloch states chi0/chi1 of s0/s1, factors swapped if `quantum_first`.

    Array-first: (k,) weights and 2-D (k, 3) vector arrays give a (k, 4, 4)
    stack, a scalar weight or a 3-vector serving every point. A p0 that is
    not finite raises InvalidStateError before any arithmetic.
    """
    p0 = np.asarray(boxcore._numbers(p0, "p0", InvalidStateError), dtype=float)
    if not np.isfinite(p0).all():
        raise InvalidStateError(f"p0 is not finite: {p0[~np.isfinite(p0)][0]}")
    r_hat, s0, s1 = (_vec3(v) for v in (r_hat, s0, s1))
    try:
        shape = np.broadcast_shapes(p0.shape, r_hat.shape[:-1], s0.shape[:-1], s1.shape[:-1])
    except ValueError:
        counts = sorted({len(v) for v in (p0, r_hat[..., 0], s0[..., 0], s1[..., 0]) if v.ndim})
        raise InvalidStateError(f"p0 and directions of {counts} points do not match") from None
    p0 = np.broadcast_to(p0, shape)[..., None, None]
    r_hat = _unit_directions(np.broadcast_to(r_hat, shape + (3,)))
    s = np.broadcast_to(np.stack(np.broadcast_arrays(s0, s1), axis=-2), shape + (2, 3))
    proj = _projector_stack(r_hat)             # (.., a, i, j): P+, P-
    chi = _projector_stack(s)[..., 0, :, :]    # (.., a, i, j): chi0, chi1
    u, v = (chi, proj) if quantum_first else (proj, chi)
    kron = (u[..., :, None, :, None] * v[..., None, :, None, :]).reshape(u.shape[:-2] + (4, 4))
    m = p0 * kron[..., 0, :, :] + (1 - p0) * kron[..., 1, :, :]
    return density_matrix(m)


def cq_state(p0: float, r_hat, s0, s1) -> DensityMatrix:
    """Classical-quantum state: orthogonal projectors along r_hat on A, arbitrary
    Bloch states s0/s1 on B; arrays of k weights and (k, 3) vectors give a stack."""
    return _classical_quantum(p0, r_hat, s0, s1, False)


def qc_state(p0: float, r_hat, s0, s1) -> DensityMatrix:
    """Quantum-classical mirror of :func:`cq_state`, stacks included."""
    return _classical_quantum(p0, r_hat, s0, s1, True)


@functools.cache
def ghz_state() -> DensityMatrix:
    return pure_dm([1, 0, 0, 0, 0, 0, 0, 1])


def gghz_state(theta: float) -> DensityMatrix:
    """cos(theta)|000> + sin(theta)|111>."""
    theta = boxcore._numbers(theta, "theta", InvalidStateError)
    return _pure_family(8, {0: np.cos(theta), 7: np.sin(theta)})


def ghz_class_state(theta: float, theta3: float) -> DensityMatrix:
    """cos(theta)|000> + sin(theta)|11>(cos(theta3)|0> + sin(theta3)|1>)."""
    theta = boxcore._numbers(theta, "theta", InvalidStateError)
    theta3 = boxcore._numbers(theta3, "theta3", InvalidStateError)
    return _pure_family(8, {0: np.cos(theta), 6: np.sin(theta) * np.cos(theta3),
                            7: np.sin(theta) * np.sin(theta3)})


def w_class_state(alpha: float, beta: float, gamma: float) -> DensityMatrix:
    """alpha|100> + beta|010> + gamma|001> (amplitudes normalized)."""
    return _pure_family(8, {4: alpha, 2: beta, 1: gamma})


@functools.cache
def w_state() -> DensityMatrix:
    return w_class_state(1.0, 1.0, 1.0)


# the read-only matrices that the one-parameter mixtures combine
_PSI_PLUS, _GHZ, _W = bell_psi_plus().mat, ghz_state().mat, w_state().mat
_NOISE2, _NOISE3, _CC = (np.diag(d) for d in ([0.25] * 4, [0.125] * 8, [0.5, 0, 0, 0.5]))
for _m in (_NOISE2, _NOISE3, _CC):
    _m.setflags(write=False)


def werner3_state(p: float) -> DensityMatrix:
    return _mixture(p, _GHZ, _NOISE3)


def ghz_w_mix_state(p: float) -> DensityMatrix:
    return _mixture(p, _GHZ, _W)


def bisep_w_state() -> DensityMatrix:
    """Even mixture of the three two-excitation-free biseparable pairs."""
    vecs = [np.zeros(8) for _ in range(3)]
    vecs[0][4] = vecs[0][2] = 1 / SQRT2  # (|100> + |010>)/sqrt2
    vecs[1][4] = vecs[1][1] = 1 / SQRT2  # (|100> + |001>)/sqrt2
    vecs[2][2] = vecs[2][1] = 1 / SQRT2  # (|010> + |001>)/sqrt2
    m = sum(np.outer(v, v) / 3.0 for v in vecs).astype(complex)
    return density_matrix(m)


def hardy_state(b: complex, c: complex, d: complex) -> DensityMatrix:
    return _pure_family(4, {1: b, 2: c, 3: d})


_FAMILIES = {
    "Schmidt": (schmidt_state, ("theta",)),
    "Werner2": (werner2_state, ("p",)),
    "BellCC": (bell_cc_state, ("p",)),
    "BellDiagonal": (bell_diagonal_state, ("weights",)),
    "BellPsiPlus": (bell_psi_plus, ()),
    "Singlet": (singlet, ()),
    "GHZ": (ghz_state, ()),
    "GGHZ": (gghz_state, ("theta",)),
    "GhzClass": (ghz_class_state, ("theta", "theta3")),
    "WClass": (w_class_state, ("alpha", "beta", "gamma")),
    "W": (w_state, ()),
    "Werner3": (werner3_state, ("p",)),
    "GhzWMix": (ghz_w_mix_state, ("p",)),
    "BisepW": (bisep_w_state, ()),
    "Hardy": (hardy_state, ("b", "c", "d")),
    "CQ": (cq_state, ("p0", "r_hat", "s0", "s1")),
    "QC": (qc_state, ("p0", "r_hat", "s0", "s1")),
}


def family_parameter_names(name: str) -> tuple[str, ...]:
    """The keyword parameters that state_family takes for a family."""
    if name not in _FAMILIES:
        raise UnknownNameError(f"unknown state family {name!r}")
    return _FAMILIES[name][1]


def state_family(name: str, **params) -> DensityMatrix:
    """Build a catalog state by family name and keyword parameters; a missing
    parameter, or one the family does not take, raises UnknownNameError.
    (k,) array parameters give a stack of k states (BellDiagonal's weights
    then (k, 8), CQ's and QC's vectors (k, 3)), as the builders do."""
    argnames = family_parameter_names(name)
    builder = _FAMILIES[name][0]
    missing = [a for a in argnames if a not in params]
    if missing:
        raise UnknownNameError(f"family {name!r} needs parameters {missing}")
    extra = sorted(set(params) - set(argnames))
    if extra:
        raise UnknownNameError(f"family {name!r} takes no parameters {extra}")
    return builder(**{a: params[a] for a in argnames})


def entanglement_params(name: str, **params) -> dict[str, float]:
    """Closed-form entanglement parameters for the catalog families."""
    if name == "Schmidt":
        th = params["theta"]
        return {"tangle": np.sin(2 * th) ** 2, "concurrence": abs(np.sin(2 * th))}
    if name == "Werner2":
        p = params["p"]
        return {"concurrence": max(0.0, (3 * p - 1) / 2)}
    if name == "GGHZ":
        th = params["theta"]
        return {"three_tangle": np.sin(2 * th) ** 2, "c12": 0.0}
    if name == "GhzClass":
        th, t3 = params["theta"], params["theta3"]
        return {
            "three_tangle": (np.sin(2 * th) * np.sin(t3)) ** 2,
            "c12": abs(np.sin(2 * th) * np.cos(t3)),
        }
    if name in ("WClass", "W"):
        if name == "W":
            al = be = ga = 1 / np.sqrt(3)
        else:
            v = np.array([params["alpha"], params["beta"], params["gamma"]], float)
            al, be, ga = v / np.linalg.norm(v)
        c12, c13, c23 = 2 * al * be, 2 * al * ga, 2 * be * ga
        return {"c12": c12, "c13": c13, "c23": c23,
                "ca_min": min(c12, c13, c23)}
    raise UnknownNameError(f"no closed-form entanglement parameters for {name!r}")


# ---------------------------------------------------------------------------
# Hardy construction

def hardy_probability(b: complex, c: complex, d: complex) -> float:
    """Nonlocality witness probability of the zero-|00> two-qubit family.

    Returns |bcd|^2 / ((|b|^2+|d|^2)(|c|^2+|d|^2)) for the state-dependent
    measurements that zero out the three excluded joint outcomes; degenerate
    inputs (product or maximally entangled, i.e. b*c*d = 0) give 0.
    """
    amps = np.array(boxcore._numbers([b, c, d], "amplitudes", InvalidStateError, "fiuc"),
                    dtype=complex)
    if not np.isfinite(amps).all():
        raise InvalidStateError(f"amplitudes {b}, {c}, {d} are not all finite")
    # divided by the largest modulus before the norm, so that tiny amplitudes
    # do not underflow; real and imaginary parts apart, which keeps it exact
    # where complex division would not be
    scale = np.abs(amps).max()
    if scale == 0:
        raise InvalidStateError("all amplitudes are zero")
    amps = (amps.view(float) / scale).view(complex)
    b, c, d = amps / np.linalg.norm(amps)
    if abs(b * c * d) < HARDY_DEGENERATE:
        return 0.0
    nb2, nc2, nd2 = abs(b) ** 2, abs(c) ** 2, abs(d) ** 2
    value = (nb2 * nc2 * nd2) / ((nb2 + nd2) * (nc2 + nd2))

    def direction(first: complex, second: complex) -> np.ndarray:
        plus = np.array([np.conj(second), -np.conj(first)], dtype=complex)
        plus /= np.linalg.norm(plus)
        op = 2.0 * np.outer(plus, plus.conj()) - ID2
        return np.array([np.trace(op @ p).real / 2.0 for p in PAULI])

    box = born_box2(
        hardy_state(b, c, d),
        settings(ZHAT, direction(b, d), ZHAT, direction(c, d)),
    )
    checks = (box.prob(0, 0, 0, 0), box.prob(1, 0, 0, 1), box.prob(0, 1, 1, 0))
    if max(abs(v) for v in checks) > TOL_CLOSED:
        raise InvalidStateError(f"constraint outcomes not zero: {checks}")
    if abs(box.prob(1, 1, 0, 0) - value) > TOL_CLOSED:
        raise InvalidStateError("closed form disagrees with the constructed box")
    return float(value)


# ---------------------------------------------------------------------------
# random sampling for property tests

def random_pure_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_dm(v)


def random_two_qubit_state(rng: np.random.Generator) -> DensityMatrix:
    """Mixed state from a random pure two-ququart purification."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return density_matrix(m / np.trace(m).real)


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_bloch_vector(rng: np.random.Generator) -> np.ndarray:
    return random_unit_vector(rng) * rng.uniform() ** (1.0 / 3.0)


def random_settings2(rng: np.random.Generator) -> MeasurementSettings:
    return settings(*(random_unit_vector(rng) for _ in range(4)))


def random_settings3(rng: np.random.Generator) -> MeasurementSettings:
    return settings(*(random_unit_vector(rng) for _ in range(6)))


def random_cq_state(rng: np.random.Generator) -> DensityMatrix:
    return cq_state(rng.uniform(), random_unit_vector(rng),
                    random_bloch_vector(rng), random_bloch_vector(rng))


def random_qc_state(rng: np.random.Generator) -> DensityMatrix:
    return qc_state(rng.uniform(), random_unit_vector(rng),
                    random_bloch_vector(rng), random_bloch_vector(rng))
