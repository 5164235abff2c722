"""Density matrices, projective measurement settings and Born-rule box generation.

Measurement convention: a two-outcome spin measurement along unit vector n has
projectors (1 +/- n.sigma)/2; outcome bit 0 maps to the +1 eigenvalue. Basis
ordering is big-endian (|ab> has index 2a+b, |abc> index 4a+2b+c).
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import boxcore, tribox
from ._tol import EIG_TOL, EPS_VALID, HARDY_DEGENERATE, TOL_CLOSED
from .boxcore import BipartiteBox
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


class InvalidStateError(ValueError):
    pass


class UnknownNameError(KeyError):
    __str__ = Exception.__str__  # the message, without KeyError's quotes


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix of one 4x4 (two-qubit) or 8x8 (three-qubit)
    system, or a validated (k, d, d) stack of them, which density_matrix
    makes of a 3-D numpy array; only correlation_data reads a stack."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]


def density_matrix(mat) -> DensityMatrix:
    """A read-only copy of a 4x4 or 8x8 matrix, checked in order: finite,
    Hermitian, unit trace, lowest eigenvalue >= -EIG_TOL. A 3-D (k, d, d)
    numpy array is a stack, checked at once and matrix by matrix only where
    that fails; nested lists are always one matrix."""
    m = np.array(mat, dtype=complex)
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
    """|v><v| / <v|v> of a 4- or 8-entry state vector.

    Only the vector is checked: the normalized outer product is Hermitian,
    of unit trace and positive semidefinite by construction.
    """
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.size not in (4, 8):
        raise InvalidStateError(f"expected a 4- or 8-entry state vector, got {v.size}")
    if not np.isfinite(v).all():
        raise InvalidStateError("state vector has non-finite entries")
    n = np.sqrt(np.vdot(v, v).real)
    if n == 0 or not np.isfinite(n):
        raise InvalidStateError(f"state vector has norm {n}")
    v = v / n
    m = np.outer(v, v.conj())
    m.setflags(write=False)
    return DensityMatrix(m)


def _vec3(v) -> np.ndarray:
    """A Bloch vector as 3 floats; InvalidStateError for anything else."""
    try:
        return np.asarray(v, dtype=float).reshape(3)
    except (TypeError, ValueError):
        raise InvalidStateError(f"expected a vector of 3 numbers, got {v!r}") from None


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
    """Two unit Bloch vectors per party; ``c`` is None for bipartite settings.
    Construction makes the directions read-only and sets born_operator, the
    read-only B with Born table (rho.mat.reshape(-1) @ B).real in [x.., a..]
    order (_born_operators of this one frame)."""

    a: np.ndarray                 # (2, 3)
    b: np.ndarray                 # (2, 3)
    c: np.ndarray | None = None   # (2, 3)
    born_operator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for d in self.dirs:
            d.setflags(write=False)
        b = _born_operators(np.stack(self.dirs))
        b.setflags(write=False)
        object.__setattr__(self, "born_operator", b)

    @property
    def parties(self) -> int:
        return 2 if self.c is None else 3

    @property
    def dirs(self) -> tuple[np.ndarray, ...]:
        return (self.a, self.b) if self.c is None else (self.a, self.b, self.c)


def settings(a0, a1, b0, b1, c0=None, c1=None) -> MeasurementSettings:
    vecs = (a0, a1, b0, b1) if c0 is None and c1 is None else (a0, a1, b0, b1, c0, c1)
    try:
        d = np.array(vecs, dtype=float).reshape(len(vecs) // 2, 2, 3)
    except (TypeError, ValueError):  # _vec3 names the first that is not 3 numbers
        d = np.reshape([_vec3(v) for v in vecs], (-1, 2, 3))
    return MeasurementSettings(*_unit_directions(d))


def bloch_operator(n: np.ndarray) -> np.ndarray:
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


_PAULI_STACK = np.stack(PAULI)
# column 4i + j is kron(S_i, S_j).T.ravel() for S = (I, sx, sy, sz), so that
# rho.ravel() @ column = Tr(rho S_i (x) S_j)
_BLOCH_OPERATOR = np.stack([np.kron(p, q).T.ravel()
                            for p, q in itertools.product((ID2,) + PAULI, repeat=2)], axis=1)
_OUTCOME_SIGN = np.array([1.0, -1.0])


def _projector_stack(dirs: np.ndarray) -> np.ndarray:
    """P[.., x, a] = (1 +/- n_x.sigma)/2 of (.., 2, 3) directions, shape (.., 2, 2, 2, 2)."""
    ops = (dirs @ _PAULI_STACK.reshape(3, 4)).reshape(dirs.shape[:-1] + (2, 2))
    return 0.5 * (ID2 + _OUTCOME_SIGN[:, None, None] * ops[..., None, :, :])


# entry [r, c] of an n-party Born operator is entry _BORN_ORDER[n][r, c] of the
# party-grouped products [i_1, j_1, x_1, a_1, i_2, ..]
_BORN_ORDER = {n: np.arange(16 ** n).reshape((2,) * (4 * n)).transpose(
    [4 * k + r for r in range(4) for k in range(n)]).reshape(4 ** n, -1) for n in (2, 3)}


def _born_operators(dirs: np.ndarray) -> np.ndarray:
    """The Born operators of frames of (.., n, 2, 3) unit directions, n
    parties of two each, shape (4**n, 4**n, ..): the frames' axes go last, so
    one (n, 2, 3) frame gives its B itself and a stack's gather copies whole
    rows. B[(i, j), (x, a)] = prod_p P_p[x_p, a_p][j_p, i_p], as outer
    products of the parties' entries [i_p, j_p, x_p, a_p], then one gather."""
    p = _projector_stack(dirs)  # (.., n, x, a, j, i)
    lead = p.ndim - 5
    q = p.transpose(lead, lead + 4, lead + 3, lead + 1, lead + 2, *range(lead))
    q = q.reshape((len(q), 16) + q.shape[5:])
    flat = functools.reduce(lambda u, v: (u[:, None] * v).reshape((-1,) + v.shape[1:]), q)
    return flat[_BORN_ORDER[len(q)]]


def born_box2(rho: DensityMatrix | Sequence[DensityMatrix],
              s: MeasurementSettings | Sequence[MeasurementSettings]) -> BipartiteBox:
    """P(a,b|x,y) = Tr(rho Pi_a^x (x) Pi_b^y); output passes all box invariants.

    `rho` may also be a sequence of states and `s` a sequence of frames, one
    per point; a single state or frame applies to every point. Then the
    result is a box stack, validated by one make_box call on the (k, 16)
    tables. A stacked DensityMatrix is refused.
    """
    return boxcore.make_box(_born_table(rho, s, 2))


def born_box3(rho: DensityMatrix | Sequence[DensityMatrix],
              s: MeasurementSettings | Sequence[MeasurementSettings]) -> TripartiteBox:
    """Tripartite Born rule; output passes the tripartite box invariants.
    Sequences of states or frames give a box stack, as in born_box2."""
    return tribox.make_box3(_born_table(rho, s, 3))


def _born_table(rho, s, n: int) -> np.ndarray:
    """The unvalidated Born table (4**n,) of one n-qubit state under one
    n-party frame, or the (k, 4**n) tables of k points where `rho` or `s` is
    a sequence: one product for a fixed frame, else one per point, so that
    the frames' Born operators are never stacked."""
    one_state, one_frame = isinstance(rho, DensityMatrix), isinstance(s, MeasurementSettings)
    states = [rho] if one_state else list(rho)
    frames = [s] if one_frame else list(s)
    for state in states:
        if state.mat.shape != (2 ** n,) * 2:
            raise InvalidStateError(
                f"born_box{n} needs {('a 4x4', 'an 8x8')[n - 2]} density matrix")
    for frame in frames:
        if frame.parties != n:
            raise InvalidStateError(f"born_box{n} needs {('two', 'three')[n - 2]}-party settings")
    if one_state and one_frame:
        return (rho.mat.reshape(-1) @ s.born_operator).real
    k = len(frames) if one_state else len(states)
    if not k or not (one_state or one_frame or len(frames) == k):
        raise InvalidStateError(f"born_box{n} got {len(states)} states for {len(frames)} frames")
    if one_frame:
        return (np.stack([state.mat.reshape(-1) for state in states]) @ s.born_operator).real
    return np.stack([(state.mat.reshape(-1) @ frame.born_operator).real
                     for state, frame in zip(states * k if one_state else states, frames)])


def _born_tables2(rho: DensityMatrix, dirs: np.ndarray) -> np.ndarray:
    """The (k, 16) Born tables of a stack of k two-qubit states, each under
    its own frame of (k, 2, 2, 3) directions, checked as settings and
    make_box check one: directions of unit norm (_unit_directions) and the
    box invariants (make_box of the stack)."""
    _unit_directions(dirs)
    tables = np.einsum("kr,rck->kc", rho.mat.reshape(-1, 16), _born_operators(dirs)).real
    return boxcore.make_box(tables).flat


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
    "BSb": lambda: settings(XHAT, YHAT, (XHAT - YHAT) / SQRT2, (XHAT + YHAT) / SQRT2),
    # matched x/y pair maximizing Mermin discord
    "MSb": lambda: settings(XHAT, YHAT, XHAT, YHAT),
    "M_C": lambda: settings(XHAT, YHAT, -YHAT, XHAT),
    "MSb1": lambda: settings(XHAT, -YHAT, YHAT, XHAT),
    "ZSb1": lambda: settings(ZHAT, XHAT, (ZHAT + XHAT) / SQRT2, (ZHAT - XHAT) / SQRT2),
    "CSB2": lambda: settings((ZHAT + XHAT) / SQRT2, (ZHAT - XHAT) / SQRT2,
                             (ZHAT - XHAT) / SQRT2, (ZHAT + XHAT) / SQRT2),
    # tripartite frames: Svetlichny-optimal and Mermin-optimal, xy and xz planes
    "SDxy": lambda: settings(XHAT, YHAT,
                             (XHAT - YHAT) / SQRT2, (XHAT + YHAT) / SQRT2,
                             XHAT, YHAT),
    "SDxz": lambda: settings(ZHAT, XHAT,
                             (ZHAT + XHAT) / SQRT2, (ZHAT - XHAT) / SQRT2,
                             ZHAT, XHAT),
    "MDxy": lambda: settings(XHAT, YHAT, XHAT, YHAT, XHAT, YHAT),
    "MDxz": lambda: settings(ZHAT, XHAT, ZHAT, XHAT, ZHAT, XHAT),
}
_FIXED_SETTINGS["M_N"] = _FIXED_SETTINGS["BSb"]

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


def settings_names() -> list[str]:
    return sorted(_FIXED_SETTINGS) + sorted(_PARAM_SETTINGS)


def settings_catalog(name: str, param: float | None = None) -> MeasurementSettings:
    """Named measurement frames; parametric entries accept ``name`` + ``param``
    or the combined form ``"name(value)"``. A parameter that is not a number
    raises InvalidStateError, and one given to a fixed frame UnknownNameError."""
    m = re.fullmatch(r"([^()]+)\(([^()]+)\)", name.strip())
    if m:
        name, param = m.group(1), m.group(2)
    try:
        param = None if param is None else float(param)
    except (TypeError, ValueError):
        raise InvalidStateError(f"settings parameter {param!r} is not a number") from None
    if name in _FIXED_SETTINGS:
        if param is not None:
            raise UnknownNameError(f"settings {name!r} takes no parameter")
        return _FIXED_SETTINGS[name]()
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


def schmidt_state(theta: float) -> DensityMatrix:
    """cos(theta)|00> + sin(theta)|11>, theta in [0, pi/4]."""
    return pure_dm([np.cos(theta), 0, 0, np.sin(theta)])


def werner2_state(p: float) -> DensityMatrix:
    return density_matrix(p * _PSI_PLUS + (1 - p) * _NOISE2)


def bell_cc_state(p: float) -> DensityMatrix:
    """Bell state mixed with the classically correlated diag(|00>,|11>) noise."""
    return density_matrix(p * _PSI_PLUS + (1 - p) * _CC)


def bell_diagonal_state(weights) -> DensityMatrix:
    """Mixture of the eight phased maximally entangled states.

    Weights w[0..3] go to (|00> + (-1)^j i^k |11>)/sqrt2 and w[4..7] to
    (|01> + (-1)^j i^k |10>)/sqrt2, ordered (j,k) = 00,01,10,11.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (8,) or (w < -EPS_VALID).any() or abs(w.sum() - 1.0) > EPS_VALID:
        raise InvalidStateError("need 8 nonnegative weights summing to 1")
    m = np.zeros((4, 4), dtype=complex)
    states = itertools.product(((0, 3), (1, 2)), range(2), range(2))
    for wi, (pair, j, k) in zip(w, states):
        psi = np.zeros(4, dtype=complex)
        psi[list(pair)] = 1, (-1.0) ** j * (1j) ** k
        psi = psi / SQRT2
        m += wi * np.outer(psi, psi.conj())
    return density_matrix(m)


def _classical_quantum(p0, r_hat, s0, s1, quantum_first: bool) -> DensityMatrix:
    """p0 P+ (x) chi0 + (1 - p0) P- (x) chi1 for the projectors P+/- along r_hat
    and the Bloch states chi0/chi1 of s0/s1, factors swapped if `quantum_first`.

    Array-first: k weights and (k, 3) vectors give a (k, 4, 4) stack. A p0
    that is not finite raises InvalidStateError before any arithmetic.
    """
    one = getattr(p0, "ndim", 0) == 0  # np.ndim(p0) takes about 2 us of a 45 us state
    p0 = np.asarray(p0, dtype=float)[..., None, None]
    if not np.isfinite(p0).all():
        raise InvalidStateError(f"p0 is not finite: {p0[~np.isfinite(p0)][0]}")
    r_hat = _unit_directions(_vec3(r_hat) if one else r_hat)
    s = np.array([_vec3(s0), _vec3(s1)]) if one else np.stack([s0, s1], axis=1)
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
    v = np.zeros(8)
    v[0], v[7] = np.cos(theta), np.sin(theta)
    return pure_dm(v)


def ghz_class_state(theta: float, theta3: float) -> DensityMatrix:
    """cos(theta)|000> + sin(theta)|11>(cos(theta3)|0> + sin(theta3)|1>)."""
    v = np.zeros(8)
    v[0] = np.cos(theta)
    v[6] = np.sin(theta) * np.cos(theta3)
    v[7] = np.sin(theta) * np.sin(theta3)
    return pure_dm(v)


def w_class_state(alpha: float, beta: float, gamma: float) -> DensityMatrix:
    """alpha|100> + beta|010> + gamma|001> (amplitudes normalized)."""
    v = np.zeros(8)
    v[4], v[2], v[1] = alpha, beta, gamma
    return pure_dm(v)


@functools.cache
def w_state() -> DensityMatrix:
    return w_class_state(1.0, 1.0, 1.0)


# the read-only matrices that the one-parameter mixtures combine
_PSI_PLUS, _GHZ, _W = bell_psi_plus().mat, ghz_state().mat, w_state().mat
_NOISE2, _NOISE3, _CC = (np.diag(d) for d in ([0.25] * 4, [0.125] * 8, [0.5, 0, 0, 0.5]))
for _m in (_NOISE2, _NOISE3, _CC):
    _m.setflags(write=False)


def werner3_state(p: float) -> DensityMatrix:
    return density_matrix(p * _GHZ + (1 - p) * _NOISE3)


def ghz_w_mix_state(p: float) -> DensityMatrix:
    return density_matrix(p * _GHZ + (1 - p) * _W)


def bisep_w_state() -> DensityMatrix:
    """Even mixture of the three two-excitation-free biseparable pairs."""
    vecs = [np.zeros(8) for _ in range(3)]
    vecs[0][4] = vecs[0][2] = 1 / SQRT2  # (|100> + |010>)/sqrt2
    vecs[1][4] = vecs[1][1] = 1 / SQRT2  # (|100> + |001>)/sqrt2
    vecs[2][2] = vecs[2][1] = 1 / SQRT2  # (|010> + |001>)/sqrt2
    m = sum(np.outer(v, v) / 3.0 for v in vecs).astype(complex)
    return density_matrix(m)


def hardy_state(b: complex, c: complex, d: complex) -> DensityMatrix:
    return pure_dm([0, b, c, d])


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
    parameter, or one the family does not take, raises UnknownNameError."""
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
    amps = np.array([b, c, d], dtype=complex)
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
# JSON interchange

def state_to_json(rho: DensityMatrix) -> str:
    if rho.mat.ndim != 2:
        raise InvalidStateError(f"state_to_json needs one state, got a stack {rho.mat.shape}")
    return json.dumps({
        "dim": rho.dim,
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    })


def state_from_json(text: str) -> DensityMatrix:
    """The state of a JSON object with 'dim', 're' and 'im'; InvalidStateError if invalid."""
    data = json.loads(text)
    if not isinstance(data, dict) or "re" not in data or "im" not in data:
        raise InvalidStateError("a state file holds one JSON object with 'dim', 're' and 'im'")
    try:
        m = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"'re' and 'im' are not matrices of numbers: {exc}") from None
    if m.ndim != 2:  # a state file holds one state, not a stack
        raise InvalidStateError(f"expected a 4x4 or 8x8 matrix, got {m.shape}")
    rho = density_matrix(m)
    if data.get("dim") != rho.dim:
        raise InvalidStateError(f"dim field {data.get('dim')} != matrix size {rho.dim}")
    return rho


def settings_to_json(s: MeasurementSettings) -> str:
    vecs = [v.tolist() for v in s.a] + [v.tolist() for v in s.b]
    if s.c is not None:
        vecs += [v.tolist() for v in s.c]
    return json.dumps(vecs)


def settings_from_json(text: str) -> MeasurementSettings:
    vecs = json.loads(text)
    # six entries with null C directions would read as a bipartite frame
    if not isinstance(vecs, list) or len(vecs) not in (4, 6) or None in vecs:
        raise InvalidStateError(f"expected a list of 4 or 6 unit vectors, got {vecs!r}")
    return settings(*vecs)


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
