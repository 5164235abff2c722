"""Density matrices, projective measurement settings and Born-rule box generation.

Measurement convention: a two-outcome spin measurement along unit vector n has
projectors (1 +/- n.sigma)/2; outcome bit 0 maps to the +1 eigenvalue. Basis
ordering is big-endian (|ab> has index 2a+b, |abc> index 4a+2b+c).
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass

import numpy as np

from . import boxcore, tribox
from ._tol import EIG_TOL, EPS_VALID
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
    pass


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix of one 4x4 (two-qubit) or 8x8 (three-qubit) system."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def density_matrix(mat) -> DensityMatrix:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (4, 8):
        raise InvalidStateError(f"expected a 4x4 or 8x8 matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidStateError("matrix has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > EPS_VALID:
        raise InvalidStateError("matrix is not Hermitian")
    if abs(np.trace(m).real - 1.0) > EPS_VALID or abs(np.trace(m).imag) > EPS_VALID:
        raise InvalidStateError(f"trace is {np.trace(m):.12f}, expected 1")
    evals = np.linalg.eigvalsh(m)
    if evals.min() < -EIG_TOL:
        raise InvalidStateError(f"negative eigenvalue {evals.min():.3e}")
    m = m.copy()
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
    n = np.linalg.norm(v)
    if n == 0 or not np.isfinite(n):
        raise InvalidStateError(f"state vector has norm {n}")
    v = v / n
    m = np.outer(v, v.conj())
    m.setflags(write=False)
    return DensityMatrix(m)


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(3)
    n = np.linalg.norm(v)
    if not abs(n - 1.0) <= EPS_VALID:
        raise InvalidStateError(f"measurement direction has norm {n:.12f}")
    return v


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Two unit Bloch vectors per party; ``c`` is None for bipartite settings."""

    a: np.ndarray                 # (2, 3)
    b: np.ndarray                 # (2, 3)
    c: np.ndarray | None = None   # (2, 3)

    @property
    def parties(self) -> int:
        return 2 if self.c is None else 3


def settings(a0, a1, b0, b1, c0=None, c1=None) -> MeasurementSettings:
    a = np.stack([_unit(a0), _unit(a1)])
    b = np.stack([_unit(b0), _unit(b1)])
    c = None
    if c0 is not None or c1 is not None:
        c = np.stack([_unit(c0), _unit(c1)])
    return MeasurementSettings(a=a, b=b, c=c)


def bloch_operator(n: np.ndarray) -> np.ndarray:
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


_PAULI_STACK = np.stack(PAULI)
_BLOCH_BASIS = np.stack((ID2,) + PAULI)
_OUTCOME_SIGN = np.array([1.0, -1.0])


def _projector_stack(dirs: np.ndarray) -> np.ndarray:
    """P[x, a] = (1 +/- n_x.sigma)/2 for one party's (2, 3) directions,
    flattened to a (4, 2, 2) stack indexed 2x + a."""
    ops = np.einsum("xk,kij->xij", dirs, _PAULI_STACK)
    p = 0.5 * (ID2 + _OUTCOME_SIGN[:, None, None] * ops[:, None])
    return p.reshape(4, 2, 2)


def _contract(mat: np.ndarray, stacks) -> np.ndarray:
    """E[m1, .., mn] = Tr(mat O1[m1] (x) .. (x) On[mn]), one stack per party.

    ``mat`` is reshaped to row bits i1..in then column bits j1..jn and the
    parties are contracted one at a time: pairwise einsums, because a single
    multi-operand call (and ``optimize=True``, which searches a path on every
    call) is slower at these sizes.
    """
    n = len(stacks)
    t = mat.reshape((2,) * (2 * n))
    done, rows, cols = "xyz"[:n], "ikm"[:n], "jln"[:n]
    for k, ops in enumerate(stacks):
        spec = (f"{done[:k]}{rows[k:]}{cols[k:]},{done[k]}{cols[k]}{rows[k]}"
                f"->{done[:k + 1]}{rows[k + 1:]}{cols[k + 1:]}")
        t = np.einsum(spec, t, ops)
    return t.real


def _born_table(rho: DensityMatrix, parties) -> np.ndarray:
    """t[x.., a..] = Tr(rho Pi_a^x (x) ..) for one (2, 3) direction pair per party."""
    n = len(parties)
    t = _contract(rho.mat, [_projector_stack(d) for d in parties])
    # axes come out as x, a, y, b, ..; reorder to inputs then outputs
    return t.reshape((2,) * (2 * n)).transpose(
        [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)])


def born_box2(rho: DensityMatrix, s: MeasurementSettings) -> BipartiteBox:
    """P(a,b|x,y) = Tr(rho Pi_a^x (x) Pi_b^y); output passes all box invariants."""
    if rho.dim != 4:
        raise InvalidStateError("born_box2 needs a 4x4 density matrix")
    if s.parties != 2:
        raise InvalidStateError("born_box2 needs two-party settings")
    return boxcore.make_box(_born_table(rho, (s.a, s.b)))


def born_box3(rho: DensityMatrix, s: MeasurementSettings) -> TripartiteBox:
    """Tripartite Born rule; output passes the tripartite box invariants."""
    if rho.dim != 8:
        raise InvalidStateError("born_box3 needs an 8x8 density matrix")
    if s.parties != 3:
        raise InvalidStateError("born_box3 needs three-party settings")
    return tribox.make_box3(_born_table(rho, (s.a, s.b, s.c)))


def correlation_data(rho: DensityMatrix):
    """Bloch decomposition (r, s, C) of a two-qubit state.

    <A_x B_y> = a_x . C b_y, <A_x> = a_x . r, <B_y> = b_y . s; the shortcut is
    validated against the full Born rule in the test suite.
    """
    if rho.dim != 4:
        raise InvalidStateError("correlation_data needs a 4x4 density matrix")
    t = _contract(rho.mat, (_BLOCH_BASIS, _BLOCH_BASIS))
    return t[1:, 0], t[0, 1:], t[1:, 1:]


def joint_expectations_shortcut(rho: DensityMatrix,
                                s: MeasurementSettings) -> np.ndarray:
    _, _, c = correlation_data(rho)
    return np.einsum("xi,ij,yj->xy", s.a, c, s.b)


# ---------------------------------------------------------------------------
# settings catalog

def _prq_settings(tau: float) -> MeasurementSettings:
    ct = 1.0 / np.sqrt(1.0 + tau)
    st = np.sqrt(tau) / np.sqrt(1.0 + tau)
    return settings(ZHAT, XHAT, ct * ZHAT + st * XHAT, ct * ZHAT - st * XHAT)


def _csb_settings(tau: float) -> MeasurementSettings:
    ct = 1.0 / np.sqrt(1.0 + tau)
    st = np.sqrt(tau) / np.sqrt(1.0 + tau)
    return settings((ZHAT + XHAT) / SQRT2, (ZHAT - XHAT) / SQRT2,
                    ct * ZHAT + st * XHAT, ct * ZHAT - st * XHAT)


def _meb1_settings(p: float) -> MeasurementSettings:
    return settings(XHAT, YHAT,
                    np.sqrt(p) * XHAT - np.sqrt(1 - p) * YHAT,
                    np.sqrt(1 - p) * XHAT + np.sqrt(p) * YHAT)


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
    s2 = np.sin(2 * theta) ** 2
    ct = 1.0 / np.sqrt(1.0 + s2)
    st = np.sqrt(s2) / np.sqrt(1.0 + s2)
    return settings(ZHAT, XHAT,
                    ct * ZHAT + st * XHAT, ct * ZHAT - st * XHAT,
                    ZHAT, XHAT)


def _smdghz_settings(p: float) -> MeasurementSettings:
    return settings(XHAT, YHAT,
                    np.sqrt(p) * XHAT - np.sqrt(1 - p) * YHAT,
                    np.sqrt(1 - p) * XHAT + np.sqrt(p) * YHAT,
                    XHAT, YHAT)


_FIXED_SETTINGS = {
    # orthogonal pair maximizing Bell discord (also the Tsirelson frame M_N)
    "BSb": lambda: settings(XHAT, YHAT, (XHAT - YHAT) / SQRT2, (XHAT + YHAT) / SQRT2),
    "M_N": lambda: settings(XHAT, YHAT, (XHAT - YHAT) / SQRT2, (XHAT + YHAT) / SQRT2),
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

_PARAM_SETTINGS = {
    "PRQ": _prq_settings,
    "CSB": _csb_settings,
    "meb1": _meb1_settings,
    "0BMSb": _bmsb_settings,
    "0BMSb1": _bmsb1_settings,
    "BMW": _bmw_settings,
    "Ghose": _ghose_settings,
    "class99": _class99_settings,
    "SMDghz": _smdghz_settings,
}


def settings_names() -> list[str]:
    return sorted(_FIXED_SETTINGS) + sorted(_PARAM_SETTINGS)


def settings_catalog(name: str, param: float | None = None) -> MeasurementSettings:
    """Named measurement frames; parametric entries accept ``name`` + ``param``
    or the combined form ``"name(value)"``."""
    m = re.fullmatch(r"([^()]+)\(([^()]+)\)", name.strip())
    if m:
        name, param = m.group(1), float(m.group(2))
    if name in _FIXED_SETTINGS:
        return _FIXED_SETTINGS[name]()
    if name in _PARAM_SETTINGS:
        if param is None:
            raise UnknownNameError(f"settings {name!r} needs a parameter")
        return _PARAM_SETTINGS[name](float(param))
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
    m = p * bell_psi_plus().mat + (1 - p) * np.eye(4) / 4.0
    return density_matrix(m)


def bell_cc_state(p: float) -> DensityMatrix:
    """Bell state mixed with the classically correlated diag(|00>,|11>) noise."""
    cc = np.zeros((4, 4), dtype=complex)
    cc[0, 0] = cc[3, 3] = 0.5
    return density_matrix(p * bell_psi_plus().mat + (1 - p) * cc)


def bell_diagonal_state(weights) -> DensityMatrix:
    """Mixture of the eight phased maximally entangled states.

    Weights w[0..3] go to (|00> + (-1)^j i^k |11>)/sqrt2 and w[4..7] to
    (|01> + (-1)^j i^k |10>)/sqrt2, ordered (j,k) = 00,01,10,11.
    """
    w = np.asarray(weights, dtype=float)
    if w.size != 8 or (w < -EPS_VALID).any() or abs(w.sum() - 1.0) > EPS_VALID:
        raise InvalidStateError("need 8 nonnegative weights summing to 1")
    m = np.zeros((4, 4), dtype=complex)
    idx = 0
    for j in range(2):
        for k in range(2):
            phase = (-1.0) ** j * (1j) ** k
            psi = np.array([1, 0, 0, phase], dtype=complex) / SQRT2
            m += w[idx] * np.outer(psi, psi.conj())
            idx += 1
    for j in range(2):
        for k in range(2):
            phase = (-1.0) ** j * (1j) ** k
            phi = np.array([0, 1, phase, 0], dtype=complex) / SQRT2
            m += w[idx] * np.outer(phi, phi.conj())
            idx += 1
    return density_matrix(m)


def cq_state(p0: float, r_hat, s0, s1) -> DensityMatrix:
    """Classical-quantum state: orthogonal projectors along r_hat on A, arbitrary
    Bloch states s0/s1 on B."""
    r = _unit(r_hat)
    s0 = np.asarray(s0, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    proj0 = 0.5 * (ID2 + bloch_operator(r))
    proj1 = 0.5 * (ID2 - bloch_operator(r))
    chi0 = 0.5 * (ID2 + bloch_operator(s0))
    chi1 = 0.5 * (ID2 + bloch_operator(s1))
    m = p0 * np.kron(proj0, chi0) + (1 - p0) * np.kron(proj1, chi1)
    return density_matrix(m)


def qc_state(p0: float, r_hat, s0, s1) -> DensityMatrix:
    """Quantum-classical mirror of :func:`cq_state`."""
    r = _unit(r_hat)
    proj0 = 0.5 * (ID2 + bloch_operator(r))
    proj1 = 0.5 * (ID2 - bloch_operator(r))
    chi0 = 0.5 * (ID2 + bloch_operator(np.asarray(s0, dtype=float)))
    chi1 = 0.5 * (ID2 + bloch_operator(np.asarray(s1, dtype=float)))
    m = p0 * np.kron(chi0, proj0) + (1 - p0) * np.kron(chi1, proj1)
    return density_matrix(m)


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


def werner3_state(p: float) -> DensityMatrix:
    return density_matrix(p * ghz_state().mat + (1 - p) * np.eye(8) / 8.0)


def ghz_w_mix_state(p: float) -> DensityMatrix:
    return density_matrix(p * ghz_state().mat + (1 - p) * w_state().mat)


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


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def state_family(name: str, **params) -> DensityMatrix:
    """Build a catalog state by family name and keyword parameters."""
    if name not in _FAMILIES:
        raise UnknownNameError(f"unknown state family {name!r}")
    builder, argnames = _FAMILIES[name]
    missing = [a for a in argnames if a not in params]
    if missing:
        raise UnknownNameError(f"family {name!r} needs parameters {missing}")
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
    n = np.linalg.norm(amps)
    if n == 0:
        raise InvalidStateError("all amplitudes are zero")
    b, c, d = amps / n
    if abs(b * c * d) < 1e-15:
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
    if max(abs(v) for v in checks) > 1e-9:
        raise InvalidStateError(f"constraint outcomes not zero: {checks}")
    if abs(box.prob(1, 1, 0, 0) - value) > 1e-9:
        raise InvalidStateError("closed form disagrees with the constructed box")
    return float(value)


# ---------------------------------------------------------------------------
# JSON interchange

def state_to_json(rho: DensityMatrix) -> str:
    return json.dumps({
        "dim": rho.dim,
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    })


def state_from_json(text: str) -> DensityMatrix:
    data = json.loads(text)
    m = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    if data.get("dim") != m.shape[0]:
        raise InvalidStateError(f"dim field {data.get('dim')} != matrix size {m.shape[0]}")
    return density_matrix(m)


def settings_to_json(s: MeasurementSettings) -> str:
    vecs = [v.tolist() for v in s.a] + [v.tolist() for v in s.b]
    if s.c is not None:
        vecs += [v.tolist() for v in s.c]
    return json.dumps(vecs)


def settings_from_json(text: str) -> MeasurementSettings:
    vecs = json.loads(text)
    if len(vecs) == 4:
        return settings(*vecs)
    if len(vecs) == 6:
        return settings(*vecs)
    raise InvalidStateError(f"expected 4 or 6 unit vectors, got {len(vecs)}")


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
