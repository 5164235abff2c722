"""Boxes of two and three parties: validation, extremal catalog, relabelings, JSON.

A box of n parties is the conditional distribution P(a|x) of binary outputs
a = (a_1..a_n) given binary inputs x = (x_1..x_n), stored as a (2,)*2n float
array indexed ``[x_1..x_n][a_1..a_n]``; flattened, it is the ``4**n`` table of
:mod:`boxlab._corr`. Outcome bit 0 corresponds to the +1 outcome, so joint
expectations are ``sum_a (-1)^(a_1 ^ .. ^ a_n) P(a|x)``.

The validator, the catalog's kind table and both id classes, the label
parser, the relabelings and the JSON format here serve both party counts.
Its other public functions are the bipartite ones, on (2,2,2,2) tables
``[x][y][a][b]``; :mod:`boxlab.tribox` wraps the same core for three parties.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import ClassVar, NamedTuple

import numpy as np

from . import _corr
from ._tol import EPS_LP, EPS_LP_SLACK, EPS_VALID  # noqa: F401 (EPS_LP* re-exported)

PARTY_A = "A"
PARTY_B = "B"


class BoxError(ValueError):
    """Base class for box construction failures."""


class NotNormalizedError(BoxError):
    pass


class NegativeEntryError(BoxError):
    pass


class SignalingError(BoxError):
    pass


class BadWeightsError(ValueError):
    pass


# The state and name errors of qstate, defined here so that the CLI maps
# them to its exit code without loading qstate
class InvalidStateError(ValueError):
    pass


class UnknownNameError(KeyError):
    __str__ = Exception.__str__  # the message, without KeyError's quotes


@dataclass(frozen=True, eq=False)
class _Box:
    """Immutable box of the class's party count n, or a stack of k boxes.

    One box has a (2,)*2n table and correlators of shape (2**n,); a stack
    has a (k,) + (2,)*2n table and (k, 2**n) correlators. Construction makes
    the table read-only and sets the read-only full-party correlators.
    """

    table: np.ndarray
    correlators: np.ndarray = field(init=False, repr=False)
    parties: ClassVar[int] = 0

    def __post_init__(self):
        self.table.setflags(write=False)
        e = _corr.correlators(self.flat, self.parties)
        e.setflags(write=False)
        object.__setattr__(self, "correlators", e)

    @property
    def flat(self) -> np.ndarray:
        """The table as flat rows: (4**n,) for one box, (k, 4**n) for a stack."""
        return self.table.reshape(self.table.shape[:-2 * self.parties] + (4 ** self.parties,))

    @property
    def stacked(self) -> bool:
        return self.table.ndim > 2 * self.parties

    def prob(self, *cell: int) -> float:
        """P(a|x) at the cell given as the inputs, then the outputs."""
        _one_box(self, "prob")
        return float(self.table[cell])

    def allclose(self, other: "_Box", tol: float = EPS_VALID) -> bool:
        return bool(np.allclose(self.table, other.table, atol=tol, rtol=0.0))


@dataclass(frozen=True, eq=False)
class BipartiteBox(_Box):
    """Immutable validated bipartite box; ``table[x, y, a, b]`` = P(a,b|x,y),
    or a stack of them, ``table[k, x, y, a, b]``. A frozen dataclass itself,
    so that no attribute, a new one included, can be assigned; a frozen base
    refuses only its own fields."""

    parties = 2


def _per_box(box: _Box, values):
    """A measure's `values` of `box`: a Python number for one box, the
    (k,) array as it is for a stack."""
    return values if box.stacked else values.item()


def _per_label(box: _Box, values) -> np.ndarray:
    """`values` of a box or a stack with their axis of 2**n labels split into
    the n label bits; a stack's axis stays in front."""
    lead = box.correlators.shape[:-1]
    return values.reshape(lead + (2,) * box.parties + values.shape[len(lead) + 1:])


def _one_box(box: _Box, name: str) -> None:
    """BoxError if `box` is a stack: the function `name` reads one box only."""
    if box.stacked:
        raise BoxError(f"{name} takes one box, got a stack of {len(box.table)}")


# ---------------------------------------------------------------------------
# validation, shared by both party counts

_INPUTS, _OUTPUTS = "xyz", "abc"


def _conditional(n: int, inputs, outputs=None) -> str:
    """'P(a=0,b=1|x=1,y=0)' of an n-party table, or 'P(a,b|x=1,y=0)' without outputs."""
    outs = _OUTPUTS[:n] if outputs is None else [f"{o}={v}" for o, v in zip(_OUTPUTS, outputs)]
    return f"P({','.join(outs)}|{','.join(f'{i}={v}' for i, v in zip(_INPUTS, inputs))})"


def _linear_checks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple]]:
    """Normalization and nonsignaling of a flat n-party table t as the rows
    of one matrix: the residuals are `rows @ t - target`, 1 on the 2**n
    normalization rows and 0 elsewhere. Returns the rows, the target, the end
    row of each check and each check's (error class, message), in order.

    Normalization has one row per input string: the sum over the outputs.
    Then every nonempty proper subset of parties summed out has one row per
    input string and output string of the other parties: their marginal
    there minus its value where the subset's inputs are 0.
    """
    cells = np.eye(4 ** n).reshape((2,) * (2 * n) + (4 ** n,))
    blocks = [cells.sum(axis=tuple(range(n, 2 * n)))]
    checks = [(NotNormalizedError, None)]
    for k in range(1, n):
        for gone in combinations(range(n), k):
            kept = [p for p in range(n) if p not in gone]
            marginal = cells.sum(axis=tuple(n + p for p in gone))
            at_zero = tuple(slice(0, 1) if p in gone else slice(None) for p in range(n))
            blocks.append(marginal - marginal[at_zero])
            checks.append((SignalingError, f"P({','.join(_OUTPUTS[p] for p in kept)}|"
                           f"{','.join(_INPUTS[p] for p in kept)}) depends on "
                           f"{' or '.join(_INPUTS[p] for p in gone)}"))
    rows = [b.reshape(-1, 4 ** n) for b in blocks]
    ends = np.cumsum([len(r) for r in rows])
    return np.concatenate(rows), (np.arange(ends[-1]) < 2 ** n) * 1.0, ends, checks


_LINEAR_CHECKS = {n: _linear_checks(n) for n in (2, 3)}


def _valid_at_once(t: np.ndarray, n: int) -> bool:
    """One test of a flat n-party table (4**n,) or a stack (k, 4**n) that
    passes every valid table; its bounds keep NaN and inf out of the product."""
    rows, target = _LINEAR_CHECKS[n][:2]
    return bool(0.0 <= t.min() and t.max() <= 1.0 + EPS_VALID
                and np.abs(t @ rows.T - target).max() <= EPS_VALID)


def _numbers(values, what: str, error: type, kinds: str = "fiu") -> np.ndarray:
    """`values` as a numpy array, unconverted, if numpy reads it as numbers
    of the dtype `kinds` (integer, unsigned, float; add "c" for complex),
    else `error` naming `what`. numpy reads a list that mixes bools with
    numbers as numbers, so the entries of lists and tuples are walked too."""
    try:
        t = np.asarray(values)
    except ValueError as exc:  # a ragged list
        raise error(f"{what} is not an array of numbers: {exc}") from None
    if t.dtype.kind not in kinds:
        real = "" if "c" in kinds else "real "
        raise error(f"{what} is not an array of {real}numbers: dtype {t.dtype}")
    entries = [values] if isinstance(values, (list, tuple)) else []
    while entries:
        entry = entries.pop()
        if isinstance(entry, (list, tuple)):
            entries.extend(entry)
        elif isinstance(entry, (bool, np.bool_)):
            raise error(f"{what} entry {entry} is not a number")
    return t


def _validate(values, n: int) -> np.ndarray:
    """The (2,)*2n table of `values`: a new array, checked, with entries in
    (-EPS_VALID, 0) clamped to 0 (decomposition residuals produce -1e-16 noise).
    A 2-D (k, 4**n) numpy array is a stack, returned as (k,) + (2,)*2n;
    nested lists, such as the table of a box file, are always one table.
    One _valid_at_once test covers every table; where it fails, each table
    that fails it alone takes the checks below in order.

    Raises BoxError unless `values` is an array of 4**n finite real numbers
    (integers or floats: a boolean, complex or string table is refused), then
    NegativeEntryError, NotNormalizedError or SignalingError naming the
    offending entry, inputs or marginal. Nonsignaling means that for every
    nonempty proper subset of parties summed out, the marginal of the others
    does not depend on the inputs of that subset.
    """
    t = np.array(_numbers(values, "table", BoxError), dtype=float)
    stacked = isinstance(values, np.ndarray) and t.shape[1:] == (4 ** n,) and len(t) > 0
    if not stacked and t.size != 4 ** n:
        raise BoxError(f"expected {4 ** n} probabilities, got {t.size}")
    flat = t.reshape(-1, 4 ** n)
    if not _valid_at_once(flat, n):
        rows, target, ends, checks = _LINEAR_CHECKS[n]
        for row in flat:
            if stacked and _valid_at_once(row, n):
                continue
            if not np.isfinite(row).all():
                raise BoxError(f"table has non-finite entries: {row[~np.isfinite(row)]}")
            worst = np.argmin(row)
            if row[worst] < -EPS_VALID:
                cell = np.unravel_index(worst, (2,) * (2 * n))
                raise NegativeEntryError(
                    f"entry {_conditional(n, cell[:n], cell[n:])} = {row[worst]:.3e} < 0")
            row[row < 0] = 0.0
            residuals = rows @ row - target
            r = int(np.argmax(np.abs(residuals) > EPS_VALID))
            if abs(residuals[r]) > EPS_VALID:
                error, message = checks[np.searchsorted(ends, r, side="right")]
                if error is NotNormalizedError:
                    message = (f"sum of {_conditional(n, np.unravel_index(r, (2,) * n))} "
                               f"= {residuals[r] + 1.0:.12f} != 1")
                raise error(message)
    return t.reshape(((len(t),) if stacked else ()) + (2,) * (2 * n))


def make_box(values) -> BipartiteBox:
    """Validate a probability table and return the box.

    Entries in (-EPS_VALID, 0) are clamped to 0 (decomposition residuals produce
    -1e-16 noise). Raises BoxError for input that is not 16 finite numbers,
    and NotNormalizedError, NegativeEntryError or SignalingError naming the
    offending index. A 2-D (k, 16) numpy array is a stack of k tables and
    gives a box stack, checked by one test over all rows and row by row only
    where that fails, so its first bad table raises the error it raises
    alone; nested lists are always one table.
    """
    return BipartiteBox(_validate(values, 2))


# ---------------------------------------------------------------------------
# extremal-box catalog of both party counts

def _expand(n: int, terms=()) -> np.ndarray:
    """The (2,)*2n table P(a|x) = (1 + sum_S (-1)^(a_S) E_S(x_S)) / 2**n.

    `terms` holds (party mask S, correlators E_S over the inputs of the
    parties in S) pairs, added in their order; the first party is the most
    significant bit of S, and a_S is the XOR of the outputs in S. With the
    one term of the full mask this is the parity box
    (1 + E_x (-1)^(a_1 ^ .. ^ a_n)) / 2**n; with none, white noise.
    """
    t = np.ones((2,) * (2 * n))
    for mask, e in terms:
        shape = [2 if mask >> (n - 1 - p) & 1 else 1 for p in range(n)]
        t = t + np.reshape(e, shape + [1] * n) * _corr._OUTPUT_PARITY[n][mask].reshape((2,) * n)
    return t / 2 ** n


def _operator_box(mermin: bool, *params: int) -> np.ndarray:
    """Parity box whose correlators are a row of the CHSH/Svetlichny or, with
    `mermin`, the Mermin sign rule of _corr: the row labelled by the n bits
    params[:-1], the first most significant, negated when params[-1] is 1."""
    *bits, negate = params
    n = len(bits)
    label = sum(b << (n - 1 - k) for k, b in enumerate(bits))
    return _expand(n, [(2 ** n - 1, (-1.0) ** negate * _corr._SIGNS[n][mermin][label])])


def _det_table(*responses: int) -> np.ndarray:
    """Deterministic box: party k answers (responses[2k] & x_k) ^ responses[2k+1]."""
    n = len(responses) // 2
    inputs = np.indices((2,) * n).reshape(n, -1)
    outputs = (np.array(responses[::2])[:, None] & inputs) ^ np.array(responses[1::2])[:, None]
    t = np.zeros((2 ** n, 2 ** n))
    t[np.arange(2 ** n), np.ravel_multi_index(tuple(outputs), (2,) * n)] = 1.0
    return t.reshape((2,) * (2 * n))


def _mermin_nmm_table(variant: int) -> np.ndarray:
    p, q, r, s = (variant >> 3) & 1, (variant >> 2) & 1, (variant >> 1) & 1, variant & 1
    second = variant >> 4
    return 0.5 * _det_table(1, p, 1 ^ second, q) + 0.5 * _det_table(0, r, second, s)


def _pr2_table(subscripts: str, al: int, be: int, ga: int, ep: int) -> np.ndarray:
    """PR box (al, be, ga) between two of three parties, placed by the einsum
    `subscripts`; the spectator answers ep & its input."""
    return np.einsum(subscripts + "->xyzabc", _operator_box(False, al, be, ga),
                     _det_table(ep, 0))


def _class8_table() -> np.ndarray:
    """<A0B0> = <A0B1> = <A0C0> = <B0C0> = <B1C0> = <A1B0C1> = 1 and
    <A1B1C1> = -1; every other expectation is zero."""
    abc = np.zeros((2, 2, 2))
    abc[1, 0, 1], abc[1, 1, 1] = 1.0, -1.0
    return _expand(3, [(6, [[1.0, 1.0], [0.0, 0.0]]), (5, [[1.0, 0.0], [0.0, 0.0]]),
                       (3, [[1.0, 0.0], [1.0, 0.0]]), (7, abc)])


_SQRT_HALF = 1.0 / np.sqrt(2.0)


class _Kind(NamedTuple):
    parties: int
    sizes: tuple[int, ...]                 # the range of each parameter
    build: Callable[..., np.ndarray]       # parameters -> (2,)*2n table


_KINDS = {
    "PR": _Kind(2, (2,) * 3, functools.partial(_operator_box, False)),
    "Det": _Kind(2, (2,) * 4, _det_table),
    "MerminMM": _Kind(2, (2,) * 3, functools.partial(_operator_box, True)),
    "MerminNMM": _Kind(2, (32,), _mermin_nmm_table),
    # correlators (-1)^(al x ^ be y ^ ga): the sign rule without its xy term
    "CC": _Kind(2, (2,) * 3, lambda al, be, ga: _expand(
        2, [(3, (-1.0) ** ga * _corr._OUTPUT_PARITY[2][2 * al + be])])),
    "Tsirelson": _Kind(2, (2,) * 3, lambda *params: (
        _SQRT_HALF * _operator_box(False, *params) + (1 - _SQRT_HALF) * 0.25)),
    "Noise": _Kind(2, (), lambda: _expand(2)),
    "Sv": _Kind(3, (2,) * 4, functools.partial(_operator_box, False)),
    "Det3": _Kind(3, (2,) * 6, _det_table),
    "PrAB": _Kind(3, (2,) * 4, functools.partial(_pr2_table, "xyab,zc")),
    "PrAC": _Kind(3, (2,) * 4, functools.partial(_pr2_table, "xzac,yb")),
    "PrBC": _Kind(3, (2,) * 4, functools.partial(_pr2_table, "yzbc,xa")),
    # the Mermin row of the complementary label, negated for odd label parity
    "Mermin3": _Kind(3, (2,) * 4, lambda al, be, ga, ep: _operator_box(
        True, al ^ 1, be ^ 1, ga ^ 1, ep ^ al ^ be ^ ga)),
    "Class8Rep": _Kind(3, (), _class8_table),
    "Noise3": _Kind(3, (), lambda: _expand(3)),
}


@dataclass(frozen=True)
class _CatalogId:
    """Label of a catalog box: a kind of `parties` parties and its parameters.

    Raises ValueError for a kind of another party count or parameters out
    of the kind's ranges.
    """

    kind: str
    params: tuple[int, ...] = ()
    parties: ClassVar[int] = 0

    def __post_init__(self):
        spec = _KINDS.get(self.kind)
        if spec is None or spec.parties != self.parties:
            raise ValueError(f"unknown {self.parties}-party vertex kind {self.kind!r}")
        if len(self.params) != len(spec.sizes) or not all(
                0 <= p < size for p, size in zip(self.params, spec.sizes)):
            raise ValueError(f"{self.kind} takes parameters below {spec.sizes}, "
                             f"got {self.params}")

    def label(self) -> str:
        return self.kind + "".join(str(p) for p in self.params)


class VertexId(_CatalogId):
    """Label of a bipartite catalog box, e.g. VertexId("PR", (0, 0, 1))."""

    parties = 2


class TriVertexId(_CatalogId):
    """Label of a tripartite catalog box, e.g. TriVertexId("Sv", (0, 1, 0, 1))."""

    parties = 3


def _vertex_table(vid: _CatalogId, parties: int | None = None) -> np.ndarray:
    """The table of `vid`; ValueError if it is not an id of `parties` parties."""
    if parties not in (None, vid.parties):
        raise ValueError(f"{vid!r} is a {vid.parties}-party id, not a {parties}-party one")
    return _KINDS[vid.kind].build(*vid.params)


@functools.cache
def _family(cls: type, kind: str) -> tuple:
    """Every id of one kind, parameters in lexicographic order, built once."""
    return tuple(cls(kind, p) for p in product(*map(range, _KINDS[kind].sizes)))


def _parse_label(cls: type, label: str) -> _CatalogId:
    """The id of class `cls` whose label() is exactly `label`.

    A kind's parameters follow it as digits: one digit per binary parameter,
    the decimal number of a kind's only parameter otherwise.
    """
    for kind, spec in _KINDS.items():
        if spec.parties != cls.parties or not label.startswith(kind):
            continue
        digits = label[len(kind):]
        try:
            vid = cls(kind, tuple(map(int, [digits] if len(spec.sizes) == 1 else digits)))
        except ValueError:
            continue
        if vid.label() == label:
            return vid
    raise ValueError(f"cannot parse {cls.parties}-party vertex label {label!r}")


class _IdTuple(tuple):
    """A tuple of catalog ids that hashes them once. A plain tuple hashes
    every id again on each cache lookup (about 30 us for 128 ids); kept and
    passed again, this one costs nothing to look up."""

    def __new__(cls, ids):
        self = super().__new__(cls, ids)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash


def _vertex_rows(vertex_ids) -> np.ndarray:
    """Vertex tables as rows of a read-only (n_vertices, 4**n) matrix,
    stacked once per id list; an _IdTuple is looked up without rehashing."""
    return _stacked_rows(vertex_ids if type(vertex_ids) is _IdTuple else _IdTuple(vertex_ids))


@functools.lru_cache(maxsize=16)
def _stacked_rows(vertex_ids: _IdTuple) -> np.ndarray:
    rows = np.stack([_vertex_table(v).reshape(-1) for v in vertex_ids])
    rows.setflags(write=False)
    return rows


def pr_id(alpha: int, beta: int, gamma: int) -> VertexId:
    return VertexId("PR", (alpha, beta, gamma))


def det_id(alpha: int, beta: int, gamma: int, epsilon: int) -> VertexId:
    return VertexId("Det", (alpha, beta, gamma, epsilon))


def mermin_id(alpha: int, beta: int, gamma: int) -> VertexId:
    return VertexId("MerminMM", (alpha, beta, gamma))


def mermin_nmm_id(variant: int) -> VertexId:
    return VertexId("MerminNMM", (variant,))


def cc_id(alpha: int, beta: int, gamma: int) -> VertexId:
    return VertexId("CC", (alpha, beta, gamma))


def tsirelson_id(alpha: int, beta: int, gamma: int) -> VertexId:
    return VertexId("Tsirelson", (alpha, beta, gamma))


NOISE_ID = VertexId("Noise")


def pr_box(alpha: int, beta: int, gamma: int) -> BipartiteBox:
    """Maximally nonlocal vertex: 1/2 on outcomes with a^b = xy ^ ax ^ by ^ g."""
    return vertex(pr_id(alpha, beta, gamma))


def det_box(alpha: int, beta: int, gamma: int, epsilon: int) -> BipartiteBox:
    """Deterministic vertex: a = ax ^ b on one side, b = gy ^ e on the other."""
    return vertex(det_id(alpha, beta, gamma, epsilon))


def noise_box() -> BipartiteBox:
    return vertex(NOISE_ID)


def mermin_box(alpha: int, beta: int, gamma: int) -> BipartiteBox:
    """Maximally local, maximally EPR-steerable box with maximally mixed marginals.

    Perfectly correlated (a^b = xy ^ ax ^ by ^ g) on inputs with x^y = beta,
    uniform on the other input pairs; equals the uniform mixture of the two
    PR boxes (alpha,beta,gamma) and (1-alpha,1-beta,gamma^beta).
    """
    return vertex(mermin_id(alpha, beta, gamma))


def mermin_nmm_box(variant: int) -> BipartiteBox:
    """One of the 32 maximally local boxes with nonmaximally mixed marginals.

    Each is the even mixture of two deterministic boxes. Variants 0..15 mix
    (a=x^p, b=y^q) with the constant responder (a=r, b=s); variants 16..31 mix
    (a=x^p, b=q) with (a=r, b=y^s). Bits p,q,r,s come from variant & 0xF.
    Raises ValueError unless 0 <= variant < 32.
    """
    return vertex(mermin_nmm_id(variant))


def cc_box(alpha: int, beta: int, gamma: int) -> BipartiteBox:
    """Classically correlated box: 1/2 on outcomes with a^b = ax ^ by ^ g."""
    return vertex(cc_id(alpha, beta, gamma))


def tsirelson_box(alpha: int, beta: int, gamma: int) -> BipartiteBox:
    """Quantum box saturating the CHSH bound 2*sqrt(2): PR/sqrt2 + rest noise."""
    return vertex(tsirelson_id(alpha, beta, gamma))


def vertex(vid: VertexId) -> BipartiteBox:
    """Exact table of a catalog box; ValueError for an id of another party count."""
    return BipartiteBox(_vertex_table(vid, 2))


def all_pr_ids() -> list[VertexId]:
    return list(_family(VertexId, "PR"))


def all_det_ids() -> list[VertexId]:
    return list(_family(VertexId, "Det"))


def all_mermin_ids() -> list[VertexId]:
    return list(_family(VertexId, "MerminMM"))


def all_mermin_nmm_ids() -> list[VertexId]:
    return list(_family(VertexId, "MerminNMM"))


def all_cc_ids() -> list[VertexId]:
    return list(_family(VertexId, "CC"))


def all_tsirelson_ids() -> list[VertexId]:
    return list(_family(VertexId, "Tsirelson"))


def ns_vertex_ids() -> list[VertexId]:
    """The 24 extremal boxes of the nonsignaling polytope: 8 PR + 16 deterministic."""
    return all_pr_ids() + all_det_ids()


def parse_vertex_label(label: str) -> VertexId:
    """Parse compact labels like PR000, Det0101, MerminMM010, MerminNMM17, Noise.

    Raises ValueError unless the label is the canonical label of a bipartite
    catalog box: the kind followed by exactly its number of binary
    parameters, or by a variant number 0..31 without leading zeros for
    MerminNMM.
    """
    return _parse_label(VertexId, label)


# ---------------------------------------------------------------------------
# mixtures and expectations

def mix(boxes: list[BipartiteBox], weights) -> BipartiteBox:
    """Entrywise convex combination of boxes."""
    w = np.asarray(_numbers(weights, "weights", BadWeightsError), dtype=float)
    if len(boxes) != w.size:
        raise BadWeightsError("weights length must match number of boxes")
    # written so that a NaN weight fails both comparisons
    if not ((w >= -EPS_VALID).all() and abs(w.sum() - 1.0) <= EPS_VALID):
        raise BadWeightsError(f"weights must be finite, nonnegative and sum to 1, got {w}")
    t = sum(wi * box.table for wi, box in zip(w, boxes))
    return make_box(t)


def joint_expectations(box: BipartiteBox) -> np.ndarray:
    """All four <A_x B_y> = sum_ab (-1)^(a^b) P(a,b|x,y), shape (2, 2), or
    (k, 2, 2) for a stack."""
    return box.correlators.reshape(box.correlators.shape[:-1] + (2, 2))


def joint_expectation(box: BipartiteBox, x: int, y: int) -> float:
    _one_box(box, "joint_expectation")
    return float(joint_expectations(box)[x, y])


def marginal_expectations(box: BipartiteBox) -> tuple[np.ndarray, np.ndarray]:
    """(<A_0>, <A_1>) and (<B_0>, <B_1>), each averaged over the other
    party's input; each (k, 2) for a stack."""
    m = _corr._marginals(box.flat, 2)  # [.., party mask, x, y]
    return m[..., 2, :, 0], m[..., 1, 0, :]


def marginal_expectation(box: BipartiteBox, party: str, x: int) -> float:
    _one_box(box, "marginal_expectation")
    ea, eb = marginal_expectations(box)
    if party == PARTY_A:
        return float(ea[x])
    if party == PARTY_B:
        return float(eb[x])
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


# ---------------------------------------------------------------------------
# local reversible operations (LRO)
#
# A relabeling of n parties is a pair (relabels, targets): party slot k is
# relabeled by relabels[k] and moved to slot targets[k]. Lro and Lro3 are
# its two public spellings.

@dataclass(frozen=True)
class PartyRelabel:
    """Input flip plus output relabeling a -> a ^ by_input*x ^ const."""

    input_flip: int = 0
    out_by_input: int = 0
    out_const: int = 0


IDENTITY_RELABEL = PartyRelabel()


@dataclass(frozen=True)
class Lro:
    """Local reversible operation: optional party swap, then per-party relabels."""

    party_swap: bool = False
    a: PartyRelabel = IDENTITY_RELABEL
    b: PartyRelabel = IDENTITY_RELABEL


IDENTITY_LRO = Lro()


def _slots(g: Lro) -> tuple[tuple, tuple]:
    return (g.a, g.b), (1, 0) if g.party_swap else (0, 1)


def apply_lro(box: BipartiteBox, g: Lro) -> BipartiteBox:
    """Relabeled box; the party swap acts first, then the per-party relabels."""
    _one_box(box, "apply_lro")
    return BipartiteBox(_relabeled(box.table, *_slots(g)))


def _compose_relabel(first_applied: PartyRelabel, then: PartyRelabel) -> PartyRelabel:
    # outer relabel `then` applied after `first_applied`
    return PartyRelabel(
        input_flip=then.input_flip ^ first_applied.input_flip,
        out_by_input=then.out_by_input ^ first_applied.out_by_input,
        out_const=then.out_const ^ first_applied.out_const
        ^ (first_applied.out_by_input & then.input_flip),
    )


def compose_lro(g: Lro, h: Lro) -> Lro:
    """Group law: apply_lro(P, compose_lro(g, h)) == apply_lro(apply_lro(P, h), g)."""
    ha, hb = (h.b, h.a) if g.party_swap else (h.a, h.b)
    return Lro(
        party_swap=g.party_swap ^ h.party_swap,
        a=_compose_relabel(ha, g.a),
        b=_compose_relabel(hb, g.b),
    )


def lro_index_permutation(g: Lro) -> np.ndarray:
    """Index map so that apply_lro(box, g).table.ravel() == table.ravel()[perm].

    Relabelings only permute the 16 table cells; batch sweeps gather a
    stack of tables through precomputed permutations.
    """
    return _index_permutation(*_slots(g))


def _relabeled(table: np.ndarray, relabels: tuple, targets: tuple) -> np.ndarray:
    return table.reshape(-1)[_index_permutation(relabels, targets)].reshape(table.shape)


def _index_permutation(relabels, targets) -> np.ndarray:
    """Index map of one relabeling: party slot k is relabeled by relabels[k]
    and moved to slot targets[k]; computed from the bits of each cell
    [x_1..x_n][a_1..a_n]."""
    n = len(relabels)
    cells = np.indices((2,) * (2 * n), dtype=np.intp).reshape(2 * n, 4 ** n)
    return sum((x ^ r.input_flip) << (2 * n - 1 - p) | (a ^ (r.out_by_input & x) ^ r.out_const)
               << (n - 1 - p) for r, p, x, a in zip(relabels, targets, cells[:n], cells[n:]))


def party_relabels() -> list[PartyRelabel]:
    return [PartyRelabel(i, abi, c) for i, abi, c in product(range(2), repeat=3)]


def lro_group() -> list[Lro]:
    """All 128 relabelings: 8 per party times the party swap."""
    rels = party_relabels()
    return [Lro(swap, ra, rb)
            for swap in (False, True) for ra in rels for rb in rels]


# ---------------------------------------------------------------------------
# JSON interchange: {"parties": n, "table": nested lists}

def _to_json(box: _Box) -> str:
    if box.stacked:
        raise BoxError(f"a box file holds one box, got a stack of {len(box.table)}")
    return json.dumps({"parties": box.parties, "table": box.table.tolist()})


def _json_object(text: str) -> dict:
    """The object of a box file; BoxError unless it is a JSON object with a table."""
    data = json.loads(text)
    if not isinstance(data, dict) or "table" not in data:
        raise BoxError("a box file holds one JSON object with 'parties' and 'table'")
    return data


def _json_table(text: str, n: int):
    """The unvalidated table of a box file of n parties."""
    data = _json_object(text)
    if data.get("parties") != n:
        raise BoxError(f"expected parties={n}, got {data.get('parties')}")
    return data["table"]


def box_to_json(box: BipartiteBox) -> str:
    return _to_json(box)


def box_from_json(text: str) -> BipartiteBox:
    return make_box(_json_table(text, 2))
