"""Bipartite two-input/two-output boxes: validation, extremal catalog, relabelings.

A box is the conditional distribution P(a,b|x,y) for binary inputs x,y and
binary outputs a,b, stored as a (2,2,2,2) float array indexed ``[x][y][a][b]``.
Outcome bit 0 corresponds to the +1 outcome, so joint expectations are
``sum_{ab} (-1)^(a^b) P(a,b|x,y)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

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


@dataclass(frozen=True, eq=False)
class BipartiteBox:
    """Immutable validated bipartite box; ``table[x, y, a, b]`` = P(a,b|x,y)."""

    table: np.ndarray

    def prob(self, x: int, y: int, a: int, b: int) -> float:
        return float(self.table[x, y, a, b])

    def allclose(self, other: "BipartiteBox", tol: float = EPS_VALID) -> bool:
        return bool(np.allclose(self.table, other.table, atol=tol, rtol=0.0))


def _as_table(values) -> np.ndarray:
    t = np.asarray(values, dtype=float)
    if t.size != 16:
        raise BoxError(f"expected 16 probabilities, got {t.size}")
    return t.reshape(2, 2, 2, 2).copy()


def _freeze(t: np.ndarray) -> np.ndarray:
    t.setflags(write=False)
    return t


def make_box(values, eps: float = EPS_VALID) -> BipartiteBox:
    """Validate a probability table and return the box.

    Entries in (-eps, 0) are clamped to 0 (decomposition residuals produce
    -1e-16 noise). Raises BoxError for NaN or infinite entries, and
    NotNormalizedError, NegativeEntryError or SignalingError naming the
    offending index.
    """
    t = _as_table(values)
    if not np.isfinite(t).all():
        raise BoxError(f"table has non-finite entries: {t[~np.isfinite(t)]}")
    neg = t < 0
    if neg.any():
        worst = np.unravel_index(np.argmin(t), t.shape)
        if t[worst] < -eps:
            raise NegativeEntryError(
                f"entry P(a={worst[2]},b={worst[3]}|x={worst[0]},y={worst[1]}) = {t[worst]:.3e} < 0"
            )
        t[neg] = 0.0
    norms = t.sum(axis=(2, 3))
    for x, y in product(range(2), repeat=2):
        if abs(norms[x, y] - 1.0) > eps:
            raise NotNormalizedError(
                f"sum_ab P(a,b|x={x},y={y}) = {norms[x, y]:.12f} != 1"
            )
    # marginal of A must not depend on y, marginal of B must not depend on x
    marg_a = t.sum(axis=3)  # [x, y, a]
    for x, a in product(range(2), repeat=2):
        if abs(marg_a[x, 0, a] - marg_a[x, 1, a]) > eps:
            raise SignalingError(
                f"P(a={a}|x={x}) depends on y: {marg_a[x, 0, a]:.12f} vs {marg_a[x, 1, a]:.12f}"
            )
    marg_b = t.sum(axis=2)  # [x, y, b]
    for y, b in product(range(2), repeat=2):
        if abs(marg_b[0, y, b] - marg_b[1, y, b]) > eps:
            raise SignalingError(
                f"P(b={b}|y={y}) depends on x: {marg_b[0, y, b]:.12f} vs {marg_b[1, y, b]:.12f}"
            )
    return BipartiteBox(_freeze(t))


def _box_exact(t: np.ndarray) -> BipartiteBox:
    """Wrap a table known to be valid by construction (catalog, relabelings)."""
    return BipartiteBox(_freeze(t))


# ---------------------------------------------------------------------------
# extremal-box catalog

VERTEX_KINDS = ("PR", "Det", "MerminMM", "MerminNMM", "CC", "Tsirelson", "Noise")


@dataclass(frozen=True)
class VertexId:
    """Label of a catalog box, e.g. VertexId("PR", (0, 0, 1))."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in VERTEX_KINDS:
            raise ValueError(f"unknown vertex kind {self.kind!r}")

    def label(self) -> str:
        return self.kind + "".join(str(p) for p in self.params)


def pr_id(alpha: int, beta: int, gamma: int) -> VertexId:
    return VertexId("PR", (alpha, beta, gamma))


def det_id(alpha: int, beta: int, gamma: int, eps: int) -> VertexId:
    return VertexId("Det", (alpha, beta, gamma, eps))


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
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma:
            t[x, y, a, b] = 0.5
    return _box_exact(t)


def det_box(alpha: int, beta: int, gamma: int, eps: int) -> BipartiteBox:
    """Deterministic vertex: a = ax ^ b on one side, b = gy ^ e on the other."""
    t = np.zeros((2, 2, 2, 2))
    for x, y in product(range(2), repeat=2):
        t[x, y, (alpha & x) ^ beta, (gamma & y) ^ eps] = 1.0
    return _box_exact(t)


def noise_box() -> BipartiteBox:
    return _box_exact(np.full((2, 2, 2, 2), 0.25))


def mermin_box(alpha: int, beta: int, gamma: int) -> BipartiteBox:
    """Maximally local, maximally EPR-steerable box with maximally mixed marginals.

    Perfectly correlated (a^b = xy ^ ax ^ by ^ g) on inputs with x^y = beta,
    uniform on the other input pairs; equals the uniform mixture of the two
    PR boxes (alpha,beta,gamma) and (1-alpha,1-beta,gamma^beta).
    """
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        if x ^ y != beta:
            t[x, y, a, b] = 0.25
        elif a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma:
            t[x, y, a, b] = 0.5
    return _box_exact(t)


def mermin_nmm_box(variant: int) -> BipartiteBox:
    """One of the 32 maximally local boxes with nonmaximally mixed marginals.

    Each is the even mixture of two deterministic boxes. Variants 0..15 mix
    (a=x^p, b=y^q) with the constant responder (a=r, b=s); variants 16..31 mix
    (a=x^p, b=q) with (a=r, b=y^s). Bits p,q,r,s come from variant & 0xF.
    """
    if not 0 <= variant < 32:
        raise ValueError("variant must be in 0..31")
    p, q, r, s = (variant >> 3) & 1, (variant >> 2) & 1, (variant >> 1) & 1, variant & 1
    t = np.zeros((2, 2, 2, 2))
    for x, y in product(range(2), repeat=2):
        if variant < 16:
            t[x, y, x ^ p, y ^ q] += 0.5
            t[x, y, r, s] += 0.5
        else:
            t[x, y, x ^ p, q] += 0.5
            t[x, y, r, y ^ s] += 0.5
    return _box_exact(t)


def cc_box(alpha: int, beta: int, gamma: int) -> BipartiteBox:
    """Classically correlated box: 1/2 on outcomes with a^b = ax ^ by ^ g."""
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        if a ^ b == (alpha & x) ^ (beta & y) ^ gamma:
            t[x, y, a, b] = 0.5
    return _box_exact(t)


def tsirelson_box(alpha: int, beta: int, gamma: int) -> BipartiteBox:
    """Quantum box saturating the CHSH bound 2*sqrt(2): PR/sqrt2 + rest noise."""
    w = 1.0 / np.sqrt(2.0)
    t = w * pr_box(alpha, beta, gamma).table + (1 - w) * 0.25
    return _box_exact(t)


def vertex(vid: VertexId) -> BipartiteBox:
    """Exact table of a catalog box."""
    builders = {
        "PR": pr_box,
        "Det": det_box,
        "MerminMM": mermin_box,
        "MerminNMM": mermin_nmm_box,
        "CC": cc_box,
        "Tsirelson": tsirelson_box,
    }
    if vid.kind == "Noise":
        return noise_box()
    return builders[vid.kind](*vid.params)


def all_pr_ids() -> list[VertexId]:
    return [pr_id(a, b, g) for a, b, g in product(range(2), repeat=3)]


def all_det_ids() -> list[VertexId]:
    return [det_id(a, b, g, e) for a, b, g, e in product(range(2), repeat=4)]


def all_mermin_ids() -> list[VertexId]:
    return [mermin_id(a, b, g) for a, b, g in product(range(2), repeat=3)]


def all_mermin_nmm_ids() -> list[VertexId]:
    return [mermin_nmm_id(v) for v in range(32)]


def all_cc_ids() -> list[VertexId]:
    return [cc_id(a, b, g) for a, b, g in product(range(2), repeat=3)]


def all_tsirelson_ids() -> list[VertexId]:
    return [tsirelson_id(a, b, g) for a, b, g in product(range(2), repeat=3)]


def ns_vertex_ids() -> list[VertexId]:
    """The 24 extremal boxes of the nonsignaling polytope: 8 PR + 16 deterministic."""
    return all_pr_ids() + all_det_ids()


_LABEL_BITS = {"PR": 3, "Det": 4, "MerminMM": 3, "CC": 3, "Tsirelson": 3, "Noise": 0}


def parse_vertex_label(label: str) -> VertexId:
    """Parse compact labels like PR000, Det0101, MerminMM010, MerminNMM17, Noise.

    Raises ValueError unless the kind is followed by exactly its number of
    binary parameters (a variant number 0..31 for MerminNMM).
    """
    for kind in sorted(VERTEX_KINDS, key=len, reverse=True):
        if label.startswith(kind):
            digits = label[len(kind):]
            if kind == "MerminNMM":
                if digits.isdigit() and int(digits) < 32:
                    return mermin_nmm_id(int(digits))
            elif len(digits) == _LABEL_BITS[kind] and set(digits) <= {"0", "1"}:
                return VertexId(kind, tuple(int(ch) for ch in digits))
    raise ValueError(f"cannot parse vertex label {label!r}")


# ---------------------------------------------------------------------------
# mixtures and expectations

def mix(boxes: list[BipartiteBox], weights) -> BipartiteBox:
    """Entrywise convex combination of boxes."""
    w = np.asarray(weights, dtype=float)
    if len(boxes) != w.size:
        raise BadWeightsError("weights length must match number of boxes")
    if (w < -EPS_VALID).any() or abs(w.sum() - 1.0) > EPS_VALID:
        raise BadWeightsError(f"weights must be nonnegative and sum to 1, got {w}")
    t = sum(wi * box.table for wi, box in zip(w, boxes))
    return make_box(t)


def joint_expectations(box: BipartiteBox) -> np.ndarray:
    """All four <A_x B_y> = sum_ab (-1)^(a^b) P(a,b|x,y), shape (2, 2)."""
    return _corr.correlators(box.table.reshape(16), 2).reshape(2, 2)


def joint_expectation(box: BipartiteBox, x: int, y: int) -> float:
    return float(joint_expectations(box)[x, y])


def marginal_expectations(box: BipartiteBox) -> tuple[np.ndarray, np.ndarray]:
    """(<A_0>, <A_1>) and (<B_0>, <B_1>), each from the NS-consistent marginal."""
    sign = np.array([1.0, -1.0])
    pa = box.table.sum(axis=3).mean(axis=1)  # [x, a], averaged over y
    pb = box.table.sum(axis=2).mean(axis=0)  # [y, b]
    return pa @ sign, pb @ sign


def marginal_expectation(box: BipartiteBox, party: str, x: int) -> float:
    ea, eb = marginal_expectations(box)
    if party == PARTY_A:
        return float(ea[x])
    if party == PARTY_B:
        return float(eb[x])
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


# ---------------------------------------------------------------------------
# local reversible operations (LRO)

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


def apply_lro(box: BipartiteBox, g: Lro) -> BipartiteBox:
    """Relabeled box; the party swap acts first, then the per-party relabels."""
    return _box_exact(box.table.reshape(16)[lro_index_permutation(g)].reshape(2, 2, 2, 2))


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


def _invert_relabel(r: PartyRelabel) -> PartyRelabel:
    return PartyRelabel(r.input_flip, r.out_by_input,
                        r.out_const ^ (r.out_by_input & r.input_flip))


def invert_lro(g: Lro) -> Lro:
    ia, ib = _invert_relabel(g.a), _invert_relabel(g.b)
    if g.party_swap:
        ia, ib = ib, ia
    return Lro(party_swap=g.party_swap, a=ia, b=ib)


def lro_index_permutation(g: Lro) -> np.ndarray:
    """Index map so that apply_lro(box, g).table.ravel() == table.ravel()[perm].

    Relabelings only permute the 16 table cells; batch sweeps gather a
    stack of tables through precomputed permutations.
    """
    return _index_permutation((g.a, g.b), (1, 0) if g.party_swap else (0, 1))


def _index_permutation(relabels, targets) -> np.ndarray:
    """Index map of one relabeling: party slot k is relabeled by relabels[k]
    and moved to slot targets[k]."""
    contrib = _SLOT_CONTRIBUTIONS[len(relabels)]
    return sum(contrib[k, 4 * r.input_flip + 2 * r.out_by_input + r.out_const, t]
               for k, (r, t) in enumerate(zip(relabels, targets)))


def _slot_contributions(n: int) -> np.ndarray:
    """contrib[k, r, p]: what party slot k of a relabeled n-party box adds to
    the flat source index when relabel r (party_relabels() order) acts on it
    and it lands on source slot p; shape (n, 8, n, 4**n)."""
    cells = np.indices((2,) * (2 * n)).reshape(2 * n, 4 ** n)
    r = np.arange(8)[:, None]
    flip, by_input, const = r >> 2 & 1, r >> 1 & 1, r & 1
    contrib = np.empty((n, 8, n, 4 ** n), dtype=np.intp)
    for k in range(n):
        x, a = cells[k], cells[n + k]
        src_x, src_a = x ^ flip, a ^ (by_input & x) ^ const
        for p in range(n):
            contrib[k, :, p] = (src_x << (2 * n - 1 - p)) | (src_a << (n - 1 - p))
    return contrib


_SLOT_CONTRIBUTIONS = {n: _slot_contributions(n) for n in (2, 3)}


def party_relabels() -> list[PartyRelabel]:
    return [PartyRelabel(i, abi, c) for i, abi, c in product(range(2), repeat=3)]


def lro_group() -> list[Lro]:
    """All 128 relabelings: 8 per party times the party swap."""
    rels = party_relabels()
    return [Lro(swap, ra, rb)
            for swap in (False, True) for ra in rels for rb in rels]


# ---------------------------------------------------------------------------
# JSON interchange

def box_to_json(box: BipartiteBox) -> str:
    return json.dumps({"parties": 2, "table": box.table.tolist()})


def box_from_json(text: str) -> BipartiteBox:
    data = json.loads(text)
    if data.get("parties") != 2:
        raise BoxError(f"expected parties=2, got {data.get('parties')}")
    return make_box(data["table"])
