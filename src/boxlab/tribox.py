"""Tripartite boxes: Svetlichny-polytope catalog, genuine-nonclassicality measures.

Tables are (2,2,2,2,2,2) arrays indexed ``[x][y][z][a][b][c]``. A box in the
26-dimensional nonsignaling space is equivalently described by its 6 single-,
12 two- and 8 three-party expectations; :func:`expectations3` and
:func:`box3_from_expectations` convert both ways exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import _corr, boxcore, discord2, polytope
from .boxcore import EPS_VALID, BipartiteBox, PartyRelabel
from .polytope import DecompositionResult, ResidualInvalidError

PAIR_AB, PAIR_AC, PAIR_BC = "AB", "AC", "BC"
_PAIRS = (PAIR_BC, PAIR_AC, PAIR_AB)  # the pair left by spectator party A, B, C


class NotInPolytopeError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class TripartiteBox(boxcore._Box):
    """Immutable validated tripartite box; ``table[x,y,z,a,b,c]`` = P(a,b,c|x,y,z),
    or a stack of them, frozen as :class:`boxcore.BipartiteBox` is."""

    parties = 3


def make_box3(values) -> TripartiteBox:
    """Validate normalization, positivity and full nonsignaling.

    Every single-party marginal must be independent of the other two inputs
    and every two-party marginal independent of the remaining input. A 2-D
    (k, 64) numpy array is a stack of k tables and gives a box stack, checked
    as :func:`boxcore.make_box` checks a (k, 16) one.
    """
    return TripartiteBox(boxcore._validate(values, 3))


# ---------------------------------------------------------------------------
# expectation-vector bridge (26 coordinates)

@dataclass(frozen=True)
class TriExpectations:
    a: np.ndarray    # (2,)   <A_i>
    b: np.ndarray    # (2,)   <B_j>
    c: np.ndarray    # (2,)   <C_k>
    ab: np.ndarray   # (2,2)  <A_i B_j>
    ac: np.ndarray   # (2,2)  <A_i C_k>
    bc: np.ndarray   # (2,2)  <B_j C_k>
    abc: np.ndarray  # (2,2,2) <A_i B_j C_k>


def expectations3(box: TripartiteBox) -> TriExpectations:
    """The 26 expectations; each field gets a leading (k,) axis for a stack."""
    m = _corr._marginals(box.flat, 3)  # [.., party mask, x, y, z]
    return TriExpectations(a=m[..., 4, :, 0, 0], b=m[..., 2, 0, :, 0], c=m[..., 1, 0, 0, :],
                           ab=m[..., 6, :, :, 0], ac=m[..., 5, :, 0, :], bc=m[..., 3, 0, :, :],
                           abc=_per_label(box, box.correlators))


def box3_from_expectations(e: TriExpectations, validate: bool = True):
    """Inverse of :func:`expectations3`; exact round trip for valid boxes."""
    t = boxcore._expand(3, [(4, e.a), (2, e.b), (1, e.c), (6, e.ab), (5, e.ac), (3, e.bc),
                            (7, e.abc)])
    if validate:
        return make_box3(t)
    return TripartiteBox(t)


# ---------------------------------------------------------------------------
# vertex catalog: Svetlichny-box polytope (128 vertices) + class-8 representative

class TriVertexId(boxcore._CatalogId):
    """Label of a tripartite catalog box, e.g. TriVertexId("Sv", (0, 1, 0, 1))."""

    parties = 3


def sv_id(al, be, ga, ep) -> TriVertexId:
    return TriVertexId("Sv", (al, be, ga, ep))


def det3_id(al, be, ga, ep, ze, et) -> TriVertexId:
    return TriVertexId("Det3", (al, be, ga, ep, ze, et))


def pr2_id(pair: str, al, be, ga, ep) -> TriVertexId:
    return TriVertexId("Pr" + pair, (al, be, ga, ep))


def mermin3_id(al, be, ga, ep) -> TriVertexId:
    return TriVertexId("Mermin3", (al, be, ga, ep))


CLASS8_ID = TriVertexId("Class8Rep")
NOISE3_ID = TriVertexId("Noise3")


def sv_box(al: int, be: int, ga: int, ep: int) -> TripartiteBox:
    """Genuinely three-way nonlocal vertex: 1/4 on outcomes with
    a^b^c = xy ^ xz ^ yz ^ al*x ^ be*y ^ ga*z ^ ep."""
    return tri_vertex(sv_id(al, be, ga, ep))


def det3_box(al, be, ga, ep, ze, et) -> TripartiteBox:
    return tri_vertex(det3_id(al, be, ga, ep, ze, et))


def pr2_box(pair: str, al: int, be: int, ga: int, ep: int) -> TripartiteBox:
    """Bipartite PR box between two parties, third party answers o = ep * input."""
    return tri_vertex(pr2_id(pair, al, be, ga, ep))


def noise3_box() -> TripartiteBox:
    return tri_vertex(NOISE3_ID)


def mermin3_box(al: int, be: int, ga: int, ep: int) -> TripartiteBox:
    """Maximally three-way contextual vertex of the two-way local polytope.

    Even mixture of the Svetlichny boxes (al,be,ga,ep) and
    (1-al,1-be,1-ga,ep^al^be^ga); perfect three-party correlations on half the
    input triples, white-noise bipartite marginals.
    """
    return tri_vertex(mermin3_id(al, be, ga, ep))


def class8_box() -> TripartiteBox:
    """Representative of the three-way nonlocal class violating the 99-type
    facet to 5; built from its expectation list, everything unlisted is zero."""
    return tri_vertex(CLASS8_ID)


def tri_vertex(vid: TriVertexId) -> TripartiteBox:
    return TripartiteBox(boxcore._vertex_table(vid))


def all_sv_ids() -> list[TriVertexId]:
    return list(boxcore._family(TriVertexId, "Sv"))


def all_det3_ids() -> list[TriVertexId]:
    return list(boxcore._family(TriVertexId, "Det3"))


def all_pr2_ids() -> list[TriVertexId]:
    return [v for kind in ("PrAB", "PrAC", "PrBC") for v in boxcore._family(TriVertexId, kind)]


def all_mermin3_ids() -> list[TriVertexId]:
    return list(boxcore._family(TriVertexId, "Mermin3"))


def sv_polytope_ids() -> list[TriVertexId]:
    """The 128 vertices: 16 Svetlichny + 48 embedded PR + 64 deterministic."""
    return [*all_sv_ids(), *all_pr2_ids(), *all_det3_ids()]


def two_way_local_ids() -> list[TriVertexId]:
    """The 112 vertices of the two-way local polytope."""
    return [*all_pr2_ids(), *all_det3_ids()]


def tri_vertex_matrix(vertex_ids: list[TriVertexId]) -> np.ndarray:
    """Vertex tables as rows of a read-only (n_vertices, 64) matrix.

    Each vertex list is stacked once and then served from a cache.
    """
    return boxcore._vertex_rows(vertex_ids)


@functools.cache
def _sv_polytope_key() -> boxcore._IdTuple:
    """sv_polytope_ids() kept with its hash: the key that looks up its
    matrix through tri_vertex_matrix without rehashing 128 ids."""
    return boxcore._IdTuple(sv_polytope_ids())


# The first rows of the nested hulls in sv_polytope_ids() (16 Svetlichny,
# 48 embedded PR, then 64 deterministic vertices, so each hull holds the
# next): the Svetlichny polytope, the two-way local and the local polytope
_SV_STARTS = (0, 16, 64)


def parse_tri_vertex_label(label: str) -> TriVertexId:
    """Parse labels like Sv0101, Det3010011, PrAB0110, Mermin30000, Noise3.

    Raises ValueError unless the label is the canonical label of a
    tripartite catalog box: the kind followed by exactly its number of
    binary parameters.
    """
    return boxcore._parse_label(TriVertexId, label)


# ---------------------------------------------------------------------------
# Svetlichny / tripartite-Mermin functions and discords

def _per_label(box: TripartiteBox, values) -> np.ndarray:
    """`values` of a box or a stack with their axis of 8 labels split into
    the label bits [al, be, ga]; a stack's axis stays in front."""
    lead = box.correlators.shape[:-1]
    return values.reshape(lead + (2, 2, 2) + values.shape[len(lead) + 1:])


def sv_value(box: TripartiteBox, al: int, be: int, ga: int, ep: int) -> float:
    """Signed Svetlichny operator value; hybrid-local bound 4, maximum 8."""
    return boxcore._per_box(box, sv_values(box)[..., al, be, ga, ep])


def sv_values(box: TripartiteBox) -> np.ndarray:
    """All 16 signed values, shape (2,2,2,2) indexed [al,be,ga,ep]; (k,2,2,2,2)
    for a stack."""
    return _per_label(box, _corr.operator_values(box.correlators, 3))


def sv_functions(box: TripartiteBox) -> np.ndarray:
    """The 8 Svetlichny moduli S[al,be,ga] in [0, 8]."""
    return _per_label(box, _corr.moduli(box.correlators, 3))


def mermin3_value(box: TripartiteBox, al: int, be: int, ga: int, ep: int) -> float:
    """Signed tripartite Mermin operator value; LHV bound 2, maximum 4."""
    return boxcore._per_box(box, mermin3_values(box)[..., al, be, ga, ep])


def mermin3_values(box: TripartiteBox) -> np.ndarray:
    """All 16 signed Mermin values, shape (2,2,2,2) indexed [al,be,ga,ep];
    (k,2,2,2,2) for a stack."""
    return _per_label(box, _corr.operator_values(box.correlators, 3, mermin=True))


def mermin3_functions(box: TripartiteBox) -> np.ndarray:
    """The 8 Mermin moduli M[al,be,ga] in [0, 4]."""
    return _per_label(box, _corr.moduli(box.correlators, 3, mermin=True))


def discord_groupings() -> list[tuple]:
    """The nine nested-difference groupings over the 8 function labels.

    Labels are flattened as idx = 4*al + 2*be + ga. Each grouping picks an
    outer split bit (3 choices) and pairs the four labels inside each half
    either by one of the two remaining bits or diagonally (3 choices).
    Returned as ((pair, pair), (pair, pair)) per grouping.
    """
    return [tuple(tuple(zip(map(int, order[h:h + 4:2]), map(int, order[h + 1:h + 4:2])))
                  for h in (0, 4))
            for order in _corr.GROUPINGS[3]]


def svetlichny_discord(box: TripartiteBox) -> float:
    """Irreducible Svetlichny-box content times 8, in [0, 8]."""
    return boxcore._per_box(box, _corr.discord(box.correlators, 3))


def mermin3_discord(box: TripartiteBox) -> float:
    """Irreducible tripartite-Mermin-box content times 4, in [0, 4]."""
    return boxcore._per_box(box, _corr.discord(box.correlators, 3, mermin=True))


def class99_value(box: TripartiteBox) -> float:
    """<A0B0> + <A0C0> + <B1C0> + <A1B0C1> - <A1B1C1>; two-way-local bound 3."""
    e = expectations3(box)
    return boxcore._per_box(box, e.ab[..., 0, 0] + e.ac[..., 0, 0] + e.bc[..., 1, 0]
                            + e.abc[..., 1, 0, 1] - e.abc[..., 1, 1, 1])


# ---------------------------------------------------------------------------
# marginals, totals, monogamy, paradox

def marginal2(box: TripartiteBox, pair: str) -> BipartiteBox:
    """Two-party box left after summing out the third party (NS makes the
    spectator input irrelevant; input 0 is used)."""
    boxcore._one_box(box, "marginal2")
    if pair not in _PAIRS:
        raise ValueError(f"unknown pair {pair!r}")
    s = _PAIRS.index(pair)
    return boxcore.make_box(box.table.take(0, axis=s).sum(axis=s + 2))


def total_correlation3(box: TripartiteBox) -> float:
    """min over the three bipartitions of the maximal Svetlichny-function gap
    between the box and the cut-factorized surrogate."""
    return boxcore._per_box(box, _corr.total_correlation(box.flat, 3, box.correlators))


@dataclass(frozen=True)
class CorrelationSplit3:
    total: float
    svetlichny: float
    mermin: float
    classical: float
    sign: int


def correlation_split3(box: TripartiteBox) -> CorrelationSplit3:
    return CorrelationSplit3(*(boxcore._per_box(box, v)
                               for v in _corr.split(box.flat, 3, box.correlators)))


def classical_correlation3(box: TripartiteBox) -> float:
    return correlation_split3(box).classical


@dataclass(frozen=True)
class MonogamyReport3:
    sv_pair_margin: float          # min over pairs of 8 - (S_i + S_j)
    discord_margin: float          # 8 - (G + 2Q)
    marginal_bell_margins: dict    # shared party -> 4 - (G_ij + G_ik)
    marginal_mermin_margins: dict  # shared party -> 2 - (Q_ij + Q_ik)
    holds: bool                    # sv pair + discord margins only
    marginal_holds: bool           # quantum-only expectation


def monogamy_checks3(box: TripartiteBox) -> MonogamyReport3:
    """Trade-off margins; the marginal-discord relations hold for quantum
    boxes (their proofs use monogamy of entanglement) and are reported, not
    folded into ``holds``."""
    boxcore._one_box(box, "monogamy_checks3")
    s = sv_functions(box).reshape(8)
    sv_margin = min(8.0 - (s[i] + s[j]) for i, j in combinations(range(8), 2))
    gq_margin = 8.0 - (svetlichny_discord(box) + 2.0 * mermin3_discord(box))
    marg = {p: marginal2(box, p) for p in (PAIR_AB, PAIR_AC, PAIR_BC)}
    g = {p: discord2.bell_discord(b) for p, b in marg.items()}
    q = {p: discord2.mermin_discord(b) for p, b in marg.items()}
    shared = {"A": (PAIR_AB, PAIR_AC), "B": (PAIR_AB, PAIR_BC),
              "C": (PAIR_AC, PAIR_BC)}
    bell_margins = {p: 4.0 - (g[i] + g[j]) for p, (i, j) in shared.items()}
    mermin_margins = {p: 2.0 - (q[i] + q[j]) for p, (i, j) in shared.items()}
    return MonogamyReport3(
        sv_pair_margin=float(sv_margin),
        discord_margin=float(gq_margin),
        marginal_bell_margins=bell_margins,
        marginal_mermin_margins=mermin_margins,
        holds=bool(sv_margin >= -EPS_VALID and gq_margin >= -EPS_VALID),
        marginal_holds=bool(min(bell_margins.values()) >= -EPS_VALID
                            and min(mermin_margins.values()) >= -EPS_VALID),
    )


def ghz_paradox_check(box: TripartiteBox) -> bool:
    """True iff <A0B0C0> = +1 and <A0B1C1> = <A1B0C1> = <A1B1C0> = -1."""
    boxcore._one_box(box, "ghz_paradox_check")
    e = box.correlators  # <A_x B_y C_z> at 4x + 2y + z
    return bool(abs(e[0] - 1.0) <= EPS_VALID
                and all(abs(e[xyz] + 1.0) <= EPS_VALID for xyz in (0b011, 0b101, 0b110)))


# ---------------------------------------------------------------------------
# canonical 3-decomposition inside the Svetlichny-box polytope

def in_sv_polytope(box: TripartiteBox) -> bool:
    """Whether the box lies in the 128-vertex polytope; equal to
    lp_vertex_weights over its vertices is not None.

    Asked as the outermost flag of polytope.nested_hull_flags, on the same
    kept tier-cost model, which solves faster than the zero-cost LP (about
    0.36 against 0.46 ms); a target neither of its certificates settles
    gets the zero-cost LP.
    """
    vertices = tri_vertex_matrix(_sv_polytope_key())
    t, x, y = polytope._nested_lp(box.table.reshape(-1), vertices, _SV_STARTS)
    return polytope._hull_flag(t, vertices, 0, x, y)


def _mermin3_partners(svid: TriVertexId) -> list[TriVertexId]:
    """Both Mermin boxes canonical to the Svetlichny label."""
    al, be, ga, ep = svid.params
    return [mermin3_id(al, be, ga, ep),
            mermin3_id(al ^ 1, be ^ 1, ga ^ 1, ep ^ al ^ be ^ ga ^ 1)]


def three_decomposition3(box: TripartiteBox) -> DecompositionResult:
    """Split a Svetlichny-polytope box into Svetlichny box, tripartite Mermin
    box and a residual with both discords zero.

    mu = svetlichny_discord/8, nu = mermin3_discord/4, taken over the first
    of the 32 canonical (Svetlichny, Mermin) pairs that leaves a valid
    residual, in the order of polytope._canonical_split. Raises
    NotInPolytopeError for boxes outside the 128-vertex polytope and
    ResidualInvalidError if no pair splits the box.
    """
    if not in_sv_polytope(box):
        raise NotInPolytopeError("box is outside the Svetlichny-box polytope")
    result = polytope._canonical_split(box, _sv_pairs(), svetlichny_discord(box) / 8.0,
                                       mermin3_discord(box) / 4.0, polytope.DISCORD_TOL)
    if result is None:
        raise ResidualInvalidError("no canonical pair yields a valid double-zero residual")
    return result


@functools.cache
def _sv_pairs() -> polytope._CanonicalPairs:
    """The 16 Svetlichny boxes with their canonical Mermin partners, built once."""
    return polytope._canonical_pairs(3, all_sv_ids(), [_mermin3_partners(s) for s in all_sv_ids()])


# ---------------------------------------------------------------------------
# tripartite local reversible operations

@dataclass(frozen=True)
class Lro3:
    """Party permutation followed by per-party input/output relabels."""

    perm: tuple[int, int, int] = (0, 1, 2)
    relabels: tuple[PartyRelabel, PartyRelabel, PartyRelabel] = (
        boxcore.IDENTITY_RELABEL,) * 3


def apply_lro3(box: TripartiteBox, g: Lro3) -> TripartiteBox:
    return TripartiteBox(boxcore._relabeled(box.table, g.relabels, g.perm))


def lro3_index_permutation(g: Lro3) -> np.ndarray:
    """Index map: apply_lro3(box, g).table.ravel() == table.ravel()[perm]."""
    return boxcore._index_permutation(g.relabels, g.perm)


def invert_lro3(g: Lro3) -> Lro3:
    relabels, perm = boxcore._inverse(g.relabels, g.perm)
    return Lro3(perm=perm, relabels=relabels)


_PARTY_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def lro3_samples(rng: np.random.Generator, n: int) -> list[Lro3]:
    """n random group elements for sampled invariance tests."""
    rels = boxcore.party_relabels()
    return [Lro3(perm=_PARTY_PERMS[rng.integers(len(_PARTY_PERMS))],
                 relabels=tuple(rels[rng.integers(8)] for _ in range(3)))
            for _ in range(n)]


def random_sv_polytope_box(rng: np.random.Generator) -> TripartiteBox:
    """Random mixture of the 128 polytope vertices (flat Dirichlet weights)."""
    m = tri_vertex_matrix(_sv_polytope_key())
    w = rng.exponential(size=m.shape[0])
    w /= w.sum()
    return make_box3((w @ m).reshape((2,) * 6))


# ---------------------------------------------------------------------------
# JSON interchange

def box3_to_json(box: TripartiteBox) -> str:
    return boxcore._to_json(box)


def box3_from_json(text: str) -> TripartiteBox:
    return make_box3(boxcore._json_table(text, 3))
