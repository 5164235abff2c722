"""An exact oracle for the two-way split of bipartite boxes.

boxlab splits a box t as mu PR + (1 - mu) residual, with one of the 8 PR
boxes and a residual whose Bell discord is zero; the paper's weight is
mu = G/4. For one PR box P, the residual numerator r = t - mu P is affine in
mu. Nonnegativity and G(r) = 0 depend only on the signs of 40 linear
functionals of r, each zero at one mu (or never):

- the 16 entries of r;
- the 4 CHSH values (label bit gamma = 0), their 12 pairwise sums and
  differences, and the 8 signed sums of all four.

Between those points (with mu = 0 added), r and each nested difference of
the CHSH moduli are linear, and the nested differences are nonnegative. So a
nested difference that vanishes inside an interval vanishes on all of it,
and checking the points decides whether P splits t at any weight. The signs
and the discord are test_split_oracle's, computed from their formulas, not
through boxlab._corr.
"""

from itertools import combinations

import numpy as np
import pytest
from test_split_oracle import CHSH, CORRELATORS, TOL, discord

from boxlab import _tol, boxcore, discord2, polytope, qstate

PR_IDS = boxcore.all_pr_ids()
_PR = np.array([boxcore.vertex(p).table.reshape(16) for p in PR_IDS])  # (8, 16)


def _functionals() -> np.ndarray:
    """The 40 functionals of a table as rows, (40, 16)."""
    v = CHSH @ CORRELATORS
    return np.vstack([np.eye(16), v,
                      [v[i] + s * v[j] for i, j in combinations(range(4), 2) for s in (1, -1)],
                      [v[0] + s1 * v[1] + s2 * v[2] + s3 * v[3]
                       for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]])


FUNCTIONALS = _functionals()


def splits(t, mu, p=_PR) -> np.ndarray:
    """Whether t - mu p is nonnegative with zero Bell discord, for weights
    and PR tables that broadcast."""
    r = t - mu[..., None] * p
    return (r.min(axis=-1) >= -TOL) & (mu >= -TOL) & (discord(r, CHSH) <= TOL)


def by_signed_chsh(t) -> np.ndarray:
    """PR indices by descending CHSH value of t on each PR box's own Bell
    operator (the sum of E_xy(P) E_xy(t), 4 on P itself), lowest index first
    on ties."""
    value = (_PR @ CORRELATORS.T) @ (CORRELATORS @ t)
    return np.argsort(-(value - 1e-12 * np.arange(8)), kind="stable")


def classify(t) -> str:
    """"paper" if some PR box splits t at mu = G/4, "other" if some PR box
    splits it only at other weights, "none" if no PR box splits it."""
    if splits(t, np.full(8, discord(t, CHSH) / 4.0)).any():
        return "paper"
    a, c = _PR @ FUNCTIONALS.T, FUNCTIONALS @ t  # each point: a mu = c
    ok = np.abs(a) > 1e-12  # a is a multiple of 1/2: 0 or at least 1/2
    mus = np.hstack([np.where(ok, c / np.where(ok, a, 1.0), -1.0), np.zeros((8, 1))])
    return "other" if splits(t, mus, _PR[:, None]).any() else "none"


def _tilted_product_box():
    """The product box of test_polytope's tilted-product refusal."""
    rho = qstate.density_matrix(np.kron(
        0.5 * (np.eye(2) + qstate.SIGMA_X),
        0.5 * (np.eye(2) + 0.8 * qstate.SIGMA_X + 0.1 * qstate.SIGMA_Y)))
    frame = qstate.settings([1, 0, 0], [2 / np.sqrt(5), 1 / np.sqrt(5), 0],
                            [1, 0, 0], [0, 1, 0])
    return qstate.born_box2(rho, frame)


def test_every_seed_0_draw_splits_over_the_first_pr_box_the_oracle_accepts():
    draws = polytope.random_ns_tables(np.random.default_rng(0), 4000).reshape(4000, 16)
    mu = discord(draws, CHSH) / 4.0
    accepted = splits(draws[:, None], np.repeat(mu[:, None], 8, axis=1), _PR[None])
    for t, m, ok in zip(draws, mu, accepted):
        res = polytope.canonical_2decomposition(boxcore.make_box(t))
        assert res.mu == pytest.approx(m, abs=1e-12)
        assert res.pr_id == PR_IDS[next(i for i in by_signed_chsh(t) if ok[i])]
        recon = res.reconstruction(boxcore.vertex(res.pr_id).table, None)
        assert np.abs(recon - t.reshape(recon.shape)).max() <= 1e-9
        assert discord(res.residual.table.reshape(16), CHSH) <= _tol.DISCORD_TOL


def test_the_tilted_product_box_splits_over_no_pr_box_at_the_paper_weight():
    box = _tilted_product_box()
    t = box.table.reshape(16)
    assert discord(t, CHSH) > 0.1
    assert not splits(t, np.full(8, discord(t, CHSH) / 4.0)).any()
    assert classify(t) == "none"
    with pytest.raises(polytope.ResidualInvalidError):
        polytope.canonical_2decomposition(box)


# 0.7 tilted product box + 0.3 PR box, by PR box: the oracle's verdict
TILTED_MIXTURES = {"PR000": "paper", "PR001": "other", "PR010": "paper", "PR011": "other",
                   "PR100": "none", "PR101": "paper", "PR110": "other", "PR111": "other"}


@pytest.mark.parametrize("label, verdict", sorted(TILTED_MIXTURES.items()))
def test_the_library_splits_a_tilted_mixture_iff_the_oracle_finds_a_paper_weight_split(
        label, verdict):
    pr = boxcore.vertex(boxcore.parse_vertex_label(label)).table.reshape(16)
    t = 0.7 * _tilted_product_box().table.reshape(16) + 0.3 * pr
    assert classify(t) == verdict
    box = boxcore.make_box(t)
    if verdict == "paper":
        assert polytope.canonical_2decomposition(box).mu == discord2.bell_discord(box) / 4
    else:
        with pytest.raises(polytope.ResidualInvalidError):
            polytope.canonical_2decomposition(box)
