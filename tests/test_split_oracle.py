"""An exact oracle for the three-way split of bipartite boxes.

boxlab splits a box t as mu PR + nu Mermin + (1 - mu - nu) residual, with
one PR and one MerminMM catalog vertex and a residual whose Bell and Mermin
discords are zero; the paper's weights are mu = G/4, nu = Q/2. For one of
the 64 (PR, MerminMM) pairs, the residual numerator r = t - mu P - nu M is
affine in (mu, nu). Nonnegativity, G(r) = 0 and Q(r) = 0 depend only on the
signs of 64 linear functionals of r, each zero along a line of the
(mu, nu) plane:

- the 16 entries of r;
- for the CHSH values and again for the Mermin values (label bit gamma = 0):
  the 4 values, their 12 pairwise sums and differences, and the 8 signed
  sums of all four.

On each cell of that line arrangement (with mu = 0 and nu = 0 added), r and
each nested difference of the operator moduli are linear, and the nested
differences are nonnegative. So where one nested difference of G and one of
Q both vanish on a cell, they vanish on a face of it, which holds a vertex.
The feasible set is bounded (the entries of r sum to 1 - mu - nu per input
pair), so checking every pairwise intersection of the 66 lines decides
whether a pair splits the box at any weights. The operator values and
discords are computed here from their formulas, not through boxlab._corr.
"""

from itertools import combinations

import numpy as np
import pytest

from boxlab import boxcore, polytope

TOL = 1e-9  # on the unnormalized residual numerator r

# E_xy = sum_ab (-1)^(a ^ b) P(ab|xy); table entries are ordered [x, y, a, b]
_X, _Y, _A, _B = np.indices((2, 2, 2, 2)).reshape(4, 16)
CORRELATORS = np.array([np.where((_X == x) & (_Y == y), (-1.0) ** (_A ^ _B), 0.0)
                        for x in (0, 1) for y in (0, 1)])  # (4 inputs 2x+y, 16)
_al, _be, _x, _y = np.indices((2, 2, 2, 2)).reshape(4, 16)
_sign = (-1.0) ** (_x * _y ^ _al * _x ^ _be * _y)
CHSH = _sign.reshape(4, 4)  # [label 2 alpha + beta, input 2x + y]
MERMIN = (_sign * ((_x ^ _y) == _be)).reshape(4, 4)  # the inputs with x ^ y = beta
PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def _functionals() -> np.ndarray:
    """The 64 functionals of a table as rows, (64, 16)."""
    rows = [np.eye(16)]
    for signs in (CHSH, MERMIN):
        v = signs @ CORRELATORS
        rows.append(v)
        rows.append([v[i] + s * v[j] for i, j in combinations(range(4), 2) for s in (1, -1)])
        rows.append([v[0] + s1 * v[1] + s2 * v[2] + s3 * v[3]
                     for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)])
    return np.vstack(rows)


FUNCTIONALS = _functionals()
PAIRS = [(p, m) for p in boxcore.all_pr_ids() for m in boxcore.all_mermin_ids()]
_P = np.array([boxcore.vertex(p).table.reshape(16) for p, _ in PAIRS])
_M = np.array([boxcore.vertex(m).table.reshape(16) for _, m in PAIRS])


def discord(tables, signs) -> np.ndarray:
    """The minimum over the three pairings of the nested differences of the
    operator moduli, for tables (..., 16)."""
    f = np.abs(tables @ (signs @ CORRELATORS).T)
    return np.min([np.abs(np.abs(f[..., a] - f[..., b]) - np.abs(f[..., c] - f[..., d]))
                   for (a, b), (c, d) in PAIRINGS], axis=0)


def splits(t, mu, nu, p=_P, m=_M) -> np.ndarray:
    """Whether t - mu p - nu m is nonnegative with both discords zero, for
    weights and pair tables that broadcast."""
    r = t - mu[..., None] * p - nu[..., None] * m
    return ((r.min(axis=-1) >= -TOL) & (mu >= -TOL) & (nu >= -TOL)
            & (discord(r, CHSH) <= TOL) & (discord(r, MERMIN) <= TOL))


def paper_weights(t):
    """(G/4, Q/2) of tables (..., 16)."""
    return discord(t, CHSH) / 4.0, discord(t, MERMIN) / 2.0


def classify(t) -> str:
    """"paper" if some pair splits t at the paper's weights, "other" if some
    pair splits it only at other weights, "none" if no pair splits it."""
    mu, nu = paper_weights(t)
    if splits(t, np.full(len(PAIRS), mu), np.full(len(PAIRS), nu)).any():
        return "paper"
    # each line a mu + b nu = c, per pair: the functionals, then mu = 0, nu = 0
    a = np.hstack([_P @ FUNCTIONALS.T, np.ones((len(PAIRS), 1)), np.zeros((len(PAIRS), 1))])
    b = np.hstack([_M @ FUNCTIONALS.T, np.zeros((len(PAIRS), 1)), np.ones((len(PAIRS), 1))])
    c = np.hstack([np.broadcast_to(FUNCTIONALS @ t, (len(PAIRS), 64)), np.zeros((len(PAIRS), 2))])
    i, j = np.triu_indices(a.shape[1], 1)
    det = a[:, i] * b[:, j] - a[:, j] * b[:, i]
    ok = np.abs(det) > 1e-12  # a and b are multiples of 1/4: det is 0 or at least 1/16
    det = np.where(ok, det, 1.0)
    mus = np.where(ok, (c[:, i] * b[:, j] - c[:, j] * b[:, i]) / det, -1.0)
    nus = np.where(ok, (a[:, i] * c[:, j] - a[:, j] * c[:, i]) / det, -1.0)
    found = splits(t, mus, nus, _P[:, None], _M[:, None])
    return "other" if found.any() else "none"


@pytest.fixture(scope="module")
def draws():
    return polytope.random_ns_tables(np.random.default_rng(0), 4000).reshape(4000, 16)


# the seed-0 draws that three_decomposition refuses, by the oracle's verdict
REFUSED = {1176: "paper",
           421: "other", 1188: "other", 1932: "other", 2291: "other", 3991: "other",
           102: "none", 1209: "none", 1879: "none", 2366: "none"}


def test_the_library_refuses_ten_draws_and_the_oracle_splits_the_rest_at_paper_weights(draws):
    refused = []
    for k, t in enumerate(draws):
        try:
            polytope.three_decomposition(boxcore.make_box(t))
        except polytope.ResidualInvalidError:
            refused.append(k)
    assert refused == sorted(REFUSED)
    n = len(PAIRS)
    mu, nu = (np.repeat(w[:, None], n, axis=1) for w in paper_weights(draws))
    at_paper = splits(draws[:, None], mu, nu, _P[None], _M[None]).any(axis=1)
    assert np.flatnonzero(~at_paper).tolist() == sorted(k for k, v in REFUSED.items()
                                                        if v != "paper")


@pytest.mark.parametrize("index, verdict", sorted(REFUSED.items()))
def test_oracle_classifies_the_seed_0_refusals(draws, index, verdict):
    assert classify(draws[index]) == verdict


@pytest.mark.parametrize("index", range(20))
def test_oracle_confirms_the_library_split(draws, index):
    t = draws[index]
    res = polytope.three_decomposition(boxcore.make_box(t))
    mu, nu = paper_weights(t)
    assert (res.mu, res.nu) == pytest.approx((mu, nu), abs=1e-12)
    p, m = (boxcore.vertex(v).table.reshape(16) for v in (res.pr_id, res.mermin_id))
    assert splits(t, mu, nu, p, m)
    residual = (t - mu * p - nu * m) / (1.0 - mu - nu)
    assert np.abs(res.residual.table.reshape(16) - residual).max() <= 1e-9
