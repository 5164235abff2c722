"""Correlation core shared by the bipartite and tripartite measures.

A box of n parties (n = 2 or 3) is a flat table of 4**n probabilities ordered
as ``[x_1..x_n, a_1..a_n]``: inputs before outputs, the first party's bit most
significant. Every Bell, Mermin and Svetlichny quantity goes through three
steps, each over any leading batch shape:

1. correlators: ``E_i = sum_a (-1)^(a_1 ^ .. ^ a_n) P(a|i)`` for each input
   string i, shape ``(..., 2**n)``;
2. operator values: operator l sums ``s_l(i) E_i`` with the sign rule
   ``s_l(i) = (-1)^(e2(i) ^ l.i)``, where ``e2(i)`` is the XOR of the pairwise
   input products and ``l.i`` the XOR of the bitwise products. This is CHSH
   at n = 2 and Svetlichny at n = 3. The Mermin operators keep the same signs
   on a subset of the inputs: ``x ^ y = beta`` at n = 2, and input parity
   different from label parity at n = 3. A last output bit negates the value;
3. discords: the minimum over index groupings of the nested differences of
   the operator moduli (the 3 pairings at n = 2, 9 groupings at n = 3).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ._tol import EPS_VALID


def _popcount(v, n):
    return sum((v >> p) & 1 for p in range(n))


def _sign_rules(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(operator signs, Mermin signs), each (2**n labels, 2**n inputs)."""
    label, inp = np.indices((2 ** n, 2 ** n))
    bits = [(inp >> p) & 1 for p in range(n)]
    e2 = sum(bits[p] & bits[q] for p, q in combinations(range(n), 2))
    signs = (-1.0) ** (e2 + _popcount(label & inp, n))
    if n == 2:
        keep = bits[0] ^ bits[1] == label & 1
    else:
        keep = _popcount(inp, n) % 2 != _popcount(label, n) % 2
    return signs, signs * keep


def _leaf_orders(n: int) -> np.ndarray:
    """Groupings as leaf orders, shape (n_groupings, 2**n).

    Adjacent leaves pair first, then adjacent pairs, and so on. Each half of
    the labels (all of them at n = 2; at n = 3 the halves split on one label
    bit) pairs each label with its XOR under one mask of the remaining bits.
    """
    bits = [1 << p for p in reversed(range(n))]
    orders = []
    for split in ([0] if n == 2 else bits):
        halves = [[i for i in range(2 ** n) if i & split == v] for v in sorted({0, split})]
        free = [b for b in bits if b != split]
        for mask in (free[0], free[1], free[0] | free[1]):
            orders.append([k for half in halves for i in half if i < i ^ mask
                           for k in (i, i ^ mask)])
    return np.array(orders)


def _cut_map(n: int) -> np.ndarray:
    """L, (4**n, cuts * 2 * 2**n): block [cut, side] of t @ L holds one side's
    correlators, averaged over the other side's inputs, at every input string.
    A cut S|S' has S among the party masks below 2**(n-1)."""
    cells = np.eye(4 ** n).reshape((4 ** n,) + (2,) * n + (2 ** n,))  # [cell, inputs, outputs]
    blocks = []
    for side in (s for cut in range(1, 2 ** (n - 1)) for s in (cut, 2 ** n - 1 - cut)):
        e = cells @ _OUTPUT_PARITY[n][side]
        others = tuple(1 + p for p in range(n) if not side >> (n - 1 - p) & 1)
        blocks.append(np.broadcast_to(e.mean(axis=others, keepdims=True), e.shape))
    return np.stack(blocks, axis=1).reshape(4 ** n, -1)


_SIGNS = {n: _sign_rules(n) for n in (2, 3)}
_OUTPUT_PARITY = {n: (-1.0) ** _popcount(np.arange(2 ** n)[:, None] & np.arange(2 ** n), n)
                  for n in (2, 3)}  # [party mask, outputs]
_CUT_MAPS = {n: _cut_map(n) for n in (2, 3)}
GROUPINGS = {n: _leaf_orders(n) for n in (2, 3)}
_NEGATE = np.array([1.0, -1.0])  # output bit 1 negates an operator value
_BLOCK = 1 << 15  # rows per block of a large nested_min, which bounds its scratch memory
_FEW = 64  # nested_min takes stacks up to this many rows in one pass


def correlators(tables, n: int, parties: int | None = None) -> np.ndarray:
    """Correlators (..., 2**n) of flat tables (..., 4**n).

    ``parties`` is a bit mask (first party most significant) of the outputs
    that enter the sign; by default all of them.
    """
    t = np.asarray(tables)
    mask = 2 ** n - 1 if parties is None else parties
    return t.reshape(t.shape[:-1] + (2 ** n, 2 ** n)) @ _OUTPUT_PARITY[n][mask]


def _signed_sums(corr, n: int, mermin: bool) -> np.ndarray:
    """sum_i s_l(i) E_i for every label l as one matrix product, the labels
    first, shape (2**n, ...), so that later steps run along the batch."""
    corr = np.asarray(corr)
    return (_SIGNS[n][mermin] @ corr.reshape(-1, 2 ** n).T).reshape((2 ** n,) + corr.shape[:-1])


def _moduli(corr, n: int, mermin: bool) -> np.ndarray:
    v = _signed_sums(corr, n, mermin)
    return np.abs(v, out=v)


def operator_values(corr, n: int, mermin: bool = False) -> np.ndarray:
    """Signed operator values (..., 2**n, 2), indexed [label, output bit]."""
    # + 0.0 turns the -0.0 of a negated zero into +0.0 and leaves all else
    return np.matmul(corr, _SIGNS[n][mermin].T)[..., None] * _NEGATE + 0.0


def moduli(corr, n: int, mermin: bool = False) -> np.ndarray:
    """Operator moduli (..., 2**n), one per label."""
    return np.abs(np.matmul(corr, _SIGNS[n][mermin].T))


def nested_min(funcs, n: int) -> np.ndarray:
    """Minimum over GROUPINGS[n] of the nested differences of funcs, shape
    (2**n, ...) with the labels first."""
    f = np.asarray(funcs)
    rows = f.reshape(2 ** n, -1)
    if rows.shape[1] <= _FEW:  # one gathered pass costs less than row by row here
        x = rows[GROUPINGS[n]]
        while x.shape[1] > 1:
            x = np.abs(x[:, ::2] - x[:, 1::2])
        return x[:, 0].min(axis=0).reshape(f.shape[1:])
    out = np.empty(rows.shape[1])
    for start in range(0, rows.shape[1], _BLOCK):
        # the same differences as above, level by level on whole rows of
        # the block (contiguous, no gathered copy), then a running minimum
        r, best = rows[:, start:start + _BLOCK], out[start:start + _BLOCK]
        best.fill(np.inf)
        for order in GROUPINGS[n]:
            level = [r[a] - r[b] for a, b in zip(order[::2], order[1::2])]
            while len(level) > 1:
                level = [np.subtract(np.abs(p, out=p), np.abs(q, out=q), out=p)
                         for p, q in zip(level[::2], level[1::2])]
            np.minimum(best, np.abs(level[0], out=level[0]), out=best)
    return out.reshape(f.shape[1:])


def discord(corr, n: int, mermin: bool = False) -> np.ndarray:
    """Bell/Svetlichny discord, or the Mermin discord, of correlators (..., 2**n)."""
    return nested_min(_moduli(corr, n, mermin), n)


def total_correlation(tables, n: int, corr=None) -> np.ndarray:
    """min over cuts S|S' of max_l | |V_l(E)| - |V_l(E_S E_S')| |.

    V_l is the CHSH/Svetlichny operator and E_S E_S' the correlators of the
    box factorized across the cut: one product with _CUT_MAPS[n] gives both
    sides of every cut. ``corr`` are the tables' correlators, if already known.
    """
    t = np.asarray(tables)
    f = _moduli(correlators(t, n) if corr is None else corr, n, False)
    sides = (t @ _CUT_MAPS[n]).reshape(t.shape[:-1] + (2 ** (n - 1) - 1, 2, 2 ** n))
    cut = _moduli(sides[..., 0, :] * sides[..., 1, :], n, False)  # (2**n, ..., cuts)
    return np.abs(f[..., None] - cut).max(axis=0).min(axis=-1)


def measures(tables, n: int, corr=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(discord, Mermin discord, total correlation) of flat tables (..., 4**n),
    from their correlators ``corr`` if already known."""
    e = correlators(tables, n) if corr is None else corr
    return discord(e, n), discord(e, n, mermin=True), total_correlation(tables, n, e)


def split(tables, n: int, corr=None) -> tuple[np.ndarray, ...]:
    """(T, G, Q, |T - G - Q|, sign) of flat tables (..., 4**n), the sign +1 where
    T - G - Q >= -EPS_VALID: where T = G + Q up to rounding, it reads +1 in any
    summation order."""
    g, q, t = measures(tables, n, corr)
    rest = t - g - q
    return t, g, q, np.abs(rest), np.where(rest >= -EPS_VALID, 1, -1)
