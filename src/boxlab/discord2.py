"""Correlation measures: Bell/Mermin functions, discords, totals, monogamy.

All measures depend on the box only through its joint and marginal
expectations. The readers call the sign-rule core :mod:`boxlab._corr` on
``box.correlators`` at ``box.parties``, so they serve two parties (CHSH,
Mermin) and three (Svetlichny, tripartite Mermin; ``tribox`` names them).
The measures that the CLI sweeps (G, Q, T, C, the operator values,
steering) also read a box stack and give one value per box, as a (k,)
array; one box gives a float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _corr
from .boxcore import (
    EPS_VALID,
    BipartiteBox,
    _Box,
    _one_box,
    _per_box,
    _per_label,
)

SQRT2 = float(np.sqrt(2.0))
STEERING_BOUND = SQRT2
CHSH_LOCAL_BOUND = 2.0

_PAIRS = np.triu_indices(4, 1)  # every pair of the labels 2 * alpha + beta


def chsh_value(box: BipartiteBox, alpha: int, beta: int, gamma: int) -> float:
    """Signed Bell-CHSH operator value; local bound 2, algebraic maximum 4."""
    return _per_box(box, chsh_values(box)[..., alpha, beta, gamma])


def chsh_values(box: _Box) -> np.ndarray:
    """All signed CHSH values, shape (2, 2, 2) [alpha, beta, gamma], local
    bound 2, maximum 4; or Svetlichny values, (2, 2, 2, 2) [al, be, ga, ep],
    hybrid-local bound 4, maximum 8. A stack's axis comes first."""
    return _per_label(box, _corr.operator_values(box.correlators, box.parties))


def bell_functions(box: _Box) -> np.ndarray:
    """The CHSH moduli B[alpha, beta] in [0, 4], or the Svetlichny moduli
    S[al, be, ga] in [0, 8]."""
    return _per_label(box, _corr.moduli(box.correlators, box.parties))


def mermin_value(box: BipartiteBox, alpha: int, beta: int, gamma: int) -> float:
    """Signed Mermin operator value; local/steering structure bound sqrt(2).

    (-1)^gamma * sum over x^y = beta of (-1)^(xy ^ alpha x ^ beta y) <A_x B_y>.
    """
    return _per_box(box, mermin_values(box)[..., alpha, beta, gamma])


def mermin_values(box: _Box) -> np.ndarray:
    """All signed Mermin values, indexed as chsh_values: maximum 2 for two
    parties; LHV bound 2, maximum 4 for three."""
    return _per_label(box, _corr.operator_values(box.correlators, box.parties, mermin=True))


def mermin_functions(box: _Box) -> np.ndarray:
    """The Mermin moduli M[alpha, beta] in [0, 2], or M[al, be, ga] in [0, 4].

    M[0,0]=|<A0B0>-<A1B1>|, M[0,1]=|<A0B1>-<A1B0>|,
    M[1,0]=|<A0B0>+<A1B1>|, M[1,1]=|<A0B1>+<A1B0>|.
    """
    return _per_label(box, _corr.moduli(box.correlators, box.parties, mermin=True))


def bell_discord(box: _Box) -> float:
    """Irreducible PR-box content times 4, in [0, 4], or Svetlichny-box
    content times 8, in [0, 8]; 0 for every deterministic box."""
    return _per_box(box, _corr.discord(box.correlators, box.parties))


def mermin_discord(box: _Box) -> float:
    """Irreducible Mermin-box content times 2, in [0, 2], or tripartite-Mermin
    content times 4, in [0, 4]; 0 for PR, Svetlichny and deterministic boxes."""
    return _per_box(box, _corr.discord(box.correlators, box.parties, mermin=True))


def total_correlation(box: _Box) -> float:
    """Distance of the box from the product of its own marginals.

    max over (alpha, beta) of |B_{ab} - B^prod_{ab}|, where B^prod is the
    Bell function of the product box built from the single-party
    expectations; for three parties, the least over the three bipartitions
    of the largest Svetlichny-function gap to the cut-factorized box.
    """
    return _per_box(box, _corr.total_correlation(box.flat, box.parties, box.correlators))


@dataclass(frozen=True)
class CorrelationSplit:
    """Additivity bookkeeping T = G + Q +/- C."""

    total: float
    bell: float
    mermin: float
    classical: float
    sign: int  # +1 if T >= G + Q up to EPS_VALID, else -1

    @property
    def residual(self) -> float:
        return self.total - self.bell - self.mermin - self.sign * self.classical


def correlation_split(box: _Box) -> CorrelationSplit:
    return CorrelationSplit(*(_per_box(box, v)
                              for v in _corr.split(box.flat, box.parties, box.correlators)))


def classical_correlation(box: _Box) -> float:
    """|T - G - Q|; the sign convention lives in correlation_split."""
    return correlation_split(box).classical


def steering_flags(box: BipartiteBox) -> np.ndarray:
    """Per-operator flags M[alpha, beta] > sqrt(2), shape (2, 2) bool."""
    return mermin_functions(box) > STEERING_BOUND


def steering_value(box: BipartiteBox) -> float:
    """Largest Mermin-operator modulus, to compare against the sqrt(2) bound."""
    return _per_box(box, mermin_functions(box).max(axis=(-2, -1)))


def is_epr_steerable(box: BipartiteBox) -> bool:
    """Steerable means some Mermin operator exceeds sqrt(2) *and* Q > 0.

    The second condition excludes classically correlated boxes, which reach
    Mermin value 2 without any irreducible Mermin-box component. A stack
    gives a (k,) bool array, one flag per box.
    """
    return _per_box(box, steering_flags(box).any(axis=(-2, -1))
                    & (mermin_discord(box) > EPS_VALID))


@dataclass(frozen=True)
class MonogamyReport:
    """Trade-off margins for one box; all margins >= -EPS_VALID when the box is valid."""

    bell_pair_margin: float     # min over pairs of 4 - (B_i + B_j)
    worst_bell_pair: tuple[tuple[int, int], tuple[int, int]]
    discord_margin: float       # 4 - (G + 2 Q)
    holds: bool


def monogamy_checks(box: BipartiteBox) -> MonogamyReport:
    """Check B_i + B_j <= 4 for every pair of Bell functions and G + 2Q <= 4."""
    _one_box(box, "monogamy_checks")
    b = bell_functions(box).reshape(4)
    i, j = _PAIRS
    margins = 4.0 - (b[i] + b[j])
    k = int(np.argmin(margins))
    pair_margin, worst_pair = margins[k], (divmod(int(i[k]), 2), divmod(int(j[k]), 2))
    gq_margin = 4.0 - (bell_discord(box) + 2.0 * mermin_discord(box))
    return MonogamyReport(
        bell_pair_margin=float(pair_margin),
        worst_bell_pair=worst_pair,
        discord_margin=float(gq_margin),
        holds=bool(pair_margin >= -EPS_VALID and gq_margin >= -EPS_VALID),
    )
