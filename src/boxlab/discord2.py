"""Bipartite correlation measures: Bell/Mermin functions, discords, totals, monogamy.

All measures depend on the box only through its joint and marginal
expectations. The ``*_from_expectations`` functions take ``(..., 2, 2)``
stacks of joint expectations; they and the single-box functions share the
sign-rule core in :mod:`boxlab._corr`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _corr
from .boxcore import (
    EPS_VALID,
    BipartiteBox,
    joint_expectations,
)

SQRT2 = float(np.sqrt(2.0))
STEERING_BOUND = SQRT2
CHSH_LOCAL_BOUND = 2.0

_PAIRS = np.triu_indices(4, 1)  # every pair of the labels 2 * alpha + beta


def chsh_value(box: BipartiteBox, alpha: int, beta: int, gamma: int) -> float:
    """Signed Bell-CHSH operator value; local bound 2, algebraic maximum 4."""
    return float(chsh_values(box)[alpha, beta, gamma])


def chsh_values(box: BipartiteBox) -> np.ndarray:
    """All 8 signed CHSH values, shape (2, 2, 2) indexed [alpha, beta, gamma]."""
    return chsh_values_from_expectations(joint_expectations(box))


def _flat(e) -> np.ndarray:
    e = np.asarray(e)
    return e.reshape(e.shape[:-2] + (4,))


def chsh_values_from_expectations(e: np.ndarray) -> np.ndarray:
    e = np.asarray(e)
    return _corr.operator_values(_flat(e), 2).reshape(e.shape[:-2] + (2, 2, 2))


def bell_functions(box: BipartiteBox) -> np.ndarray:
    """The four CHSH moduli B[alpha, beta] = |B_{alpha beta gamma}|, shape (2, 2)."""
    return bell_functions_from_expectations(joint_expectations(box))


def bell_functions_from_expectations(e: np.ndarray) -> np.ndarray:
    return _corr.moduli(_flat(e), 2).reshape(np.shape(e))


def mermin_value(box: BipartiteBox, alpha: int, beta: int, gamma: int) -> float:
    """Signed Mermin operator value; local/steering structure bound sqrt(2).

    (-1)^gamma * sum over x^y = beta of (-1)^(xy ^ alpha x ^ beta y) <A_x B_y>.
    """
    return float(mermin_values(box)[alpha, beta, gamma])


def mermin_values(box: BipartiteBox) -> np.ndarray:
    """All 8 signed Mermin values, shape (2, 2, 2) indexed [alpha, beta, gamma]."""
    e = _flat(joint_expectations(box))
    return _corr.operator_values(e, 2, mermin=True).reshape(2, 2, 2)


def mermin_functions(box: BipartiteBox) -> np.ndarray:
    """The four Mermin moduli M[alpha, beta], shape (2, 2).

    M[0,0]=|<A0B0>-<A1B1>|, M[0,1]=|<A0B1>-<A1B0>|,
    M[1,0]=|<A0B0>+<A1B1>|, M[1,1]=|<A0B1>+<A1B0>|.
    """
    return mermin_functions_from_expectations(joint_expectations(box))


def mermin_functions_from_expectations(e: np.ndarray) -> np.ndarray:
    return _corr.moduli(_flat(e), 2, mermin=True).reshape(np.shape(e))


def bell_discord(box: BipartiteBox) -> float:
    """Irreducible PR-box content times 4; 0 for every deterministic box."""
    return float(bell_discord_from_expectations(joint_expectations(box)))


def bell_discord_from_expectations(e: np.ndarray) -> np.ndarray:
    return _corr.discord(_flat(e), 2)


def mermin_discord(box: BipartiteBox) -> float:
    """Irreducible Mermin-box content times 2; 0 for PR and deterministic boxes."""
    return float(mermin_discord_from_expectations(joint_expectations(box)))


def mermin_discord_from_expectations(e: np.ndarray) -> np.ndarray:
    return _corr.discord(_flat(e), 2, mermin=True)


def total_correlation(box: BipartiteBox) -> float:
    """Distance of the box from the product of its own marginals.

    max over (alpha, beta) of |B_{ab} - B^prod_{ab}|, where B^prod is the
    Bell function of the product box built from the single-party expectations.
    """
    return float(_corr.total_correlation(box.table.reshape(16), 2, box.correlators))


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


def correlation_split(box: BipartiteBox) -> CorrelationSplit:
    return CorrelationSplit(*_corr.split(box.table.reshape(16), 2, box.correlators))


def classical_correlation(box: BipartiteBox) -> float:
    """|T - G - Q|; the sign convention lives in correlation_split."""
    return correlation_split(box).classical


def steering_flags(box: BipartiteBox) -> np.ndarray:
    """Per-operator flags M[alpha, beta] > sqrt(2), shape (2, 2) bool."""
    return mermin_functions(box) > STEERING_BOUND


def steering_value(box: BipartiteBox) -> float:
    """Largest Mermin-operator modulus, to compare against the sqrt(2) bound."""
    return float(np.max(mermin_functions(box)))


def is_epr_steerable(box: BipartiteBox) -> bool:
    """Steerable means some Mermin operator exceeds sqrt(2) *and* Q > 0.

    The second condition excludes classically correlated boxes, which reach
    Mermin value 2 without any irreducible Mermin-box component.
    """
    return bool(steering_flags(box).any()) and mermin_discord(box) > EPS_VALID


@dataclass(frozen=True)
class MonogamyReport:
    """Trade-off margins for one box; all margins >= -eps when the box is valid."""

    bell_pair_margin: float     # min over pairs of 4 - (B_i + B_j)
    worst_bell_pair: tuple[tuple[int, int], tuple[int, int]]
    discord_margin: float       # 4 - (G + 2 Q)
    holds: bool


def monogamy_checks(box: BipartiteBox, eps: float = EPS_VALID) -> MonogamyReport:
    """Check B_i + B_j <= 4 for every pair of Bell functions and G + 2Q <= 4."""
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
        holds=bool(pair_margin >= -eps and gq_margin >= -eps),
    )
