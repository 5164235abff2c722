"""boxlab: nonsignaling boxes, discord measures and canonical decompositions.

qstate's names and the qstate, acceptance and cli modules load on first
use, so that a command that runs no Born rule never loads them. The state
errors live in boxcore and load with it.
"""

from .boxcore import (
    BadWeightsError,
    BipartiteBox,
    BoxError,
    InvalidStateError,
    Lro,
    NegativeEntryError,
    NotNormalizedError,
    SignalingError,
    UnknownNameError,
    VertexId,
    apply_lro,
    box_from_json,
    box_to_json,
    cc_box,
    det_box,
    joint_expectation,
    joint_expectations,
    lro_group,
    make_box,
    marginal_expectation,
    mermin_box,
    mermin_nmm_box,
    mix,
    noise_box,
    pr_box,
    tsirelson_box,
    vertex,
)
from .discord2 import (
    CorrelationSplit,
    bell_discord,
    bell_functions,
    chsh_value,
    chsh_values,
    classical_correlation,
    correlation_split,
    is_epr_steerable,
    mermin_discord,
    mermin_functions,
    mermin_value,
    monogamy_checks,
    steering_flags,
    steering_value,
    total_correlation,
)
from .polytope import (
    DecompositionResult,
    LpNumericalFailure,
    MembershipResult,
    ResidualInvalidError,
    canonical_2decomposition,
    is_local,
    ns_membership,
    random_ns_box,
    three_decomposition,
)
from .tribox import (
    NotInPolytopeError,
    TripartiteBox,
    TriVertexId,
    class99_value,
    classical_correlation3,
    ghz_paradox_check,
    make_box3,
    marginal2,
    mermin3_discord,
    mermin3_functions,
    mermin3_value,
    monogamy_checks3,
    sv_box,
    sv_functions,
    sv_value,
    svetlichny_discord,
    three_decomposition3,
    total_correlation3,
    tri_vertex,
)

__version__ = "0.1.0"

_QSTATE_NAMES = frozenset({
    "DensityMatrix", "MeasurementSettings", "born_box2", "born_box3", "density_matrix",
    "entanglement_params", "hardy_probability", "settings", "settings_catalog",
    "state_family",
})
_LAZY_MODULES = frozenset({"qstate", "acceptance", "cli"})


def _submodule(name: str):
    # __import__ rather than importlib.import_module, whose imports
    # `python -X importtime` does not report
    return __import__(f"{__name__}.{name}", fromlist=["*"])


def __getattr__(name):
    """A qstate name, cached here on first use, or a lazy submodule."""
    if name in _QSTATE_NAMES:
        value = globals()[name] = getattr(_submodule("qstate"), name)
        return value
    if name in _LAZY_MODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
