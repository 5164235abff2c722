"""Malformed input to the validators of boxes, states and frames.

make_box, make_box3 and settings accept valid input after one combined test
and send the rest through their ordered checks; density_matrix checks
finiteness before any arithmetic. Each case below must raise the exception
class and message the ordered checks give, and no RuntimeWarning (the suite
turns those into errors): NaN and inf must never reach a fast path's
arithmetic.
"""

import numpy as np
import pytest

from boxlab import boxcore, polytope, qstate, tribox
from boxlab.boxcore import (BadWeightsError, BoxError, NegativeEntryError, NotNormalizedError,
                            SignalingError)
from boxlab.qstate import InvalidStateError

X, Y, Z = np.eye(3)


def _noise(n, cell=None, value=None, cell2=None, value2=None):
    t = np.full(4 ** n, 0.5 ** n)
    for c, v in ((cell, value), (cell2, value2)):
        if c is not None:
            t[c] = v
    return t


def _alice_answers_y(n):
    """P(a = y, others 0 | x): normalized and nonnegative, but signaling."""
    t = np.zeros((2,) * (2 * n))
    for inputs in np.ndindex(*(2,) * n):
        t[inputs + (inputs[1],) + (0,) * (n - 1)] = 1.0
    return t


def _matrix(cell=None, value=None, cell2=None, value2=None):
    m = np.eye(4, dtype=complex) / 4
    for c, v in ((cell, value), (cell2, value2)):
        if c is not None:
            m[c] = v
    return m


def _det(n):
    """The deterministic box whose first table entry is 1."""
    return boxcore.det_box(0, 0, 0, 0) if n == 2 else tribox.det3_box(0, 0, 0, 0, 0, 0)


BOX_CASES = {
    2: [("negative", _noise(2, 5, -0.01), NegativeEntryError,
         "entry P(a=0,b=1|x=0,y=1) = -1.000e-02 < 0"),
        ("unnormalized", 1.1 * _noise(2), NotNormalizedError,
         "sum of P(a,b|x=0,y=0) = 1.100000000000 != 1"),
        ("signaling", _alice_answers_y(2), SignalingError, "P(a|x) depends on y")],
    3: [("negative", _noise(3, 5, -0.01), NegativeEntryError,
         "entry P(a=1,b=0,c=1|x=0,y=0,z=0) = -1.000e-02 < 0"),
        ("unnormalized", 1.1 * _noise(3), NotNormalizedError,
         "sum of P(a,b,c|x=0,y=0,z=0) = 1.100000000000 != 1"),
        ("signaling", _alice_answers_y(3), SignalingError, "P(a,c|x,z) depends on y")],
}
for _n in (2, 3):
    BOX_CASES[_n] += [
        ("nan", _noise(_n, 3, np.nan), BoxError, "table has non-finite entries: [nan]"),
        ("inf", _noise(_n, 3, np.inf), BoxError, "table has non-finite entries: [inf]"),
        ("minus_inf", _noise(_n, 3, -np.inf), BoxError, "table has non-finite entries: [-inf]"),
        ("both_infs", _noise(_n, 3, np.inf, 4, -np.inf), BoxError,
         "table has non-finite entries: [ inf -inf]"),
        ("not_numbers", ["a"] * 4 ** _n, BoxError,
         "table is not an array of real numbers: dtype <U1"),
        # tables that numpy would convert to a valid box: all are refused
        ("complex", _noise(_n).astype(complex), BoxError,
         "table is not an array of real numbers: dtype complex128"),
        ("complex_imaginary_part", _noise(_n) + 1e-3j, BoxError,
         "table is not an array of real numbers: dtype complex128"),
        ("bool", _det(_n).table > 0, BoxError,
         "table is not an array of real numbers: dtype bool"),
        ("strings", _noise(_n).astype(str), BoxError,
         "table is not an array of real numbers: dtype <U32"),
        ("bool_in_a_list", [True] + _det(_n).table.reshape(-1).tolist()[1:], BoxError,
         "table entry True is not a number"),
        ("wrong_size", _noise(_n)[:-1], BoxError,
         f"expected {4 ** _n} probabilities, got {4 ** _n - 1}"),
    ]
MAKE = {2: boxcore.make_box, 3: tribox.make_box3}


@pytest.mark.parametrize("n, values, error, message",
                         [(n, v, e, m) for n in (2, 3) for _, v, e, m in BOX_CASES[n]],
                         ids=[f"box{n}-{name}" for n in (2, 3) for name, *_ in BOX_CASES[n]])
def test_make_box_rejects_malformed_tables_with_the_ordered_checks_message(n, values, error,
                                                                          message):
    with pytest.raises(BoxError) as info:
        MAKE[n](values)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("n", [2, 3])
def test_make_box_clamps_tiny_negatives_and_returns_a_new_array(n):
    vertex = (boxcore.pr_box(0, 0, 0) if n == 2 else tribox.tri_vertex(tribox.all_sv_ids()[0]))
    t = vertex.table.reshape(-1).copy()
    zero = int(np.flatnonzero(t == 0)[0])
    t[zero] = -4e-10
    box = MAKE[n](t)
    assert box.table.reshape(-1)[zero] == 0.0 and box.table.min() == 0.0
    assert t[zero] == -4e-10 and not box.table.flags.writeable
    noise = _noise(n)
    np.testing.assert_array_equal(MAKE[n](noise).table.reshape(-1), noise)
    assert noise.flags.writeable


DENSITY_CASES = [
    ("non_hermitian", _matrix((0, 1), 1e-3), "matrix is not Hermitian"),
    ("complex_diagonal", _matrix((0, 0), 0.25 + 1e-3j), "matrix is not Hermitian"),
    ("wrong_trace", np.eye(4) * 0.3, "trace is 1.200000000000+0.000000000000j, expected 1"),
    ("negative_eigenvalue", np.diag([0.5, 0.5, 0.5, -0.5]), "negative eigenvalue -5.000e-01"),
    ("negative_eigenvalue_8", np.diag([0.25] * 4 + [0.125] * 3 + [-0.375]),
     "negative eigenvalue -3.750e-01"),
    ("nan", _matrix((1, 2), np.nan), "matrix has non-finite entries"),
    ("inf", _matrix((1, 1), np.inf), "matrix has non-finite entries"),
    ("both_infs", _matrix((0, 0), np.inf, (1, 1), -np.inf), "matrix has non-finite entries"),
    ("wrong_shape", np.eye(3) / 3, "expected a 4x4 or 8x8 matrix, got (3, 3)"),
]


@pytest.mark.parametrize("mat, message", [c[1:] for c in DENSITY_CASES],
                         ids=[c[0] for c in DENSITY_CASES])
def test_density_matrix_rejects_malformed_matrices_with_the_ordered_checks_message(mat,
                                                                                  message):
    with pytest.raises(InvalidStateError) as info:
        qstate.density_matrix(mat)
    assert str(info.value) == message


SETTINGS_CASES = [
    ("non_unit", (X, Y, X, [1.0, 1.0, 0.0]), "measurement direction has norm 1.414213562373"),
    ("first_of_two_bad", (X, 2 * Y, 3 * X, Y), "measurement direction has norm 2.000000000000"),
    ("third_party_non_unit", (X, Y, X, Y, Z, 1.5 * Z),
     "measurement direction has norm 1.500000000000"),
    ("short", (X, Y, [1.0, 0.0], Y), "expected a vector of 3 numbers, got [1.0, 0.0]"),
    ("not_numbers", (X, "abc", X, Y), "expected a vector of 3 numbers, got 'abc'"),
    ("one_third_party_direction", (X, Y, X, Y, Z), "expected a vector of 3 numbers, got None"),
    ("nan", (X, Y, [np.nan, 0.0, 0.0], Y), "measurement direction has norm nan"),
    ("inf", (X, Y, [np.inf, 0.0, 0.0], Y), "measurement direction has norm inf"),
    ("unequal_point_counts", (np.tile(X, (2, 1)), Y, np.tile(X, (3, 1)), Y),
     "directions of [2, 3] points do not match"),
    ("point_array_and_a_short_direction", (np.tile(X, (2, 1)), Y, [1.0, 0.0], Y),
     "expected a vector of 3 numbers, got [1.0, 0.0]"),
    # an array is named by its shape and dtype, in one line: its repr has a line per row
    ("bool_point_array", (X, Y, np.array([[True, False, False]] * 2), Z),
     "expected a vector of 3 numbers, got an array of shape (2, 3) and dtype bool"),
    ("point_array_of_4_columns", (X, Y, np.zeros((2, 4)), Z),
     "expected a vector of 3 numbers, got an array of shape (2, 4) and dtype float64"),
]


@pytest.mark.parametrize("directions, message", [c[1:] for c in SETTINGS_CASES],
                         ids=[c[0] for c in SETTINGS_CASES])
def test_settings_reject_malformed_directions_naming_the_first_bad_one(directions, message):
    with pytest.raises(InvalidStateError) as info:
        qstate.settings(*directions)
    assert str(info.value) == message


@pytest.mark.parametrize("frame", ["PRQ(-0.5)", "CSB(-2)", "meb1(1.5)", "BMW(-0.2)",
                                   "0BMSb(inf)", "class99(1e308)", "PRQ(-1)"])
def test_out_of_range_frame_parameters_reach_the_norm_check_without_a_warning(frame):
    # square roots of negative numbers, sines of inf and 1/0 give NaN
    # directions, which the norm check names
    with pytest.raises(InvalidStateError) as info:
        qstate.settings_catalog(frame)
    assert str(info.value) == "measurement direction has norm nan"


def _one_state_stack(k):
    return qstate.density_matrix(np.tile(np.eye(4) / 4, (k, 1, 1)))


# each entry point that checks directions, given a bad direction for its
# third slot (the only one of a single cq or qc state) and a later bad one
DIRECTION_ENTRY_POINTS = {
    "settings": lambda bad: qstate.settings(X, Y, bad, 3 * Y),
    "cq_state": lambda bad: qstate.cq_state(0.3, bad, X / 2, -Y / 2),
    "qc_state": lambda bad: qstate.qc_state(0.3, bad, X / 2, -Y / 2),
    "classical_quantum_stack": lambda bad: qstate._classical_quantum(
        np.full(4, 0.3), np.array([X, Y, bad, 3 * Z]), np.zeros((4, 3)), np.zeros((4, 3)),
        False),
    "frame_stack": lambda bad: qstate.born_box2(
        _one_state_stack(2), qstate.settings(X, Y, np.array([bad, X]), np.array([3 * Y, Y]))),
}
BAD_DIRECTIONS = [("nan", [np.nan, 0.0, 0.0], "nan"), ("inf", [0.0, np.inf, 0.0], "inf"),
                  ("norm_2", [0.0, 0.0, 2.0], "2.000000000000"),
                  ("overflowing_norm", [1e200, 0.0, 0.0], "inf")]


@pytest.mark.parametrize("bad, norm", [c[1:] for c in BAD_DIRECTIONS],
                         ids=[c[0] for c in BAD_DIRECTIONS])
@pytest.mark.parametrize("entry", list(DIRECTION_ENTRY_POINTS))
def test_every_direction_check_names_the_first_bad_direction(entry, bad, norm):
    with pytest.raises(InvalidStateError) as info:
        DIRECTION_ENTRY_POINTS[entry](np.array(bad))
    assert str(info.value) == f"measurement direction has norm {norm}"


def test_settings_take_directions_of_any_three_entry_shape():
    s = qstate.settings(np.array([[1.0], [0.0], [0.0]]), Y, [[0.0, 1.0, 0.0]], X)
    np.testing.assert_array_equal(s.a, [X, Y])
    np.testing.assert_array_equal(s.b, [Y, X])
    assert s.c is None and not s.a.flags.writeable
    s3 = qstate.settings(X, Y, X, Y, Z, X)
    assert s3.parties == 3
    np.testing.assert_array_equal(s3.c, [Z, X])


# finite entries whose sums overflow: each check names the inf it meets
HUGE_CASES = [
    ("box2", boxcore.make_box, np.full(16, 1e308), NotNormalizedError,
     "sum of P(a,b|x=0,y=0) = inf != 1"),
    ("box3", tribox.make_box3, np.full(64, 1e308), NotNormalizedError,
     "sum of P(a,b,c|x=0,y=0,z=0) = inf != 1"),
    ("box2_stack", boxcore.make_box, np.full((2, 16), 1e308), NotNormalizedError,
     "sum of P(a,b|x=0,y=0) = inf != 1"),
    ("matrix4", qstate.density_matrix, 1e308 * np.eye(4), InvalidStateError,
     "trace is inf+0.000000000000j, expected 1"),
    ("matrix8", qstate.density_matrix, 1e308 * np.eye(8), InvalidStateError,
     "trace is inf+0.000000000000j, expected 1"),
    ("matrix4_stack", qstate.density_matrix, 1e308 * np.stack([np.eye(4)] * 2),
     InvalidStateError, "trace is inf+0.000000000000j, expected 1"),
]


@pytest.mark.parametrize("check, values, error, message", [c[1:] for c in HUGE_CASES],
                         ids=[c[0] for c in HUGE_CASES])
def test_huge_finite_entries_raise_the_documented_error_without_a_warning(check, values, error,
                                                                         message):
    with pytest.raises(error) as info:
        check(values)
    assert type(info.value) is error and str(info.value) == message


def test_pure_dm_rejects_an_overflowing_norm_without_a_warning():
    with pytest.raises(InvalidStateError, match="state vector has norm inf"):
        qstate.pure_dm([1e200, 1e200, 0, 0])


def _first_leaf_true(values):
    """`values` as nested lists with their first number replaced by True."""
    out = np.asarray(values).tolist()
    inner = out
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = True
    return out


_NOISE = boxcore.noise_box()
DET = polytope.vertex_matrix(boxcore.all_det_ids())
# each constructor that reads numbers from its caller but make_box and
# make_box3 (BOX_CASES): the call with the input under test, a valid numeric
# input, its error class and the word its message names the input by
READERS = {
    "mix": (lambda v: boxcore.mix([_NOISE, _NOISE], v), [1.0, 0.0], BadWeightsError, "weights"),
    "lp_vertex_weights": (lambda v: polytope.lp_vertex_weights(v, DET), _noise(2), ValueError,
                          "target"),
    "density_matrix": (qstate.density_matrix, np.eye(4) / 4, InvalidStateError, "matrix"),
    "pure_dm": (qstate.pure_dm, [1.0, 0.0, 0.0, 1.0], InvalidStateError, "state vector"),
    "settings": (lambda v: qstate.settings(X, Y, v, Z), X, InvalidStateError, "vector"),
    "settings_point_stack": (lambda v: qstate.settings(X, Y, v, Z), np.array([X, Y]),
                             InvalidStateError, "vector"),
    "settings_catalog": (lambda v: qstate.settings_catalog("PRQ", v), [0.3, 0.5],
                         InvalidStateError, "settings parameter"),
    "cq_state_p0": (lambda v: qstate.cq_state(v, X, X / 2, -Y / 2), [0.3, 0.5],
                    InvalidStateError, "p0"),
    "qc_state_point_stack": (lambda v: qstate.qc_state(0.3, v, X / 2, -Y / 2), np.array([X, Y]),
                             InvalidStateError, "vector"),
    "bell_diagonal_state": (qstate.bell_diagonal_state, [1.0] + [0.0] * 7, InvalidStateError,
                            "weights"),
    "hardy_probability": (lambda v: qstate.hardy_probability(*v), [0.5, 0.5, 0.5],
                          InvalidStateError, "amplitudes"),
    "hardy_state": (lambda v: qstate.hardy_state(v, 0.5, 0.5), [0.5, 0.5], InvalidStateError,
                    "amplitude"),
    "werner2_state": (qstate.werner2_state, [0.5, 1.0], InvalidStateError, "p"),
    "schmidt_state": (qstate.schmidt_state, [0.3, 0.5], InvalidStateError, "theta"),
    "gghz_state": (qstate.gghz_state, [0.3, 0.5], InvalidStateError, "theta"),
    "ghz_class_state": (lambda v: qstate.ghz_class_state(0.3, v), [0.3, 0.5], InvalidStateError,
                        "theta3"),
}
# numpy reads each of these as numbers: strings when converted to float, a
# list mixing True with numbers as floats
NOT_NUMBERS = {
    "strings": lambda v: np.asarray(v).astype(str),
    "bools": lambda v: np.asarray(v) != 0,
    "bool_in_a_list": _first_leaf_true,
}


@pytest.mark.parametrize("kind", list(NOT_NUMBERS))
@pytest.mark.parametrize("reader", list(READERS))
def test_every_reader_refuses_strings_and_bools_with_its_own_error(reader, kind):
    build, valid, error, what = READERS[reader]
    build(valid)
    with pytest.raises(error) as info:
        build(NOT_NUMBERS[kind](valid))
    assert type(info.value) is error and what in str(info.value)


def test_schmidt_state_refuses_a_string_parameter():
    # numpy's cosine of a string escaped as its own TypeError
    with pytest.raises(InvalidStateError, match="^theta is not an array of real numbers"):
        qstate.schmidt_state("0.3")
