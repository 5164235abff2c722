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

from boxlab import boxcore, qstate, tribox
from boxlab.boxcore import BoxError, NegativeEntryError, NotNormalizedError, SignalingError
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
         "table is not an array of numbers: could not convert string to float: 'a'"),
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
]


@pytest.mark.parametrize("directions, message", [c[1:] for c in SETTINGS_CASES],
                         ids=[c[0] for c in SETTINGS_CASES])
def test_settings_reject_malformed_directions_naming_the_first_bad_one(directions, message):
    with pytest.raises(InvalidStateError) as info:
        qstate.settings(*directions)
    assert str(info.value) == message


def test_settings_take_directions_of_any_three_entry_shape():
    s = qstate.settings(np.array([[1.0], [0.0], [0.0]]), Y, [[0.0, 1.0, 0.0]], X)
    np.testing.assert_array_equal(s.a, [X, Y])
    np.testing.assert_array_equal(s.b, [Y, X])
    assert s.c is None and not s.a.flags.writeable
    s3 = qstate.settings(X, Y, X, Y, Z, X)
    assert s3.parties == 3
    np.testing.assert_array_equal(s3.c, [Z, X])


def test_pure_dm_rejects_an_overflowing_norm_without_a_warning():
    with pytest.raises(InvalidStateError, match="state vector has norm inf"):
        qstate.pure_dm([1e200, 1e200, 0, 0])
