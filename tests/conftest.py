"""Shared fixtures."""

import pytest
from scipy.optimize._highspy import _core as highs

from boxlab import polytope


@pytest.fixture(params=["default", "exact"])
def lp_solver(request, monkeypatch):
    """Run a test with HiGHS's own feasibility tolerances of 1e-7, then with
    the library's options, which solve to 1e-10 so that a tolerance of 1e-7
    cannot hide the slack sum a target needs."""
    if request.param == "default":
        fresh = highs._Highs()
        for key in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
            monkeypatch.setitem(polytope._HIGHS_OPTIONS, key, fresh.getOptionValue(key)[1])
    polytope._target_model.cache_clear()
    yield
    polytope._target_model.cache_clear()
