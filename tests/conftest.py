"""Shared fixtures."""

import functools

import pytest
from scipy.optimize import linprog

from boxlab import polytope


@pytest.fixture(params=["default", "exact"])
def lp_solver(request, monkeypatch):
    """Run a test with HiGHS's default tolerances, then solving to 1e-10 so
    that its own feasibility tolerance of 1e-7 cannot hide the slack sum a
    target needs."""
    if request.param == "exact":
        tight = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}
        monkeypatch.setattr(polytope, "linprog", functools.partial(linprog, options=tight))
