"""Every numerical tolerance of boxlab, in one place.

The modules that have always exported these names (boxcore, polytope,
qstate, acceptance) re-export them unchanged.
"""

EPS_VALID = 1e-9  # tolerance for box-table validity checks
EPS_LP = 1e-7     # tolerance for LP-derived quantities
# A target of d entries is in a vertex hull iff its elastic-LP slack sum is at
# most d * EPS_LP_SLACK. Tables that pass the EPS_VALID checks may miss the
# normalized nonsignaling subspace; the worst found needs 4 * EPS_VALID of
# slack bipartite (d = 16) and 28 * EPS_VALID tripartite (d = 64).
EPS_LP_SLACK = 1e-9
DISCORD_TOL = 1e-6  # residuals of canonical decompositions must be this close to zero
EIG_TOL = 1e-8      # most negative eigenvalue a density matrix may have
TOL_CLOSED = 1e-9   # acceptance checks against closed-form values

# Weight costs of polytope.nested_hull_flags, outermost tier first; the
# innermost tier costs nothing. They only steer which certificate settles a
# flag, never the flag itself: a flag neither certificate settles is asked of
# its own hull. Both stay far below a unit of slack, since each Svetlichny or
# embedded-PR vertex lies 8/3 in L1 from the hull of the other 127 vertices,
# so that saving weight is not worth buying slack.
# Above the middle cost, so that the LP buys outer weight last.
NESTED_COST_OUTER = 1e-2
# Above zero, so that a local target carries no middle-tier weight.
NESTED_COST_MIDDLE = 1e-4
