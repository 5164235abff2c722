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
# qstate.hardy_probability returns 0 for normalized amplitudes with |bcd|
# below this, as for a zero amplitude, where its closed form can be 0/0 and a
# measurement direction have no norm; 1e-15 is a few roundings of 1.
HARDY_DEGENERATE = 1e-15

# Primal and dual feasibility tolerances of every membership LP, in place of
# HiGHS's 1e-7: at 1e-7 HiGHS returns weights down to -1e-7 on sparse
# near-boundary tripartite targets, which then miss the target by more than
# EPS_LP; at 1e-10 they reconstruct it to 1e-16.
LP_FEASIBILITY_TOL = 1e-10
