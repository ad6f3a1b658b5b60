"""Every numerical tolerance of qcoex, named for what it bounds.

No other module of the package writes a tolerance value; each imports the
names it needs from here.  Lengths are in the units of the Bloch vectors
and trace coefficients (the identity has trace coefficient 2), gamma is the
trace coefficient of the joint observable's first outcome.
"""

# Effect parameters: how far alpha may pass ||avec|| or 2 - ||avec|| and
# still be admitted, how far beta, a, bx, alpha or ||b|| may sit from the
# edge of a domain (by_max, boundary_curve, the special cases,
# gamma_interval_2ci's b = beta), and how far a sharpness may fall outside
# [0, 1] before it is clamped.  Trace-coefficient units.
DOMAIN_TOL = 1e-12

# Matrix input: largest |M - M^dagger| entry and largest eigenvalue below 0
# or above 1 that effect_from_matrix admits.  Operator (eigenvalue) units.
MATRIX_TOL = 1e-10

# Closure of the allowed region: a pair this far past the C1 threshold, the
# cap on by, a junction's height or a special case's bound still counts as
# coexistent, and a boundary_curve sample this close to a junction stays on
# the circle; an oracle disk system whose minimax violation is at most this
# is feasible; a full-length gamma interval is empty only when its bounds
# cross by more than this.  Length units (gamma units for the interval).
BOUNDARY_TOL = 1e-12

# Most negative square-root argument still taken as roundoff, for the
# sharpness radicand and the restricted interval's discriminant; more
# negative raises.  Fourth and second powers of length respectively.
RADICAND_TOL = 1e-10

# The same guard for the cap on by.  It is looser than RADICAND_TOL because
# the cap's radicands are formed by subtraction, a^2 - (t +- (1 - beta))^2,
# at a bx the caller supplies (by_max admits bx up to DOMAIN_TOL past a
# junction), where the sharpness radicand is factored.  Fourth power of
# length.
ROOT_TOL = 1e-9

# Oracle kernel: a triple-point determinant, quadratic coefficient or
# linear coefficient below this in magnitude counts as zero, so that
# candidate is skipped or solved as linear.  Squared length for the
# determinant, dimensionless for the quadratic coefficient, length for the
# linear one.
DEGENERATE_TOL = 1e-14

# Witness check: largest Bloch residual ||vector|| - trace an outcome of
# the joint observable may have (minus twice its least eigenvalue).
# Trace-coefficient units.
PSD_TOL = 1e-9

# Oracle search: bracket width at which the feasible gamma interval's
# edges are taken as found.  Gamma units.
ENDPOINT_TOL = 1e-10

# Oracle search: bracket width at which the violation profile's minimum is
# taken as found, when no grid gamma is feasible.  The closed-form optimum
# (optimum.py) is certified when its largest violation is within this of
# its dual bound, as every radius has slope +-1 in gamma and a minimum
# refined to this width is within this of the true one too.  A certified
# optimum settles a non-coexistent pair, and a feasible one stands in for
# the refinement, so the refinement runs only for a pair whose optimum is
# not certified.  Gamma units (length units for the certificate).
MINIMUM_TOL = 1e-13

# Oracle search: how far a computed violation profile value may sit from a
# convex function of gamma.  The search's secant bounds take every sample
# as uncertain by this much, so that no cut drops the minimum or an edge
# for roundoff.  On a 10^4 grid the profile's second differences stay above
# -1e-15, but in windows of 2e-6 down to 2e-13 around the minimum of nearly
# parallel pairs it rises up to 2.0e-14 above its lower convex hull, that
# is, it sits up to 1.01e-14 from a convex function, just past this
# allowance (tests/test_oracle.py, TestProfileConvexity).  Length units.
CONVEXITY_TOL = 1e-14

# Self-test: special-case pairs within this of a closed-form decision
# boundary are skipped, in that comparison's units.
SPECIAL_CASE_BAND = 1e-9

# Self-test: pairs whose oracle margin is within this of zero are skipped
# in agreement sweeps.  Length units.
BOUNDARY_BAND = 1e-6
