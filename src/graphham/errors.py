"""Typed failure modes.

Every precondition violation in the library raises one of these instead of
a bare ValueError, so callers (and the CLI exit-code mapping) can tell a
malformed input apart from a genuine numerical breakdown.
"""


class GraphHamError(Exception):
    """Base class for all library errors."""


# -- graph construction -------------------------------------------------------

class DisconnectedGraph(GraphHamError):
    """The edge set does not connect all nodes."""


class SelfLoop(GraphHamError):
    """An edge joins a node to itself."""


class NonpositiveWeight(GraphHamError):
    """An edge weight is zero, negative, NaN or infinite."""


class AsymmetricWeight(GraphHamError):
    """Conflicting weights were given for the two orientations of an edge."""


class MalformedEdge(GraphHamError):
    """The node count is not an integer, or an edge row is not (i, j, w) or
    (i, j, w, wt) with integer nodes, or names a node outside 0..n-1."""


# -- states on the simplex -----------------------------------------------------

class BoundaryDensity(GraphHamError):
    """A density touched the simplex boundary where an interior one is required."""


class NonfiniteValue(GraphHamError):
    """An evaluation overflowed or produced NaN (e.g. exp of a huge gap)."""


class KinkProximity(GraphHamError):
    """A finite-difference probe sits too close to an upwind branch boundary."""


class NonsmoothSpec(GraphHamError):
    """A gradient check was requested for a non-differentiable Hamiltonian."""


# -- integration ---------------------------------------------------------------

class BlowUp(GraphHamError):
    """The flow left the trusted region (|S| > 1e6 or visibly negative mass)."""


class NonconvergentImplicitStep(GraphHamError):
    """The implicit-midpoint fixed point did not converge."""


class NonpositiveFG(GraphHamError):
    """A Schroedinger pair cannot be inverted because f_i * g_i <= 0."""


# -- jump processes --------------------------------------------------------------

class InvalidGenerator(GraphHamError):
    """A rate matrix violates the generator conditions beyond tolerance."""


class NoRateDecomposition(GraphHamError):
    """No generator can be extracted from this Hamiltonian variant or state."""


class RateBoundExceeded(GraphHamError):
    """A sampled exit rate exceeded the uniformization bound."""


class PathExplosion(GraphHamError):
    """A brute-force enumeration would exceed the path budget."""


class NegativeStepProbability(GraphHamError):
    """The Euler chain discretization produced a negative holding probability."""


# -- bridges and periodic constructions -------------------------------------------

class NonconvergedIPFP(GraphHamError):
    """Iterative proportional fitting failed to reach tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class BoundaryMarginal(GraphHamError):
    """A bridge endpoint lies on the simplex boundary."""


class SupportMismatch(GraphHamError):
    """Bridged rates are not absolutely continuous w.r.t. the reference."""


class NotInterior(GraphHamError):
    """A periodic density trajectory touches the simplex boundary."""


class NoFeasibleK(GraphHamError):
    """No kernel multiple makes every off-diagonal rate nonnegative."""


class NotStationary(GraphHamError):
    """The supplied density is not stationary for the reference rates."""
