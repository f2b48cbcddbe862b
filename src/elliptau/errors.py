"""Exception types shared across the package."""


class EllipTauError(Exception):
    """Base class for all package errors."""


class ThetaConvergenceError(EllipTauError):
    """Theta series failed to converge within the term budget."""

    def __init__(self, z, Omega, max_terms):
        super().__init__(
            f"theta series did not converge within {max_terms} terms "
            f"at z={z}, Omega={Omega}"
        )


class LatticeOrientationError(EllipTauError):
    """Period ratio does not lie in the upper half plane."""


class LatticePoleError(EllipTauError):
    """Evaluation requested at (or too close to) a lattice point."""


class ContourGeometryError(EllipTauError):
    """A contour or path cannot be routed with the required clearance."""


class QuadratureError(EllipTauError):
    """Adaptive quadrature or branch continuation failed to converge."""


class DegenerateParameterError(EllipTauError):
    """Deformation parameters violate an admissibility constraint."""


class ScenarioError(EllipTauError):
    """Scenario file is malformed or violates an invariant."""
