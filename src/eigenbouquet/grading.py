"""What a job needs of the float cross-check before running it.

The default tolerances a job is graded by and the numerical failures that
end a job with a partial report. The float modules (frames, oracle,
realnormal) raise and read these; the CLI reads them before any float stage
runs, so this module imports no numpy and neither do analyze and resolve.
"""

DEFAULT_CLUSTER_TOL = 1e-6
DEFAULT_ANGLE_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-8


class UnresolvedChart(ValueError):
    pass


class NonHermitianFamily(ValueError):
    """Frames over the gaussian field need a hermitian family."""


class LabelingError(RuntimeError):
    """A grid point has no component of a tracked component's dimension."""


class JacobiNonConvergence(RuntimeError):
    member = 0  # index of the failing matrix in its stack


class ExtrapolationError(RuntimeError):
    pass


class DecompositionError(ArithmeticError):
    """The invariant planes and real eigenspaces do not fill the space."""

    member = 0  # index of the failing matrix in its stack
