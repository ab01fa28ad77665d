"""Exception types shared across the package."""


class QuadratureError(RuntimeError):
    """The Toeplitz elements cannot be computed to the requested tolerance.

    The name is kept from the adaptive quadrature that the closed form
    replaced; ``residual`` is the error floor of the closed form.
    """

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


class UnphysicalStateError(ValueError):
    """Correlator set produces a matrix that is not positive semidefinite."""


class RankDeficientError(RuntimeError):
    """State is not full rank, so purification transport is undefined."""

    def __init__(self, min_eigenvalue, rank_eps, lam=None):
        where = "" if lam is None else f" at lambda={lam:g}"
        super().__init__(
            f"Uhlmann phase undefined at given rank_eps{where}: "
            f"min eigenvalue {min_eigenvalue:.3e} < rank_eps {rank_eps:.3e}"
        )
        self.min_eigenvalue = min_eigenvalue
        self.rank_eps = rank_eps
        self.lam = lam


class VisibilityError(RuntimeError):
    """Phase of a complex amplitude with vanishing magnitude is undefined."""

    def __init__(self, magnitude, threshold):
        super().__init__(
            f"vanishing visibility: |amplitude| = {magnitude:.3e} < {threshold:g}"
        )
        self.magnitude = magnitude
        self.threshold = threshold
