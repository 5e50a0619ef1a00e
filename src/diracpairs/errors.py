"""Exception types shared across the package.

Validation problems (bad configuration values, oversized oracle bases) are
kept apart from numerical-tolerance failures (lost unitarity, singular
matrices, norm drift) so callers can map them to distinct exit codes.
"""


class ValidationError(ValueError):
    """One or more configuration invariants are violated."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class FockDimensionError(ValidationError):
    """Requested an exact Fock-space run on too large a mode basis."""


class NumericalToleranceError(RuntimeError):
    """A numerical quality gate failed at run time."""


class UnitarityError(NumericalToleranceError):
    """Propagator lost unitarity beyond the configured tolerance."""


class IllConditionedError(NumericalToleranceError):
    """A matrix inverse was requested past the conditioning cap."""


class NormDriftError(NumericalToleranceError):
    """Many-body state norm drifted during propagation."""
