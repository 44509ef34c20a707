"""Exception taxonomy shared across the package.

Validation errors (bad inputs, bad configs) are distinct from numerical
failures (poles, conditioning, divergent iterations) so the CLI can map them
to different exit codes.
"""

from __future__ import annotations


class LowfreqError(Exception):
    """Base class for all package errors."""


class ValidationError(LowfreqError):
    """Bad user input: config, preconditions, domain violations."""


class ConfigError(ValidationError):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)


class DomainError(ValidationError):
    """Argument outside the mathematical domain (e.g. modulus = 0 at a log singularity)."""


class NumericalError(LowfreqError):
    """A computation failed for numerical reasons; carries diagnostics."""


class AtPoleError(NumericalError):
    """Resolvent requested at (or too close to) a pole: lam is the point, a
    SpectralBatch of shape ()."""

    def __init__(self, lam, wronskian):
        self.lam = lam
        self.wronskian = wronskian
        super().__init__(
            f"spectral point (|lambda|={lam.modulus:.3e}, arg={lam.arg:.6f}) is at a pole "
            f"(|W|={abs(wronskian):.3e})"
        )


class DegenerateScattererError(NumericalError):
    """Both exterior connection coefficients vanished in a zero-energy solve."""


class IllConditionedFitError(NumericalError):
    def __init__(self, conditioning: float):
        self.conditioning = conditioning
        super().__init__(
            f"fit design matrix conditioning {conditioning:.3e} > 1e12; try a smaller jmax"
        )


class ShapeMismatchError(NumericalError):
    """A requested expansion term's hypothesis fails for this scatterer."""


class BasinError(NumericalError):
    """Pole iteration failed to converge."""


class BoundStateRefusal(ValidationError):
    """Wave evolution refused: discrete spectrum detected below the threshold."""
