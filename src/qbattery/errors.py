"""Exception and warning types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NumericalBreakdownError(RuntimeError):
    """A numerical guard tripped (non-physical density matrix, failed solve)."""


class NoTransferError(RuntimeError):
    """No stored-work maximum found: flat or negligible energy transfer."""


class CutoffWarning(UserWarning):
    """Mode cutoff likely too small for the targeted excitation."""


class HorizonWarning(UserWarning):
    """Stored-work maximum on the end of the time range searched (the
    largest grid of find_t_max, or the bracket of a matrix-free peak): the
    true maximum may lie beyond it."""
