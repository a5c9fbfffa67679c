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
    """Stored-work maximum still on the end of the largest time grid
    searched: the reported t_max is only a lower bound."""
