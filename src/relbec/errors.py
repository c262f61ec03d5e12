"""Exception hierarchy for the relativistic Bose gas EOS engine."""


class RelBecError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgument(RelBecError, ValueError):
    """An argument outside its domain: not a finite number, of the wrong
    sign, or out of range. Also a ValueError, as argument errors are."""


class NonPositiveTemperature(InvalidArgument):
    """Temperature must be strictly positive (in units of the boson mass)."""


class UnphysicalMu(RelBecError):
    """Chemical potential outside [-m, m]; occupations would turn negative."""


class NonConvergence(RelBecError):
    """Iterative scheme (quadrature refinement or root finding) exhausted
    its budget without reaching the requested tolerance."""


class BelowCritical(RelBecError):
    """Requested thermal state lies in the condensed phase; no chemical
    potential in (-m, m) can carry the full charge."""


class AboveCritical(RelBecError):
    """Condensed-phase solution requested above the critical temperature."""


class UnsupportedDimension(RelBecError):
    """Homogeneous BEC requires spatial dimension d > 2."""


class AsymptoteOutOfRange(RelBecError):
    """Low-temperature asymptotic formula evaluated outside its validity
    region (non-positive denominator)."""


class DivergentCondensateMode(RelBecError):
    """|mu| = m makes the zero-momentum particle occupation divergent."""


class TailTooLarge(RelBecError):
    """A mode sum's tail bound is above its tolerance: for a direct box the
    modes beyond a too small cutoff, for the split box (cutoff 65) the
    modes past its fixed margins. The message gives the tail bound."""


class BudgetExceeded(RelBecError):
    """A finite-volume mode sum would need more Boltzmann terms or lattice
    shells than its fixed work budgets allow."""
