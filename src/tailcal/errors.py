"""Exception hierarchy shared by every module: one class per exit code.

The command line prints a :class:`TailcalError`'s message and exits with
its ``exit_code``; the message, not the class, says which check failed.

- :class:`UsageError` (2): a bad flag or config value, an unrealizable
  count profile or shift, an inconsistent adjustment spec or prior
  estimate of the wrong kind, an operation the model family lacks.
- :class:`DataError` (3): malformed, inconsistent or out-of-range input:
  empty or mismatched shapes, unreadable files, bad counts or labels.
- :class:`NumericError` (4): non-finite values, a vector off the
  simplex, diverged training, an undefined KL divergence.
"""


class TailcalError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class UsageError(TailcalError):
    """Invalid configuration, profile, spec, or option combination."""

    exit_code = 2


class DataError(TailcalError):
    """Malformed, inconsistent, or out-of-range input data."""

    exit_code = 3


class NumericError(TailcalError):
    """Numeric failure: divergence, domain violation, non-finite value."""

    exit_code = 4
