"""The package's usage-error base class."""


class UsageError(ValueError):
    """Input outside what the package accepts: an unknown name, a parameter
    or order out of range, a malformed expression.  The CLI reports it on
    one stderr line and exits 2; any other exception is a fault of the
    program, not of its input."""
