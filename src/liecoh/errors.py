"""Error classes shared across the package.

The CLI maps these onto exit codes: InputError is 2 (bad or out-of-domain
input), ResourceGuardError is 3 (a size cap tripped), and any other exception
is 4 (an internal error).  Verification failures are not exceptions; reports
carry a pass flag and the CLI exits 1.
"""


class InputError(ValueError):
    """Invalid or out-of-domain input."""


class ResourceGuardError(RuntimeError):
    """An enumeration or field-size cap was exceeded."""


def require_int(value, what: str):
    """The value itself when its type is int (a bool is not); InputError
    naming `what` otherwise."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value
