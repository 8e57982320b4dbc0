"""The one exception type the package raises on purpose.

Every rejected input raises InputError: a malformed file or report, a bad
command line, or arguments that violate an operation's preconditions. The
CLI maps it (and OS-level file errors) to exit code 1; anything else is
treated as an internal error (exit code 2).
"""


class InputError(Exception):
    """An input the package rejects; a file's message names the file."""
