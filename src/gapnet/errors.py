"""The one error type gapnet raises for a bad input, its checks for counts, numbers
and JSON objects, and the one reader of JSON.

Every contract violation is a ``GapnetError`` whose message says what was
wrong; the command line prints that one line and exits 1, as it does for
any other ``OSError`` (a path of the wrong kind). A missing resource is
Python's own ``FileNotFoundError`` and exits 2. Training prefixes the
message of an error raised inside an epoch with that epoch's number.
"""

import json
import numbers


class GapnetError(Exception):
    """A contract violation in gapnet's inputs; its message is the one line shown."""


def require_counts(least=1, **values):
    """Raise ``GapnetError`` naming the first value that is not an integer >=
    ``least`` (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise GapnetError(f"{name} must be an integer >= {least}, got {value!r}")


def require_numbers(**values):
    """Raise ``GapnetError`` naming the first value that is not a real number (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise GapnetError(f"{name} must be a number, got {value!r}")


def require_object(value, where):
    """``value`` if it is a JSON object (a dict), else a ``GapnetError`` starting ``where``."""
    if not isinstance(value, dict):
        raise GapnetError(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value


def json_object(data, where):
    """``require_object`` of the JSON in ``data``, UTF-8 bytes: gapnet's one JSON reader."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise GapnetError(f"{where}: {e}") from e
    except ValueError as e:
        raise GapnetError(f"{where}: not valid JSON: {e}") from e
    return require_object(obj, where)
