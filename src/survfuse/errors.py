"""Exception types shared across the package, the text-file opener that
turns undecodable or malformed input into them, and the atomic text writer."""

import csv
import os
from contextlib import contextmanager


class SurvfuseError(Exception):
    """Base class for all survfuse errors."""


class ShapeError(SurvfuseError, ValueError):
    """Tensor dimensions do not match or do not chain."""


class StateError(SurvfuseError, RuntimeError):
    """Operation called in an invalid order or mode (e.g. backward before forward)."""


class ValidationError(SurvfuseError, ValueError):
    """Input data or parameters violate a documented precondition."""


class NumericalError(SurvfuseError, ArithmeticError):
    """A non-finite value appeared where finite math is required."""


class ConcordanceUndefinedError(SurvfuseError, ValueError):
    """No comparable pair exists, so the concordance index is undefined."""


class ConfigError(SurvfuseError, ValueError):
    """Invalid or contradictory run configuration."""


@contextmanager
def open_text(path, error_type: type = ValidationError):
    """Open a UTF-8 text file for reading, with newline="" as csv needs.

    Undecodable bytes or malformed CSV met inside the block raise
    error_type naming the file (and the offset of the first bad byte).
    """
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the error counts from the start of one buffered chunk, so
            # decode the whole file again to find the offset in it
            with open(path, "rb") as raw:
                try:
                    raw.read().decode("utf-8")
                    where = ""
                except UnicodeDecodeError as exc:
                    where = f"byte {exc.start}: "
            raise error_type(f"{path}: {where}not UTF-8 text") from None
        except csv.Error as exc:
            raise error_type(f"{path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write text to `<path>.partial`, then rename it into place, so `path`
    never holds a half-written file; the parent directory is created."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.partial"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
