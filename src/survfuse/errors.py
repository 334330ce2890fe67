"""Exception types shared across the package, the text-file opener that
turns undecodable or malformed input into them, and the atomic text writer
with the CSV line formatter that feeds it."""

import csv
import os
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator


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


def write_text(path, chunks: Iterable[str]) -> None:
    """Write the strings `chunks` yields, in order, to `<path>.partial`, then
    rename it into place, so `path` never holds a half-written file; the
    parent directory is created.

    Chunks are written as they come, so a caller can stream a file of any
    size. If producing or writing a chunk raises, the partial file is
    deleted and the error propagates.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.partial"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


class _Echo:
    """A file-like target whose write returns the text it is given."""

    def write(self, text: str) -> str:
        return text


def csv_lines(header: list, rows: Iterable[list]) -> Iterator[str]:
    """The header, then each row, as the line csv.writer writes for it (its
    quoting, a "\\n" terminator), one line at a time: csv.writer's writerow
    returns what the target's write returns."""
    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(header)
    for row in rows:
        yield writer.writerow(row)
