"""Exception types shared across the package, and a text-file opener that raises one."""

from contextlib import contextmanager


class DataError(ValueError):
    """Bad input data: malformed files, schema violations, inconsistent tables."""


class BundleError(DataError):
    """Model bundle file is unreadable: bad magic, wrong version, truncation."""


@contextmanager
def open_utf8(path, **kwargs):
    """A text file opened for reading; a byte that is not UTF-8 is a DataError naming it."""
    with open(path, encoding="utf-8", **kwargs) as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8: {e.reason}") from e
