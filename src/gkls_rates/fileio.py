"""Small file helpers: atomic text writes and reproducible float formatting."""

import errno
import os
import tempfile

__all__ = ["atomic_write", "fmt17"]


def atomic_write(path, text):
    """Write text to ``path`` via a temp file in the same directory + rename."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt17(x):
    """17 significant digits: doubles round-trip exactly through text."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return f"{x:.17g}"
