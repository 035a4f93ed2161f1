"""Output files written whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def write_atomic(path):
    """Open `path` for writing text through a temp file in the same directory.

    The temp file replaces `path` (os.replace) only when the block exits
    normally. If the block raises, the temp file is removed and `path` is
    left as it was, so a failed run never leaves a truncated output.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
