"""Atomic artifact writes shared by every module that saves a file."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write data (text as UTF-8) to `.<name>.tmp` beside path, then rename it over path.

    A reader never sees a half-written artifact: the rename is atomic
    within one file system.
    """
    path = Path(path)
    tmp = path.with_name("." + path.name + ".tmp")
    tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    os.replace(tmp, path)
