"""Atomic artifact writes shared by every module that saves a file."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path


def atomic_write(path: str | Path, data: str | bytes | Iterable) -> None:
    """Write data to `.<name>.tmp` beside path, then rename it over path.

    data is text (written as UTF-8), bytes, or bytes-like parts (such as
    C-contiguous arrays) written one after another, so large arrays reach
    the file without first being joined into one copy in memory. A
    reader never sees a half-written artifact: the rename is atomic
    within one file system.
    """
    path = Path(path)
    tmp = path.with_name("." + path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    with tmp.open("wb") as f:
        f.writelines([data] if isinstance(data, bytes) else data)
    os.replace(tmp, path)
