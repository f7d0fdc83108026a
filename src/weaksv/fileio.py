"""Artifact I/O shared across modules: atomic writes."""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import BinaryIO


def atomic_write(path: str | Path, data: str | bytes | Iterable | Callable[[BinaryIO], object]) -> object:
    """Write data to `.<name>.tmp` beside path, then rename it over path.

    data is text (written as UTF-8), bytes, bytes-like parts (such as
    C-contiguous arrays) written one after another, or a function that
    writes to the open temp file and whose result is returned. So large
    arrays reach the file without first being joined into one copy in
    memory. A reader never sees a half-written artifact: the rename is
    atomic within one file system. If writing raises, the temp file is
    removed and path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name("." + path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with tmp.open("wb") as f:
            result = data(f) if callable(data) else f.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result
