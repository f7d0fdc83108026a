"""Artifact I/O shared across modules: atomic writes, and reads of large files."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path
from typing import BinaryIO

# malloc serves a block of this many bytes or more from freshly mapped pages
# (the CLI pins glibc's mmap threshold here), so such a copy faults them in.
MMAP_THRESHOLD = 4 << 20


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


def read_or_map(f: BinaryIO, size: int) -> bytes | memoryview:
    """The size bytes of the open binary file f, as a read-only buffer.

    A file of MMAP_THRESHOLD bytes or more is mapped: a copy would land in
    fresh pages, and faulting those in and filling them costs several times
    more than mapping the file's cached pages. A smaller one is read, since
    its copy reuses heap the process already holds, where a mapping would
    add pages. A mapped file must not be rewritten in place while it is
    used; atomic_write never does that, it renames a new file over it.
    """
    if size >= MMAP_THRESHOLD:
        import mmap

        return memoryview(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ))
    f.seek(0)
    return f.read()
