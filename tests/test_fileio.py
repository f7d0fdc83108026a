"""weaksv.fileio.atomic_write: whole files or none."""

import pytest

from weaksv.fileio import atomic_write


def _failing_parts():
    yield b"new "
    raise RuntimeError("render failed")


def _failing_writer(f):
    f.write(b"new ")
    raise RuntimeError("render failed")


@pytest.mark.parametrize("data", [_failing_parts, lambda: _failing_writer], ids=["parts", "writer"])
def test_failed_write_leaves_the_directory_as_it_was(tmp_path, data):
    target = tmp_path / "x.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="render failed"):
        atomic_write(target, data())
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
    assert target.read_bytes() == b"old"


def test_writer_result_is_returned(tmp_path):
    target = tmp_path / "x.bin"
    assert atomic_write(target, lambda f: f.write(b"abc")) == 3
    assert target.read_bytes() == b"abc"
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
