"""Every error type the package declares is raised somewhere in it."""

import re
from pathlib import Path

import weaksv
from weaksv import errors


def test_every_error_type_has_a_raise_site():
    source = "\n".join(path.read_text("utf-8")
                       for path in sorted(Path(weaksv.__file__).resolve().parent.glob("*.py")))
    declared = [name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, errors.WeaksvError)
                and obj is not errors.WeaksvError]
    unraised = [name for name in declared if not re.search(rf"\braise\s+(\w+\.)*{name}\b", source)]
    assert declared and not unraised
