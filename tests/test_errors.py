import re
from pathlib import Path

import pytest

from palette import errors
from palette.errors import PaletteError


def test_an_unknown_error_code_is_refused():
    with pytest.raises(ValueError, match="unknown error code 'no_such_code'"):
        PaletteError("no_such_code", "x")
    assert PaletteError("bad_input", "x", path="p").context == {"path": "p"}


def test_readme_lists_every_error_code_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Exit codes and errors\n")[1].split("\n## ")[0]
    assert tuple(re.findall(r"^- `(\w+)`: ", section, re.M)) == errors.CODES
