"""Plain-text prompt templates with `{placeholder}` fields.

Templates ship inside the package, and each is read once per process.
Rendering fails fast if the template references a field the caller did not
supply, so no prompt ever reaches a backend with an unfilled placeholder.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import Mapping

from .errors import PaletteError


@functools.cache
def load_template(name: str) -> str:
    try:
        return (resources.files("palette") / "templates" / f"{name}.txt").read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise PaletteError("template_error", f"no template named {name!r}") from exc


def render(template: str, fields: Mapping[str, object]) -> str:
    try:
        return template.format(**fields)
    except KeyError as exc:
        raise PaletteError("template_error", f"unfilled placeholder {exc}") from exc
    except (AttributeError, IndexError, ValueError) as exc:
        raise PaletteError("template_error", f"malformed template: {exc}") from exc


def render_template(name: str, **fields) -> str:
    return render(load_template(name), fields)
