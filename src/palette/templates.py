"""Plain-text prompt templates with `{placeholder}` fields.

Templates ship inside the package, and each is read once per process.
Rendering fails fast if the template references a field the caller did not
supply, so no prompt ever reaches a backend with an unfilled placeholder.
"""

from __future__ import annotations

import functools
import string
from importlib import resources
from typing import Mapping

from .errors import TemplateError


@functools.cache
def load_template(name: str) -> str:
    try:
        return (resources.files("palette") / "templates" / f"{name}.txt").read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise TemplateError(f"no template named {name!r}") from exc


def placeholders(template: str) -> set[str]:
    try:
        return {fname for _, fname, _, _ in string.Formatter().parse(template) if fname}
    except ValueError as exc:
        raise TemplateError(f"malformed template: {exc}") from exc


def render(template: str, fields: Mapping[str, object]) -> str:
    needed = placeholders(template)
    missing = sorted(needed - set(fields))
    if missing:
        raise TemplateError(f"unfilled placeholders: {missing}")
    try:
        return template.format(**{k: fields[k] for k in needed})
    except (IndexError, KeyError, ValueError) as exc:
        raise TemplateError(f"malformed template: {exc}") from exc


def render_template(name: str, **fields) -> str:
    return render(load_template(name), fields)
