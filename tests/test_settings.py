"""Every setting and every public def in `src/palette` is one that the program uses.

A parameter with a default, in a public function or method, is a value that
a caller may set. If no call in `src/` or `bench/` passes it, only the tests
set it, and it belongs in the code as a constant. Calls match by the name
they call: `f(...)` and `x.f(...)` match every def named `f`, and a class
name matches its `__init__`. A call passes a parameter when it names it as a
keyword or reaches it by positional count; a `*args` reaches every positional
parameter and a `**kwargs` every parameter. A call that only forwards an
unset setting of its own def (`p` or `self.p`) does not set it.

Likewise, a public function, class or method that nothing in `src/` or
`bench/` calls or names outside its own body runs only in the tests, and
belongs in them. A reference matches by name, as a call does: `f` and `x.f`
reach every def named `f`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    # The entry point: run as a program it reads sys.argv, and tests hand it their own argv.
    "cli.main",
}


def _defaults(args, skip: int) -> dict:
    """{parameter: its positional index past ``skip`` leading ones, or None} of each parameter with a default."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = {arg.arg: i - skip for i, arg in enumerate(positional) if i >= first}
    found.update({arg.arg: None for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return found


def _settings() -> dict:
    """{(def, parameter): (call name, positional index or None)} for each public def of src/palette."""
    settings = {}
    for path in sorted((ROOT / "src" / "palette").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defs = [(node.name, node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                        defs.append((node.name, node.name, fn, 1))
                    elif isinstance(fn, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                        defs.append((f"{node.name}.{fn.name}", fn.name, fn, 0 if static else 1))
            for qualified, called, fn, skip in defs:
                if not any(part.startswith("_") for part in qualified.split(".")):
                    for param, index in _defaults(fn.args, skip).items():
                        settings[(f"{path.stem}.{qualified}", param)] = (called, index)
    return settings


class _Calls(ast.NodeVisitor):
    """Each call as (name, positional count or None, keywords or None, {position or keyword: forwarded setting})."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [], []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self.scope.append(None if node.name == "__init__" else node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _source(self, value):
        """The setting ``value`` forwards: a parameter ``p`` of this def, or ``self.p`` of this class."""
        if isinstance(value, ast.Name):
            return (".".join([self.module] + [s for s in self.scope if s]), value.id)
        if isinstance(value, ast.Attribute) and getattr(value.value, "id", None) == "self" and len(self.scope) > 1:
            return (f"{self.module}.{self.scope[0]}", value.attr)
        return None

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        sources = {i: self._source(a) for i, a in enumerate(node.args)}
        sources.update({k.arg: self._source(k.value) for k in node.keywords})
        self.found.append((name, None if starred else len(node.args), None if None in keywords else keywords, sources))
        self.generic_visit(node)


def _parsed(directory: str) -> list:
    """(module name, parsed source) of each Python file in ``directory`` of the repository."""
    paths = sorted((ROOT / directory).glob("*.py"))
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _calls() -> list:
    found = []
    for module, tree in _parsed("src/palette") + _parsed("bench"):
        visitor = _Calls(module)
        visitor.visit(tree)
        found += visitor.found
    return found


def unset_settings() -> list[str]:
    """The settings that no call in src/ or bench/ sets, as ``module.def.parameter``."""
    settings, calls = _settings(), _calls()
    set_ = set()
    while True:  # a setting forwarded from one that is set is set too
        newly = set()
        for key, (called, index) in settings.items():
            if key in set_:
                continue
            for name, n_args, keywords, sources in calls:
                if name != called:
                    continue
                if keywords is not None and key[1] in keywords:
                    source = sources[key[1]]
                elif n_args is not None and (index is None or index >= n_args) and keywords is not None:
                    continue
                else:
                    source = sources.get(index)
                if source is None or source not in settings or source in set_ or source[0] in ALLOWED:
                    newly.add(key)
                    break
        if not newly:
            break
        set_ |= newly
    return sorted(f"{d}.{p}" for d, p in settings if (d, p) not in set_ and d not in ALLOWED)


def test_every_setting_is_set_by_the_program():
    unset = unset_settings()
    assert not unset, f"only tests set these; make each a constant: {', '.join(unset)}"


def test_each_allowance_names_a_def_with_settings():
    assert ALLOWED <= {d for d, _ in _settings()}


def _names(node) -> Counter:
    """How often ``node`` uses each name, as ``f`` or ``x.f``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _public_defs(module: str, tree):
    """(module.def, its node) of each public function, class and method of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            for fn in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{module}.{node.name}.{fn.name}", fn


def unreached_defs() -> list[str]:
    """The public defs of src/palette that nothing in src/ or bench/ calls or names outside the def itself."""
    src = _parsed("src/palette")
    names = sum((_names(tree) for _, tree in src + _parsed("bench")), Counter())
    return [qualified for module, tree in src for qualified, node in _public_defs(module, tree)
            if names[node.name] == _names(node)[node.name] and qualified not in ALLOWED]


def test_every_public_def_is_reached_by_the_program():
    unreached = unreached_defs()
    assert not unreached, f"only tests reach these; move each to the tests: {', '.join(unreached)}"
