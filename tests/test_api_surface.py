"""API-surface guard: every public name in ``src/mpfilter`` has a caller in
the program or the benchmark.

A public name is a top-level function, class or constant of a module, or a
public method or property (or ``__call__``) of a top-level class.  It counts
as used when ``src/`` or ``perfbench/`` (its tests excluded) names it outside
its own definition: as a variable, an attribute, or a dotted string such as
the benchmark's ``"GaussianKernel.interactions"`` trace targets.  An
attribute chain rooted at a name the file imports from outside the package
does not count: ``np.linalg.solve`` is numpy's, not ``Covariance.solve``'s
caller.  A class's ``__call__`` counts as used when a name annotated with
that class is called.  Imports, ``__all__`` and docstrings do not count.
There is no allowlist: a reference form only tests need (a pointwise
kernel value or derivative, the log posterior) lives in
``tests/oracles.py``, not in ``src/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mpfilter"
CALLERS = (ROOT / "src", ROOT / "perfbench")

DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names() -> dict[str, str]:
    """Qualified public name -> the bare name a caller would use."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if _public(name) and name != "__all__":
                    out[name] = name
            if isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                            _public(item.name) or item.name == "__call__"):
                        qualified = f"{node.name}.{item.name}"
                        call = item.name == "__call__"
                        out[qualified] = qualified if call else item.name
    return out


def _foreign_imports(tree: ast.Module) -> set[str]:
    """Names a file binds by importing from outside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names
                         if a.name.partition(".")[0] != "mpfilter")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.partition(".")[0] != "mpfilter"):
            names.update(a.asname or a.name for a in node.names)
    return names


def _root(node: ast.Attribute) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _References(ast.NodeVisitor):
    """Bare names referenced, skipping each definition's own body for its
    own name (recursion is not a caller)."""

    def __init__(self):
        self.found: set[str] = set()
        self._inside: list[str] = []
        self._annotated: dict[str, set[str]] = {}  # variable -> class names
        self._called: set[str] = set()
        self._foreign: set[str] = set()  # of the file being visited

    def _add(self, name: str):
        if name not in self._inside:
            self.found.add(name)

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Module(self, node):
        self._foreign = _foreign_imports(node)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if _root(node) not in self._foreign:
            self._add(node.attr)
        self.generic_visit(node)

    def _annotate(self, name: str, annotation):
        if annotation is not None:
            classes = re.findall(r"\w+", ast.unparse(annotation))
            self._annotated.setdefault(name, set()).update(classes)

    def visit_arg(self, node):
        self._annotate(node.arg, node.annotation)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if isinstance(node.target, ast.Name):
            self._annotate(node.target.id, node.annotation)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        self._called.add(func.attr if isinstance(func, ast.Attribute)
                         else getattr(func, "id", ""))
        self.generic_visit(node)

    def calls(self) -> set[str]:
        """``Class.__call__`` for each class whose annotated names are called."""
        return {f"{cls}.__call__" for name in self._called & self._annotated.keys()
                for cls in self._annotated[name]}

    def visit_Expr(self, node):
        if not isinstance(node.value, ast.Constant):  # docstrings
            self.generic_visit(node)

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and DOTTED.fullmatch(node.value):
            for part in node.value.split("."):
                self._add(part)


def referenced_names() -> set[str]:
    refs = _References()
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                refs.visit(ast.parse(path.read_text()))
    return refs.found | refs.calls()


def test_every_public_name_has_a_program_caller():
    used = referenced_names()
    unused = sorted(q for q, bare in public_names().items() if bare not in used)
    assert unused == [], f"public names only tests use: {unused}"

