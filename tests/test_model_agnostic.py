"""Model-agnostic guard: only ``config.build_model`` compares anything with
a model's name.

Everywhere else the program asks the model it was handed: its
``twin_window``, ``start``, ``initial_ensemble``, ``observation_matrix``,
``obs_operators`` and ``q_kinds``.  A comparison (``==``, ``!=``, ``in``,
...) or a ``match`` case with a string literal from ``config.MODELS``
anywhere else in ``src/mpfilter`` fails the guard.
"""

import ast
from pathlib import Path

from mpfilter.config import MODELS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mpfilter"
ALLOWED = {("config.py", "build_model")}


def _model_names(node: ast.AST) -> list[str]:
    return sorted({n.value for n in ast.walk(node)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and n.value in MODELS})


class _NameComparisons(ast.NodeVisitor):
    """``file:line in scope: names`` for each comparison with a model name
    outside ``ALLOWED``."""

    def __init__(self, file: str):
        self.file = file
        self.found: list[str] = []
        self._scope: list[str] = []

    def _scoped(self, node):
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _check(self, node):
        names = _model_names(node)
        scope = ".".join(self._scope)
        if names and (self.file, scope) not in ALLOWED:
            self.found.append(f"{self.file}:{node.lineno} in {scope or '<module>'}: {names}")
        self.generic_visit(node)

    visit_Compare = visit_MatchValue = _check


def name_comparisons(file: str, source: str) -> list[str]:
    visitor = _NameComparisons(file)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_only_build_model_compares_model_names():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in name_comparisons(path.name, path.read_text())]
    assert found == [], f"ask the model instead: {found}"


def test_guard_sees_each_comparison_form():
    source = '''
def build_setup(cfg, model):
    if cfg.model == "lorenz63":
        pass
    if model.name in ("lorenz96", "cholera"):
        pass
    match cfg.model:
        case "cholera":
            pass

def build_model(cfg):
    return cfg.model == "lorenz63"
'''
    assert len(name_comparisons("experiment.py", source)) == 4
    assert len(name_comparisons("config.py", source)) == 3  # only config's build_model
