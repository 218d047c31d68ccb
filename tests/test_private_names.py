"""Only verdict_internals.py names the private parts of gtbezier.totalpos:
every other test module checks the verdict through its public results, so
a rewrite of the verdict's internals edits that one module."""

import ast
from pathlib import Path

import pytest

HELPER = "verdict_internals.py"
MODULE = "gtbezier.totalpos"


def private_names(source: str) -> list:
    """The private names of gtbezier.totalpos a module's source names:
    imported from it, read as an attribute of it or of a name bound to it,
    or passed as a string after it (setattr, getattr, monkeypatch.setattr),
    or as a "gtbezier.totalpos._name" target string."""
    tree = ast.parse(source)
    bound = {MODULE}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gtbezier":
            bound |= {a.asname or a.name for a in node.names if a.name == "totalpos"}
        elif isinstance(node, ast.Import):
            bound |= {a.asname for a in node.names if a.name == MODULE and a.asname}

    def is_module(node):
        return ast.unparse(node) in bound

    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == MODULE:
            names += [a.name for a in node.names]
        elif isinstance(node, ast.Attribute) and is_module(node.value):
            names.append(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) > 1 and is_module(node.args[0]) \
                and isinstance(node.args[1], ast.Constant):
            names.append(node.args[1].value)
        elif isinstance(node, ast.Constant) and str(node.value).startswith(MODULE + "."):
            names.append(node.value[len(MODULE) + 1:])
    return [name for name in names
            if isinstance(name, str) and name.startswith("_") and not name.endswith("__")]


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_only_the_helper_names_totalpos_privates(path):
    names = private_names(path.read_text())
    assert bool(names) == (path.name == HELPER), names


@pytest.mark.parametrize("source", [
    "from gtbezier.totalpos import _laplace",
    "from gtbezier import totalpos\ntotalpos._GATHER_LIMIT",
    "from gtbezier import totalpos as tp\nmonkeypatch.setattr(tp, '_laplace', len)",
    "import gtbezier.totalpos\nx = gtbezier.totalpos._merged",
    "import gtbezier.totalpos as tp\ngetattr(tp, '_tp_verdicts')",
    "monkeypatch.setattr('gtbezier.totalpos._initial_minors', len)",
])
def test_the_guard_sees_each_way_to_name_a_private(source):
    assert private_names(source)
    assert not private_names("from gtbezier import totalpos\ntotalpos.DEFAULT_REL_TOL\n"
                             "totalpos.__name__, setattr(totalpos, 'x', 1)")
