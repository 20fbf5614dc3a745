import ast
import pathlib

import howechar

SRC = pathlib.Path(howechar.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that nothing in it reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `from m import x as y` binds y
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module imports to use
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = {p.name: _unused_imports(ast.parse(p.read_text(), str(p))) for p in modules}
    assert {name: lines for name, lines in unused.items() if lines} == {}


def test_the_gate_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport sys\nfrom math import pi as tau, e\nprint(sys.argv, tau)\n")
    assert _unused_imports(tree) == ["line 2: os", "line 4: e"]
