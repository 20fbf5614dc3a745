import ast
import importlib.util
import pathlib

import howechar

SRC = pathlib.Path(howechar.__file__).parent
LAYERS_PY = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"

# definitions the library never calls that stay as references the tests compare against
TEST_REFERENCES = ("root_factor_series",)


def _names(node: ast.AST) -> set[str]:
    """Every name a node reads, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unreached(sources: dict[str, str], kept: set[str]) -> list[str]:
    """Top-level functions and classes that no module names outside their own
    definition; __init__'s re-exports do not count as a use."""
    defined, named = {}, set()
    for module, text in sources.items():
        for node in ast.parse(text, module).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined[own] = module
            named |= _names(node) - {own}
    return sorted(f"{module}: {name}" for name, module in defined.items() if name not in named and name not in kept)


def _traced_layers() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {function for _, function, _ in layers.LAYERS}


def test_every_library_definition_is_reached():
    # a function the subcommands, the verify table and the benchmark tracer
    # never reach is deleted, unless a test compares against it
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert len(sources) >= 10
    assert _unreached(sources, _traced_layers() | set(TEST_REFERENCES)) == []


def test_the_gate_sees_an_unreached_definition():
    sources = {
        "a.py": "def used():\n    return 1\n\ndef lonely(k):\n    return lonely(k - 1)\n\nclass Spare:\n    pass\n",
        "b.py": "from a import used\n\ndef traced():\n    return used()\n",
    }
    assert _unreached(sources, {"traced"}) == ["a.py: Spare", "a.py: lonely"]
