import importlib
import importlib.util
import pathlib

LAYERS_PY = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def test_traced_layers_resolve_to_library_functions():
    # benchmarks/run.py --trace 1 wraps these names; a renamed function
    # would drop out of the trace without any error
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.LAYERS
    for module, function, _ in layers.LAYERS:
        target = getattr(importlib.import_module(f"howechar.{module}"), function, None)
        assert callable(target), f"howechar.{module}.{function}"
