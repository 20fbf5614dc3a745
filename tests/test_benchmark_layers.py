import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

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


def test_a_traced_round_runs_both_oracle_methods():
    # the tracer binds each oracle call's arguments to read method and
    # n_samples; an argument it reads that the oracle lacks fails the op
    ops = [
        ["oracle", "--n", "2", "--lam=1,0", "--x=1.0,-0.5", "--samples", "100", "--method", "mc"],
        ["oracle", "--n", "2", "--lam=1,0", "--x=1.0,-0.5", "--method", "hciz"],
    ]
    proc = subprocess.run(
        [sys.executable, str(LAYERS_PY.parent / "bench_round.py"), "--trace"],
        input=json.dumps(ops),
        capture_output=True,
        text=True,
        cwd=LAYERS_PY.parents[1],
        timeout=60,
    )
    record = json.loads(proc.stdout.splitlines()[-1])
    assert [op["rc"] for op in record["ops"]] == [0, 0], [op["err"] for op in record["ops"]]
    assert record["layers"]["orbits.orbit_integral_oracle.samples_per_s"] > 0
