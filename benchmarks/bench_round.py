"""One round: a fresh interpreter imports howechar.cli, runs a list of CLI
ops in-process and prints one JSON line with what it measured.

    python3 benchmarks/bench_round.py [--trace] < ops.json

ops.json is a JSON list of argv lists.  The line printed holds the monotonic
clock reading once `howechar.cli` is imported (the parent subtracts its own
reading at spawn to get the set-up time), each op's exit code, seconds and
captured output, the time of the whole pass, a machine-drift reference,
the peak resident set and, with --trace, the per-layer metrics and spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from howechar import cli  # noqa: E402

READY = time.monotonic()

DRIFT_LOOP = 400_000


def drift_reference() -> float:
    """Seconds for a fixed pure-Python loop that calls no howechar code."""
    start = time.perf_counter()
    acc = 0
    for i in range(DRIFT_LOOP):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def run_op(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:  # argparse errors exit 2, as the console script would
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends a CLI process with status 1
            traceback.print_exc()
            rc = 1
    seconds = time.perf_counter() - start
    return {"rc": rc, "s": seconds, "out": out.getvalue(), "err": err.getvalue()}


def main() -> None:
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported {cli.__file__}, not the checkout's {SRC}")
    ops = json.load(sys.stdin)
    tracer = None
    if "--trace" in sys.argv[1:]:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    start = time.perf_counter()
    results = [run_op(argv) for argv in ops]
    round_s = time.perf_counter() - start
    record = {
        "ready": READY,
        "ops": results,
        "round_s": round_s,
        "drift_s": drift_reference(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["spans"] = tracer.spans
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
