import ast
import pathlib
import subprocess
import sys

from howechar import verify
from howechar.cli import run

SRC = pathlib.Path(verify.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_verify_quick_passes_under_optimize():
    out = subprocess.run(
        [sys.executable, "-O", "-m", "howechar.cli", "verify", "--quick"], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert [line.split("  ")[1] for line in lines if line.startswith("PASS  ")] == [c.name for c in verify.CHECKS]
    assert lines[-1] == "VERIFY OK"


def test_failing_entry_reports_fail_and_exit_one(monkeypatch, capsys):
    def broken(quick):
        raise verify.CheckFailed("deliberate")

    table = (verify.CHECKS[0], verify.Check("x", "always fails", broken))
    monkeypatch.setattr(verify, "CHECKS", table)
    assert run(["verify", "--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"PASS  {table[0].name}  (")
    assert lines[1] == "FAIL  always fails: CheckFailed: deliberate"
    assert lines[2] == "VERIFY FAILED"
