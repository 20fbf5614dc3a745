import argparse
import cmath
import json
import random
import subprocess
import sys
import time
import warnings

import pytest

from howechar.cli import _floats, _fractions, _rational_text, _read_plain, build_parser, main, run

CLI = [sys.executable, "-m", "howechar.cli"]


def capture(argv):
    """The CLI in a fresh process; kept for the tests that check the process boundary."""
    return subprocess.run(CLI + argv, capture_output=True, text=True)


def call(capsys, argv):
    """run(argv) in this process: (exit status, stdout, stderr)."""
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_theta_reference_value_and_schema():
    out = capture(["theta", "--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "0", "--m", "1", "--theta", "1.5707963,-1.5707963"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert set(doc) == {"meta", "results", "warnings"}
    val = doc["results"][0]["value"]
    assert abs(val["re"]) < 1e-6 and abs(val["im"] + 0.5) < 1e-6
    assert doc["meta"]["nu"] == ["0"]


def test_identity_grid_proved(capsys):
    _, out, _ = call(capsys, ["identity", "--p", "2", "--q", "1", "--k", "1", "--mode", "grid"])
    doc = json.loads(out)
    assert doc["results"][0]["verdict"] == "proved"


def test_roots_listing(capsys):
    _, out, _ = call(capsys, ["roots", "--family", "C", "--rank", "2"])
    doc = json.loads(out)
    assert doc["meta"]["count"] == 4
    assert len(doc["results"]) == 4


def test_byte_identical_reproducibility():
    argv = ["theta", "--pair", "oeven", "--n", "1", "--m", "2", "--nu", "1", "--random-regular", "3", "--seed", "9"]
    a, b = capture(argv), capture(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_domain_error_exit_code_and_name(capsys):
    code, _, err = call(capsys, ["theta", "--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "0,1", "--theta", "1,2"])
    assert code == 1
    assert "NotInCorrespondence" in err
    # a non-integral dimension is refused even with asserts compiled out
    argv = [sys.executable, "-O", "-m", "howechar.cli", "dim", "--family", "A", "--rank", "2", "--weight", "1/2,0"]
    out = subprocess.run(argv, capture_output=True, text=True)
    assert out.returncode == 1 and "ValueError" in out.stderr


def test_parse_error_exit_code(capsys, monkeypatch):
    uu = ["--pair", "uu", "--n", "1", "--p", "1", "--q", "1"]
    for argv in (
        ["theta", "--pair", "nope", "--n", "1", "--nu", "0"],
        ["theta", *uu, "--nu", "abc", "--theta", "1,2"],
        ["dim", "--family", "A", "--rank", "2", "--weight", "x"],
        ["theta", *uu, "--nu", "0", "--theta", "1,x"],
        ["theta", "--pair", "uu", "--n", "1", "--nu", "0", "--theta", "1,2"],
        ["support", "--pair", "oeven", "--n", "1", "--nu", "1"],
        ["oracle", "--n", "2", "--lam", "1,0", "--x", "1.0,-0.5", "--samples", "0"],
        ["oracle", "--n", "2", "--lam", "1,0", "--x", "1.0,-0.5", "--samples", "-5"],
        ["theta", *uu, "--nu", "0"],
        ["theta", *uu, "--nu", "0", "--random-regular", "-2"],
        ["numerator", *uu, "--nu", "0"],
        ["char", "--family", "A", "--rank", "2", "--weight", "1,0"],
        ["theta-closed-u1", "--p", "1", "--q", "1", "--lam1", "0", "--m", "1"],
        ["ktypes", *uu, "--nu", "2", "--truncation", "-3"],
        ["roots", "--family", "AB", "--rank", "2"],  # choices match whole names, not substrings
        ["roots", "--family", "", "--rank", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        if argv[0] == "oracle":
            assert "--samples" in err
    # the console entry point turns the same parse error into exit status 2
    monkeypatch.setattr(sys, "argv", ["howechar", "oracle", "--n", "2", "--lam", "1,0", "--x", "1.0,-0.5", "--samples", "0"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2 and "--samples" in capsys.readouterr().err


def test_domain_errors_print_weights_plainly(capsys):
    uu = ["--pair", "uu", "--n", "2", "--p", "2", "--q", "2"]
    for argv, weight in (
        (["char", "--family", "A", "--rank", "2", "--weight", "0,1", "--theta", "1,2"], "(0, 1) is not dominant for A2"),
        (["dim", "--family", "B", "--rank", "1", "--weight=-1"], "(-1,) is not dominant for B1"),
        (["dim", "--family", "A", "--rank", "2", "--weight", "1/2,0"], "non-integral dimension 3/2 for (1/2, 0)"),
        (["support", *uu, "--nu", "0,1"], "(0, 1) is not weakly decreasing"),
        (["support", "--pair", "uu", "--n", "1", "--p", "2", "--q", "2", "--nu", "1/2"], "entries of (1/2,) must lie"),
        (["support", "--pair", "oeven", "--n", "1", "--m", "2", "--nu", "1/2"], "(1/2,) must be integral"),
        (["support", "--pair", "oeven", "--n", "1", "--m", "2", "--nu=-1"], "(-1,) must be nonnegative"),
        (["constant", *uu, "--nu", "1,0", "--lambda-min", "0,1,0,0"], "(0, 1, 0, 0) is not dominant for K'"),
        (["constant", "--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "2", "--lambda-min", "5,0"], "(5, 0) pairs to zero"),
    ):
        code, out, err = call(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert weight in err and "Fraction(" not in err, err


def test_singular_point_domain_error(capsys):
    code, _, err = call(capsys, ["theta", "--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "0", "--theta", "1.0,1.0"])
    assert code == 1
    assert "SingularPoint" in err


def test_support_and_ktypes_and_constant(capsys):
    _, out, _ = call(capsys, ["support", "--pair", "uu", "--n", "1", "--p", "2", "--q", "1", "--nu=-7/2"])
    doc = json.loads(out)
    assert (doc["results"][0]["lo"], doc["results"][0]["hi"]) == (1, 1)
    _, out, _ = call(capsys, ["ktypes", "--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "1", "--truncation", "4"])
    doc = json.loads(out)
    assert doc["results"][0]["multiplicity"] == 1
    _, out, _ = call(capsys, ["constant", "--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "2"])
    assert json.loads(out)["results"][0]["constant"]


def test_dim_and_rho_and_char(capsys):
    _, out, _ = call(capsys, ["dim", "--family", "A", "--rank", "3", "--weight", "2,1,0"])
    assert json.loads(out)["results"][0]["dimension"] == 8
    _, out, _ = call(capsys, ["rho", "--family", "C", "--rank", "2"])
    assert json.loads(out)["results"][0]["rho"] == ["2", "1"]
    _, out, _ = call(capsys, ["char", "--family", "A", "--rank", "2", "--weight", "1,0", "--theta", "1.0,2.5"])
    expect = cmath.exp(1j) + cmath.exp(2.5j)
    assert abs(json.loads(out)["results"][0]["value"]["re"] - expect.real) < 1e-9


def test_char_beyond_the_weyl_group_enumeration_cap(capsys):
    # A11 has 11! Weyl elements; the determinant numerator never lists them
    argv = ["char", "--family", "A", "--rank", "11", "--weight", "1" + ",0" * 10, "--random-regular", "3", "--seed", "4"]
    assert run(argv) == 0
    for row in json.loads(capsys.readouterr().out)["results"]:
        expect = sum(cmath.exp(1j * t) for t in row["point"])
        got = complex(row["value"]["re"], row["value"]["im"])
        assert abs(got - expect) <= 1e-12 * abs(expect)


def test_oracle_and_rdv_cli(capsys):
    # `oracle --method hciz` prints rdv's value, for a repeated lam too
    cases = (("2", "1, 0", "1.0,-0.5"), ("3", "1,1,1", "0.3,0.5,0.9"), ("4", "2,1/2,2,-1", "0.7,-0.4,1.1,0.2"))
    for n, lam, x in cases:
        code, out, _ = call(capsys, ["rdv", "--n", n, "--lam", lam, "--x", x])
        assert code == 0
        ref = json.loads(out)["results"][0]
        code, out, _ = call(capsys, ["oracle", "--n", n, "--lam", lam, "--x", x, "--method", "hciz"])
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["lam"] == lam  # echoed as given
        assert doc["results"] == [{**ref, "stderr": None}]


def test_monte_carlo_oracle_keeps_its_bytes(capsys):
    # frozen from the oracle before its determinant branch moved to the CLI
    argv = ["oracle", "--n", "3", "--lam=2,1/2,-1", "--x=0.7,-0.4,1.1", "--samples", "5000", "--seed", "11"]
    assert call(capsys, argv) == (
        0,
        '{"meta":{"lam":"2,1/2,-1","method":"mc","n":3,"samples":5000,"seed":11},'
        '"results":[{"point":[0.7,-0.4,1.1],"stderr":0.0341119831580125,'
        '"value":{"im":1.5121954949636218,"re":1.812664560846569}}],"warnings":[]}\n',
        "",
    )


def test_rationals_beyond_the_float_range_are_one_line_domain_errors(capsys):
    for argv in (
        ["oracle", "--n", "2", "--lam=1e400,0", "--x=1,2"],
        ["oracle", "--n", "2", "--lam=1e400,0", "--x=1,2", "--method", "hciz"],
        ["rdv", "--n", "2", "--lam=1e400,0", "--x=1,2"],
        ["oracle", "--n", "3", "--lam=1e200,0,-1e200", "--x=1,2,3"],
    ):
        code, out, err = call(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("ValueError: ") and err.count("\n") == 1 and "lam does not fit a float" in err, argv


def test_points_whose_pairings_overflow_are_one_line_domain_errors(capsys):
    # finite points at which one step of the determinant form that rdv and
    # `oracle --method hciz` share overflows a float (a phase lam_j x_k, a
    # power x_k^s of a repeated entry, the product of the root pairings of a
    # point with a huge exact coordinate or spread over n = 27 coordinates),
    # or at which its error bound refuses the point (just off the walls, or on
    # one), or whose x has fewer coordinates than lam.  Each must end in one
    # line naming that step, with no NaN value and no RuntimeWarning
    near_walls = ",".join(repr(k * 1.0000001e-9) for k in range(9, 0, -1))
    # lam_j x_k = 10 jk / 43, about 2 pi jk / 27: C is close to a unitary matrix
    spread = ["--n", "27", "--lam=" + ",".join(f"{k}/43" for k in range(27))]
    spread.append("--x=" + ",".join(str(10 * k) for k in range(27)))
    pairings = "ValueError: the product of the root pairings of X overflows a float"
    entry = "ValueError: an entry of the determinant overflows a float"
    refused = "SingularPoint: the determinant's relative error bound "
    for argv, line in (
        (["rdv", "--n", "3", "--lam=1,0,-1", "--x=1e200,2,3"], pairings),
        (["oracle", "--n", "3", "--lam=1,0,-1", "--x=1e300,2,3", "--method", "hciz"], pairings),
        (["rdv", *spread], pairings),
        (["oracle", *spread, "--method", "hciz"], pairings),
        (["rdv", "--n", "2", "--lam=1e200,0", "--x=1e200,0"], entry),
        (["oracle", "--n", "2", "--lam=1e200,0", "--x=1e200,0", "--method", "hciz"], entry),
        (["rdv", "--n", "3", "--lam=1,1,1", "--x=1e200,0,1"], entry),
        (["rdv", "--n", "9", "--lam=8,7,6,5,4,3,2,1,0", f"--x={near_walls}"], refused),
        (["rdv", "--n", "3", "--lam=1,1,0", "--x=1,1,0.5"], refused),
        (["rdv", "--n", "2", "--lam=1,1", "--x=0,0"], refused),
        (["rdv", "--n", "3", "--lam=1,0,0", "--x=1,2"], "ValueError: dimension mismatch\n"),
        (["oracle", "--n", "3", "--lam=1,0,0", "--x=1,2", "--method", "hciz"], "ValueError: dimension mismatch\n"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = call(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(line) and err.count("\n") == 1, (argv, err)
    # the old HCIZ oracle's constant prod k! passed the float range at n = 27;
    # the determinant form has no constant and answers there
    half_steps = ",".join(str(k / 2) for k in range(27))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = call(capsys, ["oracle", "--n", "27", f"--lam={half_steps}", f"--x={half_steps}", "--method", "hciz"])
    assert (code, err) == (0, "")
    value = json.loads(out)["results"][0]["value"]
    assert cmath.isfinite(complex(value["re"], value["im"])) and value != {"re": 0.0, "im": 0.0}


def test_rdv_beyond_the_weyl_group_enumeration_cap(capsys):
    # A12 has 12! Weyl elements; the determinant form never lists them.  x is
    # spaced about 2 pi / 12 apart, so the matrix is close to a unitary one
    x = ",".join(repr(round(0.52 * k - 3, 2)) for k in range(12))
    start = time.perf_counter()
    code = run(["rdv", "--n", "12", "--lam=6,5,4,3,2,1,0,-1,-2,-3,-4,-5", f"--x={x}"])
    assert code == 0 and time.perf_counter() - start < 1.0
    value = json.loads(capsys.readouterr().out)["results"][0]["value"]
    assert cmath.isfinite(complex(value["re"], value["im"]))


def test_a_reader_that_closes_the_pipe_ends_the_process_quietly():
    # `howechar char ... | head -c 10`: the output is far larger than a pipe
    # buffer, so the write meets the closed pipe; exit 141, and no traceback
    argv = CLI + ["char", "--family", "A", "--rank", "3", "--weight", "2,1,0", "--random-regular", "5000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{"meta":{"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_only_the_verify_subcommand_imports_the_check_table():
    probe = "import sys, howechar.cli; print('howechar.verify' in sys.modules); sys.exit(howechar.cli.run(['verify', '--quick']))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "False"


def test_run_function_in_process():
    assert run(["roots", "--family", "A", "--rank", "2"]) == 0
    with pytest.raises(SystemExit) as exc:  # no point source is an argument error
        run(["theta", "--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "0"])
    assert exc.value.code == 2


def _subparsers():
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, commands.choices


def _sweep_tokens(rng, action):
    """One occurrence of an option: a valid or invalid value, in '=' or separate form."""
    opt = action.option_strings[0]
    if action.nargs == 0:
        return [opt] if rng.random() < 0.9 else [f"{opt}=1"]
    if action.choices is not None:
        valid, invalid = [str(c) for c in action.choices], ["AB", "", "2", "x"]
    elif action.type is int:
        valid, invalid = ["0", "1", "3", "12", " 4", "-2"], ["x", "1.5", ""]
    elif action.type is _fractions:
        valid, invalid = ["1,0", "1/2", "-1/2,0", "0.5,-1", "2", "1,,2", ""], ["1/0", "x", "nan", "1/2/3", "--", "-"]
    elif action.type is _floats:
        valid, invalid = ["1.0,-2.5", "0.5", "-1,2", "1,,2", "nan", "inf,1", ""], ["1/0", "1/2", "x", "1,y", "--", "-"]
    elif action.type is _rational_text:  # oracle --lam: checked as rationals, kept as text
        valid, invalid = ["1,0", "1/2", "-1/2,0", "0.5,-1", "2", "1, 0", ""], ["1/0", "x", "--", "-"]
    else:
        raise AssertionError(f"no sweep values for {opt}")
    value = rng.choice(valid if rng.random() < 0.85 else invalid)
    return [f"{opt}={value}"] if rng.random() < 0.5 else [opt, value]


def _same(a: argparse.Namespace, b: argparse.Namespace) -> bool:
    """Namespace equality by repr, so that a NaN angle equals itself."""
    return repr(sorted(vars(a).items())) == repr(sorted(vars(b).items()))


STRAY_TOKENS = ["-h", "--help", "--", "stray", "--format", "--format=table", "--ra", "--nu-", "-1", "--n=", "-"]


def test_plain_reader_agrees_with_argparse(capsys):
    # a seeded sweep over every subcommand's options: wherever the reader
    # returns a Namespace, argparse must return the same one
    parser, commands = _subparsers()
    rng = random.Random(20260418)
    accepted = declined = 0
    for _ in range(100):
        for command, sp in commands.items():
            actions = [a for a in sp._actions if a.option_strings and a.dest != "help"]
            groups = []
            for action in actions:
                if rng.random() < (0.9 if action.required else 0.5):
                    groups += [_sweep_tokens(rng, action) for _ in range(rng.choice((1, 1, 1, 2)))]
            if rng.random() < 0.1:
                groups.append([rng.choice(STRAY_TOKENS)])
            rng.shuffle(groups)
            argv = [command] + [t for g in groups for t in g]
            ns = _read_plain(argv)
            if ns is None:
                declined += 1
                continue
            accepted += 1
            assert _same(ns, parser.parse_args(argv)), argv
    capsys.readouterr()
    assert accepted > 300 and declined > 300, (accepted, declined)


PLAIN_ARGV = {
    "roots": "--family C --rank 2",
    "rho": "--family=B --rank=3",
    "char": "--family A --rank 2 --weight 1,0 --theta=1.0,-2.5 --seed 3",
    "dim": "--family D --rank 4 --weight=-1,0,0,0",
    "theta": "--pair uu --n 2 --p 4 --q 3 --nu=-1/2,-1/2 --random-regular 16 --seed 577090037",
    "theta-closed-u1": "--p 3 --q 2 --lam1 1 --m 0 --random-regular 16 --seed 1971955755",
    "numerator": "--pair oeven --n 1 --m 2 --nu 1 --random-regular 2",
    "constant": "--pair uu --n 2 --p 2 --q 2 --nu=1,0 --truncation 2 --lambda-min=-1,0,0,0",
    "ktypes": "--pair ostar --n 2 --m 3 --nu 1,1 --truncation 4",
    "support": "--pair oodd --n 2 --m 2 --nu 2,1",
    "identity": "--p 3 --q 4 --k 2 --mode grid",
    "rdv": "--n 2 --lam=5,-6 --x=-0.18,-1.14",
    "oracle": "--n 3 --lam=5,1,-5 --x=-0.16,-0.72,-1.74 --samples 1000 --seed 2095328386 --method mc",
    "verify": "--quick",
}


def test_each_subcommand_has_a_plain_argv_the_reader_takes(capsys, monkeypatch):
    parser, commands = _subparsers()
    assert set(PLAIN_ARGV) == set(commands)
    for command, rest in PLAIN_ARGV.items():
        argv = [command, *rest.split()]
        ns = _read_plain(argv)
        assert ns is not None and ns == parser.parse_args(argv), argv

    def refuse(*args, **kwargs):
        raise AssertionError("parse_args called on a plain argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert run(["identity", *PLAIN_ARGV["identity"].split()]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["verdict"] == "proved"


def test_inputs_outside_the_plain_grammar_stay_with_argparse(capsys):
    uu = ["theta", "--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "0"]
    pinned = [
        (uu + ["--rand", "2", "--seed", "5"], uu + ["--random-regular", "2", "--seed", "5"]),  # an abbreviation
        (uu + ["--random-regular", "1", "--seed", "-3"], uu + ["--random-regular", "1", "--seed=-3"]),  # a negative number
    ]
    for argv, same_as in pinned:
        assert _read_plain(argv) is None, argv
        code, out, err = call(capsys, argv)
        assert (code, err) == (0, ""), argv
        if same_as is not None:
            assert call(capsys, same_as) == (code, out, err), argv
    for argv, status, stream, usage in (
        (["roots", "--family", "A", "--rank", "2", "-h"], 0, "out", "usage: howechar roots"),
        (["theta", "--pair", "uu", "--n", "1", "--p", "1", "--q", "2", "--nu", "-1/2", "--theta", "1,2"], 2, "err", "usage: howechar theta"),
        # an option before the subcommand: the top-level parser has none, so
        # --format is unknown and "table" names no subcommand
        (["--format", "table", "roots", "--family", "A", "--rank", "2"], 2, "err", "usage: howechar [-h]"),
    ):
        assert _read_plain(argv) is None, argv
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == status, argv
        assert getattr(capsys.readouterr(), stream).startswith(usage), argv


def test_unparsable_values_are_argument_errors_that_name_the_subcommand(capsys):
    # the grammar converts every value, so a bad one is refused by argparse on
    # both argv paths: the plain reader declines it, and an argv only argparse
    # reads (an abbreviated option) meets the same check
    uu = ["--pair", "uu", "--n", "1", "--p", "1", "--q", "1"]
    abbreviate = {"--pair": "--pai", "--family": "--fam", "--lam": "--la"}
    for argv, option in (
        (["theta", *uu, "--nu=1/0", "--theta=1,2"], "--nu"),
        (["ktypes", *uu, "--nu", "x"], "--nu"),
        (["constant", *uu, "--nu", "2", "--lambda-min=nan,0"], "--lambda-min"),
        (["dim", "--family", "A", "--rank", "2", "--weight", "1,y"], "--weight"),
        (["char", "--family", "A", "--rank", "2", "--weight", "1,0", "--theta=1/2,1"], "--theta"),
        (["numerator", *uu, "--nu", "0", "--theta", "x"], "--theta"),
        (["rdv", "--n", "2", "--lam", "1,0", "--x=1,y"], "--x"),
        (["rdv", "--n", "2", "--lam", "1/0,0", "--x=1,2"], "--lam"),
        (["oracle", "--n", "2", "--lam", "1,0", "--x", "x"], "--x"),
        (["oracle", "--n", "2", "--lam", "x", "--x", "1,2"], "--lam"),
    ):
        for path in (argv, [abbreviate.get(t, t) for t in argv]):
            assert _read_plain(path) is None, path
            with pytest.raises(SystemExit) as exc:
                run(path)
            err = capsys.readouterr().err
            assert exc.value.code == 2, path
            assert err.startswith(f"usage: howechar {argv[0]} "), path
            assert f"howechar {argv[0]}: error: argument {option}: expected comma-separated" in err, path


def test_torus_points_are_checked_once_for_every_point_subcommand(capsys):
    # a NaN or infinite angle, or the wrong number of them, is one stderr
    # line and exit 1: no value, no numpy warning, no singular-set message
    uu = ["--pair", "uu", "--n", "1", "--p", "1", "--q", "1", "--nu", "0"]
    for command in (
        ["char", "--family", "A", "--rank", "2", "--weight", "1,0"],
        ["theta", *uu],
        ["numerator", *uu],
        ["theta-closed-u1", "--p", "1", "--q", "1", "--lam1", "0", "--m", "1"],
    ):
        for theta, message in (
            ("nan,1", "angles must be finite"),
            ("1,inf", "angles must be finite"),
            ("-inf,1", "angles must be finite"),
            ("1,2,3", "dimension mismatch"),
            ("1", "dimension mismatch"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = call(capsys, [*command, f"--theta={theta}"])
            assert (code, out, err) == (1, "", f"ValueError: {message}\n"), (command[0], theta)


def test_uh_ostar_with_m_one_is_a_domain_error(capsys):
    code, _, err = call(capsys, ["support", "--pair", "ostar", "--n", "1", "--m", "1", "--nu", "0"])
    assert code == 1
    assert "uh-ostar needs m >= 2" in err


# JSON of the formal subcommands, one small instance per pair kind, frozen
# from the Fraction-arithmetic Laurent engine, then instances of rank 3 and 5
# frozen from the doubled-int engine before the K-type reader moved to it,
# and a rank-4 uh-ostar instance whose numerator lies far below level 0,
# cross-checked against a deeper series: an engine change that moves a
# single byte fails here
FORMAL_GOLDEN = [
    (
        "ktypes --pair uu --n 1 --p 1 --q 1 --nu 2 --truncation 10",
        '{"meta":{"depth":10,"m_embed":0,"nu":["2"],"pair":"uu"},"results":[{"ktype":["-1/2","-3/2"],"multiplicity":1},'
        '{"ktype":["-3/2","-1/2"],"multiplicity":1},{"ktype":["-5/2","1/2"],"multiplicity":1},'
        '{"ktype":["-7/2","3/2"],"multiplicity":1},{"ktype":["-9/2","5/2"],"multiplicity":1},'
        '{"ktype":["-11/2","7/2"],"multiplicity":1},{"ktype":["-13/2","9/2"],"multiplicity":1},'
        '{"ktype":["-15/2","11/2"],"multiplicity":1},{"ktype":["-17/2","13/2"],"multiplicity":1},'
        '{"ktype":["-19/2","15/2"],"multiplicity":1},{"ktype":["-21/2","17/2"],"multiplicity":1}],"warnings":[]}',
    ),
    (
        "constant --pair uu --n 1 --p 1 --q 1 --nu 2 --truncation 10",
        '{"meta":{"m_embed":0,"nu":["2"],"pair":"uu","truncation":10},"results":[{"constant":"1","lambda_min":["-1/2","-3/2"]}],'
        '"warnings":["lambda-min taken from the expansion\'s top K-type"]}',
    ),
    (
        "ktypes --pair oeven --n 1 --m 2 --nu 2 --truncation 6",
        '{"meta":{"depth":6,"m_embed":1,"nu":["2"],"pair":"oeven"},"results":[{"ktype":["-1","-3"],"multiplicity":1},'
        '{"ktype":["-1","-5"],"multiplicity":1},{"ktype":["-2","-4"],"multiplicity":1},{"ktype":["-1","-7"],"multiplicity":1},'
        '{"ktype":["-2","-6"],"multiplicity":1},{"ktype":["-1","-9"],"multiplicity":1},{"ktype":["-3","-5"],"multiplicity":1}],'
        '"warnings":[]}',
    ),
    (
        "constant --pair oeven --n 1 --m 2 --nu 2",
        '{"meta":{"m_embed":1,"nu":["2"],"pair":"oeven","truncation":40},"results":[{"constant":"1","lambda_min":["-1","-3"]}],'
        '"warnings":["lambda-min taken from the expansion\'s top K-type"]}',
    ),
    (
        "ktypes --pair oodd --n 2 --m 2 --nu 2,1 --truncation 6",
        '{"meta":{"depth":6,"m_embed":2,"nu":["2","1"],"pair":"oodd"},"results":[{"ktype":["-7/2","-9/2"],"multiplicity":1},'
        '{"ktype":["-7/2","-13/2"],"multiplicity":1},{"ktype":["-9/2","-11/2"],"multiplicity":1},'
        '{"ktype":["-7/2","-17/2"],"multiplicity":1},{"ktype":["-9/2","-15/2"],"multiplicity":1},'
        '{"ktype":["-7/2","-21/2"],"multiplicity":1},{"ktype":["-11/2","-13/2"],"multiplicity":1}],"warnings":[]}',
    ),
    (
        "constant --pair ostar --n 1 --m 3 --nu 2 --truncation 6",
        '{"meta":{"m_embed":1,"nu":["2"],"pair":"ostar","truncation":6},"results":[{"constant":"1/2","lambda_min":["-1","-1","-3"]}],'
        '"warnings":["lambda-min taken from the expansion\'s top K-type"]}',
    ),
    (
        "ktypes --pair uu --n 2 --p 3 --q 2 --nu 1/2,1/2 --truncation 2",
        '{"meta":{"depth":2,"m_embed":2,"nu":["1/2","1/2"],"pair":"uu"},"results":[{"ktype":["-1","-1","-1","1","1"],"multiplicity":1},'
        '{"ktype":["-1","-1","-2","2","1"],"multiplicity":1},'
        '{"ktype":["-1","-1","-3","3","1"],"multiplicity":1}],"warnings":[]}',
    ),
    (
        "constant --pair uu --n 2 --p 3 --q 2 --nu 1/2,1/2 --truncation 2",
        '{"meta":{"m_embed":2,"nu":["1/2","1/2"],"pair":"uu","truncation":2},"results":[{"constant":"1/2","lambda_min":["-1","-1","-1","1","1"]}],'
        '"warnings":["lambda-min taken from the expansion\'s top K-type"]}',
    ),
    (
        "ktypes --pair ostar --n 2 --m 3 --nu 1,1 --truncation 4",
        '{"meta":{"depth":4,"m_embed":2,"nu":["1","1"],"pair":"ostar"},"results":[{"ktype":["-2","-3","-3"],"multiplicity":1},'
        '{"ktype":["-2","-4","-4"],"multiplicity":1},'
        '{"ktype":["-3","-3","-4"],"multiplicity":1}],"warnings":[]}',
    ),
    (
        "ktypes --pair oeven --n 2 --m 3 --nu 1,0 --truncation 4",
        '{"meta":{"depth":4,"m_embed":2,"nu":["1","0"],"pair":"oeven"},"results":[{"ktype":["-2","-2","-3"],"multiplicity":1},'
        '{"ktype":["-2","-2","-5"],"multiplicity":1},{"ktype":["-2","-3","-4"],"multiplicity":1},'
        '{"ktype":["-2","-2","-7"],"multiplicity":1}],"warnings":[]}',
    ),
    (
        "ktypes --pair ostar --n 4 --m 4 --nu 1,1,1,1 --truncation 8",
        '{"meta":{"depth":8,"m_embed":4,"nu":["1","1","1","1"],"pair":"ostar"},'
        '"results":[{"ktype":["-5","-5","-5","-5"],"multiplicity":1},{"ktype":["-5","-5","-6","-6"],"multiplicity":1},'
        '{"ktype":["-5","-5","-7","-7"],"multiplicity":1}],"warnings":[]}',
    ),
    (
        "ktypes --pair ostar --n 4 --m 4 --nu 1,1,1,1 --truncation 20",
        '{"meta":{"depth":20,"m_embed":4,"nu":["1","1","1","1"],"pair":"ostar"},'
        '"results":[{"ktype":["-5","-5","-5","-5"],"multiplicity":1},{"ktype":["-5","-5","-6","-6"],"multiplicity":1},'
        '{"ktype":["-5","-5","-7","-7"],"multiplicity":1},{"ktype":["-5","-5","-8","-8"],"multiplicity":1},'
        '{"ktype":["-6","-6","-6","-6"],"multiplicity":1},{"ktype":["-5","-5","-9","-9"],"multiplicity":1},'
        '{"ktype":["-6","-6","-7","-7"],"multiplicity":1},{"ktype":["-5","-5","-10","-10"],"multiplicity":1},'
        '{"ktype":["-6","-6","-8","-8"],"multiplicity":1},{"ktype":["-5","-5","-11","-11"],"multiplicity":1},'
        '{"ktype":["-6","-6","-9","-9"],"multiplicity":1},{"ktype":["-7","-7","-7","-7"],"multiplicity":1}],"warnings":[]}',
    ),
]


@pytest.mark.parametrize("argv, expected", FORMAL_GOLDEN, ids=[a for a, _ in FORMAL_GOLDEN])
def test_formal_subcommands_keep_their_bytes(argv, expected, capsys):
    assert run(argv.split()) == 0
    assert capsys.readouterr().out == expected + "\n"
