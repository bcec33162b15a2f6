"""End-to-end checks of the command-line front end via main(argv)."""

import hashlib

import numpy as np
import pytest

from mlpicard import builtin_case, cli, run_convergence, write_csv
from mlpicard.cli import main


def test_cost_command(capsys):
    rc = main(["cost", "--d", "1", "--n", "2", "--M", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "draws(d=1, n=2, M=2) = 28" in out
    assert "closed bound d(5M)^n = 100" in out


def test_solve_happy_path(capsys):
    rc = main(["solve", "--case", "linear-heat-quadratic", "--n", "1",
               "--M", "1", "--reps", "5", "--x", "0.3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "case: linear-heat-quadratic" in out
    assert "value:" in out
    assert "grad[0]:" in out
    assert "rmse_value:" in out
    exact_line = [ln for ln in out.splitlines()
                  if ln.startswith("exact value:")][0]
    # u(0, 0.3) = 0.3^2 + (horizon - 0) in dimension 1.
    assert float(exact_line.split()[-1]) == pytest.approx(1.09)


def test_solve_forward_clock_query(capsys):
    rc = main(["solve", "--case", "forward-heat", "--t", "0.25",
               "--n", "1", "--M", "1", "--reps", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "query: t=0.25" in out


def test_solve_unknown_case_reports_error(capsys):
    rc = main(["solve", "--case", "nope", "--n", "1", "--M", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    # Unquoted, though UnknownCase is a KeyError, and led by its flag.
    assert captured.err == (
        "error: --case: unknown case 'nope'; builtin cases: "
        "linear-heat-quadratic, grad-free-exponential, grad-dependent-sine, "
        "forward-heat\n")


@pytest.mark.parametrize("bad", ["inf", "nan", "abc"])
def test_solve_bad_budget_variable_reports_error(monkeypatch, capsys, bad):
    monkeypatch.setenv("MLPICARD_COST_BUDGET", bad)
    rc = main(["solve", "--case", "linear-heat-quadratic", "--n", "1",
               "--M", "1", "--reps", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: MLPICARD_COST_BUDGET='{bad}' is not a finite "
                   "number of draws\n")


def test_solve_time_outside_interval_exits(capsys):
    # Forward initial time maps onto the canonical terminal instant,
    # where the estimator is undefined.
    rc = main(["solve", "--case", "forward-heat", "--t", "0.0",
               "--n", "1", "--M", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --t: t=0.0 is outside forward-heat's query times "
        "(0.0, 0.5]\n")


QUERY_TIME_ERRORS = [
    ("forward-heat", "0.7", "(0.0, 0.5]"),
    ("grad-dependent-sine", "-0.1", "[0.0, 1.0)"),
    ("grad-dependent-sine", "1", "[0.0, 1.0)"),
    ("linear-heat-quadratic", "nan", "[0.0, 1.0)"),
]


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("case, t, admissible", QUERY_TIME_ERRORS)
def test_query_time_outside_the_case_names_t(tmp_path, capsys, command,
                                             case, t, admissible):
    # One check for both commands: it names --t, the value typed and the
    # query times of the case's own clock, never the canonical time.
    extra = {"solve": ["--n", "1", "--M", "1"],
             "converge": ["--n-max", "1", "--out", str(tmp_path / "x.csv")]}
    rc = main([command, "--case", case, "--t", t] + extra[command])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (f"error: --t: t={float(t)!r} is outside {case}'s "
                            f"query times {admissible}\n")
    assert not (tmp_path / "x.csv").exists()


def test_valid_query_time_output_is_unchanged(tmp_path, capsys):
    # A query time inside the case's range writes these bytes: the sha256
    # of solve's stdout and of converge's CSV.
    def digest(data):
        return hashlib.sha256(data).hexdigest()

    for argv, known in [
        (["--case", "forward-heat", "--d", "2", "--t", "0.25", "--x", "0.3"],
         "f736f6cac35a8278b2c162ff50c1a9b45d9a477e58f1153375bdf0474aaac4a8"),
        (["--case", "grad-dependent-sine", "--d", "2", "--t", "0.4"],
         "c344cbb79fdbba8a3b3b2b056046a75fe0ba1ee50103af585d97e6bd59c0b4d8"),
    ]:
        assert main(["solve", *argv, "--n", "2", "--M", "2",
                     "--reps", "3"]) == 0
        assert digest(capsys.readouterr().out.encode()) == known
    out = tmp_path / "fwd.csv"
    assert main(["converge", "--case", "forward-heat", "--d", "2", "--t",
                 "0.25", "--n-max", "2", "--m-rule", "fixed:2", "--reps", "3",
                 "--out", str(out)]) == 0
    assert digest(out.read_bytes()) == (
        "57645933f44f8130581cacfa060b7ef2d3076d104ddc9b812d4d93515364107c")


def test_exact_case_past_the_residual_oracle_runs(tmp_path, capsys):
    # lam = 6 puts the oracle's truncation error past its gate on this
    # exact case; building it checks nothing of the kind.
    rc = main(["converge", "--case", "forward-heat", "--lambda", "6",
               "--n-max", "1", "--reps", "2", "--out",
               str(tmp_path / "x.csv")])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_solve_point_dimension_mismatch_exits():
    with pytest.raises(SystemExit):
        main(["solve", "--case", "linear-heat-quadratic", "--d", "2",
              "--n", "1", "--M", "1", "--x", "1,2,3"])


def test_solve_bad_point_names_the_flag(capsys):
    for d, text, message in [
        ("1", "a", "error: --x needs comma-separated numbers, got 'a'"),
        ("1", "nan", "error: --x needs finite numbers, got 'nan'"),
        ("1", "inf", "error: --x needs finite numbers, got 'inf'"),
        ("2", "1,nan", "error: --x needs finite numbers, got '1,nan'"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--case", "linear-heat-quadratic", "--d", d,
                  "--n", "1", "--M", "1", "--x", text])
        assert str(excinfo.value) == message


def test_converge_with_case_file(tmp_path, capsys):
    # A case file holds arguments, one per line, read by argparse: the
    # table equals the one from the same flags on the command line, and
    # the library's table of the case they name.
    case_path = tmp_path / "case.args"
    case_path.write_text("--case=grad-dependent-sine\n--d=2\n"
                         "--horizon=0.5\n--lambda=0.1\n--c\n0.25\n")
    out_file, out_flags, out_lib = (tmp_path / f"{name}.csv"
                                    for name in ("file", "flags", "lib"))
    run = ["--n-max", "2", "--m-rule", "fixed:1", "--reps", "10"]
    assert main(["converge", f"@{case_path}", *run,
                 "--out", str(out_file)]) == 0
    assert main(["converge", "--case", "grad-dependent-sine", "--d", "2",
                 "--horizon", "0.5", "--lambda", "0.1", "--c", "0.25", *run,
                 "--out", str(out_flags)]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote 2 rows to {out_file}" in stdout
    case = builtin_case("grad-dependent-sine", 2, 0.5, 0.1, 0.25)
    write_csv(run_convergence(case, [(1, 1), (2, 1)], replications=10,
                              x=np.zeros(2)), str(out_lib))
    assert out_file.read_bytes() == out_flags.read_bytes()
    assert out_file.read_bytes() == out_lib.read_bytes()


def test_blank_lines_of_an_args_file_are_skipped(tmp_path):
    # argparse's default reads a blank line as one empty argument, which
    # fails with "unrecognized arguments: ".
    lines = ["--case=forward-heat", "--d=2", "--horizon", "0.4"]
    plain, blank = tmp_path / "plain.args", tmp_path / "blank.args"
    plain.write_text("\n".join(lines) + "\n")
    blank.write_text("\n" + "\n\n".join(lines[:2]) + "\n  \n\t\n"
                     + "\n".join(lines[2:]) + "\n\n \n")
    parser = cli._build_parser()
    run = ["--n", "1", "--M", "1"]
    parsed = parser.parse_args(["solve", f"@{blank}", *run])
    assert parsed == parser.parse_args(["solve", f"@{plain}", *run])
    assert (parsed.case, parsed.d, parsed.horizon) == ("forward-heat", 2, 0.4)


def test_a_file_named_like_a_case_does_not_shadow_it(tmp_path, monkeypatch,
                                                     capsys):
    # --case reads builtin names only, so a file of that name in the working
    # directory changes nothing.
    argv = ["solve", "--case", "forward-heat", "--t", "0.25", "--n", "1",
            "--M", "1", "--reps", "3"]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    alone = capsys.readouterr()
    (tmp_path / "forward-heat").write_text("case = linear-heat-quadratic\n")
    assert main(argv) == 0
    assert capsys.readouterr() == alone
    assert "case: forward-heat" in alone.out


@pytest.mark.parametrize("d", ["0", "-1"])
def test_solve_bad_dimension_reports_error(capsys, d):
    rc = main(["solve", "--case", "grad-dependent-sine", "--d", d,
               "--n", "1", "--M", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (f"error: --d: dimension must be an integer >= 1, "
                            f"got {d}\n")


@pytest.mark.parametrize("horizon", ["-1", "inf", "nan"])
def test_case_file_bad_horizon_reports_error(tmp_path, capsys, horizon):
    case_path = tmp_path / "case.args"
    case_path.write_text(f"--case=grad-dependent-sine\n--horizon={horizon}\n")
    rc = main(["converge", f"@{case_path}", "--n-max", "1",
               "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (f"error: --horizon: horizon must be finite and "
                            f"> 0, got {float(horizon)!r}\n")
    assert not (tmp_path / "x.csv").exists()


BAD_CASE_FLAGS = [
    ("--horizon=-1", "--horizon: horizon must be finite and > 0, got -1.0"),
    ("--horizon=inf", "--horizon: horizon must be finite and > 0, got inf"),
    ("--horizon=nan", "--horizon: horizon must be finite and > 0, got nan"),
    ("--lambda=1000", "--lambda, --horizon: lam=1000.0 overflows e^(lam T) "
                      "on the canonical horizon T=1.0"),
    ("--lambda=nan", "--lambda: lam must be finite, got nan"),
    ("--c=inf", "--c: c must be finite, got inf"),
]


@pytest.mark.parametrize("flag, message", BAD_CASE_FLAGS,
                         ids=[flag for flag, _ in BAD_CASE_FLAGS])
def test_bad_case_flag_reports_error(capsys, flag, message):
    rc = main(["solve", "--case", "grad-dependent-sine", flag,
               "--n", "1", "--M", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("case, flag, arg", [
    ("linear-heat-quadratic", "--lambda=2", "lam"),
    ("linear-heat-quadratic", "--c=3", "c"),
    ("grad-free-exponential", "--c=3", "c"),
])
def test_flag_the_case_does_not_read_reports_error(tmp_path, capsys, case,
                                                   flag, arg):
    # The case's table does not depend on the flag, so a run that sets it
    # would be mislabelled.
    out = tmp_path / "x.csv"
    rc = main(["converge", "--case", case, flag, "--n-max", "1",
               "--reps", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (f"error: {flag.partition('=')[0]}: case {case} "
                            f"does not read {arg}\n")
    assert captured.out == ""
    assert not out.exists()


LIBRARY_ERRORS = [
    (["solve", "--case", "grad-dependent-sine", "--lambda", "nan"],
     "--lambda", "lam must be finite, got nan"),
    (["solve", "--case", "grad-dependent-sine", "--d", "0"],
     "--d", "dimension must be an integer >= 1, got 0"),
    (["solve", "--case", "grad-dependent-sine", "--reps", "0"],
     "--reps", "replications: NonpositiveReplications: replications must "
               "be >= 1, got 0"),
    (["solve", "--case", "grad-dependent-sine", "--n", "-1", "--M", "0"],
     "--n, --M", "depth: NegativeDepth: depth must be >= 0, got -1; base: "
                 "NonpositiveBase: base must be >= 1, got 0"),
    (["solve", "--case", "grad-dependent-sine", "--seed", str(2**63)],
     "--seed", f"root_seed: SeedNotInt64: root seed must be an int64 "
               f"integer, got {2**63}"),
    (["converge", "--case", "forward-heat", "--t", "0", "--n-max", "1"],
     "--t", "t=0.0 is outside forward-heat's query times (0.0, 0.5]"),
    (["cost", "--d", "0"], "--d", "need d >= 1, got 0"),
    (["cost", "--n", "-1"], "--n", "need n >= 0, got -1"),
    (["cost", "--M", "0"], "--M", "need M >= 1, got 0"),
    (["battery", "--seed", "-987654322"], "--seed",
     "seed=-987654322 must be >= -987654321 and seed + 1234567 must be "
     "int64"),
]


@pytest.mark.parametrize("argv, flags, message", LIBRARY_ERRORS,
                         ids=[" ".join(argv) for argv, _, _ in LIBRARY_ERRORS])
def test_library_errors_name_the_flag(tmp_path, capsys, argv, flags,
                                      message):
    # The library names its own parameter (lam, dimension, replications);
    # the command line says which flag set it.  The flags of a row come
    # after the defaults, so they override them.
    defaults = {"solve": ["--n", "1", "--M", "1", "--reps", "2"],
                "converge": ["--out", str(tmp_path / "x.csv")],
                "cost": ["--d", "1", "--n", "1", "--M", "1"], "battery": []}
    rc = main(argv[:1] + defaults[argv[0]] + argv[1:])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {flags}: {message}\n"


def test_schedule_takes_no_seed(capsys):
    # schedule draws nothing, so a seed would only mislabel the run.
    with pytest.raises(SystemExit) as excinfo:
        main(["schedule", "--case", "grad-free-exponential", "--eps", "25",
              "--seed", "5"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, kind", [
    ("--d", "2.5", "int"), ("--lambda", "abc", "float"),
    ("--horizon", "x", "float"), ("--c", "1e", "float"),
])
def test_case_flag_parse_error_names_the_flag(capsys, flag, value, kind):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--case", "grad-dependent-sine", flag, value,
              "--n", "1", "--M", "1"])
    assert excinfo.value.code == 2
    assert (f"error: argument {flag}: invalid {kind} value: {value!r}"
            in capsys.readouterr().err)


def test_converge_rejects_bad_m_rule(tmp_path):
    # floor-n^1e4 is 1 at n = 1 and overflows a float at n = 2.
    for rule in ("banana", "floor-n^inf", "floor-n^1e4", "floor-n^nan",
                 "fixed:x", "fixed:", "fixed:0", "fixed:2.5"):
        with pytest.raises(SystemExit) as excinfo:
            main(["converge", "--case", "grad-free-exponential", "--n-max",
                  "2", "--m-rule", rule, "--out", str(tmp_path / "x.csv")])
        assert str(excinfo.value).startswith("error: --m-rule "), rule
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, depth", [
    (["cost", "--d", "1", "--M", "2"], 200),
    (["solve", "--case", "grad-dependent-sine", "--M", "2", "--reps", "2"],
     100),
], ids=["cost", "solve"])
def test_cost_overflow_reports_error(capsys, command, depth):
    # Past the 128-bit cost accounting, bounds.Overflow is one error line.
    rc = main(command + ["--n", str(depth)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(
        f"error: cost of depth {depth} exceeds 128-bit accounting")
    assert captured.err.count("\n") == 1


def test_verify_integrals_command(capsys):
    rc = main(["verify-integrals"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all identities hold: yes" in out


def test_schedule_feasible(capsys):
    rc = main(["schedule", "--case", "linear-heat-quadratic",
               "--eps", "1000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "depth n = 1" in out
    assert "predicted draws" in out


def test_schedule_infeasible_returns_2(capsys):
    rc = main(["schedule", "--case", "linear-heat-quadratic",
               "--eps", "1e-30"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "infeasible:" in out


def test_schedule_inadmissible_exponent_exits(capsys):
    rc = main(["schedule", "--case", "linear-heat-quadratic",
               "--eps", "0.5", "--alpha", "0.8", "--q", "0.9"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --q, --alpha: m_rule_exponent 0.9 outside admissible "
        "(0.75, 0.8) for alpha=0.8\n")


def test_schedule_norm_order_below_p_reports_error(capsys):
    # The builtin cases carry L^4 norms, which the bound may use up to p = 4.
    rc = main(["schedule", "--case", "grad-dependent-sine", "--eps", "1e4",
               "--p", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: --p: norms of order q=4.0 are too low "
                            "for p=3.0: need q >= 2p/(p-2) = 6\n")


SCHEDULE_ERRORS = [
    (["--eps", "-1"], "--eps: target_eps must be positive, got -1.0"),
    (["--eps", "nan"], "--eps: target_eps must be positive, got nan"),
    (["--p", "1"], "--p: p must be >= 2, got 1.0"),
    (["--alpha", "1.5"], "--alpha: alpha must lie in (0, 1), got 1.5"),
    (["--alpha", "0.7", "--q", "0.6"], "--alpha, --p: alpha must lie in "
                                       "(0.333333, 0.666667) for p=4.0, got "
                                       "0.7"),
]


@pytest.mark.parametrize("argv, message", SCHEDULE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in SCHEDULE_ERRORS])
def test_schedule_errors_name_their_flag(capsys, argv, message):
    rc = main(["schedule", "--case", "grad-free-exponential", "--eps", "25",
               *argv])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_battery_fast(capsys):
    rc = main(["battery", "--fast"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "battery: PASS" in out
    assert "[PASS] sampler-laws" in out


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
