"""End-to-end checks of the command-line front end via main(argv)."""

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
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("bad", ["inf", "nan", "abc"])
def test_solve_bad_budget_variable_reports_error(monkeypatch, capsys, bad):
    monkeypatch.setenv("MLPICARD_COST_BUDGET", bad)
    rc = main(["solve", "--case", "linear-heat-quadratic", "--n", "1",
               "--M", "1", "--reps", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: MLPICARD_COST_BUDGET='{bad}' is not a finite "
                   "number of draws\n")


def test_solve_time_outside_interval_exits():
    # Forward initial time maps onto the canonical terminal instant,
    # where the estimator is undefined.
    with pytest.raises(SystemExit):
        main(["solve", "--case", "forward-heat", "--t", "0.0",
              "--n", "1", "--M", "1"])


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
    assert captured.err == (f"error: dimension must be an integer >= 1, "
                            f"got {d}\n")


@pytest.mark.parametrize("horizon", ["-1", "inf", "nan"])
def test_case_file_bad_horizon_reports_error(tmp_path, capsys, horizon):
    case_path = tmp_path / "case.args"
    case_path.write_text(f"--case=grad-dependent-sine\n--horizon={horizon}\n")
    rc = main(["converge", f"@{case_path}", "--n-max", "1",
               "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (f"error: horizon must be finite and > 0, "
                            f"got {float(horizon)!r}\n")
    assert not (tmp_path / "x.csv").exists()


BAD_CASE_FLAGS = [
    ("--horizon=-1", "horizon must be finite and > 0, got -1.0"),
    ("--horizon=inf", "horizon must be finite and > 0, got inf"),
    ("--horizon=nan", "horizon must be finite and > 0, got nan"),
    ("--lambda=1000",
     "lam=1000.0 overflows e^(lam T) on the canonical horizon T=1.0"),
    ("--lambda=nan", "lam must be finite, got nan"),
    ("--c=inf", "c must be finite, got inf"),
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
    assert captured.err == f"error: case {case} does not read {arg}\n"
    assert captured.out == ""
    assert not out.exists()


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


def test_schedule_inadmissible_exponent_exits():
    with pytest.raises(SystemExit, match="error:"):
        main(["schedule", "--case", "linear-heat-quadratic",
              "--eps", "0.5", "--alpha", "0.8", "--q", "0.9"])


def test_schedule_norm_order_below_p_reports_error(capsys):
    # The builtin cases carry L^4 norms, which the bound may use up to p = 4.
    rc = main(["schedule", "--case", "grad-dependent-sine", "--eps", "1e4",
               "--p", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: norms of order q=4.0 are too low for "
                            "p=3.0: need q >= 2p/(p-2) = 6\n")


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
