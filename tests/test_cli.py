"""End-to-end checks of the command-line front end via main(argv)."""

import pytest

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
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--case", "linear-heat-quadratic", "--n", "1",
              "--M", "1", "--x", "a"])
    assert str(excinfo.value) == (
        "error: --x needs comma-separated numbers, got 'a'")


def test_converge_with_case_file(tmp_path, capsys):
    case_path = tmp_path / "case.txt"
    case_path.write_text("case = grad-free-exponential\ndimension = 1\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        rc = main(["converge", "--case", str(case_path), "--n-max", "2",
                   "--m-rule", "fixed:1", "--reps", "10",
                   "--out", str(out)])
        assert rc == 0
    stdout = capsys.readouterr().out
    assert f"wrote 2 rows to {out_a}" in stdout
    assert out_a.read_bytes() == out_b.read_bytes()


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
    case_path = tmp_path / "case.txt"
    case_path.write_text(f"case = grad-dependent-sine\nhorizon = {horizon}\n")
    rc = main(["converge", "--case", str(case_path), "--n-max", "1",
               "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (f"error: horizon must be finite and > 0, "
                            f"got {float(horizon)!r}\n")


@pytest.mark.parametrize("line, message", [
    ("lambda = 1000",
     "lam=1000.0 overflows e^(lam T) on the canonical horizon T=1.0"),
    ("lambda = nan", "lam must be finite, got nan"),
    ("c = inf", "c must be finite, got inf"),
])
def test_case_file_bad_lambda_or_c_reports_error(tmp_path, capsys, line,
                                                 message):
    case_path = tmp_path / "case.txt"
    case_path.write_text(f"case = grad-dependent-sine\n{line}\n")
    rc = main(["solve", "--case", str(case_path), "--n", "1", "--M", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {message}\n"


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
