import csv
import subprocess
import sys

import numpy as np
import pytest

import tailwls as tw


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tailwls", *args],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture()
def burr_file(tmp_path):
    x = tw.sample(tw.burr(1.0, 2.0, 0.5), 120, seed=31)
    path = tmp_path / "claims.csv"
    path.write_text("claim\n" + "\n".join(format(v, ".17g") for v in x) + "\n")
    return path


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0


def test_unknown_flag_exits_4():
    r = run_cli("simulate", "--frobnicate")
    assert r.returncode == 4


def test_missing_subcommand_exits_4():
    assert run_cli().returncode == 4


def test_estimate_writes_path_and_sidecar(burr_file, tmp_path):
    out = tmp_path / "p.csv"
    r = run_cli("estimate", str(burr_file), "--estimators", "WLS,HILL",
                "--rho", "fixed:-2", "--k-min", "10", "--k-max", "20",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11 * 2
    assert rows[0]["k"] == "10"
    # canonical reporting order: HILL before WLS at each k
    assert [rows[0]["estimator"], rows[1]["estimator"]] == ["HILL", "WLS"]
    assert rows[0]["rho_used"] == "nan"
    assert float(rows[1]["rho_used"]) == -2.0
    meta = (tmp_path / "p.csv.meta").read_text()
    assert "command=estimate" in meta
    assert "rho_method=fixed:-2" in meta
    assert "n=120" in meta


def test_estimate_values_round_trip_17g(burr_file, tmp_path):
    out = tmp_path / "p.csv"
    r = run_cli("estimate", str(burr_file), "--estimators", "WLS",
                "--rho", "fixed:-1", "--k-min", "15", "--k-max", "40",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    tail = tw.validate_and_sort(np.loadtxt(burr_file, skiprows=1))
    rho = tw.resolve_rho(tail, tw.RhoMethod.fixed(-1.0))
    path = tw.path_estimates(tail.z_all, tail.n, ("WLS",), rho, np.arange(15, 41)).paths["WLS"]
    with open(out) as fh:
        got = [float(row["gamma_hat"]) for row in csv.DictReader(fh)]
    # 17 significant digits preserve float64 exactly
    assert got == path.tolist()


def test_estimate_zero_value_names_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("claim\n1.5\n2.5\n0\n3.5\n")
    r = run_cli("estimate", str(bad), "--k", "2", "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2
    assert ":4:" in r.stderr and "non-positive" in r.stderr


def test_estimate_unparseable_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.5\n2.5\nwhoops\n3.5\n")
    r = run_cli("estimate", str(bad), "--k", "2", "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2
    assert ":3:" in r.stderr


def test_estimate_missing_file(tmp_path):
    r = run_cli("estimate", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2


def test_estimate_k_out_of_range(burr_file, tmp_path):
    r = run_cli("estimate", str(burr_file), "--k", "500",
                "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 4


def test_estimate_k_flag_conflict(burr_file, tmp_path):
    r = run_cli("estimate", str(burr_file), "--k", "10", "--k-min", "5",
                "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 4


def test_estimate_bad_rho_flag(burr_file, tmp_path):
    assert run_cli("estimate", str(burr_file), "--rho", "fixed:0.5",
                   "--out", str(tmp_path / "x.csv")).returncode == 4
    assert run_cli("estimate", str(burr_file), "--rho", "sometimes",
                   "--out", str(tmp_path / "x.csv")).returncode == 4


def test_estimate_bad_estimator(burr_file, tmp_path):
    r = run_cli("estimate", str(burr_file), "--estimators", "WLS,BOGUS",
                "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 4


def test_estimate_comment_lines_and_column(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("# comment\nid value\n1 10.0\n2 20.0\n3 30.0\n4 40.0\n")
    out = tmp_path / "o.csv"
    r = run_cli("estimate", str(p), "--column", "1", "--estimators", "HILL",
                "--k", "3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    tail = tw.validate_and_sort([10.0, 20.0, 30.0, 40.0])
    z = tw.log_spacings(tail, 3)
    assert float(rows[0]["gamma_hat"]) == np.cumsum(z)[-1] / 3  # the Hill mean


@pytest.mark.parametrize("column", [-5, -1])
def test_estimate_rejects_negative_column(column, tmp_path, capsys):
    from tailwls import cli

    p = tmp_path / "d.txt"
    p.write_text("1 10.0\n2 20.0\n3 30.0\n4 40.0\n")
    out = tmp_path / "o.csv"
    code = cli.main(["estimate", str(p), "--column", str(column),
                     "--estimators", "HILL", "--k", "2", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--column" in err
    assert not out.exists()


def test_estimate_rejects_empty_delimiter(burr_file, tmp_path, capsys):
    from tailwls import cli

    out = tmp_path / "o.csv"
    code = cli.main(["estimate", str(burr_file), "--delimiter", "",
                     "--estimators", "HILL", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--delimiter" in err
    assert not out.exists()


@pytest.mark.parametrize("rho", ["minvar", "moment"])
def test_estimate_degenerate_tail_exits_3(rho, tmp_path, capsys):
    from tailwls import cli

    p = tmp_path / "equal.txt"
    p.write_text("x\n" + "2.5\n" * 100)
    out = tmp_path / "o.csv"
    assert cli.main(["estimate", str(p), "--rho", rho, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "estimation failed" in err
    assert not out.exists()


def test_estimate_underflowing_rho_exits_3(burr_file, tmp_path, capsys):
    from tailwls import cli

    # S2 underflows to 0 at rho = -1e-170; no estimate may come out inf
    out = tmp_path / "o.csv"
    assert cli.main(["estimate", str(burr_file), "--rho", "fixed:-1e-170",
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "underflows" in err
    assert not out.exists()


def test_simulate_summary_schema_and_missing_param(tmp_path):
    out = tmp_path / "s.csv"
    r = run_cli("simulate", "--dist", "burr", "--tau", "2", "--lambda", "1",
                "--n", "50", "--reps", "20", "--seed", "3",
                "--k-min", "5", "--k-max", "10", "--estimators", "WLS,HILL",
                "--rho", "fixed:-1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["estimator", "k", "mean", "bias", "mse", "variance", "missing"]
    assert len(rows) == 2 * 6
    assert run_cli("simulate", "--dist", "pareto", "--n", "50", "--reps", "5",
                   "--out", str(tmp_path / "t.csv")).returncode == 4


def test_simulate_matches_library(tmp_path):
    out = tmp_path / "s.csv"
    r = run_cli("simulate", "--dist", "pareto", "--gamma", "0.5", "--n", "40",
                "--reps", "25", "--seed", "11", "--k-min", "5", "--k-max", "12",
                "--estimators", "WLS", "--rho", "fixed:-1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    cfg = tw.SimulationConfig(spec=tw.pareto(0.5), n=40, reps=25, k_min=5,
                              k_max=12, estimators=("WLS",),
                              rho_method=tw.RhoMethod.fixed(-1.0), master_seed=11)
    summary = tw.run_simulation(cfg)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for row, want in zip(rows, summary.rows()):
        assert float(row["mean"]) == want["mean"]
        assert float(row["mse"]) == want["mse"]
        assert int(row["missing"]) == want["missing"]
    meta = (tmp_path / "s.csv.meta").read_text().splitlines()
    assert "resolved_rho_counts=-1:25,unresolved:0" in meta


def test_simulate_bad_config_exits_4(tmp_path):
    r = run_cli("simulate", "--dist", "pareto", "--gamma", "1", "--n", "50",
                "--reps", "10", "--k-min", "40", "--k-max", "60",
                "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 4


def test_diagnose_row_count_and_values():
    r = run_cli("diagnose", "--rho", "-1", "--k-min", "2", "--k-max", "10")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "k,s1,s2,s_dot,s_ddot,s1_limit,s2_limit,amse"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    m = tw.s_moments(2, -1.0)
    assert float(first[1]) == m.s1
    assert float(first[7]) == tw.amse(1.0, 2, -1.0)


def test_diagnose_rejects_nonnegative_rho():
    assert run_cli("diagnose", "--rho", "0").returncode == 4
    assert run_cli("diagnose", "--rho", "1.5").returncode == 4


@pytest.mark.parametrize("args", [["--rho", "-800", "--k-max", "3"],
                                  ["--rho=-1e-150", "--k-max", "10"]])
def test_diagnose_underflowing_s2_exits_4(args):
    r = run_cli("diagnose", *args)
    assert r.returncode == 4 and r.stdout == ""
    assert r.stderr.count("\n") == 1 and "--rho" in r.stderr and "Traceback" not in r.stderr


def test_diagnose_is_accurate_near_rho_0():
    r = run_cli("diagnose", "--rho=-1e-8", "--k-min", "2", "--k-max", "50")
    assert r.returncode == 0, r.stderr
    s2 = [float(line.split(",")[2]) for line in r.stdout.splitlines()[1:]]
    assert len(s2) == 49 and all(x > 0.0 for x in s2)


def test_diagnose_rejects_a_rho_whose_design_overflows():
    r = run_cli("diagnose", "--rho", "-100", "--k-max", "100")
    assert r.returncode == 4 and r.stdout == ""
    assert r.stderr.count("\n") == 1 and "--rho" in r.stderr and "Traceback" not in r.stderr


def test_diagnose_amse_coeff_flag():
    # the cross-term coefficient is 2 by the algebra; there is no flag for it
    r = run_cli("diagnose", "--rho", "-1", "--k-min", "2", "--k-max", "2",
                "--amse-coeff", "4")
    assert r.returncode == 4
    assert "--amse-coeff" in r.stderr


@pytest.mark.parametrize("gamma", ["nan", "inf", "-2", "0", "1e160", "1e154"])
def test_diagnose_rejects_meaningless_gamma(gamma, capsys):
    from tailwls import cli

    # at 1e154 gamma^2 is finite, and its AMSE overflows at k = 2
    assert cli.main(["diagnose", "--rho", "-1", "--k-min", "2", "--gamma", gamma]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "--gamma" in out.err


def test_diagnose_calls_s_moments_once_per_row(monkeypatch, capsys):
    from tailwls import asymptotics, cli

    calls = []
    real = asymptotics.s_moments

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "s_moments", counted)
    monkeypatch.setattr(asymptotics, "s_moments", counted)
    assert cli.main(["diagnose", "--rho", "-1", "--k-min", "2", "--k-max", "11"]) == 0
    assert len(calls) == 1  # one call builds the whole table
    rows = capsys.readouterr().out.splitlines()[1:]
    monkeypatch.undo()
    assert [float(r.split(",")[7]) for r in rows] == [tw.amse(1.0, k, -1.0)
                                                      for k in range(2, 12)]


@pytest.mark.parametrize("argv, target", [
    (["diagnose", "--rho", "-1", "--k-max", "50"], "s_moments"),
    (["simulate", "--dist", "pareto", "--gamma", "0.5", "--n", "50", "--reps", "2"],
     "run_simulation"),
])
def test_memory_error_exits_4_with_one_line(argv, target, tmp_path, monkeypatch, capsys):
    """A size the host cannot hold is a configuration error, not a traceback.

    The MemoryError is raised by a stand-in: a real request of that size
    (745 GiB for ``diagnose --k-max 100000000000``) might be granted by an
    overcommitting host and then exhaust it.
    """
    from tailwls import cli

    def too_big(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(cli, target, too_big)
    out = tmp_path / "o.csv"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"tailwls {argv[0]}: out of memory: Unable to allocate")
    assert not out.exists()


@pytest.fixture()
def failing_inputs(tmp_path):
    """The files the failing argvs read, in ``tmp_path``."""
    x = tw.sample(tw.burr(1.0, 2.0, 0.5), 120, seed=31)
    texts = {
        "claims.csv": "claim\n" + "\n".join(format(v, ".17g") for v in x) + "\n",
        "zero.csv": "claim\n1.5\n2.5\n0\n3.5\n",
        "ties.csv": "x\n" + "2.5\n" * 100,
        "junk.csv": "no,useful,columns\n1,2,3\n",
        "summary.csv": "estimator,k,mean,bias,mse,variance,missing\n"
                       "HILL,5,1,0,0.5,0.5,0\nWLS,5,nan,nan,nan,nan,3\n",
        "hill.csv": "estimator,k,mean,bias,mse,variance,missing\nHILL,5,1,0,0.5,0.5,0\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return tmp_path


# One failing argv per failure a command reports, with its exit code and its
# one stderr line; {d} is the directory of ``failing_inputs``.
FAILURES = {
    "estimate-flag": (["estimate", "{d}/claims.csv", "--column", "-1", "--out", "{d}/o.csv"],
                      4, "tailwls estimate: --column -1 must be >= 0"),
    "estimate-parse": (["estimate", "{d}/zero.csv", "--out", "{d}/o.csv"],
                       2, "tailwls estimate: {d}/zero.csv:4: non-positive value 0"),
    "estimate-config": (["estimate", "{d}/claims.csv", "--k", "500", "--out", "{d}/o.csv"],
                        4, "tailwls estimate: need 2 <= k_min <= k_max <= n-1, "
                           "got k_min=500, k_max=500, n=120"),
    "estimate-estimation": (["estimate", "{d}/ties.csv", "--out", "{d}/o.csv"],
                            3, "tailwls estimate: estimation failed: every candidate rho "
                               "gives a constant WLS path over k in [10, 89]"),
    "simulate-config": (["simulate", "--dist", "pareto", "--n", "50", "--reps", "5",
                         "--out", "{d}/o.csv"],
                        4, "tailwls simulate: --dist pareto needs --gamma"),
    "simulate-estimation": (["simulate", "--dist", "loggamma", "--lambda", "1e-155",
                             "--alpha", "1e-300", "--n", "20", "--reps", "2",
                             "--estimators", "HILL", "--out", "{d}/o.csv"],
                            3, "tailwls simulate: simulation failed: the mse or variance "
                               "of cell [0, 0] overflows (mean 0.0, gamma 1e+155)"),
    "diagnose-config": (["diagnose", "--rho", "0"],
                        4, "tailwls diagnose: rho=0.0 must be finite and < 0"),
    "diagnose-gamma": (["diagnose", "--rho", "-1", "--gamma", "1e160"],
                       4, "tailwls diagnose: --gamma: gamma=1e+160: "
                          "gamma^2 overflows the AMSE at k=2"),
    "diagnose-rho": (["diagnose", "--rho", "-800", "--k-max", "3"],
                     4, "tailwls diagnose: --rho: rho=-800.0 overflows "
                        "the covariate sums up to k=3"),
    "optimal-k-read": (["optimal-k", "{d}/missing.csv", "--estimator", "WLS"],
                       2, "tailwls optimal-k: cannot read {d}/missing.csv: [Errno 2] "
                          "No such file or directory: '{d}/missing.csv'"),
    "optimal-k-parse": (["optimal-k", "{d}/junk.csv", "--estimator", "WLS"],
                        2, "tailwls optimal-k: {d}/junk.csv: missing column 'estimator'"),
    "optimal-k-lookup": (["optimal-k", "{d}/hill.csv", "--estimator", "WLS"],
                         5, "tailwls optimal-k: estimator 'WLS' not in {d}/hill.csv "
                            "(present: HILL)"),
    "optimal-k-estimation": (["optimal-k", "{d}/summary.csv", "--estimator", "WLS"],
                             3, "tailwls optimal-k: estimator 'WLS': "
                                "no finite MSE among the (k, mse) pairs"),
}


@pytest.mark.parametrize("case", FAILURES)
def test_each_failure_exits_with_its_code_and_one_exact_line(case, failing_inputs, capsys):
    from tailwls import cli

    argv, code, line = FAILURES[case]
    assert cli.main([a.format(d=failing_inputs) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line.format(d=failing_inputs) + "\n"


def test_optimal_k_round_trip(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("simulate", "--dist", "pareto", "--gamma", "1", "--n", "60",
            "--reps", "30", "--seed", "2", "--k-min", "5", "--k-max", "25",
            "--estimators", "HILL,WLS", "--rho", "fixed:-1", "--out", str(out))
    r = run_cli("optimal-k", str(out), "--estimator", "WLS")
    assert r.returncode == 0
    cfg = tw.SimulationConfig(spec=tw.pareto(1.0), n=60, reps=30, k_min=5,
                              k_max=25, estimators=("HILL", "WLS"),
                              rho_method=tw.RhoMethod.fixed(-1.0), master_seed=2)
    s = tw.run_simulation(cfg)
    k0, mse = tw.optimal_k(
        (int(k), s.cell("WLS", int(k))["mse"]) for k in s.k_values
    )
    assert r.stdout.strip() == f"k0={k0} mse={format(mse, '.17g')}"


def test_optimal_k_lookup_failure(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("simulate", "--dist", "pareto", "--gamma", "1", "--n", "40",
            "--reps", "5", "--k-min", "5", "--k-max", "8",
            "--estimators", "HILL", "--out", str(out))
    r = run_cli("optimal-k", str(out), "--estimator", "WLS")
    assert r.returncode == 5
    assert "HILL" in r.stderr


def test_optimal_k_without_finite_mse_exits_3(tmp_path, capsys):
    from tailwls import cli

    # rho=-200 overflows the covariate sums, so every WLS cell is missing
    out = tmp_path / "s.csv"
    assert cli.main(["simulate", "--dist", "burr", "--tau", "2", "--lambda", "1",
                     "--n", "10", "--reps", "3", "--k-min", "2", "--k-max", "9",
                     "--estimators", "WLS", "--rho", "fixed:-200",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["optimal-k", str(out), "--estimator", "WLS"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'WLS'" in err and "finite" in err


def test_optimal_k_malformed_file(tmp_path):
    bad = tmp_path / "junk.csv"
    bad.write_text("no,useful,columns\n1,2,3\n")
    assert run_cli("optimal-k", str(bad), "--estimator", "WLS").returncode == 2
    assert run_cli("optimal-k", str(tmp_path / "missing.csv"),
                   "--estimator", "WLS").returncode == 2


def test_fetch_note_contents():
    r = run_cli("fetch-note")
    assert r.returncode == 0
    assert "lstat.kuleuven.be" in r.stdout
    assert "371" in r.stdout and "1505" in r.stdout
