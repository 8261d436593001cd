"""Property test of the CLI's exit contract, with extreme flags and bad files.

Every subcommand is driven in-process through ``cli.main``. Each numeric
flag takes each of nan, +-inf, 0, -1, 1e-320 and +-1e308 (and ``--rho``
each ``fixed:`` value of those, and of +-1e-300 and -1e300, and each
``moment:tau=`` value of those); each file
argument takes an empty file, a header alone, one value, all ties, bytes
that are not UTF-8, a directory and a summary with an oversized field, and
each ``--out`` a name too long for the file system.
Whatever the input, the CLI exits with a documented code (0, 2, 3 or 4),
raises nothing (argparse's ``SystemExit`` counts as its exit code), and on a
nonzero exit writes exactly one stderr line, starting ``tailwls``. Sizes stay
small: n <= 60, reps <= 3, and no parsable k above 100, so no large array is
allocated.
"""

import csv

import numpy as np
import pytest

import tailwls as tw
from tailwls import cli

EXIT_CODES = {0, 2, 3, 4}
NUMBERS = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e308", "-1e308")
RHOS = (tuple(f"fixed:{v}" for v in NUMBERS + ("1e-300", "-1e-300", "-1e300"))
        + tuple(f"moment:tau={v}" for v in NUMBERS))

_SIMULATE_BASE = {
    "pareto": ["--gamma=0.5"],
    "burr": ["--tau=2", "--lambda=0.5"],
    "frechet": ["--alpha=2"],
    "loggamma": ["--lambda=2", "--alpha=2"],
}


def _run(argv, capsys) -> list:
    """The contract's breaches for one call of ``cli.main`` (empty if it holds)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escape is what this test looks for
        capsys.readouterr()
        return [f"{argv}: {type(exc).__name__} escaped: {exc}"]
    err = capsys.readouterr().err
    breaches = []
    if code not in EXIT_CODES:
        breaches.append(f"{argv}: exit code {code!r}")
    lines = err.splitlines()
    if code != 0 and (len(lines) != 1 or not lines[0].startswith("tailwls")):
        breaches.append(f"{argv}: exit {code} with stderr {err!r}")
    return breaches


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    x = tw.sample(tw.burr(1.0, 2.0, 0.5), 60, seed=4)
    path.write_text("claim\n" + "\n".join(format(v, ".17g") for v in x) + "\n")
    return path


@pytest.fixture()
def bad_files(tmp_path):
    """Each unreadable or degenerate input file, by name."""
    texts = {
        "empty": b"",
        "header-only": b"estimator,k,mean,bias,mse,variance,missing\n",
        "one-value": b"3.5\n",
        "all-ties": b"3.5\n" * 60,
        "not-utf8": b"\xff\xfe1.5\n2.5\n",
        "oversized-field": ("estimator,k,mse\nWLS,5,"
                            + "1" * (csv.field_size_limit() + 1) + "\n").encode(),
    }
    files = {}
    for name, data in texts.items():
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_bytes(data)
    files["directory"] = tmp_path / "a-directory"
    files["directory"].mkdir()
    return files


@pytest.mark.parametrize("flag", ["--column", "--k", "--k-min", "--k-max", "--rho"])
def test_estimate_extreme_flags(flag, data_file, tmp_path, capsys):
    out = str(tmp_path / "path.csv")
    breaches = []
    for value in RHOS if flag == "--rho" else NUMBERS:
        for rho in ("fixed:-1", "minvar"):
            argv = ["estimate", str(data_file), f"--rho={rho}", f"{flag}={value}",
                    f"--out={out}"]
            breaches += _run(argv, capsys)
    assert breaches == []


@pytest.mark.parametrize("dist,flag", [
    ("pareto", "--gamma"), ("burr", "--eta"), ("burr", "--tau"), ("burr", "--lambda"),
    ("frechet", "--alpha"), ("loggamma", "--lambda"), ("loggamma", "--alpha"),
    ("burr", "--n"), ("burr", "--reps"), ("burr", "--seed"), ("burr", "--k-min"),
    ("burr", "--k-max"), ("burr", "--rho"),
])
def test_simulate_extreme_flags(dist, flag, tmp_path, capsys):
    out = tmp_path / "summary.csv"
    sidecar = tmp_path / "summary.csv.meta"
    breaches = []
    for value in RHOS if flag == "--rho" else NUMBERS:
        sidecar.unlink(missing_ok=True)
        base = [a for a in _SIMULATE_BASE[dist] if not a.startswith(flag + "=")]
        argv = ["simulate", f"--dist={dist}", *base, "--n=60", "--reps=3",
                "--k-max=40", "--estimators=HILL,WLS", f"{flag}={value}", f"--out={out}"]
        breaches += _run(argv, capsys)
        if sidecar.exists():  # a study that ran has a finite true gamma
            meta = dict(line.split("=", 1) for line in sidecar.read_text().splitlines())
            if not np.isfinite(float(meta["true_gamma"])):
                breaches.append(f"{argv}: true_gamma={meta['true_gamma']}")
    assert breaches == []


@pytest.mark.parametrize("flag", ["--rho", "--gamma", "--k-min", "--k-max"])
def test_diagnose_extreme_flags(flag, tmp_path, capsys):
    breaches = []
    # a k range numpy cannot index raises ValueError before any allocation
    extra = {"--rho": ("1e-300", "-1e-300", "-1e300"), "--k-min": ("1" + "0" * 30,),
             "--k-max": ("1" + "0" * 30,)}
    for value in NUMBERS + extra.get(flag, ()):
        for out in ([], [f"--out={tmp_path / 'd.csv'}"]):
            argv = ["diagnose", "--rho=-1", "--k-max=60", f"{flag}={value}", *out]
            breaches += _run(argv, capsys)
    assert breaches == []


def test_bad_input_files(bad_files, tmp_path, capsys):
    out = str(tmp_path / "path.csv")
    breaches = []
    for path in bad_files.values():
        for rho in ("fixed:-1", "minvar", "moment"):
            breaches += _run(["estimate", str(path), f"--rho={rho}", f"--out={out}"], capsys)
    assert breaches == []


@pytest.mark.parametrize("name,command", [("not-utf8", "estimate"), ("directory", "estimate")])
def test_unreadable_files_exit_2_naming_the_file(name, command, bad_files, tmp_path, capsys):
    path = str(bad_files[name])
    assert cli.main([command, path, "--out=" + str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tailwls {command}: cannot read {path}: ")
    assert err.count("\n") == 1


def test_simulate_with_no_finite_true_gamma_exits_4(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    argv = ["simulate", "--dist=burr", "--tau=1e-200", "--lambda=1e-200", "--n=60",
            "--reps=3", f"--out={out}"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("tailwls simulate: ") and "true gamma" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_with_no_finite_true_rho_exits_4(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    argv = ["simulate", "--dist=burr", "--tau=1e308", "--lambda=1e-320", "--n=40",
            "--reps=2", f"--out={out}"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("tailwls simulate: ") and "true rho" in err
    assert err.count("\n") == 1
    assert not out.exists()


# one command line per subcommand that writes a CSV and its sidecar
WRITERS = [
    ["estimate", "{data}", "--rho=fixed:-1"],
    ["simulate", "--dist=pareto", "--gamma=0.5", "--n=60", "--reps=3", "--k-max=40",
     "--estimators=HILL,WLS"],
    ["diagnose", "--rho=-1", "--k-max=60"],
]


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_an_unwritable_out_exits_4_with_one_line(argv, data_file, tmp_path, capsys):
    """A file name longer than the file system allows, which even root cannot write.

    The command runs, the write fails, and no temp file is left behind.
    """
    out = str(tmp_path / ("x" * 300 + ".csv"))
    assert cli.main([a.format(data=data_file) for a in argv] + [f"--out={out}"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"tailwls {argv[0]}: cannot write {out}: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [data_file.name]


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_a_failed_write_leaves_no_new_csv_and_an_old_pair_untouched(argv, data_file, tmp_path,
                                                                   capsys, monkeypatch):
    """A CSV name that fits the file system beside a sidecar name that does not.

    249 + 4 bytes fit in a 255-byte name, the sidecar's 258 do not. The write
    fails with exit 4 and leaves no CSV, no temp file, and an existing CSV at
    that name as it was. A failure while the temp files are written leaves
    an existing CSV and sidecar pair as it was.
    """
    args = [a.format(data=data_file) for a in argv]
    out = tmp_path / ("y" * 249 + ".csv")
    assert cli.main(args + [f"--out={out}"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"tailwls {argv[0]}: cannot write {out}: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [data_file.name]
    out.write_text("old csv\n")
    assert cli.main(args + [f"--out={out}"]) == 4
    assert out.read_text() == "old csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([data_file.name, out.name])

    pair = tmp_path / "pair.csv"
    pair.write_text("old csv\n")
    (tmp_path / "pair.csv.meta").write_text("old sidecar\n")
    real_mode = cli._output_mode

    def mode(path):
        if path == str(pair):
            raise OSError(28, "No space left on device")
        return real_mode(path)

    monkeypatch.setattr(cli, "_output_mode", mode)
    assert cli.main(args + [f"--out={pair}"]) == 4
    assert pair.read_text() == "old csv\n"
    assert (tmp_path / "pair.csv.meta").read_text() == "old sidecar\n"
    assert not list(tmp_path.glob(".tmp-*"))
