"""The CLI's text I/O: the cell formatter, the one CSV writer, and the reader.

The writer tests keep ``csv.writer`` as the oracle: every CSV the CLI
writes must equal a ``csv.writer(lineterminator="\\n")`` rendering of the
same rows with ``format(x, ".17g")`` cells. The reader test pins the
values or the line-numbered message ``read_numeric_column`` gives on a
corpus of layouts, bad values and flags. The output tests pin the mode of
written files and the exit code of an ``--out`` in a missing directory
or naming a directory, and the sidecar's ``command_line``.
"""

import csv
import io
import os
import shlex
import stat
import sys

import numpy as np
import pytest

import tailwls as tw
from tailwls import cli


def _oracle(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _g(x) -> str:
    return format(float(x), ".17g")


def test_fmt_equals_format_17g():
    specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                sys.float_info.min, sys.float_info.max, -sys.float_info.max,
                0.1, 1.0, 2.0**53 + 2, 1e16, 1e17, 123456789012345678.0]
    for x in specials:
        assert cli._fmt(x) == format(x, ".17g"), x
        assert cli._fmt(np.float64(x)) == format(x, ".17g"), x
    bits = np.random.default_rng(20261018).integers(
        0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).tolist()
    assert [cli._fmt(x) for x in values] == [format(x, ".17g") for x in values]


@pytest.fixture()
def data_file(tmp_path):
    x = tw.sample(tw.burr(1.0, 2.0, 0.5), 300, seed=7)
    path = tmp_path / "data.txt"
    path.write_text("x\n" + "\n".join(format(v, ".17g") for v in x) + "\n")
    return path


@pytest.mark.parametrize("flags", [
    [],
    ["--estimators", "HILL"],
    ["--rho", "fixed:-0.7", "--k", "50"],
], ids=["all", "hill", "fixed-k50"])
def test_estimate_csv_equals_csv_writer(flags, data_file, tmp_path, capsys):
    out = tmp_path / "path.csv"
    assert cli.main(["estimate", str(data_file), "--out", str(out), *flags]) == 0
    capsys.readouterr()
    argv = dict(zip(flags[::2], flags[1::2]))
    estimators = argv.get("--estimators", ",".join(tw.ESTIMATOR_IDS)).split(",")
    rho = argv.get("--rho", "minvar")
    method = (tw.RhoMethod.min_variance() if rho == "minvar"
              else tw.RhoMethod.fixed(float(rho.split(":")[1])))
    tail = tw.validate_and_sort(np.loadtxt(data_file, skiprows=1))
    k_min = k_max = int(argv["--k"]) if "--k" in argv else None
    k_min, k_max = (k_min or 2), (k_max or tail.n - 1)
    rho = tw.resolve_rho(tail, method)  # once per file, as the CLI does
    k_values = np.arange(k_min, k_max + 1)
    paths = {e: tw.path_estimates(tail.z_all, tail.n, (e,), rho, k_values).paths[e]
             for e in estimators}
    rows = [[k, e, _g(rho if e != "HILL" else np.nan), _g(paths[e][i])]
            for i, k in enumerate(k_values) for e in estimators]
    want = _oracle(["k", "estimator", "rho_used", "gamma_hat"], rows)
    assert out.read_text() == want


def test_simulate_csv_equals_csv_writer(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert cli.main(["simulate", "--dist", "burr", "--tau", "2", "--lambda", "0.5",
                     "--n", "80", "--reps", "12", "--seed", "5", "--k-min", "5",
                     "--k-max", "40", "--estimators", "HILL,WLS,RR",
                     "--rho", "moment", "--out", str(out)]) == 0
    capsys.readouterr()
    summary = tw.run_simulation(tw.SimulationConfig(
        spec=tw.burr(1.0, 2.0, 0.5), n=80, reps=12, k_min=5, k_max=40,
        estimators=("HILL", "RR", "WLS"), rho_method=tw.RhoMethod.moment(),
        master_seed=5))
    rows = [[r["estimator"], r["k"], _g(r["mean"]), _g(r["bias"]), _g(r["mse"]),
             _g(r["variance"]), r["missing"]] for r in summary.rows()]
    want = _oracle(["estimator", "k", "mean", "bias", "mse", "variance", "missing"], rows)
    assert out.read_text() == want


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_diagnose_csv_equals_csv_writer(to_file, tmp_path, capsys):
    out = tmp_path / "d.csv"
    argv = ["diagnose", "--rho", "-0.5", "--gamma", "2.5", "--k-max", "60"]
    assert cli.main(argv + (["--out", str(out)] if to_file else [])) == 0
    printed = capsys.readouterr().out
    rows = []
    for k in range(2, 61):
        m = tw.s_moments(k, -0.5)
        rows.append([k, _g(m.s1), _g(m.s2), _g(m.s_dot), _g(m.s_ddot),
                     _g(tw.s1_limit(-0.5)), _g(tw.s2_limit(-0.5)), _g(2.5**2 * m.amse(1.0))])
    want = _oracle(["k", "s1", "s2", "s_dot", "s_ddot", "s1_limit", "s2_limit",
                    "amse"], rows)
    assert (out.read_text() if to_file else printed) == want


# (text, column, delimiter, values or message with {path})
READER_CORPUS = [
    ("x\n1.5\n2.5\n3.5\n", None, None, [1.5, 2.5, 3.5]),
    ("1.5\n2.5\n3.5\n", None, None, [1.5, 2.5, 3.5]),
    ("1.5\n2.5", None, None, [1.5, 2.5]),
    ("x\n1.5\n2.5\n", 0, None, [1.5, 2.5]),
    ("x\r\n1.5\r\n2.5\r\n", None, None, [1.5, 2.5]),
    ("1.5  \n2.5\t\n  3.5\n", None, None, [1.5, 2.5, 3.5]),
    ("1e3\n2.5e-1\n1_000\n+4\n", None, None, [1000.0, 0.25, 1000.0, 4.0]),
    ("x\ny\n1.5\n2.5\n", None, None, "{path}:2: no numeric field"),
    ("x\ny\n1.5\n2.5\n", 0, None, "{path}:2: cannot parse 'y' as a number"),
    ("1.5\n\n2.5\n3\n", None, None, [1.5, 2.5, 3.0]),
    ("   \n1\n2\n", None, None, [1.0, 2.0]),
    ("# note\n1.5\n2.5\n", None, None, [1.5, 2.5]),
    ("1 2\n\n3\n", None, None, [1.0, 3.0]),
    ("1,2\n3,4\n", None, None, [1.0, 3.0]),
    ("x y\n1\n2\n", None, None, [1.0, 2.0]),
    ("x\n1.5\nnan\n2\n", None, None, "{path}:3: non-finite value nan"),
    ("nan\n1\n2\n", None, None, "{path}:1: non-finite value nan"),
    ("x\n1.5\ninf\n2\n", None, None, "{path}:3: non-finite value inf"),
    ("x\n1.5\n-inf\n2\n", None, None, "{path}:3: non-finite value -inf"),
    ("x\n1.5\n1e400\n", None, None, "{path}:3: non-finite value 1e400"),
    ("x\n1.5\n0\n2\n", None, None, "{path}:3: non-positive value 0"),
    ("x\n1.5\n-1\n2\n", None, None, "{path}:3: non-positive value -1"),
    ("1.5\n2.5\n-0.0\n", None, None, "{path}:3: non-positive value -0.0"),
    ("x\n1.5\n", None, None, "{path}: need at least two positive values, found 1"),
    ("x\n1.5\nabc\n2\n", None, None, "{path}:3: cannot parse 'abc' as a number"),
    ("x\n", None, None, "{path}: need at least two positive values, found 0"),
    ("", None, None, "{path}: need at least two positive values, found 0"),
    ("x\n1.5\n2.5\n", 1, None, "{path}:1: expected at least 2 fields, got 1"),
    ("id v\n1 10\n2 20\n", 1, None, [10.0, 20.0]),
    ("x\n1.5\n2.5\n", None, ";", [1.5, 2.5]),
    ("a;b\n1;2.5\n2;3.5\n", 1, ";", [2.5, 3.5]),
    # a UTF-8 byte-order mark, as spreadsheet exports write, is not part of the first field
    ("\ufeff5.0\n4.0\n3.0\n2.0\n1.0\n", None, None, [5.0, 4.0, 3.0, 2.0, 1.0]),
    ("\ufeff5.0,9\n4.0,8\n3.0,7\n", None, None, [5.0, 4.0, 3.0]),
]


@pytest.mark.parametrize("text,column,delimiter,want", READER_CORPUS)
def test_reader_values_and_messages(text, column, delimiter, want, tmp_path):
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode())
    if isinstance(want, str):
        with pytest.raises(cli._Failure) as info:
            cli.read_numeric_column(str(path), column, delimiter)
        assert (info.value.code, str(info.value)) == (cli.EXIT_PARSE, want.format(path=path))
    else:
        got = cli.read_numeric_column(str(path), column, delimiter)
        assert got.dtype == np.float64 and got.tolist() == want


SUBCOMMANDS = {
    "estimate": lambda data, out: ["estimate", str(data), "--out", str(out),
                                   "--estimators", "HILL"],
    "simulate": lambda data, out: ["simulate", "--dist", "pareto", "--gamma", "0.5",
                                   "--n", "40", "--reps", "3", "--estimators", "HILL",
                                   "--out", str(out)],
    "diagnose": lambda data, out: ["diagnose", "--rho", "-1", "--k-max", "5",
                                   "--out", str(out)],
}


@pytest.fixture()
def umask():
    """Set the process umask for one test and restore it afterwards."""
    saved = os.umask(0o022)
    try:
        yield os.umask
    finally:
        os.umask(saved)


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("mask", [0o022, 0o077], ids=["022", "077"])
def test_new_outputs_get_the_umask_mode(command, mask, umask, data_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    umask(mask)
    assert cli.main(SUBCOMMANDS[command](data_file, out)) == 0
    assert _mode(out) == _mode(str(out) + ".meta") == 0o666 & ~mask


def test_existing_outputs_keep_their_mode(umask, data_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    meta = tmp_path / "out.csv.meta"
    for path, mode in ((out, 0o640), (meta, 0o604)):
        path.write_text("old\n")
        path.chmod(mode)
    assert cli.main(SUBCOMMANDS["estimate"](data_file, out)) == 0
    assert out.read_text().startswith("k,estimator")
    assert _mode(out) == 0o640 and _mode(meta) == 0o604


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_out_in_a_missing_directory_exits_4(command, data_file, tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert cli.main(SUBCOMMANDS[command](data_file, out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data.txt"]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("taken", ["out.csv", "out.csv.meta"])
def test_out_naming_a_directory_exits_4(command, taken, data_file, tmp_path, capsys):
    """An --out that is a directory, or whose sidecar would be one, is refused up front."""
    (tmp_path / taken).mkdir()
    out = tmp_path / "out.csv"
    assert cli.main(SUBCOMMANDS[command](data_file, out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(["data.txt", taken])


def test_command_line_is_the_parsed_argv_shell_quoted(data_file, tmp_path, capsys):
    """The sidecar records ``tailwls`` and the argv ``main`` parsed, not the host's sys.argv."""
    out = tmp_path / "a dir" / "out file.csv"
    out.parent.mkdir()
    argv = SUBCOMMANDS["estimate"](data_file, out)
    assert cli.main(argv) == 0
    meta = dict(line.split("=", 1) for line in (tmp_path / "a dir" / "out file.csv.meta")
                .read_text().splitlines())
    assert shlex.split(meta["command_line"]) == ["tailwls", *argv]
