"""Command line interface.

Subcommands:

    estimate    tail-index paths for a numeric dataset file
    simulate    Monte Carlo study over a k range, written as summary.csv
    diagnose    weight-moment sums, their limits, and the AMSE proxy per k
    fetch-note  where to obtain the practical datasets, and expected sizes

A ``simulate`` sidecar holds each estimator's MSE-minimising k and its MSE,
``k0_<E>`` and ``mse_k0_<E>`` from :func:`optimal_k`, unless no MSE is finite.
``--rho`` takes a rho method's id, as :meth:`RhoMethod.parse` reads it and a
sidecar's ``rho_method`` records it.
A sidecar's ``command_line`` is ``tailwls`` and the argv ``main`` parsed,
quoted by ``shlex.join``.

Exit codes: 0 success, 2 dataset parse failure, 3 estimation failure,
4 invalid configuration (including bad flags, sizes whose arrays do not fit
in memory, and an ``--out`` that cannot be written). Every nonzero exit
writes one stderr line, ``tailwls <command>: <message>``: a command raises a
``_Failure`` holding its exit code and message, and only ``main`` prints it.
Floating point values are written with 17 significant digits, so files
round-trip exactly. Every CSV, on stdout or
in a file, is built as one text by one writer (``_csv_text``). No field
needs CSV quoting (ids, integers and ``%.17g`` numbers), so the bytes are
those a plain CSV writer with "\n" line ends gives. Output files are written
atomically (both temp files, then the renames, the sidecar first) with a
``<out>.meta`` sidecar of key=value lines; timestamps appear only in
sidecars. A new output gets mode 0o666 less the umask, as ``open`` would
give it, and an output that already exists keeps its mode. An ``--out`` in
a missing directory, or naming a directory (itself or its sidecar), is a
configuration error, found first; one that still cannot be written is one
too, found at the write.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import re
import shlex
import stat
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from . import __version__
from .errors import EmptyOrTinyError, InvalidRhoError, NonFiniteError, TailwlsError
from .estimators import (ESTIMATOR_IDS, check_estimators, needs_rho, optimal_k,
                         path_estimates)
from .asymptotics import s1_limit, s2_limit, s_moments
from .distributions import FAMILIES, burr, frechet, loggamma, pareto
from .montecarlo import SimulationConfig, run_simulation
from .second_order import RhoMethod, resolve_rho
from .spacings import check_k_range, check_positive, check_rho, validate_and_sort

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ESTIMATION = 3
EXIT_CONFIG = 4

DATA_URL = "https://lstat.kuleuven.be/Wiley/"


class _Failure(Exception):
    """A command failed: ``main`` prints ``tailwls <command>: <message>`` and exits ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _failing(code: int, errors, prefix: str = ""):
    """Re-raise an ``errors`` exception from the block as ``_Failure(code, prefix + message)``."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, f"{prefix}{exc}") from exc


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's private matcher (Python 3.10-3.13: ^-\d+$|^-\d*\.\d+$), widened
        # so that a spaced negative number with an exponent, as in ``--rho -1e-08``,
        # is a value and not an option; subparsers are built from this class too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # bad flags are a configuration problem; keep 2 for dataset parse errors
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    return "%.17g" % x


def _csv_text(header: list, template: str, rows) -> str:
    """CSV text: the ``header`` line, then ``template % row`` for each row.

    A template may cover several CSV lines. Fields are ids, integers and
    ``%.17g`` numbers, none of which needs CSV quoting.
    """
    return ",".join(header) + "\n" + "".join([template % row for row in rows])


def _output_mode(path: str) -> int:
    """The mode of the file at ``path`` if there is one, else 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _check_out(path: str) -> None:
    """ValueError unless the output's directory exists and neither it nor its sidecar is one."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"--out {path}: directory {directory} does not exist")
    for target in (path, path + ".meta"):
        if os.path.isdir(target):
            raise ValueError(f"--out {path}: {target} is a directory")


def _write_atomic(files: dict) -> None:
    """Write each text to its path via a temp file in the same directory, then rename.

    Every temp file is written before the first rename, and the renames run
    in order, so a failure while writing changes no path, and a name that
    cannot be taken, if it is the first, leaves the others as they were.
    Each temp file gets :func:`_output_mode` before its rename, since
    ``mkstemp`` creates it readable by its owner only.
    """
    temps = []
    try:
        for path, text in files.items():
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-", suffix="~")
            temps.append(tmp)
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(text)
            os.chmod(tmp, _output_mode(path))
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:  # a renamed one is gone already
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _write_outputs(args, text: str, entries: dict) -> None:
    """Write ``text`` to ``args.out`` with its ``.meta`` sidecar, the sidecar renamed first.

    The sidecar's name is the longer, so a name the file system refuses
    leaves no new CSV behind and an existing pair untouched. The sidecar
    holds one key=value line per entry, framed by the command, the command
    line (``tailwls`` and the argv ``main`` parsed, shell-quoted), the
    package version and a UTC timestamp. An OSError is a configuration
    failure (exit 4).
    """
    sidecar = {
        "command": args.command,
        "command_line": shlex.join(["tailwls", *args.argv]),
        "package_version": __version__,
        **entries,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with _failing(EXIT_CONFIG, OSError, f"cannot write {args.out}: "):
        _write_atomic({args.out + ".meta": "".join(f"{k}={v}\n" for k, v in sidecar.items()),
                       args.out: text})


def read_numeric_column(path: str, column: int | None = None,
                        delimiter: str | None = None) -> np.ndarray:
    """Read one numeric column from a text file.

    Blank lines and lines starting with '#' are skipped; one non-numeric
    line is tolerated as a header. Without ``column`` the first field that
    parses as a float on the first data line picks the column (0-based).
    Without ``delimiter`` commas and whitespace both split. A leading UTF-8
    byte-order mark, as spreadsheet exports write, is dropped (``utf-8-sig``),
    so it neither hides the first value nor moves the detected column.

    Raises:
        _Failure: exit code 2, for an unreadable or non-UTF-8 file, a
            malformed line, a non-finite or non-positive value (the message
            names the line), or fewer than two values overall.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    values: list[float] = []
    detected = column
    header_used = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if delimiter is None:
            fields = stripped.replace(",", " ").split()
        else:
            fields = [f.strip() for f in stripped.split(delimiter)]
        if detected is None:
            for idx, f in enumerate(fields):
                try:
                    float(f)
                except ValueError:
                    continue
                detected = idx
                break
            if detected is None:
                if header_used:
                    raise _Failure(EXIT_PARSE, f"{path}:{lineno}: no numeric field")
                header_used = True
                continue
        if detected >= len(fields):
            raise _Failure(EXIT_PARSE, f"{path}:{lineno}: expected at least "
                                       f"{detected + 1} fields, got {len(fields)}")
        raw = fields[detected]
        try:
            v = float(raw)
        except ValueError:
            if not header_used and not values:
                header_used = True
                continue
            raise _Failure(EXIT_PARSE,
                           f"{path}:{lineno}: cannot parse {raw!r} as a number") from None
        if not 0.0 < v < math.inf:  # a good value takes one test
            if not math.isfinite(v):
                raise _Failure(EXIT_PARSE, f"{path}:{lineno}: non-finite value {raw}")
            raise _Failure(EXIT_PARSE, f"{path}:{lineno}: non-positive value {raw}")
        values.append(v)
    if len(values) < 2:
        raise _Failure(EXIT_PARSE,
                       f"{path}: need at least two positive values, found {len(values)}")
    return np.asarray(values)


def _parse_estimators(text: str) -> tuple[str, ...]:
    wanted = check_estimators(
        dict.fromkeys(t.strip().upper() for t in text.split(",") if t.strip()))
    # canonical reporting order, duplicates collapsed
    return tuple(e for e in ESTIMATOR_IDS if e in wanted)


def cmd_estimate(args) -> int:
    if (args.column or 0) < 0:
        raise _Failure(EXIT_CONFIG, f"--column {args.column} must be >= 0")
    if args.delimiter == "":
        raise _Failure(EXIT_CONFIG, "--delimiter must not be empty")
    # the reader rejects every sample validate_and_sort would
    tail = validate_and_sort(read_numeric_column(args.dataset, args.column, args.delimiter))
    n = tail.n
    with _failing(EXIT_CONFIG, (ValueError, TailwlsError)):
        estimators = _parse_estimators(args.estimators)
        rho_method = RhoMethod.parse(args.rho)
        if args.k is not None and (args.k_min is not None or args.k_max is not None):
            raise ValueError("give either --k or --k-min/--k-max, not both")
        k_min = k_max = args.k
        if args.k is None:
            k_min = 2 if args.k_min is None else args.k_min
            k_max = n - 1 if args.k_max is None else args.k_max
        k_values = check_k_range(k_min, k_max, n)
        _check_out(args.out)

    regression = needs_rho(estimators)
    with _failing(EXIT_ESTIMATION, TailwlsError, "estimation failed: "):
        # every method is k-independent: resolve once, reuse everywhere
        resolved = resolve_rho(tail, rho_method) if regression else None
        paths = path_estimates(tail.z_all, n, estimators, resolved, k_values).paths

    # one template per k covers every estimator; rho_used is fixed per estimator
    template = "".join(
        f"%d,{est},{_fmt(resolved if needs_rho((est,)) else np.nan)},%.17g\n"
        for est in estimators)
    ks = list(range(k_min, k_max + 1))
    rows = zip(*[col for est in estimators for col in (ks, paths[est].tolist())])
    entries = {
        "dataset": args.dataset,
        "n": n,
        "k_min": k_min,
        "k_max": k_max,
        "estimators": ",".join(estimators),
        "rho_method": rho_method.method_id,
    }
    if resolved is not None:
        entries["resolved_rho"] = _fmt(resolved)
    text = _csv_text(["k", "estimator", "rho_used", "gamma_hat"], template, rows)
    _write_outputs(args, text, entries)
    if k_min < 10 and regression:
        print(
            f"tailwls estimate: warning: regression estimates at k < 10 "
            f"are unstable (k_min={k_min})",
            file=sys.stderr,
        )
    for est in estimators:
        negative = paths[est] < 0.0
        if negative.any():
            first_k = int(k_values[np.argmax(negative)])
            print(
                f"tailwls estimate: warning: {est} gives "
                f"{int(negative.sum())} negative estimates "
                f"(first at k={first_k})",
                file=sys.stderr,
            )
    print(f"wrote {args.out} ({len(estimators)} estimators, "
          f"k in [{k_min}, {k_max}], n={n})")
    return EXIT_OK


# each family's builder and the flags of its arguments, in order; only --eta has a default
_SPEC_FLAGS = {"pareto": (pareto, "gamma"), "burr": (burr, "eta", "tau", "lambda"),
               "frechet": (frechet, "alpha"), "loggamma": (loggamma, "lambda", "alpha")}


def _build_spec(args):
    builder, *flags = _SPEC_FLAGS[args.dist]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        needed = " and ".join(f"--{flag}" for flag in flags if flag != "eta")
        raise ValueError(f"--dist {args.dist} needs {needed}")
    return builder(*values)


def cmd_simulate(args) -> int:
    with _failing(EXIT_CONFIG, (ValueError, TailwlsError)):
        spec = _build_spec(args)
        estimators = _parse_estimators(args.estimators)
        rho_method = RhoMethod.parse(args.rho)
        config = SimulationConfig(
            spec=spec,
            n=args.n,
            reps=args.reps,
            k_min=5 if args.k_min is None else args.k_min,
            k_max=args.n - 1 if args.k_max is None else args.k_max,
            estimators=estimators,
            rho_method=rho_method,
            master_seed=args.seed,
        )
        _check_out(args.out)
    with _failing(EXIT_ESTIMATION, TailwlsError, "simulation failed: "):
        summary = run_simulation(config)
    rows = ((row["estimator"], row["k"], row["mean"], row["bias"], row["mse"],
             row["variance"], row["missing"]) for row in summary.rows())
    entries = dict(summary.metadata)
    for pname, pval in entries.pop("params").items():
        entries[f"param_{pname}"] = _fmt(pval)
    for est, mse_row in zip(summary.estimators, summary.mse):
        try:
            k0, mse = optimal_k(zip(summary.k_values, mse_row))
        except EmptyOrTinyError:  # no finite MSE: no line
            continue
        entries[f"k0_{est}"], entries[f"mse_k0_{est}"] = k0, _fmt(mse)
    text = _csv_text(["estimator", "k", "mean", "bias", "mse", "variance", "missing"],
                     "%s,%d,%.17g,%.17g,%.17g,%.17g,%d\n", rows)
    _write_outputs(args, text, entries)
    print(f"wrote {args.out} ({len(estimators)} estimators, "
          f"k in [{config.k_min}, {config.k_max}], reps={config.reps})")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    with _failing(EXIT_CONFIG, ValueError):
        rho = check_rho(args.rho)
        gamma = check_positive("--gamma", args.gamma)
        if args.out is not None:
            _check_out(args.out)

    # s_moments checks the k values; np.arange rejects a range too long to index
    with (_failing(EXIT_CONFIG, ValueError, f"--k-min {args.k_min} --k-max {args.k_max}: "),
          _failing(EXIT_CONFIG, NonFiniteError, "--gamma: "),
          _failing(EXIT_CONFIG, InvalidRhoError, "--rho: ")):
        m = s_moments(np.arange(args.k_min, args.k_max + 1), rho)
        columns = (m.k, m.s1, m.s2, m.s_dot, m.s_ddot, s1_limit(rho), s2_limit(rho), m.amse(gamma))
    text = _csv_text(["k", "s1", "s2", "s_dot", "s_ddot", "s1_limit", "s2_limit", "amse"],
                     "%d" + ",%.17g" * 7 + "\n",
                     zip(*(np.broadcast_to(c, m.k.shape).tolist() for c in columns)))
    if args.out is None:
        sys.stdout.write(text)
    else:
        entries = {"rho": _fmt(rho), "gamma": _fmt(gamma)}
        _write_outputs(args, text, entries)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_fetch_note(args) -> int:
    print("Practical datasets are not bundled with this package.")
    print(f"Download them from: {DATA_URL}")
    print("Expected row counts after extraction:")
    print("  secura  (reinsurance claim sizes): 371")
    print("  condroz (soil calcium content):    1505")
    print("Put the numeric files under data/ (e.g. data/condroz.csv), or set")
    print("TAILWLS_CONDROZ to the file path, to enable the plateau check in")
    print("the acceptance tests.")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="tailwls", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="tail-index paths for a dataset file")
    est.add_argument("dataset", help="text file with one numeric column")
    est.add_argument("--column", type=int, default=None,
                     help="0-based column index (default: first numeric)")
    est.add_argument("--delimiter", default=None,
                     help="field delimiter (default: comma or whitespace)")
    est.add_argument("--k", type=int, default=None, help="single tail fraction")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="Monte Carlo study to summary.csv")
    sim.add_argument("--dist", required=True,
                     choices=FAMILIES)
    sim.add_argument("--gamma", type=float, default=None, help="pareto index")
    sim.add_argument("--eta", type=float, default=1.0, help="burr scale")
    sim.add_argument("--tau", type=float, default=None, help="burr shape")
    sim.add_argument("--lambda", type=float, default=None,
                     help="burr / loggamma parameter")
    sim.add_argument("--alpha", type=float, default=None,
                     help="frechet / loggamma shape")
    sim.add_argument("--n", type=int, required=True, help="sample size")
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0, help="master seed")
    sim.set_defaults(func=cmd_simulate)

    for command, k_min, out in ((est, 2, "path.csv"), (sim, 5, "summary.csv")):
        command.add_argument("--k-min", type=int, default=None, help=f"default {k_min}")
        command.add_argument("--k-max", type=int, default=None, help="default n-1")
        command.add_argument("--estimators", default=",".join(ESTIMATOR_IDS),
                             help="comma-separated subset of " + ",".join(ESTIMATOR_IDS))
        command.add_argument("--rho", default="minvar",
                             help="fixed:<value>, moment, moment:tau=<tau>, or minvar")
        command.add_argument("--out", default=out, help="output CSV path")

    diag = sub.add_parser("diagnose",
                          help="weight-moment sums, limits, AMSE per k")
    diag.add_argument("--rho", type=float, required=True)
    diag.add_argument("--gamma", type=float, default=1.0)
    diag.add_argument("--k-min", type=int, default=2)
    diag.add_argument("--k-max", type=int, default=100)
    diag.add_argument("--out", default=None,
                      help="output CSV path (default: stdout)")
    diag.set_defaults(func=cmd_diagnose)

    note = sub.add_parser("fetch-note",
                          help="where to get the practical datasets")
    note.set_defaults(func=cmd_fetch_note)
    return parser


def main(argv=None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return its exit code."""
    args = build_parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    try:
        return args.func(args)
    except _Failure as exc:
        code, message = exc.code, exc
    except MemoryError as exc:
        code, message = EXIT_CONFIG, f"out of memory: {exc}"
    print(f"tailwls {args.command}: {message}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
