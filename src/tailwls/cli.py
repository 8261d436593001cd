"""Command line interface.

Subcommands:

    estimate    tail-index paths for a numeric dataset file
    simulate    Monte Carlo study over a k range, written as summary.csv
    diagnose    weight-moment sums, their limits, and the AMSE proxy per k
    optimal-k   smallest-MSE k for one estimator in a written summary
    fetch-note  where to obtain the practical datasets, and expected sizes

Exit codes: 0 success, 2 dataset parse failure, 3 estimation failure,
4 invalid configuration (including bad flags, sizes whose arrays do not fit
in memory, and an ``--out`` that cannot be written), 5 lookup failure
(estimator missing from a summary file). Every nonzero exit writes one stderr
line, ``tailwls <command>: <message>``: a command raises a ``_Failure``
holding its exit code and message, and only ``main`` prints it.
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
import csv
import datetime
import math
import os
import stat
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from . import __version__
from .errors import InvalidRhoError, NonFiniteError, TailwlsError
from .estimators import (ESTIMATOR_IDS, check_estimators, needs_rho, optimal_k,
                         path_estimates)
from .asymptotics import s_moments
from .distributions import burr, frechet, loggamma, pareto
from .montecarlo import SimulationConfig, run_simulation
from .second_order import RhoMethod, resolve_rho
from .spacings import check_k_range, check_positive, check_rho, validate_and_sort

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ESTIMATION = 3
EXIT_CONFIG = 4
EXIT_LOOKUP = 5

DATA_URL = "https://lstat.kuleuven.be/Wiley/"


class _Failure(Exception):
    """A command failed: ``main`` prints ``tailwls <command>: <message>`` and exits ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _ParseFailure(_Failure):
    """Dataset or summary file could not be parsed (exit code 2)."""

    def __init__(self, message: str):
        super().__init__(EXIT_PARSE, message)


@contextmanager
def _failing(code: int, errors, prefix: str = ""):
    """Re-raise an ``errors`` exception from the block as ``_Failure(code, prefix + message)``."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, f"{prefix}{exc}") from exc


class _Parser(argparse.ArgumentParser):
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


def _write_outputs(out: str, text: str, command: str, entries: dict) -> None:
    """Write the CSV ``text`` to ``out`` with its ``.meta`` sidecar, the sidecar renamed first.

    The sidecar's name is the longer, so a name the file system refuses
    leaves no new CSV behind and an existing pair untouched. The sidecar
    holds one key=value line per entry, framed by the command, the command
    line, the package version and a UTC timestamp. An OSError is a
    configuration failure (exit 4).
    """
    sidecar = {
        "command": command,
        "command_line": " ".join(sys.argv) if sys.argv else "tailwls",
        "package_version": __version__,
        **entries,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with _failing(EXIT_CONFIG, OSError, f"cannot write {out}: "):
        _write_atomic({out + ".meta": "".join(f"{k}={v}\n" for k, v in sidecar.items()),
                       out: text})


def read_numeric_column(path: str, column: int | None = None,
                        delimiter: str | None = None) -> np.ndarray:
    """Read one numeric column from a text file.

    Blank lines and lines starting with '#' are skipped; one non-numeric
    line is tolerated as a header. Without ``column`` the first field that
    parses as a float on the first data line picks the column (0-based).
    Without ``delimiter`` commas and whitespace both split.

    Raises:
        _ParseFailure: unreadable or non-UTF-8 file, malformed line, non-finite or
            non-positive value (the message names the line), or fewer than
            two values overall.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from exc
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
                    raise _ParseFailure(f"{path}:{lineno}: no numeric field")
                header_used = True
                continue
        if detected >= len(fields):
            raise _ParseFailure(
                f"{path}:{lineno}: expected at least {detected + 1} fields, "
                f"got {len(fields)}"
            )
        raw = fields[detected]
        try:
            v = float(raw)
        except ValueError:
            if not header_used and not values:
                header_used = True
                continue
            raise _ParseFailure(
                f"{path}:{lineno}: cannot parse {raw!r} as a number"
            ) from None
        if not 0.0 < v < math.inf:  # a good value takes one test
            if not math.isfinite(v):
                raise _ParseFailure(f"{path}:{lineno}: non-finite value {raw}")
            raise _ParseFailure(f"{path}:{lineno}: non-positive value {raw}")
        values.append(v)
    if len(values) < 2:
        raise _ParseFailure(
            f"{path}: need at least two positive values, found {len(values)}"
        )
    return np.asarray(values)


def _parse_rho_method(text: str) -> RhoMethod:
    """Parse a --rho flag: fixed:<value>, moment, or minvar."""
    if text == "moment":
        return RhoMethod.moment()
    if text == "minvar":
        return RhoMethod.min_variance()
    if text.startswith("fixed:"):
        try:
            value = float(text[len("fixed:"):])
        except ValueError as exc:
            raise ValueError(f"bad fixed rho in {text!r}") from exc
        return RhoMethod.fixed(value)
    raise ValueError(
        f"bad --rho value {text!r}; expected fixed:<value>, moment, or minvar"
    )


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
        rho_method = _parse_rho_method(args.rho)
        if args.k is not None and (args.k_min is not None or args.k_max is not None):
            raise ValueError("give either --k or --k-min/--k-max, not both")
        if args.k is not None:
            k_min = k_max = int(args.k)
        else:
            k_min = int(args.k_min) if args.k_min is not None else 2
            k_max = int(args.k_max) if args.k_max is not None else n - 1
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
    _write_outputs(args.out, text, "estimate", entries)
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


def _build_spec(args):
    family = args.dist
    if family == "pareto":
        if args.gamma is None:
            raise ValueError("--dist pareto needs --gamma")
        return pareto(args.gamma)
    if family == "burr":
        if args.tau is None or args.lam is None:
            raise ValueError("--dist burr needs --tau and --lambda")
        return burr(args.eta, args.tau, args.lam)
    if family == "frechet":
        if args.alpha is None:
            raise ValueError("--dist frechet needs --alpha")
        return frechet(args.alpha)
    if args.lam is None or args.alpha is None:
        raise ValueError("--dist loggamma needs --lambda and --alpha")
    return loggamma(args.lam, args.alpha)


def cmd_simulate(args) -> int:
    with _failing(EXIT_CONFIG, (ValueError, TailwlsError)):
        spec = _build_spec(args)
        estimators = _parse_estimators(args.estimators)
        rho_method = _parse_rho_method(args.rho)
        k_min = int(args.k_min) if args.k_min is not None else 5
        k_max = int(args.k_max) if args.k_max is not None else args.n - 1
        config = SimulationConfig(
            spec=spec,
            n=args.n,
            reps=args.reps,
            k_min=k_min,
            k_max=k_max,
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
    text = _csv_text(["estimator", "k", "mean", "bias", "mse", "variance", "missing"],
                     "%s,%d,%.17g,%.17g,%.17g,%.17g,%d\n", rows)
    _write_outputs(args.out, text, "simulate", entries)
    print(f"wrote {args.out} ({len(estimators)} estimators, "
          f"k in [{config.k_min}, {config.k_max}], reps={config.reps})")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    with _failing(EXIT_CONFIG, ValueError):
        rho = check_rho(args.rho)
        gamma = check_positive("--gamma", args.gamma)
        k_min, k_max = int(args.k_min), int(args.k_max)
        if not 2 <= k_min <= k_max:
            raise ValueError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
        if args.out is not None:
            _check_out(args.out)

    with (_failing(EXIT_CONFIG, NonFiniteError, "--gamma: "),
          _failing(EXIT_CONFIG, InvalidRhoError, "--rho: ")):
        m = s_moments(np.arange(k_min, k_max + 1), rho)
        columns = (m.k, m.s1, m.s2, m.s_dot, m.s_ddot, m.s1_limit, m.s2_limit, m.amse(gamma))
    text = _csv_text(["k", "s1", "s2", "s_dot", "s_ddot", "s1_limit", "s2_limit", "amse"],
                     "%d" + ",%.17g" * 7 + "\n",
                     zip(*(np.broadcast_to(c, m.k.shape).tolist() for c in columns)))
    if args.out is None:
        sys.stdout.write(text)
    else:
        entries = {"rho": _fmt(rho), "gamma": _fmt(gamma)}
        _write_outputs(args.out, text, "diagnose", entries)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_optimal_k(args) -> int:
    with _failing(EXIT_PARSE, (OSError, UnicodeDecodeError, csv.Error),
                  f"cannot read {args.summary}: "):
        with open(args.summary, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise _ParseFailure(f"{args.summary}: empty file")
            for col in ("estimator", "k", "mse"):
                if col not in reader.fieldnames:
                    raise _ParseFailure(
                        f"{args.summary}: missing column {col!r}"
                    )
            pairs = []
            seen = set()
            for row in reader:
                seen.add(row["estimator"])
                if row["estimator"] != args.estimator:
                    continue
                try:
                    pairs.append((int(row["k"]), float(row["mse"])))
                except (TypeError, ValueError) as exc:
                    raise _ParseFailure(
                        f"{args.summary}: bad row for k={row.get('k')!r}: {exc}"
                    ) from None
    if not pairs:
        known = ",".join(sorted(seen)) or "none"
        raise _Failure(EXIT_LOOKUP, f"estimator {args.estimator!r} not in "
                                    f"{args.summary} (present: {known})")
    with _failing(EXIT_ESTIMATION, TailwlsError, f"estimator {args.estimator!r}: "):
        k0, mse = optimal_k(pairs)
    print(f"k0={k0} mse={_fmt(mse)}")
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
    est.add_argument("--k-min", type=int, default=None)
    est.add_argument("--k-max", type=int, default=None)
    est.add_argument("--estimators", default=",".join(ESTIMATOR_IDS),
                     help="comma-separated subset of " + ",".join(ESTIMATOR_IDS))
    est.add_argument("--rho", default="minvar",
                     help="fixed:<value>, moment, or minvar")
    est.add_argument("--out", default="path.csv", help="output CSV path")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="Monte Carlo study to summary.csv")
    sim.add_argument("--dist", required=True,
                     choices=["pareto", "burr", "frechet", "loggamma"])
    sim.add_argument("--gamma", type=float, default=None, help="pareto index")
    sim.add_argument("--eta", type=float, default=1.0, help="burr scale")
    sim.add_argument("--tau", type=float, default=None, help="burr shape")
    sim.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="burr / loggamma parameter")
    sim.add_argument("--alpha", type=float, default=None,
                     help="frechet / loggamma shape")
    sim.add_argument("--n", type=int, required=True, help="sample size")
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0, help="master seed")
    sim.add_argument("--k-min", type=int, default=None, help="default 5")
    sim.add_argument("--k-max", type=int, default=None, help="default n-1")
    sim.add_argument("--estimators", default=",".join(ESTIMATOR_IDS))
    sim.add_argument("--rho", default="minvar",
                     help="fixed:<value>, moment, or minvar")
    sim.add_argument("--out", default="summary.csv", help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    diag = sub.add_parser("diagnose",
                          help="weight-moment sums, limits, AMSE per k")
    diag.add_argument("--rho", type=float, required=True)
    diag.add_argument("--gamma", type=float, default=1.0)
    diag.add_argument("--k-min", type=int, default=2)
    diag.add_argument("--k-max", type=int, default=100)
    diag.add_argument("--out", default=None,
                      help="output CSV path (default: stdout)")
    diag.set_defaults(func=cmd_diagnose)

    opt = sub.add_parser("optimal-k",
                         help="smallest-MSE k in a summary.csv")
    opt.add_argument("summary", help="summary.csv written by simulate")
    opt.add_argument("--estimator", required=True)
    opt.set_defaults(func=cmd_optimal_k)

    note = sub.add_parser("fetch-note",
                          help="where to get the practical datasets")
    note.set_defaults(func=cmd_fetch_note)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
