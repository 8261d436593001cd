"""Command line interface.

Subcommands:

    estimate    tail-index paths for a numeric dataset file
    simulate    Monte Carlo study over a k range, written as summary.csv
    diagnose    weight-moment sums, their limits, and the AMSE proxy per k
    optimal-k   smallest-MSE k for one estimator in a written summary
    fetch-note  where to obtain the practical datasets, and expected sizes

Exit codes: 0 success, 2 dataset parse failure, 3 estimation failure,
4 invalid configuration (including bad flags), 5 lookup failure (estimator
missing from a summary file). Floating point values are written with 17
significant digits, so files round-trip exactly. Every CSV, on stdout or
in a file, is built as one text by one writer (``_csv_text``). No field
needs CSV quoting (ids, integers and ``%.17g`` numbers), so the bytes are
those a plain CSV writer with "\n" line ends gives. Output files are written
atomically (temp file, then rename) with a ``<out>.meta`` sidecar of
key=value lines; timestamps appear only in sidecars. A new output gets mode
0o666 less the umask, as ``open`` would give it, and an output that already
exists keeps its mode. An ``--out`` in a missing directory, or naming a
directory (itself or its sidecar), is a configuration error, found first.
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

import numpy as np

from . import __version__
from .errors import InvalidRhoError, NonFiniteError, TailwlsError
from .estimators import (ESTIMATOR_IDS, check_estimators, needs_rho, optimal_k,
                         path_estimates)
from .asymptotics import s_moments
from .distributions import burr, frechet, loggamma, pareto
from .montecarlo import SimulationConfig, run_simulation
from .second_order import RhoMethod, resolve_rho
from .spacings import all_log_spacings, check_k_range, check_rho, validate_and_sort

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ESTIMATION = 3
EXIT_CONFIG = 4
EXIT_LOOKUP = 5

DATA_URL = "https://lstat.kuleuven.be/Wiley/"


class _ParseFailure(Exception):
    """Dataset or summary file could not be parsed (exit code 2)."""


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


def _write_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory, then rename.

    The temp file gets :func:`_output_mode` before the rename, since
    ``mkstemp`` creates it readable by its owner only.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, _output_mode(path))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_outputs(out: str, text: str, command: str, entries: dict) -> None:
    """Write the CSV ``text`` to ``out``, then its ``.meta`` sidecar.

    The sidecar holds one key=value line per entry, framed by the command,
    the command line, the package version and a UTC timestamp.
    """
    _write_atomic(out, text)
    sidecar = {
        "command": command,
        "command_line": " ".join(sys.argv) if sys.argv else "tailwls",
        "package_version": __version__,
        **entries,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_atomic(out + ".meta", "".join(f"{k}={v}\n" for k, v in sidecar.items()))


def read_numeric_column(path: str, column: int | None = None,
                        delimiter: str | None = None) -> np.ndarray:
    """Read one numeric column from a text file.

    Blank lines and lines starting with '#' are skipped; one non-numeric
    line is tolerated as a header. Without ``column`` the first field that
    parses as a float on the first data line picks the column (0-based).
    Without ``delimiter`` commas and whitespace both split.

    Raises:
        _ParseFailure: unreadable file, malformed line, non-finite or
            non-positive value (the message names the line), or fewer than
            two values overall.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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
    bad = (f"--column {args.column} must be >= 0" if (args.column or 0) < 0
           else "--delimiter must not be empty" if args.delimiter == "" else None)
    if bad:
        print(f"tailwls estimate: {bad}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        data = read_numeric_column(args.dataset, args.column, args.delimiter)
        tail = validate_and_sort(data)
    except _ParseFailure as exc:
        print(f"tailwls estimate: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TailwlsError as exc:
        print(f"tailwls estimate: {args.dataset}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    n = tail.n
    try:
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
    except (ValueError, TailwlsError) as exc:
        print(f"tailwls estimate: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    regression = needs_rho(estimators)
    try:
        # every method is k-independent: resolve once, reuse everywhere
        resolved = resolve_rho(tail, rho_method) if regression else None
        paths = path_estimates(all_log_spacings(tail), n, estimators, resolved,
                               k_values)[0]
    except TailwlsError as exc:
        print(f"tailwls estimate: estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION

    if k_min < 10 and regression:
        print(
            f"tailwls estimate: warning: regression estimates at k < 10 "
            f"are unstable (k_min={k_min})",
            file=sys.stderr,
        )
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
    try:
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
    except (ValueError, TailwlsError) as exc:
        print(f"tailwls simulate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = run_simulation(config)
    except TailwlsError as exc:
        print(f"tailwls simulate: simulation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
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
    try:
        rho = check_rho(args.rho)
        gamma = float(args.gamma)
        if not np.isfinite(gamma) or gamma <= 0.0:
            raise ValueError(f"--gamma {gamma} must be finite and > 0")
        k_min, k_max = int(args.k_min), int(args.k_max)
        if not 2 <= k_min <= k_max:
            raise ValueError(f"need 2 <= k_min <= k_max, got [{k_min}, {k_max}]")
        if args.out is not None:
            _check_out(args.out)
    except ValueError as exc:
        print(f"tailwls diagnose: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        m = s_moments(np.arange(k_min, k_max + 1), rho)
        columns = (m.k, m.s1, m.s2, m.s_dot, m.s_ddot, m.s1_limit, m.s2_limit, m.amse(gamma))
    except NonFiniteError as exc:
        print(f"tailwls diagnose: --gamma: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidRhoError as exc:
        print(f"tailwls diagnose: --rho: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    try:
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
    except OSError as exc:
        print(f"tailwls optimal-k: cannot read {args.summary}: {exc}",
              file=sys.stderr)
        return EXIT_PARSE
    except _ParseFailure as exc:
        print(f"tailwls optimal-k: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not pairs:
        known = ",".join(sorted(seen)) or "none"
        print(
            f"tailwls optimal-k: estimator {args.estimator!r} not in "
            f"{args.summary} (present: {known})",
            file=sys.stderr,
        )
        return EXIT_LOOKUP
    try:
        k0, mse = optimal_k(pairs)
    except TailwlsError as exc:
        print(f"tailwls optimal-k: estimator {args.estimator!r}: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
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
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
