"""Command-line front-end.

Subcommands:
  avg-trials      analytic expected trial counts per parallel group size
  simulate-rus    Monte Carlo of parallel repeat-until-success rotations
  compile-trotter compile one Trotter step to a patch timeline + summary
  compare-serial  serial vs parallel clock counts per lattice size
  estimate        end-to-end phase-estimation resource report
  qcels-demo      multi-level phase estimation success-rate demo

Tables are written as CSV and summaries as JSON.
Exit codes: 0 success, 1 validation error, 2 infeasible model or usage error.
Outputs to regular files are written atomically (temp file + rename), through
a symlink to its target, and to a FIFO or device in place; the same argv and
seed always produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import statistics
import sys
import tempfile
from dataclasses import asdict, replace

from .estimator import EstimatorConfig, InfeasibleModel, _real, build_report, parse_config
from .injection import ANGLE_CAP, SHIPPED_CONFIGS, effective_angle
from .qcels import SyntheticSpectrum, multilevel_qcels, wrap_phase
from .rus import expected_trials, simulate_parallel_rus
from .trotter import compile_step, rough_t_rus, serial_clocks, trotter_clocks


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` where ``path`` points.

    A regular file, or a new one, is written via a temp file in its directory,
    then renamed over it; it gets the mode a plain open() would give it (0666
    less the umask), not mkstemp's 0600.  A symlink is resolved first, so it
    stays a link and its target, even a missing one, gets the bytes.  Any
    other file (a FIFO, a device) is written in place by a plain open(), with
    no temp file and no rename.  An OSError names ``path``, not the temp file
    or the link's target.
    """
    target = path
    tmp = None
    try:
        try:
            mode = os.lstat(path).st_mode
            if stat.S_ISLNK(mode):
                target = os.path.realpath(path)
                mode = os.stat(target).st_mode
        except FileNotFoundError:  # a new file, or a dangling link's target
            mode = stat.S_IFREG
        if not stat.S_ISREG(mode):
            with open(target, "w") as fh:
                fh.write(text)
            return
        directory = os.path.dirname(os.path.abspath(target))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _emit(args, text: str) -> None:
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n"


def _read_json(path: str, what: str):
    """The JSON value in the file at ``path``.  A value that does not parse,
    nested too deep included, is a ValueError naming ``what``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{what} is not valid JSON: {exc}") from None


def _injection_config(args):
    cfg = SHIPPED_CONFIGS[args.d]
    updates: dict = {}
    if args.p_pass is not None:
        updates["p_pass"] = args.p_pass
    if args.attempts is not None:
        updates["attempts_per_clock"] = args.attempts
    return replace(cfg, **updates) if updates else cfg


def cmd_avg_trials(args) -> int:
    if args.m_max < 1:
        raise ValueError(f"--m-max must be at least 1, got {args.m_max}")
    rows = [[m, f"{expected_trials(m):.6f}"] for m in range(1, args.m_max + 1)]
    _emit(args, _csv_text(["m", "avg_trials"], rows))
    return 0


def cmd_simulate_rus(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    cfg = _injection_config(args)
    # the largest angle trial 1 can prepare: theta_for_target's domain
    bound = effective_angle(ANGLE_CAP, cfg.k)
    if not abs(args.theta) <= bound:
        raise ValueError(
            f"--theta must be an angle of magnitude at most {bound!r}, got {args.theta}"
        )
    stats = simulate_parallel_rus(
        args.m,
        args.basis,
        args.theta,
        cfg,
        mode=args.mode,
        runs=args.runs,
        seed=args.seed,
    )
    if args.hist:
        rows = [[clock, count] for clock, count in stats.histogram().items()]
        write_atomic(args.hist, _csv_text(["clock", "count"], rows))
    summary = {
        "mean": stats.mean,
        "p50": stats.percentile(50),
        "p95": stats.percentile(95),
        "max": stats.max,
        "runs": stats.runs,
        "seed": stats.seed,
    }
    _emit(args, _json_text(summary))
    return 0


def cmd_compile_trotter(args) -> int:
    # one evaluation per RUS group serves the timeline and formula_clocks
    t_rus = functools.cache(rough_t_rus)
    schedule = compile_step(args.n, mode=args.mode, t_rus=t_rus)
    if args.timeline:
        write_atomic(args.timeline, schedule.timeline.to_jsonl())
    groups = sorted(schedule.rus_group_multiset().items())
    summary = {
        "rus_groups": [
            {"m": m, "basis": basis, "count": count} for (m, basis), count in groups
        ],
        "fixed_clocks": schedule.fixed_clocks,
        "L": len(schedule.fswaps),
        "formula_clocks": trotter_clocks(args.n, t_rus),
    }
    _emit(args, _json_text(summary))
    return 0


def cmd_compare_serial(args) -> int:
    rows = []
    for n in args.n:
        serial = serial_clocks(n)
        parallel = trotter_clocks(n, rough_t_rus)
        reduction = 100.0 * (1.0 - parallel / serial)
        rows.append([n, f"{serial:.0f}", f"{parallel:.3f}", f"{reduction:.2f}"])
    header = ["n", "serial_clocks", "parallel_clocks", "reduction_pct"]
    _emit(args, _csv_text(header, rows))
    return 0


def cmd_estimate(args) -> int:
    cfg = EstimatorConfig()
    if args.config:
        cfg = parse_config(_read_json(args.config, "config"))
    report = build_report(args.n, cfg, calibrate_nmax=args.calibrate_nmax)
    _emit(args, _json_text(asdict(report)))
    return 0


def cmd_qcels_demo(args) -> int:
    if args.spectrum:
        obj = _read_json(args.spectrum, "spectrum")
        if not isinstance(obj, dict):
            raise ValueError("spectrum must be a JSON object {phases, weights}")
        unknown = sorted(obj.keys() - {"phases", "weights"})
        if unknown:
            raise ValueError(f"unknown spectrum key: {unknown[0]}")
        for key in ("phases", "weights"):
            values = obj.get(key)
            if not isinstance(values, list) or not all(map(_real, values)):
                raise ValueError(f"spectrum key {key} must be a list of numbers")
        spectrum = SyntheticSpectrum(tuple(obj["phases"]), tuple(obj["weights"]))
    else:
        spectrum = SyntheticSpectrum(
            (-0.5, 0.9, 1.8, 2.6, -2.8), (0.8, 0.05, 0.05, 0.05, 0.05)
        )
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    target = spectrum.dominant
    estimates = multilevel_qcels(
        spectrum,
        args.eps,
        delta=args.delta,
        n_pairs=args.pairs,
        n_samples=args.samples,
        seeds=[args.seed * 1_000_003 + trial for trial in range(args.trials)],
    )
    errors = [abs(wrap_phase(est - target)) for est in estimates]
    summary = {
        "success_rate": sum(e < args.eps for e in errors) / len(errors),
        "median_error": statistics.median(errors),
        "params": {
            "eps": args.eps,
            "delta": args.delta,
            "pairs": args.pairs,
            "samples": args.samples,
            "trials": args.trials,
            "seed": args.seed,
        },
    }
    _emit(args, _json_text(summary))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each subcommand's back-end is looked up when the command runs."""
    parser = argparse.ArgumentParser(
        prog="starsched",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("avg-trials", help="expected trial counts per group size")
    common(p)
    p.add_argument("--m-max", type=int, default=64, help="largest group size")
    p.set_defaults(func=cmd_avg_trials)

    p = sub.add_parser("simulate-rus", help="parallel rotation Monte Carlo")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--m", type=int, default=32, help="parallel rotation count")
    p.add_argument("--basis", choices=("Z", "ZZ"), default="Z")
    p.add_argument("--theta", type=float, default=1e-8, help="target angle")
    p.add_argument(
        "--d", type=int, choices=sorted(SHIPPED_CONFIGS), default=9,
        help="code distance selecting the shipped injection configuration",
    )
    p.add_argument("--mode", choices=("naive", "adaptive"), default="adaptive")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--p-pass", type=float, default=None, help="constant pass rate")
    p.add_argument("--attempts", type=int, default=None, help="attempts per clock")
    p.add_argument("--hist", default=None, help="write histogram CSV to this path")
    p.set_defaults(func=cmd_simulate_rus)

    p = sub.add_parser("compile-trotter", help="compile one Trotter step")
    common(p)
    p.add_argument("--n", type=int, default=4, help="lattice side length")
    p.add_argument("--mode", choices=("plain", "controlled"), default="plain")
    p.add_argument("--timeline", default=None, help="write timeline JSON-lines here")
    p.set_defaults(func=cmd_compile_trotter)

    p = sub.add_parser("compare-serial", help="serial vs parallel clocks")
    common(p)
    p.add_argument(
        "--n", type=int, nargs="+", default=[4, 6, 8, 10], help="lattice sizes"
    )
    p.set_defaults(func=cmd_compare_serial)

    p = sub.add_parser("estimate", help="phase-estimation resource report")
    common(p)
    p.add_argument("--n", type=int, default=4, help="lattice side length")
    p.add_argument("--config", default=None, help="config JSON file")
    p.add_argument(
        "--calibrate-nmax",
        type=int,
        default=None,
        help="largest-circuit step count used to back out the error norm",
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("qcels-demo", help="phase-estimation success-rate demo")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--spectrum", default=None, help="JSON file {phases, weights}")
    p.add_argument("--eps", type=float, default=0.01, help="target accuracy")
    p.add_argument("--delta", type=float, default=0.06)
    p.add_argument("--pairs", type=int, default=5, help="data points per level")
    p.add_argument("--samples", type=int, default=100, help="shots parameter")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_qcels_demo)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleModel as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    # OrderingError and AngleCapError are ValueErrors
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
