"""Command line front end.

Subcommands: ``analyze`` (per-N structural report of the batch response),
``sweep`` (gain estimates over a doubling batch-length schedule), ``estimate``
(run the reset-free power iteration on the simulated plant) and ``oracle``
(frequency-grid worst-case gain). Everything numeric is written as CSV with
shortest round-trip float formatting, so identical configurations produce
byte-identical outputs.

Exit codes: 0 success, 1 validation error or a system the numerics cannot
handle (such as one too close to marginal stability), 2 non-convergence.
"""

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from .estimator import PowerIterationConfig, iterate_reset_free, select_shift
# periodic_response_matrix is not called here: perfbench/spans.py wraps the
# names this module imports, that one included
from .lifting import (
    circulant_coefficients,
    impulse_response,
    lift,
    periodic_response_matrix,
)
from .lti import (
    RationalTransferFunction,
    _count,
    hinf_peak,
    parse_system_file,
    tf_to_ss,
)
from .plant import RESET_FREE, new_session
from .spectral import (
    circulant_eigenvalues,
    diagonalization_residual,
    max_gain_reset_based,
    reversed_spectrum,
)

__all__ = ["main"]


def _fmt(value):
    return repr(float(value))


def _write_csv(path, header, *columns):
    # each column is an iterable of formatted strings, joined row by row; the
    # file's directory is made only when it is missing, so a run that fails
    # before its first write leaves no --out behind
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fh = open(path, "w", encoding="utf-8", newline="\n")
    with fh:
        fh.write("\n".join([header, *map(",".join, zip(*columns))]) + "\n")


def write_trace_csv(trace, path):
    """Write the per-batch trace as CSV with header updateIndex,batchIndex,mu,beta."""
    # mu and beta are floats, so repr is the shortest round-trip form of _fmt
    columns = zip(*trace.rows)
    _write_csv(path, "updateIndex,batchIndex,mu,beta",
               *(map(fmt, column) for fmt, column in zip((str, str, repr, repr), columns)))


def write_update_snapshots(trace, outdir, updates=None):
    """Write u and y snapshots for selected updates as k,value CSV files.

    Defaults to the initial input, the first post-update input and the final
    one (deduplicated for short runs). Each update is an integer from 1 to
    the trace's update count, else ValueError; all are checked before any
    file is written. Returns the written file names.
    """
    count = len(trace.updates)
    if count == 0:
        return []
    if updates is None:
        updates = sorted({1, min(2, count), count})
    updates = [_count(upd, "snapshot update", 1) for upd in updates]
    for upd in updates:
        if upd > count:
            raise ValueError(f"no update {upd} in a trace of {count} updates")
    written = []
    for upd in updates:
        record = trace.updates[upd - 1]
        for tag, vec in (("u", record.u), ("y", record.y)):
            name = f"{tag}_update_{upd:05d}.csv"
            # tolist() gives Python floats, whose repr is _fmt of each sample
            values = np.asarray(vec, dtype=float).tolist()
            _write_csv(os.path.join(outdir, name), "k,value",
                       map(str, range(len(values))), map(repr, values))
            written.append(name)
    return written


def _load(args):
    sys_obj = parse_system_file(args.system)
    if isinstance(sys_obj, RationalTransferFunction):
        return sys_obj, tf_to_ss(sys_obj)
    return sys_obj, sys_obj


def cmd_analyze(args):
    _, ss = _load(args)
    N = args.n
    _count(N, "--n", 1)
    c = circulant_coefficients(ss, N)
    lam = circulant_eigenvalues(c)
    # |lambda_m| as reversed_spectrum takes it, so the reported peaks agree to the bit
    mag = np.hypot(lam.real, lam.imag)
    rev = reversed_spectrum(lam)
    lb = lift(ss, N)
    h = lb.h
    # the residual forms F* M F of M = periodic_response_matrix(lb) from
    # lb's structure, 64 rows at a time, so analyze holds no N x N array
    residual, _ = diagonalization_residual(lb)
    j_is_zero = not h.any()
    gain_reset_free = float(mag.max())
    rev_top = float(rev.max())
    gain_reset_based = max_gain_reset_based(h)

    # tolist() gives Python floats, whose repr is _fmt of each entry
    _write_csv(os.path.join(args.out, "coefficients.csv"), "k,c",
               map(str, range(N)), map(repr, c.tolist()))
    # the IEEE operations of 2.0 * pi * m / N per row, so the same bits
    omega = 2.0 * np.pi * np.arange(N) / N
    _write_csv(
        os.path.join(args.out, "spectrum.csv"),
        "m,omega,lambdaRe,lambdaIm,lambdaAbs,lambdaReversed",
        map(str, range(N)),
        *(map(repr, x.tolist()) for x in (omega, lam.real, lam.imag, mag, rev)),
    )
    summary = {
        "N": str(N),
        "jIsZero": "true" if j_is_zero else "false",
        "diagResidualMax": _fmt(residual),
        "lambdaMaxResetFree": _fmt(gain_reset_free),
        "lambdaReversedTop": _fmt(rev_top),
        "lambdaMaxResetBased": _fmt(gain_reset_based),
    }
    _write_csv(os.path.join(args.out, "summary.csv"), "key,value", summary, summary.values())
    for key, value in summary.items():
        print(f"{key} = {value}")
    if j_is_zero:
        print("note: the single-batch response is identically zero at this N; "
              "a reset-based experiment cannot see this plant")
    return 0


def cmd_sweep(args):
    sys_obj, ss = _load(args)
    _count(args.n_start, "--n-start", 1)
    _count(args.n_doublings, "--n-doublings", 0)
    _count(args.grid, "--grid", 2)
    oracle, _ = hinf_peak(sys_obj, args.grid)
    if oracle == 0.0:
        raise ValueError("the worst-case gain is zero, so the relative errors are undefined")
    schedule = [args.n_start * 2**k for k in range(args.n_doublings + 1)]
    gains = np.empty((2, len(schedule)))
    for i, N in enumerate(schedule):
        lam = circulant_eigenvalues(circulant_coefficients(ss, N))
        gains[0, i] = np.hypot(lam.real, lam.imag).max()
        gains[1, i] = max_gain_reset_based(impulse_response(ss, N))
    free_errors, based_errors = (np.abs(gains - oracle) / oracle).tolist()
    _write_csv(
        os.path.join(args.out, "sweep.csv"),
        "N,resetFree,resetBased,oracle,resetFreeRelError,resetBasedRelError",
        map(str, schedule),
        *(map(repr, x.tolist()) for x in gains),
        [_fmt(oracle)] * len(schedule),
        map(repr, free_errors),
        map(repr, based_errors),
    )
    print(f"oracle gain: {_fmt(oracle)}")
    print("N, reset-free rel. error, reset-based rel. error, error ratio to previous N")
    for i, N in enumerate(schedule):
        ratio = "" if i == 0 or free_errors[i - 1] == 0 else f"{free_errors[i] / free_errors[i - 1]:.3g}"
        print(f"{N}: {free_errors[i]:.3e}, {based_errors[i]:.3e}, {ratio}")
    return 0


def cmd_estimate(args):
    _, ss = _load(args)
    # every option is checked before the plant lifts the system
    _count(args.n, "batch length", 1)
    default_tol = 1e-8 if args.ideal_plant else 1e-4
    config = PowerIterationConfig(
        shift=args.shift,
        max_updates=args.max_updates,
        convergence_tol=args.tol if args.tol is not None else default_tol,
        rng_seed=args.seed,
    )
    plant = new_session(ss, args.n, RESET_FREE, settled=args.ideal_plant)
    if config.shift is None:
        config = dataclasses.replace(config, shift=select_shift(plant, args.n, args.seed))
    trace = iterate_reset_free(plant, config)
    write_trace_csv(trace, os.path.join(args.out, "trace.csv"))
    snapshots = write_update_snapshots(trace, args.out)
    updates = len(trace.updates)
    print(f"shift = {_fmt(config.shift)}")
    print(f"updates = {updates}")
    print(f"batches = {plant.batch_counter}")
    print(f"beta = {_fmt(trace.estimate)}")
    print(f"converged = {'true' if trace.converged else 'false'}")
    print(f"snapshots: {', '.join(snapshots)}")
    return 0 if trace.converged else 2


def cmd_oracle(args):
    # a rational file is scanned through its own freq_response and never
    # realized, so its oracle shares no code with the state space
    sys_obj = parse_system_file(args.system)
    _count(args.grid, "--grid", 2)
    gain, omega = hinf_peak(sys_obj, args.grid)
    report = {"hinfNorm": _fmt(gain), "peakOmega": _fmt(omega), "gridSize": str(args.grid)}
    if isinstance(sys_obj, RationalTransferFunction) and len(sys_obj.den) > 1:
        poles = np.roots(sys_obj.den)
        dominant = poles[int(np.argmax(np.abs(poles)))]
        report["dominantPoleMagnitude"] = _fmt(abs(dominant))
        report["dominantPoleAngle"] = _fmt(abs(np.angle(dominant)))
    _write_csv(os.path.join(args.out, "oracle.csv"), "key,value", report, report.values())
    print(f"worst-case gain = {report['hinfNorm']}")
    print(f"peak frequency = {report['peakOmega']} rad/sample")
    if "dominantPoleMagnitude" in report:
        print(
            f"dominant pole: magnitude {report['dominantPoleMagnitude']}, "
            f"resonance near {report['dominantPoleAngle']} rad/sample"
        )
    return 0


class _Parser(argparse.ArgumentParser):
    # validation failures (including usage errors) exit with code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser():
    # built once per process; parse_args leaves the parser unchanged
    parser = _Parser(
        prog="peakgain",
        description="Worst-case gain estimation for discrete-time LTI systems "
        "from batch experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="per-N structural report of the batch response"
    )
    analyze.add_argument("--system", required=True, help="system file path")
    analyze.add_argument("--n", type=int, required=True, help="batch length")
    analyze.add_argument("--out", default="out", help="output directory")
    analyze.set_defaults(func=cmd_analyze)

    sweep = sub.add_parser(
        "sweep", help="gain estimates over a doubling batch-length schedule"
    )
    sweep.add_argument("--system", required=True)
    sweep.add_argument("--n-start", type=int, default=8, help="first batch length")
    sweep.add_argument(
        "--n-doublings", type=int, default=8, help="number of times N is doubled"
    )
    sweep.add_argument("--grid", type=int, default=100001, help="oracle grid size")
    sweep.add_argument("--out", default="out")
    sweep.set_defaults(func=cmd_sweep)

    estimate = sub.add_parser(
        "estimate", help="run the reset-free power iteration on the plant"
    )
    estimate.add_argument("--system", required=True)
    estimate.add_argument("--n", type=int, default=50, help="batch length")
    estimate.add_argument("--seed", type=int, default=PowerIterationConfig.rng_seed)
    estimate.add_argument(
        "--shift", type=float, default=None, help="override the probed shift"
    )
    estimate.add_argument(
        "--ideal-plant",
        action="store_true",
        help="use the exact steady-state plant instead of the transient simulation",
    )
    estimate.add_argument("--max-updates", type=int, default=PowerIterationConfig.max_updates)
    estimate.add_argument(
        "--tol",
        type=float,
        default=None,
        help="absolute convergence tolerance on beta, in gain units "
        "(default 1e-4, or 1e-8 with --ideal-plant)",
    )
    estimate.add_argument("--out", default="out")
    estimate.set_defaults(func=cmd_estimate)

    oracle = sub.add_parser("oracle", help="frequency-grid worst-case gain")
    oracle.add_argument("--system", required=True)
    oracle.add_argument("--grid", type=int, default=100001, help="grid size")
    oracle.add_argument("--out", default="out")
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if not args.out:
            # the files would land in the working directory
            raise ValueError("--out names no directory")
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        # a SystemSpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
