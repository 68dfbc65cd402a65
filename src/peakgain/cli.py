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


def _write_lines(path, header, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *lines]) + "\n")


def _write_csv(path, header, rows):
    _write_lines(path, header, (",".join(map(str, row)) for row in rows))


def _trace_lines(rows):
    # mu and beta are floats, so !r is the shortest round-trip form of _fmt
    for update, batch, mu, beta in rows:
        yield f"{update},{batch},{mu!r},{beta!r}"


def write_trace_csv(trace, path):
    """Write the per-batch trace as CSV with header updateIndex,batchIndex,mu,beta."""
    _write_lines(path, "updateIndex,batchIndex,mu,beta", _trace_lines(trace.rows))


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
            # tolist() gives Python floats, whose !r is _fmt of each sample
            values = np.asarray(vec, dtype=float).tolist()
            _write_lines(os.path.join(outdir, name), "k,value",
                         (f"{k},{v!r}" for k, v in enumerate(values)))
            written.append(name)
    return written


def _load(args):
    sys_obj = parse_system_file(args.system)
    if isinstance(sys_obj, RationalTransferFunction):
        return sys_obj, tf_to_ss(sys_obj)
    return sys_obj, sys_obj


def _outdir(args):
    # each command checks its sizes first, so a rejected size leaves no directory behind
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_analyze(args):
    _, ss = _load(args)
    N = args.n
    _count(N, "--n", 1)
    out = _outdir(args)
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

    # tolist() gives Python floats, whose !r is _fmt of each entry
    _write_lines(
        os.path.join(out, "coefficients.csv"),
        "k,c",
        (f"{k},{v!r}" for k, v in enumerate(c.tolist())),
    )
    columns = zip(lam.real.tolist(), lam.imag.tolist(), mag.tolist(), rev.tolist())
    _write_lines(
        os.path.join(out, "spectrum.csv"),
        "m,omega,lambdaRe,lambdaIm,lambdaAbs,lambdaReversed",
        (
            f"{m},{2.0 * np.pi * m / N!r},{re!r},{im!r},{a!r},{r!r}"
            for m, (re, im, a, r) in enumerate(columns)
        ),
    )
    summary = [
        ("N", N),
        ("jIsZero", "true" if j_is_zero else "false"),
        ("diagResidualMax", _fmt(residual)),
        ("lambdaMaxResetFree", _fmt(gain_reset_free)),
        ("lambdaReversedTop", _fmt(rev_top)),
        ("lambdaMaxResetBased", _fmt(gain_reset_based)),
    ]
    _write_csv(os.path.join(out, "summary.csv"), "key,value", summary)
    for key, value in summary:
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
    out = _outdir(args)
    schedule = [args.n_start * 2**k for k in range(args.n_doublings + 1)]
    rows = []
    free_errors = []
    based_errors = []
    for N in schedule:
        lam = circulant_eigenvalues(circulant_coefficients(ss, N))
        gain_free = float(np.hypot(lam.real, lam.imag).max())
        gain_based = max_gain_reset_based(impulse_response(ss, N))
        err_free = abs(gain_free - oracle) / oracle
        err_based = abs(gain_based - oracle) / oracle
        free_errors.append(err_free)
        based_errors.append(err_based)
        rows.append((N, *map(_fmt, (gain_free, gain_based, oracle, err_free, err_based))))
    _write_csv(
        os.path.join(out, "sweep.csv"),
        "N,resetFree,resetBased,oracle,resetFreeRelError,resetBasedRelError",
        rows,
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
    out = _outdir(args)
    if config.shift is None:
        config = dataclasses.replace(config, shift=select_shift(plant, args.n, args.seed))
    trace = iterate_reset_free(plant, config)
    write_trace_csv(trace, os.path.join(out, "trace.csv"))
    snapshots = write_update_snapshots(trace, out)
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
    out = _outdir(args)
    gain, omega = hinf_peak(sys_obj, args.grid)
    rows = [
        ("hinfNorm", _fmt(gain)),
        ("peakOmega", _fmt(omega)),
        ("gridSize", args.grid),
    ]
    print(f"worst-case gain = {_fmt(gain)}")
    print(f"peak frequency = {_fmt(omega)} rad/sample")
    if isinstance(sys_obj, RationalTransferFunction) and len(sys_obj.den) > 1:
        poles = np.roots(sys_obj.den)
        dominant = poles[int(np.argmax(np.abs(poles)))]
        rows.append(("dominantPoleMagnitude", _fmt(abs(dominant))))
        rows.append(("dominantPoleAngle", _fmt(abs(np.angle(dominant)))))
        print(
            f"dominant pole: magnitude {_fmt(abs(dominant))}, "
            f"resonance near {_fmt(abs(np.angle(dominant)))} rad/sample"
        )
    _write_csv(os.path.join(out, "oracle.csv"), "key,value", rows)
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
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        # a SystemSpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
