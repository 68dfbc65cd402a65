"""Benchmark workloads: the CLI jobs each one runs and the checks on their outputs.

A job is one ``peakgain`` CLI invocation, run in-process through
``peakgain.cli.main`` with its stdout captured. Every execution is checked;
a job that raises, exits non-zero or fails a check is a failed job, and the
run goes on.
"""

import contextlib
import csv
import hashlib
import io
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from peakgain import RESET_FREE, cli, new_session, parse_system_file, select_shift, tf_to_ss

DEMO_TF = "demos/delayed_resonator.txt"
DEMO_SS = "perfbench/inputs/delayed_resonator_ss.txt"
SLOW_TF = "perfbench/inputs/slow_pole.txt"
SLOW_SS = "perfbench/inputs/slow_pole_ss.txt"

# Rounding-level agreement: these are pass/fail checks, never metrics.
GRID_PEAK_RTOL = 1e-9  # circulant spectrum against the polyval grid peak
ORACLE_RTOL = 1e-12  # hinf_peak against the frozen reference gain
OMEGA_TOL = 1e-6  # folded peak frequency, rad/sample (the peak is flat to ~1e-16)
RESIDUAL_TOL = 1e-9  # diagResidualMax relative to the gain
MONOTONE_RTOL = 1e-12  # resetFree may dip by rounding only across the doublings

# Identical work runs at speeds up to 2x apart on the shared machine this
# was tuned on: the speed switches every few seconds and also shifts for
# minutes. Every time is therefore scaled to a reference speed: wall time
# over the slowness the execution is judged to have run at, where slowness
# is a speed probe's time over its time in the fast phase of that machine
# (2 vCPUs, Python 3.11), PROBE_REF_S. The probe has three kernels, and the
# slow phase slows each kind of work by a different factor there: numpy
# 2.1x, python 1.5x, blas 1.4x, against about 2x for the plant simulation,
# 1.65x for the state-space scan and 1.3x to 1.45x for analyze and sweep. So
# each subcommand is scaled by the kernels its work slows like (SCALE_BY);
# the set-up, mostly imports, by plain Python. The probes just before and
# just after an execution show its speed only for about PHASE_S seconds, how
# long a speed phase typically held there; see Run.end_to_end.
PROBE_REF_S = {"numpy": 0.0005, "python": 0.00105, "blas": 0.0005}
SCALE_BY = {
    "analyze": ("python", "blas"),
    "sweep": ("python", "blas"),
    "oracle": ("numpy", "python", "blas"),
    "estimate": ("numpy",),
    "setup": ("python",),
}
PHASE_S = 2.0


@dataclass(frozen=True)
class Workload:
    """One plant, as a rational file and its state-space realization.

    ``peak`` is the reference worst-case gain and its frequency folded to
    [0, pi]. ``n50_seeds`` and ``n256_seeds`` are the numbers of consecutive
    estimate seeds run at N = 50 and N = 256, starting at the workload seed.
    """

    tf: str
    ss: str
    peak: tuple
    n50_seeds: int
    n256_seeds: int


WORKLOADS = {
    # The demo's batch count varies about 10x between estimate seeds (per-job
    # coefficient of variation 0.7), so its estimate metrics need a wide
    # block of seeds to repeat within their bounds from one seed to the next.
    "demo": Workload(DEMO_TF, DEMO_SS, (1.9547706345854523, 1.2077304677574847), 50, 2),
    # The slow plant's batch count is set by settling and barely depends on
    # the seed, so a few seeds are enough.
    "slow": Workload(SLOW_TF, SLOW_SS, (1e-4 / (1.0 - 0.9999), 0.0), 3, 1),
}

COMMANDS = ("analyze", "sweep", "oracle", "estimate")


@dataclass(frozen=True)
class Job:
    command: str
    system: str
    n: int | None = None
    seed: int | None = None
    extra: tuple = ()

    @property
    def label(self):
        parts = [self.command, self.system.rsplit("/", 1)[-1]]
        if self.n is not None:
            parts.append(f"N={self.n}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        parts.extend(self.extra)
        return " ".join(parts)

    def argv(self, root, out):
        argv = [self.command, "--system", str(root / self.system)]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv + list(self.extra) + ["--out", str(out)]


def make_jobs(workload, seed, smoke=False):
    """The workload's jobs in run order; every estimate seed derives from ``seed``.

    The oracle jobs scan 20,001 frequencies instead of the CLI's 100,001:
    the state-space scan is a Python loop linear in the grid, so its cost
    stays visible, and two passes fit in a run. ``smoke`` keeps the
    structure but shrinks every job, for the self-tests.
    """
    w = WORKLOADS[workload]
    grid = ("--grid", "1001" if smoke else "20001")
    jobs = [Job("analyze", w.tf, n=n) for n in ((50, 256) if smoke else (50, 256, 2048))]
    jobs.append(Job("sweep", w.tf, extra=("--n-doublings", "2") + grid if smoke else ()))
    jobs += [Job("oracle", path, extra=grid) for path in (w.tf, w.ss)]
    n50, n256 = (1, 1) if smoke else (w.n50_seeds, w.n256_seeds)
    jobs += [Job("estimate", w.tf, n=50, seed=seed + i) for i in range(n50)]
    jobs += [Job("estimate", w.tf, n=256, seed=seed + i) for i in range(n256)]
    return jobs


class Reference:
    """What a workload's outputs are checked against, computed outside the CLI."""

    def __init__(self, root, workload):
        w = WORKLOADS[workload]
        self.tf = parse_system_file(root / w.tf)
        self.ss = tf_to_ss(self.tf)
        self.peak_gain, self.peak_omega = w.peak
        # h_k = 0 for k < delay + (index of the first nonzero numerator
        # coefficient), so the from-rest batch response J is zero exactly
        # when N is at most that index
        self.first_markov = self.tf.delay + next(
            i for i, c in enumerate(self.tf.num) if c != 0.0
        )
        self._grid_peaks = {}

    def grid_peak(self, n):
        """max_m |P(exp(j 2 pi m / n))| by polynomial evaluation of num/den."""
        if n not in self._grid_peaks:
            zi = np.exp(-2j * np.pi * np.arange(n) / n)
            num = np.polyval(self.tf.num[::-1], zi)
            den = np.polyval(self.tf.den[::-1], zi)
            self._grid_peaks[n] = float(np.abs(zi**self.tf.delay * num / den).max())
        return self._grid_peaks[n]


@dataclass
class Execution:
    """One run of one job: its wall time, parsed values and any problems."""

    job: Job
    wall: float
    problems: list
    values: dict = field(default_factory=dict)
    digest: str = ""
    csv_bytes: int = 0
    probes: tuple = ()  # the speed probes just before and just after it

    @property
    def failed(self):
        return bool(self.problems)


def execute_job(job, root, out, ref, span=None):
    """Run ``job`` through ``cli.main`` into the empty directory ``out`` and check it.

    ``span``, when given, is a context manager entered around the CLI call only.
    """
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    problems = []
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with span or contextlib.nullcontext():
                rc = cli.main(job.argv(root, out))
    except SystemExit as exc:  # argparse usage errors exit from inside main
        rc = exc.code
    except Exception as exc:  # a crashing job is counted as failed; the run goes on
        problems.append(f"raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    execution = Execution(job, wall, problems)
    if problems:
        return execution
    if rc != 0:
        problems.append(f"exit code {rc}: {stderr.getvalue().strip()[-300:]}")
    try:
        execution.values = CHECKS[job.command](job, stdout.getvalue(), out, ref, problems)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    execution.digest, execution.csv_bytes = _digest(out)
    return execution


_PROBE_MATRIX = np.random.default_rng(0).standard_normal((160, 160))


def _probe_numpy():
    a, x = np.full((4, 4), 0.1), np.zeros(4)
    start = time.perf_counter()
    for _ in range(300):
        x = a @ x + 1.0
    return time.perf_counter() - start


def _probe_python():
    start = time.perf_counter()
    total = 0
    for i in range(15000):
        total += i * i % 7
    return time.perf_counter() - start


def _probe_blas():
    start = time.perf_counter()
    for _ in range(3):
        _PROBE_MATRIX @ _PROBE_MATRIX
    return time.perf_counter() - start


def speed_probe():
    """Seconds taken by each of three small kernels like the jobs' own work.

    About 4 ms in all. Each kernel's time is the fastest of two timings:
    small numpy operations in a Python loop (as in the plant simulation and
    the state-space scan), plain Python (as in the Jacobi solver and the
    imports), and a dense matrix product (as in analyze at large N).
    """
    return {name: min(kernel(), kernel()) for name, kernel in (
        ("numpy", _probe_numpy), ("python", _probe_python), ("blas", _probe_blas))}


def slowness(probes, kernels):
    """Geometric mean over ``kernels`` of their mean time in ``probes`` over PROBE_REF_S."""
    product = 1.0
    for kernel in kernels:
        product *= statistics.fmean(p[kernel] for p in probes) / PROBE_REF_S[kernel]
    return product ** (1.0 / len(kernels))


def _digest(out):
    sha = hashlib.sha256()
    size = 0
    for path in sorted(out.glob("*.csv")):
        data = path.read_bytes()
        sha.update(path.name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return sha.hexdigest(), size


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _key_values(path):
    return {row["key"]: row["value"] for row in _rows(path)}


def _printed(stdout):
    return dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)


def _close(value, expected, rtol):
    return abs(value - expected) <= rtol * abs(expected)


def check_analyze(job, stdout, out, ref, problems):
    summary = _key_values(out / "summary.csv")
    gain = float(summary["lambdaMaxResetFree"])
    expected = ref.grid_peak(job.n)
    if not _close(gain, expected, GRID_PEAK_RTOL):
        problems.append(f"lambdaMaxResetFree {gain!r} != polyval grid peak {expected!r}")
    j_is_zero = summary["jIsZero"] == "true"
    if j_is_zero != (job.n <= ref.first_markov):
        problems.append(f"jIsZero is {summary['jIsZero']} at N={job.n}")
    residual = float(summary["diagResidualMax"])
    if not residual <= RESIDUAL_TOL * max(1.0, gain):
        problems.append(f"diagResidualMax {residual!r} is not at rounding level")
    return {"gain": gain}


def check_sweep(job, stdout, out, ref, problems):
    rows = _rows(out / "sweep.csv")
    free = [float(row["resetFree"]) for row in rows]
    for row, gain in zip(rows, free):
        expected = ref.grid_peak(int(row["N"]))
        if not _close(gain, expected, GRID_PEAK_RTOL):
            problems.append(f"resetFree {gain!r} at N={row['N']} != polyval grid peak {expected!r}")
        oracle = float(row["oracle"])
        if not _close(oracle, ref.peak_gain, ORACLE_RTOL):
            problems.append(f"oracle column {oracle!r} != reference {ref.peak_gain!r}")
    for (prev, curr), row in zip(zip(free, free[1:]), rows[1:]):
        if curr < prev * (1.0 - MONOTONE_RTOL):
            problems.append(f"resetFree decreases at N={row['N']}: {prev!r} -> {curr!r}")
    return {"gain": free[-1]}


def check_oracle(job, stdout, out, ref, problems):
    values = _key_values(out / "oracle.csv")
    gain = float(values["hinfNorm"])
    omega = float(values["peakOmega"])
    folded = min(omega, 2.0 * math.pi - omega)
    if not _close(gain, ref.peak_gain, ORACLE_RTOL):
        problems.append(f"hinfNorm {gain!r} != reference {ref.peak_gain!r}")
    if abs(folded - ref.peak_omega) > OMEGA_TOL:
        problems.append(f"folded peakOmega {folded!r} != reference {ref.peak_omega!r}")
    return {"gain": gain}


def check_estimate(job, stdout, out, ref, problems):
    printed = _printed(stdout)
    batches, updates = int(printed["batches"]), int(printed["updates"])
    beta = float(printed["beta"])
    rows = _rows(out / "trace.csv")
    if float(rows[-1]["beta"]) != beta:
        problems.append(f"last trace.csv beta {rows[-1]['beta']} != printed beta {beta!r}")
    if len({row["updateIndex"] for row in rows}) != updates:
        problems.append(f"trace.csv holds a different number of updates than {updates}")
    g = ref.grid_peak(job.n)
    return {
        "batches": batches,
        "updates": updates,
        "trace_rows": len(rows),
        "shift": float(printed["shift"]),
        "beta": beta,
        "converged": printed["converged"],
        "rel_error": abs(beta - g) / g,
    }


CHECKS = {
    "analyze": check_analyze,
    "sweep": check_sweep,
    "oracle": check_oracle,
    "estimate": check_estimate,
}


class _CountingPlant:
    """Counts the batches applied through it, independently of the session's counter."""

    def __init__(self, plant):
        self._plant = plant
        self.N = plant.N
        self.mode = plant.mode
        self.batches = 0

    def apply_batch(self, u):
        self.batches += 1
        return self._plant.apply_batch(u)


def check_probe(execution, ref):
    """Replay the estimate's shift probe; ``batches`` must be probe plus trace rows."""
    job, values = execution.job, execution.values
    if "batches" not in values:
        return
    plant = _CountingPlant(new_session(ref.ss, job.n, RESET_FREE))
    shift = select_shift(plant, job.n, job.seed)
    if shift != values["shift"]:
        execution.problems.append(f"printed shift {values['shift']!r} != probed {shift!r}")
    if values["batches"] != plant.batches + values["trace_rows"]:
        execution.problems.append(
            f"batches {values['batches']} != {plant.batches} probe batches "
            f"+ {values['trace_rows']} trace.csv rows"
        )


class Run:
    """One benchmark run of one workload: executions, passes and their checks.

    ``timed`` maps each job index to its untraced executions after the warm-up.
    """

    def __init__(self, root, jobdir, workload, seed, smoke=False):
        self.root = root
        self.jobs = make_jobs(workload, seed, smoke)
        self.ref = Reference(root, workload)
        self.executions = []
        self.timed = {}
        self._digests = {}
        self._jobdir = jobdir

    def execute(self, index, span=None):
        job = self.jobs[index]
        before = speed_probe()
        ex = execute_job(job, self.root, self._jobdir / f"{index:03d}", self.ref, span)
        ex.probes = (before, speed_probe())
        if not ex.failed:
            first = self._digests.setdefault(index, ex.digest)
            if ex.digest != first:
                ex.problems.append("CSV outputs differ from an earlier execution of the same job")
        self.executions.append(ex)
        return ex

    def warm_up(self):
        """First job of each subcommand, untimed: lazy set-up, and a digest to compare."""
        seen = set()
        for index, job in enumerate(self.jobs):
            if job.command not in seen:
                seen.add(job.command)
                self.execute(index)

    def run_pass(self):
        executions = [self.execute(index) for index in range(len(self.jobs))]
        for index, ex in enumerate(executions):
            self.timed.setdefault(index, []).append(ex)
        return executions

    def run_until(self, deadline):
        """Run the jobs again, in pass order, while each next execution fits.

        Stops before the first execution that might end after ``deadline``
        (a ``time.perf_counter`` value): one that would, if it took 1.5 times
        as long as its job's slowest execution so far. The last pass may be
        partial.
        """
        while True:
            for index, runs in self.timed.items():
                if time.perf_counter() + 1.5 * max(ex.wall for ex in runs) > deadline:
                    return
                runs.append(self.execute(index))

    def traced_pass(self, tracer, commands=COMMANDS):
        """Execute the jobs of ``commands`` with ``tracer``'s wrappers installed."""
        executions = []
        with tracer.installed():
            for index, job in enumerate(self.jobs):
                if job.command not in commands:
                    continue
                tracer.job = index
                executions.append(self.execute(index, tracer.span(f"cli.{job.command}")))
        tracer.job = None
        return executions

    def end_to_end(self, setup):
        """End-to-end metrics, as {name: (value, unit)}, from the untraced executions.

        ``setup`` holds the set-up times at the reference speed. A
        subcommand's time is the sum over its jobs of each job's median
        execution time at the reference speed (see PROBE_REF_S). An
        execution is judged to have run at a weighted mean of its own
        slowness and the run's, the time-weighted mean over all the run's
        timed executions, with weights PHASE_S and its wall time: a short
        execution is scaled by the probes around it, a long one, which spans
        several phases, mostly by the run's.
        """
        timed = [ex for runs in self.timed.values() for ex in runs]
        total = sum(ex.wall for ex in timed)

        def at_reference(ex, kernels, run_slowness):
            own = slowness(ex.probes, kernels)
            return ex.wall * (PHASE_S + ex.wall) / (PHASE_S * own + ex.wall * run_slowness)

        metrics = {"setup_s": (statistics.median(setup), "s")}
        for command in COMMANDS:
            kernels = SCALE_BY[command]
            run_slowness = sum(ex.wall * slowness(ex.probes, kernels) for ex in timed) / total
            medians = [statistics.median(at_reference(ex, kernels, run_slowness) for ex in runs)
                       for index, runs in self.timed.items()
                       if self.jobs[index].command == command]
            metrics[f"{command}_s"] = (sum(medians), "s")
        estimates = [runs[0].values for index, runs in self.timed.items()
                     if self.jobs[index].command == "estimate" and runs[0].values]
        if estimates:
            errors = [v["rel_error"] for v in estimates]
            metrics["experiments"] = (sum(v["batches"] for v in estimates), "count")
            metrics["rel_error_max"] = (max(errors), "1")
            metrics["rel_error_p50"] = (statistics.median(errors), "1")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_mem_mb"] = (rss_mb, "MB")
        return metrics

    @property
    def failed(self):
        return sum(ex.failed for ex in self.executions)
