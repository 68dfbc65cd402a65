"""peakgain benchmark: CLI workloads end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload demo --seed 0 --seconds 55 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in. One process runs the workload's CLI jobs serially through
``peakgain.cli.main``. With ``--trace 0`` it makes one pass over all jobs,
then goes on running them in pass order until ``--seconds`` after the start,
and reports the end-to-end metrics at the reference speed (see
jobs.PROBE_REF_S); with ``--trace 1`` it makes one untraced and one traced
pass and reports the per-layer metrics.
Every job execution is checked. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Spans and a full
result record (with the environment) are written under
``perfbench/out/``. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 8  # fresh interpreters, at the start of a run
EXIT_S = 1.0  # of --seconds, left for starting and ending the process


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas_threads():
    """Run BLAS single-threaded. Takes effect only before numpy is imported.

    A second BLAS thread made the times of the small solves in the
    state-space oracle and of the plant simulation about twice as variable
    from run to run on a 2-vCPU machine, while it sped up only the N = 2048
    dense algebra.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def setup_times(files, repeats):
    """Set-up times of fresh interpreters: import, parse and realize ``files``.

    Each is scaled to the reference speed with speed probes taken just
    before and just after its interpreter runs, which is far shorter than
    jobs.PHASE_S.
    """
    import jobs

    times = []
    for _ in range(repeats):
        before = jobs.speed_probe()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *map(str, files)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        wall = float(done.stdout.strip().splitlines()[-1])
        times.append(wall / jobs.slowness((before, jobs.speed_probe()), jobs.SCALE_BY["setup"]))
    return times


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(blas_threads):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"l{level}_cache"] = _read(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "cpu_model": cpu,
        "l2_cache": caches.get("l2_cache", "unknown"),
        "l3_cache": caches.get("l3_cache", "unknown"),
        "commit": _commit(),
    }


def run_workload(workload, seed, seconds, trace, smoke=False, log=print):
    """Run one workload and return its result record.

    The record holds the end-to-end metrics and, when traced, the per-layer
    metrics and the spans; metrics map name -> (value, unit).
    """
    import jobs
    import spans

    started = time.perf_counter()
    run = jobs.Run(ROOT, OUT / "jobs" / f"{workload}-seed{seed}", workload, seed, smoke)
    w = jobs.WORKLOADS[workload]
    files = [ROOT / w.tf, ROOT / w.ss]
    # a traced run reports no set-up time
    setup = setup_times(files, 1 if smoke or trace else SETUP_REPEATS)
    run.warm_up()
    first = run.run_pass()
    for ex in first:
        if ex.job.command == "estimate":
            jobs.check_probe(ex, run.ref)
    if trace:
        tracer = spans.Tracer()
        traced = run.traced_pass(tracer)
        spans.check_replay(first, traced, tracer)
        peaks = spans.Tracer(measure_peaks=True)
        run.traced_pass(peaks, commands=("analyze", "sweep"))
    else:
        run.run_until(started + seconds - EXIT_S)

    per_layer = {}
    if trace:
        per_layer = spans.layer_metrics(
            tracer, peaks, run.jobs, [ex.wall for ex in traced],
            sum(ex.wall for ex in first), sum(ex.csv_bytes for ex in traced))

    for ex in first:
        shown = {k: v for k, v in ex.values.items()
                 if k in ("batches", "updates", "beta", "rel_error")}
        detail = " ".join(f"{k}={v:.3e}" if k == "rel_error" else f"{k}={v}"
                          for k, v in shown.items())
        log(f"{ex.wall:9.4f} s  {ex.job.label}  {detail}")
    for ex in run.executions:
        for problem in ex.problems:
            log(f"FAILED {ex.job.label}: {problem}")
    if trace:
        for line in spans.layer_table(tracer):
            log(line)

    attempted = len(run.executions)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "failed_fraction": run.failed / attempted,
        "end_to_end": run.end_to_end(setup),
        "executions_per_job": [len(run.timed[i]) for i in sorted(run.timed)],
        "timed": [[index, ex.wall, *ex.probes] for index, runs in sorted(run.timed.items())
                  for ex in runs],
        "run_wall_s": time.perf_counter() - started,
        "setup_times": setup,
        "per_layer": per_layer,
        "jobs": [
            {"job": ex.job.label, "wall_s": ex.wall, "values": ex.values, "problems": ex.problems}
            for ex in first
        ],
    }
    if trace:
        record["spans"] = tracer.spans
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description="peakgain benchmark")
    parser.add_argument("--workload", required=True, choices=("demo", "slow"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every job (self-tests); metrics are not comparable")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    blas_threads = pin_blas_threads()
    package = ROOT / "src" / "peakgain" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import jobs

    w = jobs.WORKLOADS[args.workload]
    missing = [path for path in (w.tf, w.ss) if not (ROOT / path).is_file()]
    if missing:
        print(f"error: missing system files {missing}", file=sys.stderr)
        return 2

    env = environment(blas_threads)
    print("environment: " + json.dumps(env))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    record["environment"] = env

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")
    with open(OUT / f"result-{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    reported = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in record["per_layer" if args.trace else "end_to_end"].items()
    }
    print(f"failed_fraction = {record['failed_fraction']} "
          f"({record['failed']} of {record['attempted']})")
    for name, entry in reported.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
