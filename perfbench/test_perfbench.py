"""Self-tests of the benchmark: smoke runs, metric names and failure counting.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import make_inputs  # noqa: E402
import run  # noqa: E402
from peakgain import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _quiet(*_):
    pass


@pytest.fixture(scope="module")
def smoke_records():
    """One traced smoke run per workload: it holds both metric sets."""
    return {
        name: run.run_workload(name, seed=0, seconds=0, trace=True, smoke=True, log=_quiet)
        for name in WORKLOAD_NAMES
    }


def test_benchmark_json_lists_the_workloads():
    assert set(WORKLOAD_NAMES) == set(jobs.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_is_correct(smoke_records, workload):
    record = smoke_records[workload]
    assert record["failed"] == 0, [j["problems"] for j in record["jobs"]]
    assert record["correct"]
    commands = {j["job"].split()[0] for j in record["jobs"]}
    assert commands == set(jobs.COMMANDS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_listed_metric_is_produced(smoke_records, workload):
    record = smoke_records[workload]
    for key, section in (("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
        listed = {(m["name"], m["unit"]) for m in BENCHMARK[key]}
        produced = {(name, unit) for name, (_, unit) in record[section].items()}
        assert listed == produced


def test_traced_counts_match_printed_counts(smoke_records):
    for record in smoke_records.values():
        printed = sum(j["values"]["batches"] for j in record["jobs"] if "batches" in j["values"])
        assert record["end_to_end"]["experiments"][0] == printed
        assert record["per_layer"]["plant.apply_batch.calls"][0] == printed


def test_command_prints_result_as_last_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "demo", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_wrong_program_output_counts_as_failure(monkeypatch):
    true_eigenvalues = cli.circulant_eigenvalues
    monkeypatch.setattr(cli, "circulant_eigenvalues", lambda spec: 1.001 * true_eigenvalues(spec))
    record = run.run_workload("demo", seed=0, seconds=0, trace=False, smoke=True, log=_quiet)
    assert not record["correct"]
    failed = {j["job"].split()[0] for j in record["jobs"] if j["problems"]}
    assert failed == {"analyze", "sweep"}
    assert record["failed_fraction"] > 0


def test_corrupted_csv_is_caught(tmp_path):
    ref = jobs.Reference(ROOT, "demo")
    job = jobs.Job("oracle", jobs.DEMO_TF, extra=("--grid", "1001"))
    execution = jobs.execute_job(job, ROOT, tmp_path, ref)
    assert not execution.failed, execution.problems
    path = tmp_path / "oracle.csv"
    path.write_text(path.read_text().replace("hinfNorm,1.95", "hinfNorm,1.96"))
    problems = []
    jobs.check_oracle(job, "", tmp_path, ref, problems)
    assert problems and "hinfNorm" in problems[0]


def test_changed_output_between_executions_is_caught(tmp_path, monkeypatch):
    bench = jobs.Run(ROOT, tmp_path, "demo", seed=0, smoke=True)
    index = next(i for i, job in enumerate(bench.jobs) if job.command == "estimate")
    assert not bench.execute(index).failed
    original = jobs.cli.write_update_snapshots

    def extra_snapshot(trace, outdir):
        return original(trace, outdir, updates=[1])

    monkeypatch.setattr(jobs.cli, "write_update_snapshots", extra_snapshot)
    again = bench.execute(index)
    assert any("differ" in p for p in again.problems)


def test_state_space_inputs_are_the_current_realization():
    assert make_inputs.main(["--check"]) == 0


def test_times_are_scaled_to_the_reference_speed(tmp_path):
    bench = jobs.Run(ROOT, tmp_path, "demo", seed=0, smoke=True)
    half_speed = [{kernel: 2 * t for kernel, t in jobs.PROBE_REF_S.items()}] * 2
    for index, job in enumerate(bench.jobs):
        bench.timed[index] = [jobs.Execution(job, 1.0, [], probes=half_speed)]
    metrics = bench.end_to_end([0.1])
    for command in jobs.COMMANDS:
        count = sum(job.command == command for job in bench.jobs)
        assert metrics[f"{command}_s"][0] == pytest.approx(0.5 * count)
