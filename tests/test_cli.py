import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import DEMO_PEAK_GAIN, random_stable_tf, slow_pole
from peakgain import (
    EstimateTrace,
    circulant_coefficients,
    circulant_eigenvalues,
    cli,
    freq_response,
    parse_system_file,
    reversed_spectrum,
)
from peakgain.cli import main
from peakgain.estimator import UpdateRecord

DEMO_SYSTEM = "num = 0, 5, 4\nden = 10, -5, 6\ndelay = 50\n"
LOW_PASS = "num = 1\nden = 1, -0.5\n"
SLOW_POLE = "num = 1e-4\nden = 1, -0.9999\n"
# peaks at a negative DC gain, and at a positive Nyquist gain: both at the
# bottom of the reversed spectrum at even N
NEGATIVE_DC = "num = -0.1\nden = 1, -0.9\n"
POSITIVE_NYQUIST = "num = 0.1\nden = 1, 0.9\n"
# stable, but its powers overflow float64 from A^3 on
OVERFLOWING_CHAIN = (
    "A = 0.5, 1e150, 0, 0; 0, 0.5, 1e150, 0; 0, 0, 0.5, 1e150; 0, 0, 0, 0.5\n"
    "B = 0, 0, 0, 1\nC = 1, 0, 0, 0\nD = 0\n"
)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(DEMO_SYSTEM)
    return str(path)


@pytest.fixture
def low_pass_file(tmp_path):
    path = tmp_path / "lowpass.txt"
    path.write_text(LOW_PASS)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def summary_dict(path):
    _, rows = read_csv(path)
    return {key: value for key, value in rows}


class TestAnalyze:
    def test_demo_plant_report(self, demo_file, tmp_path, capsys):
        out = tmp_path / "analysis"
        code = main(["analyze", "--system", demo_file, "--n", "50", "--out", str(out)])
        assert code == 0
        summary = summary_dict(out / "summary.csv")
        assert summary["jIsZero"] == "true"
        assert float(summary["diagResidualMax"]) < 1e-8
        assert float(summary["lambdaMaxResetBased"]) == 0.0
        assert float(summary["lambdaMaxResetFree"]) == pytest.approx(
            float(summary["lambdaReversedTop"])
        )
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["m", "omega", "lambdaRe", "lambdaIm", "lambdaAbs", "lambdaReversed"]
        assert len(rows) == 50
        header, rows = read_csv(out / "coefficients.csv")
        assert header == ["k", "c"]
        assert len(rows) == 50
        assert "reset-based experiment cannot see this plant" in capsys.readouterr().out

    @pytest.mark.parametrize("system, N", [
        ("demo", 8), ("demo", 50), ("demo", 256), ("slow", 50), ("random", 64),
    ])
    def test_spectrum_rows_are_the_response_at_their_omega(self, system, N, tmp_path):
        # row m is labelled omega = 2*pi*m/N and must hold the response there
        tf = random_stable_tf(np.random.default_rng(31))
        path = tmp_path / "system.txt"
        path.write_text({
            "demo": DEMO_SYSTEM,
            "slow": SLOW_POLE,
            "random": f"num = {', '.join(map(repr, tf.num))}\n"
                      f"den = {', '.join(map(repr, tf.den))}\ndelay = {tf.delay}\n",
        }[system])
        out = tmp_path / "analysis"
        assert main(["analyze", "--system", str(path), "--n", str(N), "--out", str(out)]) == 0
        sys_obj = parse_system_file(path)
        _, rows = read_csv(out / "spectrum.csv")
        assert [int(row[0]) for row in rows] == list(range(N))
        for row in rows:
            lam = complex(float(row[2]), float(row[3]))
            expected = freq_response(sys_obj, float(row[1]))
            assert abs(lam - expected) <= 1e-12 * (1.0 + abs(lam))

    @pytest.mark.parametrize("system, N", [("demo", 5), ("demo", 10), ("demo", 50), ("slow", 50)])
    def test_peak_magnitude_is_one_float(self, system, N, tmp_path):
        # the summary's peak, the largest magnitude in spectrum.csv and the
        # top of the reversed spectrum are the same |lambda_m|, to the last bit
        path = tmp_path / "system.txt"
        path.write_text(DEMO_SYSTEM if system == "demo" else SLOW_POLE)
        out = tmp_path / "analysis"
        assert main(["analyze", "--system", str(path), "--n", str(N), "--out", str(out)]) == 0
        summary = summary_dict(out / "summary.csv")
        _, rows = read_csv(out / "spectrum.csv")
        largest = max(float(row[4]) for row in rows)
        assert float(summary["lambdaMaxResetFree"]).hex() == largest.hex()
        assert float(summary["lambdaReversedTop"]).hex() == largest.hex()

    def test_static_gain_spectrum_is_flat(self, tmp_path):
        path = tmp_path / "gain.txt"
        path.write_text("num = 2.5\nden = 1\n")
        out = tmp_path / "analysis"
        assert main(["analyze", "--system", str(path), "--n", "6", "--out", str(out)]) == 0
        _, rows = read_csv(out / "spectrum.csv")
        mags = [float(row[4]) for row in rows]
        assert all(abs(m - 2.5) < 1e-9 for m in mags)
        summary = summary_dict(out / "summary.csv")
        assert float(summary["diagResidualMax"]) < 1e-12

    def test_unit_delay_reversed_multiset(self, tmp_path):
        path = tmp_path / "delay.txt"
        path.write_text("num = 0, 1\nden = 1\n")
        out = tmp_path / "analysis"
        assert main(["analyze", "--system", str(path), "--n", "4", "--out", str(out)]) == 0
        _, rows = read_csv(out / "spectrum.csv")
        reversed_values = sorted(float(row[5]) for row in rows)
        assert np.allclose(reversed_values, [-1.0, 1.0, 1.0, 1.0])

    def test_parse_error_reports_line_and_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("num = 1\nwhat = 3\n")
        assert main(["analyze", "--system", str(path), "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert ":2:" in err and "what" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["analyze", "--system", str(tmp_path / "nope.txt"), "--n", "4"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("system", [DEMO_SYSTEM, "num = 1e-4\nden = 1, -0.9999\n"],
                             ids=["demo", "slow"])
    def test_holds_no_square_array(self, system, tmp_path):
        # the residual forms F* M F 64 rows at a time from the lifted
        # system's structure, so no N x N array: about 0.22 N^2 doubles at the
        # peak on the demo and 0.09 on the slow pole, where the FFT of a
        # dense M took its N (N + 2) workspace
        path = tmp_path / "system.txt"
        path.write_text(system)
        N = 2048
        tracemalloc.start()
        try:
            code = main(["analyze", "--system", str(path), "--n", str(N),
                         "--out", str(tmp_path / "analysis")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.3 * 8 * N * N


class TestSweep:
    def test_small_schedule(self, low_pass_file, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--system", low_pass_file, "--n-start", "4",
            "--n-doublings", "3", "--grid", "4097", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == [
            "N", "resetFree", "resetBased", "oracle",
            "resetFreeRelError", "resetBasedRelError",
        ]
        assert [int(row[0]) for row in rows] == [4, 8, 16, 32]
        oracle_values = {row[3] for row in rows}
        assert len(oracle_values) == 1
        assert float(next(iter(oracle_values))) == pytest.approx(2.0, abs=1e-9)
        free = [float(row[1]) for row in rows]
        assert free == sorted(free)

    def test_invalid_schedule_exits_1(self, low_pass_file, capsys):
        assert main(["sweep", "--system", low_pass_file, "--n-start", "0"]) == 1
        assert "n-start" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["num = 0\nden = 1\n", "num = 0, 0\nden = 1, -0.5\n"],
                             ids=["static", "pole"])
    def test_zero_gain_plant_exits_1_without_traceback(self, text, tmp_path, capsys):
        # the relative errors divide by the worst-case gain, here zero
        path = tmp_path / "zero.txt"
        path.write_text(text)
        out = tmp_path / "sweep"
        argv = ["sweep", "--system", str(path), "--n-doublings", "1", "--grid", "101",
                "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "worst-case gain is zero" in err
        assert "Traceback" not in err
        assert not (out / "sweep.csv").exists()


class TestEstimate:
    def test_ideal_plant_matches_analysis(self, low_pass_file, tmp_path, capsys):
        out = tmp_path / "est"
        code = main([
            "estimate", "--system", low_pass_file, "--n", "8", "--seed", "0",
            "--ideal-plant", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged = true" in printed
        header, rows = read_csv(out / "trace.csv")
        assert header == ["updateIndex", "batchIndex", "mu", "beta"]
        final_beta = float(rows[-1][3])
        assert final_beta == pytest.approx(2.0, abs=1e-6)
        for tag in ("u", "y"):
            assert (out / f"{tag}_update_00001.csv").exists()
            assert (out / f"{tag}_update_00002.csv").exists()
        last = int(rows[-1][0])
        assert (out / f"u_update_{last:05d}.csv").exists()

    def test_overflowing_shift_exits_1(self, demo_file, tmp_path, capsys):
        # at --shift 1e308 the update vector's norm overflows; the run used
        # to read out beta = 0 as converged and exit 0
        out = tmp_path / "est"
        code = main([
            "estimate", "--system", demo_file, "--n", "3", "--shift", "1e308",
            "--out", str(out),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: update vector overflowed")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_tolerance_exits_1(self, low_pass_file, tmp_path, capsys):
        out = tmp_path / "est"
        code = main([
            "estimate", "--system", low_pass_file, "--n", "8", "--tol", "nan",
            "--out", str(out),
        ])
        assert code == 1
        assert "convergence_tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "knob",
        [("--tol", "nan"), ("--max-updates", "0"), ("--seed", "-1"), ("--shift", "0"),
         ("--shift", "-1")],
        ids=["tol", "max-updates", "seed", "shift", "negative-shift"],
    )
    def test_bad_knob_exits_1_before_probing(self, knob, low_pass_file, tmp_path, monkeypatch):
        # the knobs are checked before the plant lifts the system, let alone
        # probes it
        def no_probe(*args, **kwargs):
            raise AssertionError("the shift probe ran before the knobs were validated")

        def no_lift(*args, **kwargs):
            raise AssertionError("the plant was built before the knobs were validated")

        monkeypatch.setattr(cli, "select_shift", no_probe)
        monkeypatch.setattr("peakgain.plant.lift", no_lift)
        out = tmp_path / "est"
        argv = ["estimate", "--system", low_pass_file, "--n", "4096", *knob, "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists()

    @pytest.mark.parametrize("plant", [[], ["--ideal-plant"]], ids=["session", "settled"])
    def test_negative_seed_exits_1_without_creating_out(self, plant, low_pass_file, tmp_path,
                                                        capsys):
        out = tmp_path / "est"
        code = main(["estimate", "--system", low_pass_file, "--seed", "-1", *plant,
                     "--out", str(out)])
        assert code == 1
        assert "rng_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_transient_demo_run(self, demo_file, tmp_path, capsys):
        out = tmp_path / "est"
        code = main([
            "estimate", "--system", demo_file, "--out", str(out), "--seed", "1",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged = true" in printed
        beta = float(printed.split("beta = ")[1].splitlines()[0])
        # transient run with the default tolerance stays within a percent of
        # the batch-grid peak gain, well below the true peak
        assert abs(beta - 1.9199846942226348) < 2e-2
        assert beta < DEMO_PEAK_GAIN

    def test_slow_pole_run_reaches_the_grid_target(self, tmp_path, capsys):
        # a 200-batch time constant against a hold of 10: the extrapolated
        # readouts settle each hold, where the measured ones stopped 0.19% low
        path = tmp_path / "slow.txt"
        path.write_text(SLOW_POLE)
        assert main(["estimate", "--system", str(path), "--out", str(tmp_path / "est")]) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                       if " = " in line)
        target = reversed_spectrum(circulant_eigenvalues(circulant_coefficients(slow_pole(), 50)))
        assert printed["converged"] == "true"
        assert abs(float(printed["beta"]) - target.max()) < 1e-6
        assert int(printed["batches"]) < 400

    def test_non_convergence_exits_2(self, low_pass_file, tmp_path):
        out = tmp_path / "est"
        code = main([
            "estimate", "--system", low_pass_file, "--n", "8", "--ideal-plant",
            "--max-updates", "2", "--tol", "1e-14", "--out", str(out),
        ])
        assert code == 2
        assert (out / "trace.csv").exists()
        assert sorted(p.name for p in out.glob("*_update_*.csv")) == [
            "u_update_00001.csv", "u_update_00002.csv", "y_update_00001.csv", "y_update_00002.csv"]

    @pytest.mark.parametrize("text, argv", [
        *((NEGATIVE_DC, ["--seed", str(seed)]) for seed in (1, 2, 3, 4)),
        *((NEGATIVE_DC, ["--ideal-plant", "--seed", str(seed)]) for seed in (1, 2, 3)),
        (POSITIVE_NYQUIST, ["--seed", "1"]),
    ], ids=[*(f"negative-dc-{seed}" for seed in (1, 2, 3, 4)),
            *(f"negative-dc-ideal-{seed}" for seed in (1, 2, 3)), "positive-nyquist-1"])
    def test_a_negative_beta_exits_2(self, text, argv, tmp_path, capsys):
        # these runs stop on the tolerance at the bottom of the reversed
        # spectrum; a negative beta used to print converged = true, exit 0
        path = tmp_path / "plant.txt"
        path.write_text(text)
        out = tmp_path / "est"
        assert main(["estimate", "--system", str(path), "--n", "50", *argv,
                     "--out", str(out)]) == 2
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                       if " = " in line)
        assert printed["converged"] == "false"
        assert float(printed["beta"]) < -0.99
        assert (out / "trace.csv").exists()

    def test_a_zero_gain_plant_still_converges(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("num = 0\nden = 1, -0.9\n")
        with pytest.warns(UserWarning, match="zero output"):
            code = main(["estimate", "--system", str(path), "--n", "50", "--seed", "1",
                         "--out", str(tmp_path / "est")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "beta = 0.0\n" in printed
        assert "converged = true\n" in printed

    def test_byte_identical_reruns(self, demo_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["estimate", "--system", demo_file, "--n", "50", "--seed", "7",
                "--max-updates", "40", "--out"]
        assert main(args + [str(out1)]) in (0, 2)
        assert main(args + [str(out2)]) in (0, 2)
        for name in ("trace.csv", "u_update_00001.csv", "y_update_00002.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_batch_length_is_reported_before_a_bad_knob(self, low_pass_file, tmp_path,
                                                             capsys):
        code = main(["estimate", "--system", low_pass_file, "--n", "0", "--seed", "-1",
                     "--out", str(tmp_path / "est")])
        assert code == 1
        assert capsys.readouterr().err == "error: batch length must be at least 1, got 0\n"


# one value of each kind whose shortest round-trip text is easy to get wrong
AWKWARD_FLOATS = (-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3)


def per_row_lines(header, rows):
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


class TestCsvWriters:
    def test_trace_csv_matches_per_row_formatting(self, tmp_path):
        trace = EstimateTrace()
        values = list(AWKWARD_FLOATS)
        batch = 0
        for update, mu in enumerate(values, start=1):
            beta = values[-update]
            # a hold of three rows sharing objects, one equal in value but
            # held by distinct objects, and one sharing only mu
            copies = [(mu, beta), (mu, beta), (float(repr(mu)), float(repr(beta))),
                      (mu, float(repr(beta)))]
            for m, b in copies:
                trace.rows.append((update, batch, m, b))
                batch += 1
        assert trace.rows[2][2] == trace.rows[1][2] and trace.rows[2][2] is not trace.rows[1][2]
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(trace, path)
        expected = per_row_lines(
            "updateIndex,batchIndex,mu,beta",
            [(u, j, repr(float(m)), repr(float(b))) for u, j, m, b in trace.rows],
        )
        assert path.read_bytes() == expected.encode()

    def test_trace_csv_formats_each_row_of_a_changing_pair(self, tmp_path):
        # a run shares mu but not beta, or holds equal but distinct values:
        # every row still gets its own text
        mu = 1.5
        trace = EstimateTrace(rows=[(1, 0, mu, 0.25), (1, 1, mu, -0.0), (1, 2, mu, 1e300),
                                    (2, 3, 0.0, 0.0), (2, 4, -0.0, -0.0)])
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(trace, path)
        assert path.read_text().splitlines()[1:] == [
            "1,0,1.5,0.25", "1,1,1.5,-0.0", "1,2,1.5,1e+300", "2,3,0.0,0.0", "2,4,-0.0,-0.0"]

    def test_snapshots_match_per_row_formatting(self, tmp_path):
        u = np.array(AWKWARD_FLOATS)
        y = -u[::-1]
        trace = EstimateTrace(updates=[UpdateRecord(u, y, 1.0, 2.0)] * 3)
        written = cli.write_update_snapshots(trace, tmp_path)
        assert written == ["u_update_00001.csv", "y_update_00001.csv",
                           "u_update_00002.csv", "y_update_00002.csv",
                           "u_update_00003.csv", "y_update_00003.csv"]
        for name in written:
            vec = u if name.startswith("u") else y
            expected = per_row_lines("k,value", [(k, repr(float(v))) for k, v in enumerate(vec)])
            assert (tmp_path / name).read_bytes() == expected.encode()

    def test_snapshots_of_an_empty_trace(self, tmp_path):
        assert cli.write_update_snapshots(EstimateTrace(), tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [5, 0, 2.5])
    def test_snapshots_check_every_update_before_writing(self, bad, tmp_path):
        trace = EstimateTrace(updates=[UpdateRecord(np.ones(2), np.ones(2), 1.0, 1.0)] * 3)
        with pytest.raises(ValueError, match="update"):
            cli.write_update_snapshots(trace, tmp_path, updates=[1, bad])
        assert list(tmp_path.iterdir()) == []


class TestOracle:
    def test_demo_plant_value_and_pole(self, demo_file, tmp_path, capsys):
        out = tmp_path / "oracle"
        code = main(["oracle", "--system", demo_file, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "worst-case gain" in printed
        data = summary_dict(out / "oracle.csv")
        assert float(data["hinfNorm"]) == pytest.approx(DEMO_PEAK_GAIN, rel=1e-13)
        assert float(data["peakOmega"]) == pytest.approx(1.2077304677574847, abs=1e-6)
        assert float(data["dominantPoleMagnitude"]) == pytest.approx(
            np.sqrt(0.6), rel=1e-12
        )
        assert float(data["dominantPoleAngle"]) == pytest.approx(1.242164, abs=1e-5)

    def test_rational_file_is_never_realized(self, demo_file, monkeypatch, tmp_path, capsys):
        # the rational oracle scans freq_response of the file as it stands and
        # shares no code with the state space it cross-checks
        def no_realization(tf):
            raise AssertionError("oracle realized a rational system")

        monkeypatch.setattr(cli, "tf_to_ss", no_realization)
        out = tmp_path / "oracle"
        assert main(["oracle", "--system", demo_file, "--out", str(out)]) == 0
        assert "worst-case gain" in capsys.readouterr().out
        data = summary_dict(out / "oracle.csv")
        assert float(data["hinfNorm"]) == pytest.approx(DEMO_PEAK_GAIN, rel=1e-12)

    def test_poles_on_the_unit_circle_exit_1_before_out(self, tmp_path, capsys):
        # an undamped pair whose computed poles round to just inside the unit
        # circle: the file is rejected, not scanned for a huge gain
        path = tmp_path / "unit_circle.txt"
        path.write_text("num = 1\nden = 1, -1.910672978251212, 1\n")
        out = tmp_path / "oracle"
        assert main(["oracle", "--system", str(path), "--out", str(out)]) == 1
        assert "pole magnitudes" in capsys.readouterr().err
        assert not out.exists()

    def test_unit_delay_flat(self, tmp_path):
        path = tmp_path / "delay.txt"
        path.write_text("num = 0, 1\nden = 1\n")
        out = tmp_path / "oracle"
        assert main(["oracle", "--system", str(path), "--grid", "64", "--out", str(out)]) == 0
        data = summary_dict(out / "oracle.csv")
        assert float(data["hinfNorm"]) == pytest.approx(1.0, abs=1e-9)


class TestCrossCommandConsistency:
    def test_estimate_agrees_with_analyze(self, demo_file, tmp_path):
        out_a = tmp_path / "analysis"
        out_e = tmp_path / "estimate"
        assert main(["analyze", "--system", demo_file, "--n", "50", "--out", str(out_a)]) == 0
        code = main([
            "estimate", "--system", demo_file, "--n", "50", "--ideal-plant",
            "--tol", "1e-9", "--max-updates", "20000",
            "--out", str(out_e),
        ])
        assert code == 0
        top = float(summary_dict(out_a / "summary.csv")["lambdaReversedTop"])
        _, rows = read_csv(out_e / "trace.csv")
        assert float(rows[-1][3]) == pytest.approx(top, abs=1e-6)

    def test_sweep_tail_agrees_with_oracle(self, demo_file, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--system", demo_file, "--n-start", "256",
            "--n-doublings", "3", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out / "sweep.csv")
        last = rows[-1]
        assert int(last[0]) == 2048
        assert float(last[4]) < 1e-3


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "--n", "0"], "--n"),
        (["oracle", "--grid", "1"], "--grid"),
        (["sweep", "--grid", "1"], "--grid"),
    ],
    ids=["analyze-n", "oracle-grid", "sweep-grid"],
)
def test_bad_size_exits_1_without_creating_out(argv, flag, low_pass_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--system", low_pass_file, "--out", str(out)]) == 1
    assert f"{flag} must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["analyze", "--n", "2"], ["oracle", "--grid", "2"]], ids=["analyze", "oracle"]
)
def test_near_marginal_system_exits_1_without_traceback(argv, tmp_path, capsys):
    # I - A^N is numerically singular, so the fixed-point solve raises RuntimeError
    path = tmp_path / "marginal.txt"
    path.write_text("A = 0.999999999999999\nB = 1\nC = 1\nD = 0\n")
    out = tmp_path / "out"
    assert main([*argv, "--system", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "marginal" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--grid", "64"],
        ["analyze", "--n", "8"],
        ["sweep", "--n-start", "8", "--n-doublings", "1", "--grid", "64"],
        ["estimate", "--n", "8"],
    ],
    ids=["oracle", "analyze", "sweep", "estimate"],
)
@pytest.mark.parametrize(
    "text",
    ["num = nan\nden = 1, -0.5\n", "A = 0.5\nB = 1\nC = 1\nD = inf\n"],
    ids=["num-nan", "D-inf"],
)
def test_non_finite_system_exits_1(argv, text, tmp_path, capsys):
    path = tmp_path / "plant.txt"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([*argv, "--system", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err and str(path) in err
    assert not out.exists()



@pytest.mark.parametrize("argv, power", [
    (["analyze", "--n", "8"], "A^8"),
    (["oracle", "--grid", "101"], "A^101"),
    (["sweep", "--n-start", "8", "--n-doublings", "0", "--grid", "101"], "A^101"),
    (["estimate", "--n", "8"], "A^8"),
], ids=["analyze", "oracle", "sweep", "estimate"])
def test_an_overflowing_power_exits_1_naming_it(argv, power, tmp_path, capfd):
    # numpy used to warn of an invalid value in matmul, and estimate ran
    # 10,001 probe batches of NaN before it failed on the shift
    path = tmp_path / "chain.txt"
    path.write_text(OVERFLOWING_CHAIN)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--system", str(path), "--out", str(out)]) == 1
    captured = capfd.readouterr()
    assert captured.err == f"error: the powers of A up to {power} overflow float64\n"
    # the run fails before its first write: no report, no output directory
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--n", "8"],
    ["oracle", "--grid", "101"],
    ["sweep", "--n-start", "8", "--n-doublings", "0", "--grid", "101"],
    ["estimate", "--n", "8", "--max-updates", "2"],
], ids=["analyze", "oracle", "sweep", "estimate"])
def test_an_out_naming_a_file_exits_1(argv, low_pass_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main([*argv, "--system", low_pass_file, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.err.count("\n") == 1
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [["analyze", "--n", "8"], ["oracle", "--grid", "101"]],
                         ids=["analyze", "oracle"])
def test_an_empty_out_exits_1(argv, low_pass_file, tmp_path, monkeypatch, capsys):
    # an empty --out names no directory; the run must not write into the
    # working directory instead
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--system", low_pass_file, "--out", ""]) == 1
    assert capsys.readouterr().err == "error: --out names no directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lowpass.txt"]


def test_cached_parser_shares_no_state_between_calls(demo_file, tmp_path, capsys):
    calls = [
        ["estimate", "--system", demo_file, "--max-updates", "ten"],
        ["estimate", "--system", demo_file, "--n", "16", "--seed", "2"],
        ["analyze", "--system", demo_file, "--n", "16"],
    ]

    def run(argv, out):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        printed = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return code, printed.out, printed.err, files

    in_sequence = [run(argv, tmp_path / f"seq{i}") for i, argv in enumerate(calls)]
    fresh = []
    for i, argv in enumerate(calls):
        cli._parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh{i}"))
    assert in_sequence == fresh
    assert [result[0] for result in fresh] == [1, 0, 0]
    assert "invalid int value" in fresh[0][2]
