"""Spans around the calls the CLI makes into each peakgain module.

The traced pass runs every job through ``cli.main`` again with the module
functions that ``peakgain.cli`` imported replaced by wrappers that record a
span per call, so the calls happen in exactly the order the subcommand makes
them. The plant session is replaced by a proxy with the same ``N``, ``mode``
and ``apply_batch``, which times every batch and follows the estimator's
holds. Nothing inside ``src/peakgain`` is changed.
"""

import contextlib
import statistics
import time
import tracemalloc

from peakgain import cli, relative_batch_change

# names imported into peakgain.cli that are wrapped; the span is named
# <module>.<function>, hinf_peak additionally by the system form it is given
WRAPPED = (
    "parse_system_file",
    "tf_to_ss",
    "hinf_peak",
    "circulant_coefficients",
    "lift",
    "periodic_response_matrix",
    "circulant_eigenvalues",
    "reversed_spectrum",
    "diagonalization_residual",
    "max_gain_reset_based",
    "select_shift",
    "iterate_reset_free",
)
FORMS = {"StateSpace": "ss", "RationalTransferFunction": "tf"}
# spans whose peak traced allocation is recorded
PEAK_MEMORY = (
    "lifting.lift",
    "spectral.circulant_eigenvalues",
    "spectral.max_gain_reset_based",
    "spectral.diagonalization_residual",
    "spectral.reversed_spectrum",
)
SPAN_NAMES = (
    "cli.analyze",
    "cli.sweep",
    "cli.oracle",
    "cli.estimate",
    "lti.parse_system_file",
    "lti.tf_to_ss",
    "lti.hinf_peak.ss",
    "lti.hinf_peak.tf",
    "lifting.lift",
    "lifting.periodic_response_matrix",
    "lifting.circulant_coefficients",
    "spectral.circulant_eigenvalues",
    "spectral.max_gain_reset_based",
    "spectral.diagonalization_residual",
    "spectral.reversed_spectrum",
    "plant.apply_batch",
    "estimator.select_shift",
    "estimator.iterate_reset_free",
)


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, job index].

    With ``measure_peaks`` the PEAK_MEMORY calls run under tracemalloc, which
    slows allocation-heavy code severalfold, so such a tracer is kept apart
    from the one whose times are reported.
    """

    def __init__(self, measure_peaks=False):
        self.measure_peaks = measure_peaks
        self.spans = []
        self.job = None
        self.plants = []
        self.peak_bytes = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call_with_peak(self, name, fn, args, kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            if started:
                tracemalloc.stop()
            self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            span_name = name
            if fn.__name__ == "hinf_peak":
                span_name = f"{name}.{FORMS[type(args[0]).__name__]}"
            with self.span(span_name):
                if self.measure_peaks and span_name in PEAK_MEMORY:
                    return self.call_with_peak(span_name, fn, args, kwargs)
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the module functions peakgain.cli calls; restore them on exit."""
        originals = {name: getattr(cli, name) for name in WRAPPED + ("new_session",)}
        new_session = originals["new_session"]

        def traced_new_session(*args, **kwargs):
            proxy = PlantProxy(new_session(*args, **kwargs), self)
            self.plants.append(proxy)
            return proxy

        try:
            for name in WRAPPED:
                setattr(cli, name, self._wrap(originals[name]))
            cli.new_session = traced_new_session
            yield self
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)
            for plant in self.plants:
                plant.close_hold()


class PlantProxy:
    """Stands in for a plant session: same N, mode and apply_batch, timed and counted.

    Batches inside ``estimator.select_shift`` are probe batches. Inside the
    iteration, the batches applied with one input array form a hold: the
    input is compared by identity, since a converged update can reproduce the
    previous input bit for bit. The last batch of a hold is its readout, and
    the settle residual of that readout is the relative change between the
    hold's last two outputs.
    """

    def __init__(self, plant, tracer):
        self._plant = plant
        self._tracer = tracer
        self.N = plant.N
        self.mode = plant.mode
        self.job = tracer.job
        self.probe_batches = 0
        self.iterate_batches = 0
        self.updates = 0
        self.settle_residuals = []
        self._hold_u = None
        self._prev_y = None
        self._residual = None

    @property
    def batch_counter(self):
        return self._plant.batch_counter

    def apply_batch(self, u):
        in_probe = self._tracer.current() == "estimator.select_shift"
        with self._tracer.span("plant.apply_batch"):
            record = self._plant.apply_batch(u)
        if in_probe:
            self.probe_batches += 1
        else:
            self.iterate_batches += 1
            self._follow_hold(u, record.y)
        return record

    def _follow_hold(self, u, y):
        if u is self._hold_u:
            self._residual = relative_batch_change(self._prev_y, y)
        else:
            self.close_hold()
            self._hold_u = u
        self._prev_y = y

    def close_hold(self):
        if self._hold_u is None:
            return
        self.updates += 1
        if self._residual is not None:
            self.settle_residuals.append(self._residual)
        self._hold_u = None
        self._residual = None

    @property
    def batches(self):
        return self.probe_batches + self.iterate_batches


def check_replay(untraced, traced, tracer):
    """The traced pass must apply exactly the batches and updates the CLI printed."""
    plants = {plant.job: plant for plant in tracer.plants}
    for index, (before, after) in enumerate(zip(untraced, traced)):
        if before.job.command != "estimate" or "batches" not in before.values:
            continue
        plant = plants.get(index)
        seen = (plant.batches, plant.updates) if plant else (0, 0)
        printed = (before.values["batches"], before.values["updates"])
        if seen != printed:
            after.problems.append(
                f"traced replay saw batches/updates {seen}, CLI printed {printed}")


def span_stats(spans):
    """{name: [calls, total seconds, self seconds]}; self excludes child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[i]
    return stats


def layer_metrics(tracer, peaks, jobs, traced_walls, untraced_wall, csv_bytes):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``peaks`` is the tracer that measured peak memory. ``traced_walls`` are
    the job wall times of the traced pass, measured around each CLI call;
    ``untraced_wall`` is the same jobs' total wall time with tracing off.
    """
    stats = span_stats(tracer.spans)
    metrics = {}
    for name in SPAN_NAMES:
        calls, total, self_time = stats.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (total, "s")
        metrics[f"{name}.self_s"] = (self_time, "s")
    metrics["cli.csv_bytes"] = (csv_bytes, "bytes")
    for name in PEAK_MEMORY:
        metrics[f"{name}.peak_mb"] = (peaks.peak_bytes.get(name, 0) / 2**20, "MB")

    per_n = {}
    for name, start, end, _, job in tracer.spans:
        if name == "plant.apply_batch":
            entry = per_n.setdefault(jobs[job].n, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
    for n in (50, 256):
        count, total = per_n.get(n, (0, 0.0))
        metrics[f"plant.apply_batch.us_per_batch.N{n}"] = (1e6 * total / max(count, 1), "us")
    estimate_s = stats.get("cli.estimate", (0, 0.0, 0.0))[1]
    plant_s = stats.get("plant.apply_batch", (0, 0.0, 0.0))[1]
    metrics["plant.share"] = (plant_s / estimate_s if estimate_s else 0.0, "1")

    plants = tracer.plants
    batches = sum(p.batches for p in plants)
    updates = sum(p.updates for p in plants)
    residuals = [r for p in plants for r in p.settle_residuals]
    metrics["estimator.select_shift.batches"] = (sum(p.probe_batches for p in plants), "count")
    metrics["estimator.updates"] = (updates, "count")
    metrics["estimator.readout_batches"] = (updates, "count")
    metrics["estimator.hold_batches"] = (sum(p.iterate_batches for p in plants) - updates, "count")
    metrics["estimator.readout_ratio"] = (updates / batches if batches else 0.0, "1")
    metrics["estimator.settle_residual_p50"] = (
        statistics.median(residuals) if residuals else 0.0, "1")

    traced_wall = sum(traced_walls)
    self_total = sum(entry[2] for entry in stats.values())
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall, "1")
    metrics["trace.coverage"] = (self_total / traced_wall, "1")
    return metrics


def layer_table(tracer):
    """Lines of a per-layer table of self times, largest layer first."""
    stats = span_stats(tracer.spans)
    layers = {}
    for name, (calls, total, self_time) in stats.items():
        layers.setdefault(name.split(".", 1)[0], []).append((self_time, total, calls, name))
    order = sorted(layers, key=lambda layer: -sum(row[0] for row in layers[layer]))
    lines = [f"{'span':<40} {'calls':>8} {'total s':>10} {'self s':>10}"]
    for layer in order:
        rows = sorted(layers[layer], reverse=True)
        lines.append(f"{layer + ' (layer)':<40} {sum(r[2] for r in rows):>8} "
                     f"{'':>10} {sum(r[0] for r in rows):>10.4f}")
        for self_time, total, calls, name in rows:
            lines.append(f"  {name:<38} {calls:>8} {total:>10.4f} {self_time:>10.4f}")
    return lines
