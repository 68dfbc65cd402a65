"""Data-driven power iterations for worst-case gain estimation.

The reset-free iteration drives a continuously operated plant with a periodic
input, holds each input long enough for the response to settle, then reverses
the measured output in time, adds a shifted copy of the input and renormalizes
to input power one. That realizes a shifted power iteration on the symmetric
row-reversed periodic response matrix, whose dominant eigenvalue is the peak
gain over the batch frequency grid. The plant is never reset: the
classical reset-based iteration it improves on is not run here, and
``spectral.max_gain_reset_based`` gives that baseline's model value.

Each update holds its input until the output settles, for at most
``_MAX_HOLD_BATCHES`` (10) batches: from the hold's second batch on, it
accepts a batch that moved less than 1e-8 from the one before it, or else,
from the fourth on, that batch's extrapolated limit by Aitken's rule for one
geometric transient mode, once it agrees with the previous batch's. The
hold carries its last output, the last two batch changes with their squared
norms and its last limit from batch to batch, so each batch computes its
norm, its change and that change's norm once and no limit is formed twice.
The settle test, ``relative_batch_change``, is defined here next to it.
One start rule waits out a dead time of whole batches: an output within
1e-8 of the previous hold's readout is never accepted. The hold ends at the
first accepted batch or at the hold's cap, and its readout, which its last
trace row and update record carry, is the settled or extrapolated output,
else its last batch. The shift probe and every update hold through this one
loop, ``_hold``, the estimator's only contact with the plant.

Every dot product of a batch, ||y||^2, ||d||^2 and d . d_prev in the hold,
||limit||^2, the readout's u . reverse(y) and each update's ||z||^2, is
``ndarray.dot`` rather than ``@``: both call the same BLAS routine, but
``@`` dispatches through the matmul ufunc first, which on short batches
costs more than the product. The two agree bit for bit on contiguous
operands, which is all they get here (reverse(y) is copied first), but not
on a negatively strided view.

The gain readout ``beta`` is the Rayleigh quotient of the time-reversed
response, u . reverse(y) / N, with the input normalized to power one. At the
converged input this equals the dominant eigenvalue exactly; the shift steers
the iteration but never enters the readout, since the measured output contains
no shift contribution.

The plant contract. A plant is any object with a batch length ``N`` and an
``apply_batch(u)`` that returns a record read by position, the pair
(``j``, ``y``) of the batch index and the measured output, a new array
(``plant.BatchRecord`` is one), and leaves ``u`` alone: a hold keeps
references to its last output and batch change, and an update record keeps
both ``u`` and ``y``. The
estimator reads nothing else from it, and the batch length of every
iteration is the plant's ``N``. A run starts with the plant at rest, or
settled on its start input ``init_input(N, rng_seed)``, as
``select_shift(plant, N, s)`` leaves it for ``rng_seed = s``: the first hold
compares its outputs against rest, so from any other state it can read out
the previous input's output as its own.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lti import _count, _tolerance

__all__ = [
    "PowerIterationConfig",
    "EstimateTrace",
    "EstimationError",
    "init_input",
    "iterate_reset_free",
    "relative_batch_change",
    "select_shift",
]


# relative change at which a held output, or its extrapolated limit, counts as settled
_SETTLE_TOL = 1e-8
# batches past the first that the shift probe holds its input before it gives up
_MAX_PROBE_BATCHES = 10000
# most batches an update holds its input; a hold can settle from its second on
_MAX_HOLD_BATCHES = 10


class EstimationError(RuntimeError):
    """Raised when an iteration cannot proceed (degenerate update vector)."""


@dataclass
class PowerIterationConfig:
    """Knobs of the power iteration.

    shift is the positive scalar added to the reversed response before
    renormalizing, None to probe the plant for a scale; convergence is
    declared when the gain readout moves less than convergence_tol between
    consecutive updates, an absolute tolerance in the plant's gain units,
    not one relative to the gain. rng_seed, a nonnegative integer, seeds
    the random start input and the shift probe. The batch length is the
    plant's N, and a hold's cap is the module's ``_MAX_HOLD_BATCHES``. The
    knobs are checked in this order; counts come back as int.
    """

    shift: float | None = None
    max_updates: int = 1000
    convergence_tol: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        if self.shift is not None:
            # the reversed spectrum comes in +-|lambda| pairs: a negative
            # shift would steer the iteration to the negative end
            _tolerance(self.shift, "shift")
        self.max_updates = _count(self.max_updates, "max_updates", 1)
        _tolerance(self.convergence_tol, "convergence_tol")
        self.rng_seed = _count(self.rng_seed, "rng_seed", 0)


class UpdateRecord(NamedTuple):
    """One update step: the held input, its readout output and that batch's readouts."""

    u: np.ndarray
    y: np.ndarray
    mu: float
    beta: float


@dataclass
class EstimateTrace:
    """Everything an iteration run produced.

    ``rows`` has one entry per applied batch: (update_index, batch_index, mu,
    beta), where mu = ||y|| / sqrt(N) and beta = u . reverse(y) / N.
    ``updates`` has one ``UpdateRecord`` per update step. ``converged`` is
    true when beta moved less than the tolerance between the last two
    updates and the final beta is not negative; a run that stops on the
    tolerance at a negative beta is not converged.
    """

    rows: list = field(default_factory=list)
    updates: list = field(default_factory=list)
    converged: bool = False

    @property
    def estimate(self):
        """Final gain estimate, the beta of the last update."""
        if not self.updates:
            raise ValueError("empty trace has no estimate")
        return self.updates[-1].beta


def init_input(n, rng_seed):
    """Seeded random start vector scaled to input power one (||u||^2 = n)."""
    n = _count(n, "batch length", 1)
    rng = np.random.default_rng(_count(rng_seed, "rng_seed", 0))
    u = rng.standard_normal(n)
    return u * (np.sqrt(n) / np.linalg.norm(u))


def relative_batch_change(y_prev, y_curr):
    """Relative change ||y_curr - y_prev|| / ||y_curr|| between two batch outputs.

    Both are flattened to contiguous float64 first. Two zero batches give
    0.0, and a zero y_curr after a nonzero y_prev gives inf.
    """
    return _relative_change(np.ascontiguousarray(y_prev, dtype=float).reshape(-1),
                            np.ascontiguousarray(y_curr, dtype=float).reshape(-1))


def _relative_change(y_prev, y_curr, yy=None):
    # relative_batch_change of two flat contiguous float64 arrays, which is
    # what every held batch and Aitken limit is; yy, if given, is y_curr . y_curr
    d = y_curr - y_prev
    return _ratio(float(d.dot(d)), float(y_curr.dot(y_curr)) if yy is None else yy)


def _ratio(dd, yy):
    # sqrt(dd) / sqrt(yy) for the squared norms of a change and of its batch:
    # the float np.linalg.norm gives, without its per-call overhead
    diff, scale = math.sqrt(dd), math.sqrt(yy)
    if scale == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / scale


def _limit(y, d, d_prev, dd_prev):
    # Aitken's limit y + d r / (1 - r) of a batch y whose change d follows
    # d_prev, with r = d . d_prev / ||d_prev||^2; None unless -1 < r < 1
    if dd_prev == 0.0:
        return None
    r = float(d.dot(d_prev)) / dd_prev
    return y + d * (r / (1.0 - r)) if -1.0 < r < 1.0 else None


def _hold(plant, u, cap, prev, on_batch=None):
    """Apply ``u`` until its output settles or ``cap`` batches have run.

    From the second batch on, a batch is accepted as measured once its
    relative_batch_change is below 1e-8. Otherwise, from the fourth on, the
    batch is extrapolated to its limit y_j + d_j r / (1 - r), where d_j is
    its change and r = d_j . d_{j-1} / ||d_{j-1}||^2 the contraction
    (Aitken's rule, exact for a single geometric transient mode), and the
    limit is accepted when the previous batch's agrees with it to 1e-8. An
    output within 1e-8 of ``prev``, the previous hold's readout (rest
    before a run's first hold, by the plant contract), is not accepted: a
    dead time of whole batches still shows it and is waited out.

    The hold carries its last output, the last two batch changes with their
    squared norms, and its last Aitken limit, so each batch computes ||y||^2,
    its change and that change's ||d||^2 once and no limit is formed twice.
    ``on_batch``, if given, sees every batch record and its ||y||^2 as they
    arrive. Returns (y, change): the settled or extrapolated output and
    None, or, for a hold that did not settle, its last batch and that
    batch's relative_batch_change. ``cap`` is at least 2.
    """
    y = d1 = dd1 = d2 = dd2 = limit = limit_at = None
    for k in range(cap):
        record = plant.apply_batch(u)
        y_last, y = y, record[1]
        yy = float(y.dot(y))
        if on_batch is not None:
            on_batch(record, yy)
        if k == 0:
            continue
        d = y - y_last
        dd = float(d.dot(d))
        change = _ratio(dd, yy)
        readout = None
        if change < _SETTLE_TOL:
            readout = y
        elif k >= 3:
            # batch k - 1 formed its limit unless it was accepted as measured
            prev_limit = limit if limit_at == k - 1 else _limit(y_last, d1, d2, dd2)
            limit, limit_at = _limit(y, d, d1, dd1), k
            if prev_limit is not None and limit is not None:
                ll = float(limit.dot(limit))
                if _relative_change(prev_limit, limit, ll) < _SETTLE_TOL:
                    readout, yy = limit, ll
        if readout is not None and _relative_change(prev, readout, yy) >= _SETTLE_TOL:
            return readout, None
        d2, dd2, d1, dd1 = d1, dd1, d, dd
    return y, change


def iterate_reset_free(plant, config):
    """Shifted power iteration on a continuously operated plant.

    Holds the current input through ``_hold`` until its output settles, for
    at most ``_MAX_HOLD_BATCHES`` batches, with the previous hold's readout as
    ``prev``; every batch gives a trace row of its own readouts. The hold's
    readout y (the settled or extrapolated output, else its last batch)
    gives its ``UpdateRecord``, an extrapolated one also the readouts of the
    hold's last row. Then z = reverse(y) + shift * u is renormalized to input
    power one; a z that vanishes, or whose norm overflows, raises
    ``EstimationError``. With a positive shift of roughly the plant's peak
    gain the iterate settles on the positive dominant eigendirection instead
    of flipping sign every step; ``config.shift`` None probes the plant for
    one. Stops when beta moves less than the tolerance between updates, or
    flags the trace as non-converged at max_updates. A run that stops on
    the tolerance with a negative final beta is not converged either: that
    readout is an eigenvalue at the bottom of the reversed spectrum, not a
    gain. The plant must meet the module's plant contract, start state
    included.
    """
    n = plant.N
    shift = config.shift
    if shift is None:
        shift = select_shift(plant, n, config.rng_seed)

    trace = EstimateTrace()
    u = init_input(n, config.rng_seed)
    sqrt_n = math.sqrt(n)
    beta_prev = last = None
    y = np.zeros(n)

    def on_batch(record, yy):
        # mu = sqrt(y . y) / sqrt(N), the float np.linalg.norm(y) / sqrt(N)
        # gives, and beta = u . reverse(y) / N
        nonlocal last
        j, last = record
        trace.rows.append((update, j, math.sqrt(yy) / sqrt_n, float(u.dot(last[::-1].copy())) / n))

    for update in range(1, config.max_updates + 1):
        y, _ = _hold(plant, u, _MAX_HOLD_BATCHES, y, on_batch)
        if y is not last:  # an extrapolated readout replaces the hold's last row
            on_batch((trace.rows.pop()[1], y), float(y.dot(y)))
        mu, beta = trace.rows[-1][2:]
        trace.updates.append(UpdateRecord(u, y, mu, beta))
        if beta_prev is not None and abs(beta - beta_prev) < config.convergence_tol:
            # a negative readout is the reversed spectrum's bottom end, not a gain
            trace.converged = beta >= 0.0
            break
        beta_prev = beta
        # an overflow is reported below as an EstimationError, not warned of
        with np.errstate(over="ignore"):
            z = y[::-1] + shift * u
            z_norm = math.sqrt(float(z.dot(z)))
        if z_norm == 0.0:
            raise EstimationError(
                "update vector vanished: the reversed response exactly cancels "
                "the shifted input; retry with a different shift or seed"
            )
        if not math.isfinite(z_norm):
            raise EstimationError(f"update vector overflowed; retry with a shift below {shift!r}")
        u = z * (sqrt_n / z_norm)
    return trace


def select_shift(plant, n, rng_seed=0):
    """Probe the plant once to pick a shift of the right order of magnitude.

    Holds ``init_input(n, rng_seed)`` through ``_hold``, starting at rest by
    the plant contract, and returns the gain ||y|| / ||u|| of its readout.
    The input is held until ``_hold`` accepts (a batch that moved less
    than 1e-8, relative, from the one before, or two extrapolated limits
    that agree to 1e-8), or for 10,000 batches past the first, after which
    it warns and uses the last batch. Every rule is
    relative, so scaling the plant's output scales the shift by the same
    factor. The gain only sets the scale of the shift; it is not a bounded
    estimate of the settled gain. A zero probe output falls back to 1.0
    with a warning. A settled probe leaves the plant where a run with the
    same ``rng_seed`` may start.
    ``n`` must be the plant's batch length, else ValueError before a batch
    is applied.
    """
    if n != plant.N:
        raise ValueError(f"probe length {n!r} differs from the plant's batch length {plant.N}")
    u = init_input(n, rng_seed)
    y, change = _hold(plant, u, _MAX_PROBE_BATCHES + 1, np.zeros(n))
    if change is not None and y.any():
        warnings.warn(
            f"shift probe did not settle within {_MAX_PROBE_BATCHES} batches "
            f"(last relative_batch_change {change:.3g}); using the unsettled gain"
        )
    gain = float(np.linalg.norm(y) / np.linalg.norm(u))
    if gain == 0.0:
        warnings.warn("probe batch produced zero output; falling back to shift 1.0")
        return 1.0
    return gain
