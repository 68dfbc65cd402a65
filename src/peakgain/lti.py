"""Discrete-time SISO LTI systems.

State-space and rational transfer-function representations, frequency
response, a grid-based worst-case gain oracle, and the plain-text system
file format used by the command line tools.
"""

import math
import numbers

import numpy as np

__all__ = [
    "StateSpace",
    "RationalTransferFunction",
    "SystemSpecError",
    "tf_to_ss",
    "freq_response",
    "hinf_peak",
    "parse_system_file",
    "parse_system_text",
]


# an upper bound on the spectral radius below this certifies a stable A
_STABLE_BELOW = 1.0 - 1e-12
# relative change between Gelfand estimates at which _gelfand stops, and the
# most squarings it runs before it gives up
_GELFAND_TOL = 1e-10
_MAX_SQUARINGS = 200
# hinf_peak's refinement: the golden-section fraction (3 - sqrt 5) / 2, the
# relative part of its stop tolerance, and its evaluation cap
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_BRENT_MAX_STEPS = 100


def _count(value, name, low):
    """Check a count: an integer (numpy integers included, bool not) of at least low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        kind = "a nonnegative integer" if low == 0 else "an integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return int(value)


def _tolerance(value, name):
    """Check a tolerance, or another positive knob: a real number that is positive and finite.

    numpy floats and integers count as real numbers, bool does not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _samples(v, N, what):
    """Check a sample vector: N finite samples, returned as a flat float array."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != N:
        raise ValueError(f"{what} must have length {N}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite (NaN or inf sample)")
    return v


def _gelfand(A, accept_below):
    # Spectral radius of a square matrix by normalized repeated squaring: the
    # Gelfand sequence ||A^(2^k)||_F^(1/2^k), with the running power
    # renormalized after every squaring so it cannot overflow. It stops once
    # two estimates agree to 1e-10 relative (RuntimeError after 200
    # squarings), or early at its first estimate below accept_below: each
    # estimate is an upper bound on the spectral radius and does not
    # increase with k, except that rounding in the squarings can raise it by
    # about n eps in all
    P = np.array(A, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {P.shape}")
    acc = 0.0
    weight = 1.0
    est_prev = None
    for _ in range(_MAX_SQUARINGS):
        t = float(np.linalg.norm(P))
        if t == 0.0:
            # an exact zero power means a nilpotent (or 0 x 0) matrix
            return 0.0
        if not math.isfinite(t):
            raise RuntimeError("spectral radius iteration produced a non-finite norm")
        acc += weight * math.log(t)
        est = math.exp(acc)
        if est < accept_below:
            return est
        if est_prev is not None and abs(est - est_prev) <= _GELFAND_TOL * max(est, 1e-300):
            return est
        est_prev = est
        Q = P / t
        P = Q @ Q
        weight *= 0.5
    raise RuntimeError(
        f"spectral radius estimate did not converge within {_MAX_SQUARINGS} squarings"
    )


class StateSpace:
    """State-space recursion x(k+1) = A x(k) + B u(k), y(k) = C x(k) + D u(k).

    Single input, single output: A is n-by-n, B and C hold n entries each and
    D is a scalar. Every coefficient must be finite and the state matrix
    strictly stable (spectral radius below one). Instances are value objects:
    nothing mutates them after construction, so they can be shared freely
    across threads.
    """

    def __init__(self, A, B, C, D):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.asarray(B, dtype=float).reshape(-1)
        C = np.asarray(C, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if B.shape != (n,):
            raise ValueError(f"B must hold {n} entries, got {B.shape}")
        if C.shape != (n,):
            raise ValueError(f"C must hold {n} entries, got {C.shape}")
        self.A, self.B, self.C, self.D = A, B, C, float(D)
        for name in "ABCD":
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has non-finite entries")
        # stops at the first upper bound on the spectral radius that is
        # below one by more than rounding can move it; an unstable A runs to
        # the converged spectral radius
        rho = _gelfand(A, _STABLE_BELOW)
        if rho >= 1.0:
            raise ValueError(
                f"unstable state matrix: spectral radius {rho:.8g} is not < 1"
            )

    @property
    def n(self):
        """State dimension."""
        return self.A.shape[0]

    def __repr__(self):
        return f"StateSpace(n={self.n})"


class RationalTransferFunction:
    """Rational z-domain system num(z^-1)/den(z^-1) times a pure delay z^-d.

    Coefficients are finite, in powers of z^-1 from the constant term. The
    denominator needs a nonzero leading coefficient and all its roots (poles)
    of magnitude below 1 - 1e-12, the bound below which a ``StateSpace`` is
    accepted as stable at once: computed roots of a pole pair on the unit
    circle can round to just inside it. ``delay`` is a nonnegative integer
    sample count (numpy integers included, bool not).
    """

    def __init__(self, num, den, delay=0):
        num = tuple(float(c) for c in num)
        den = tuple(float(c) for c in den)
        if not num:
            num = (0.0,)
        if not all(map(math.isfinite, num + den)):
            raise ValueError(f"non-finite coefficient in num {num} or den {den}")
        if not den or den[0] == 0.0:
            raise ValueError("denominator must have a nonzero leading coefficient")
        delay = _count(delay, "delay", 0)
        if len(den) > 1:
            mags = np.abs(np.roots(den))
            bad = np.sort(mags[mags >= _STABLE_BELOW])[::-1]
            if bad.size:
                listing = ", ".join(f"{m:.8g}" for m in bad)
                raise ValueError(
                    f"unstable denominator: pole magnitudes not < 1: {listing}"
                )
        self.num = num
        self.den = den
        self.delay = delay

    def __repr__(self):
        return (
            f"RationalTransferFunction(num={self.num}, den={self.den}, "
            f"delay={self.delay})"
        )


def tf_to_ss(tf):
    """Realize a rational transfer function as a StateSpace.

    The rational part goes into controllable canonical form; the pure delay is
    appended as a chain of ``delay`` extra states feeding the output. The
    realization reproduces the transfer function's impulse response exactly
    (up to rounding), which the test suite pins against long division.
    """
    if not isinstance(tf, RationalTransferFunction):
        raise TypeError("tf_to_ss expects a RationalTransferFunction")
    order = max(len(tf.num), len(tf.den)) - 1
    a = np.zeros(order + 1)
    a[: len(tf.den)] = tf.den
    b = np.zeros(order + 1)
    b[: len(tf.num)] = tf.num
    b = b / a[0]
    a = a / a[0]
    Ar = np.eye(order, k=-1)
    Ar[:1, :] = -a[1:]
    Br = np.zeros(order)
    Br[:1] = 1.0
    Cr = b[1:] - b[0] * a[1:]
    Dr = b[0]
    d = tf.delay
    if d == 0:
        return StateSpace(Ar, Br, Cr, Dr)
    nt = order + d
    A = np.zeros((nt, nt))
    A[:order, :order] = Ar
    A[order, :order] = Cr  # first delay state latches the rational output
    for i in range(d - 1):
        A[order + 1 + i, order + i] = 1.0
    B = np.zeros(nt)
    B[:order] = Br
    B[order] = Dr
    C = np.zeros(nt)
    C[nt - 1] = 1.0
    return StateSpace(A, B, C, 0.0)


def freq_response(sys, omega):
    """Frequency response evaluated at z = exp(j*omega).

    ``omega`` is in radians per sample and may be a scalar or an array; the
    response is 2*pi periodic, so negative frequencies are fine. Both system
    representations agree to rounding, which the tests check. ``omega``
    must be finite, else ValueError.
    """
    om = np.asarray(omega, dtype=float)
    if not np.isfinite(om).all():
        raise ValueError("omega must be finite (NaN or inf frequency)")
    scalar = om.ndim == 0
    om = np.atleast_1d(om)
    if isinstance(sys, RationalTransferFunction):
        zi = np.exp(-1j * om)
        numv = np.polyval(sys.num[::-1], zi)
        denv = np.polyval(sys.den[::-1], zi)
        vals = zi**sys.delay * numv / denv
    elif isinstance(sys, StateSpace):
        vals = np.empty(om.shape, dtype=complex)
        response = _ss_response(sys)
        for i, w in enumerate(om):
            vals[i] = response(w)
    else:
        raise TypeError(f"unsupported system type {type(sys).__name__}")
    return complex(vals[0]) if scalar else vals


def _ss_response(sys):
    # w -> D + C (e^{jw} I - A)^-1 B for a StateSpace and one finite float w,
    # with the identity and the complex B built once for all calls
    eye = np.eye(sys.n)
    Bc = sys.B.astype(complex)

    def response(w):
        z = complex(math.cos(w), math.sin(w))
        return sys.D + sys.C @ np.linalg.solve(z * eye - sys.A, Bc)

    return response


def hinf_peak(sys, grid_size=100001):
    """Worst-case gain and its frequency: dense grid plus local refinement.

    A real system's gain is even in omega, so of the ``grid_size`` uniform
    frequencies 2*pi*m/N over [0, 2*pi) only the N // 2 + 1 in [0, pi] are
    scanned. The winning grid point is evaluated again directly, then
    refined by Brent's method (golden section guarded by successive
    parabolic interpolation) inside one grid step on either side of it. It
    stops by Brent's rule, once the best point x is within 2 tol - (b - a)/2
    of the bracket's midpoint, tol = sqrt(eps) |x| + 1e-12. That takes 5 to
    9 direct evaluations on a peak, whether it lies between grid points or
    at 0 or pi, and about 55 on a response flat across the bracket, such as
    a static gain. Every reported value is an actual response magnitude,
    replaced only by a strictly larger one, so the result is a lower bound
    on the true supremum and a static gain returns omega 0. Returns
    ``(gain, omega)``, omega within one grid step of [0, pi].

    A rational system's grid is its ``freq_response``. A StateSpace grid is
    the real FFT of the circulant coefficients over N = ``grid_size``
    samples, whose bin m is the response at 2*pi*m/N. Their N + 1 Markov
    parameters take O(512 n^2 + N n) for n states: ``lifting`` runs 512
    baby steps and N/512 giant steps and joins them in one matrix product.
    At the default grid and a few dozen states the length-N FFT is most of
    the cost, and the refinement little.

    ``grid_size`` must be an integer (numpy integers included, bool not) of
    at least 2, else ValueError.
    """
    N = _count(grid_size, "grid_size", 2)
    span = 2.0 * np.pi / N
    om = np.arange(N // 2 + 1) * span
    if isinstance(sys, StateSpace):
        from .lifting import circulant_coefficients  # lifting imports this module

        mag = np.abs(np.fft.rfft(circulant_coefficients(sys, N)))
        response = _ss_response(sys)
    else:
        mag = np.abs(freq_response(sys, om))

        def response(w):
            return freq_response(sys, w)

    def f(w):
        return abs(complex(response(w)))

    best_w = float(om[int(np.argmax(mag))])
    return _brent_max(f, best_w - span, best_w + span, best_w, f(best_w))


def _brent_max(f, a, b, x, fx):
    # Brent's localmin (Algorithms for Minimization without Derivatives,
    # 1973, ch. 5) run on -f over [a, b] from x, whose value fx is given.
    # x moves only to a strictly larger value, so it is always the first
    # point evaluated at the largest value seen: the returned (fx, x) is an
    # actual evaluation, and a constant f returns the start. Stops when
    # |x - m| <= 2 tol - (b - a) / 2 for the midpoint m, tol =
    # sqrt(eps) |x| + 1e-12, or after _BRENT_MAX_STEPS evaluations
    v = w = x
    fv = fw = fx
    d = e = 0.0
    for _ in range(_BRENT_MAX_STEPS):
        m = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + 1e-12
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(e) > tol:
            # parabola through (v, fv), (w, fw), (x, fx): its vertex is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if (x + d) - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu > fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return fx, x


class SystemSpecError(ValueError):
    """Raised when a system file cannot be parsed or validated."""


# each form's keys; a missing required key is named in this order
_TF_KEYS = ("num", "den", "delay")
_SS_KEYS = ("A", "B", "C", "D")


def _parse_reals(text, where):
    # float skips the whitespace around a number itself, so a row whose
    # pieces are all numbers is converted once, unstripped. A blank piece or
    # a bad one fails that, and the row is then taken piece by piece:
    # stripped, blank ones skipped, and the first bad one named. That also
    # accepts the few pieces that str.strip trims but float does not (an
    # ASCII unit separator at either end)
    pieces = text.replace(";", ",").split(",")
    try:
        out = [float(piece) for piece in pieces]
    except ValueError:
        out = []
        for piece in pieces:
            piece = piece.strip()
            if not piece:
                continue
            try:
                out.append(float(piece))
            except ValueError:
                raise SystemSpecError(f"{where}: not a number: {piece!r}") from None
    if not out:
        raise SystemSpecError(f"{where}: empty value")
    return out


def _parse_rows(text, where):
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        rows.append(_parse_reals(part, where))
    if not rows:
        raise SystemSpecError(f"{where}: empty value")
    return rows


def parse_system_text(text, name="<system>"):
    """Parse the plain-text system format.

    One ``key = value`` pair per line; ``#`` starts a comment. Either the
    rational form is given with ``num``/``den`` (comma-separated coefficients
    of increasing powers of z^-1) and an optional integer ``delay``, or a
    state-space form with ``A`` (semicolon-separated rows of comma-separated
    entries), ``B``, ``C`` (one row or column of n entries) and scalar ``D``.
    Returns a RationalTransferFunction or a StateSpace. Errors carry the
    offending line number.
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemSpecError(f"{name}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _TF_KEYS + _SS_KEYS:
            raise SystemSpecError(f"{name}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise SystemSpecError(f"{name}:{lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)

    rational = sorted(entries.keys() & _TF_KEYS)
    state_space = sorted(entries.keys() & _SS_KEYS)
    if rational and state_space:
        raise SystemSpecError(
            f"{name}: mixes rational keys {rational} with state-space keys {state_space}"
        )
    if not entries:
        raise SystemSpecError(f"{name}: no system definition found")
    for required in ("num", "den") if rational else _SS_KEYS:
        if required not in entries:
            raise SystemSpecError(f"{name}: missing required key {required!r}")
    if rational:
        num = _parse_reals(entries["num"][1], f"{name}:{entries['num'][0]}")
        den = _parse_reals(entries["den"][1], f"{name}:{entries['den'][0]}")
        delay = 0
        if "delay" in entries:
            lineno, value = entries["delay"]
            try:
                delay = int(value.strip())
            except ValueError:
                raise SystemSpecError(
                    f"{name}:{lineno}: delay must be an integer, got {value!r}"
                ) from None
        try:
            return RationalTransferFunction(num, den, delay)
        except ValueError as exc:
            raise SystemSpecError(f"{name}: {exc}") from None
    A = _parse_rows(entries["A"][1], f"{name}:{entries['A'][0]}")
    widths = {len(row) for row in A}
    if len(widths) != 1:
        raise SystemSpecError(
            f"{name}:{entries['A'][0]}: rows of A have inconsistent lengths"
        )
    B = _parse_reals(entries["B"][1], f"{name}:{entries['B'][0]}")
    C = _parse_reals(entries["C"][1], f"{name}:{entries['C'][0]}")
    D = _parse_reals(entries["D"][1], f"{name}:{entries['D'][0]}")
    if len(D) != 1:
        raise SystemSpecError(f"{name}:{entries['D'][0]}: D must be a single scalar")
    try:
        return StateSpace(A, B, C, D[0])
    except ValueError as exc:
        raise SystemSpecError(f"{name}: {exc}") from None


def parse_system_file(path):
    """Read and parse a system file; see parse_system_text for the grammar."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_system_text(text, name=str(path))
