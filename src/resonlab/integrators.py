"""Time integration of the full rotated system and of its averaged limit.

Both systems share the stiff diagonal -mu lambda_k, handled exactly through
exponential (Lawson) schemes:

    full       da/dtau = -mu Lambda a + Y(a, tau / epsilon)      [+ noise]
    effective  da/dtau = -mu Lambda a + R(a)                     [+ B dbeta]

Deterministic runs use a Lawson RK4 step by default; stochastic runs use an
exponential Euler-Maruyama step.  Every run, single or ensemble, goes through
one batched driver, so a zero-amplitude stochastic run is bitwise identical to
the deterministic "expeuler" scheme.  Runs take the averaged drift they
integrate or track the disparity against (a fields.ResonantDrift or
QuadratureDrift, built by the caller and reused across runs); nothing here
builds one.  Noisy runs of both systems take the full system's NoiseModel, whose
resonant average (resonance.build_diffusion) is the effective run's diffusion B.
Complex noise follows the convention E|beta_l(tau)|^2 = 2 tau (independent
standard real and imaginary parts).
A stochastic run draws its normals ahead in one forked producer process that
shares the noise buffer with it (_NoiseStream).  The buffer is step-major and
complex, so each step's normals are one contiguous (members, modes) block that
the driver reads in place.
"""

from dataclasses import dataclass, fields
import math
import mmap
import signal

import numpy as np

from .errors import BlowUpError, ConfigError, EnsembleError
from .fields import Field, eval_Y
from .resonance import build_diffusion
from .spectral import mode_vector

SCHEMES = ("lawson4", "expeuler")
NOISE_CONVENTION = "E|beta_l(tau)|^2 = 2 tau"
_NOISE_BYTES = 1 << 22  # bytes of normals one refill of the noise buffer may hold
_NOISE_BLOCK = 64  # members drawn into the contiguous scratch at a time
_KEY_BITS = 128  # a Philox key is a 128-bit integer


@dataclass(frozen=True)
class SolverConfig:
    """Integration parameters in slow time tau.

    dt is the requested step; full-system runs refine it to
    min(dt, theta_osc * epsilon / max(1, lambda_max)) so the fastest rotation
    stays resolved.  The blow-up guard aborts a trajectory once its Sobolev
    norm of order blow_up_norm exceeds blow_up_factor * (initial norm + 1).
    """

    epsilon: float
    tau_end: float
    dt: float = 1e-2
    scheme: str = "lawson4"
    theta_osc: float = 0.2
    samples: int = 101
    blow_up_factor: float = 100.0
    blow_up_norm: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "tau_end", "dt"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not (self.theta_osc > 0):
            raise ConfigError("theta_osc must be positive")
        if int(self.samples) < 2:
            raise ConfigError("need at least two sample times")
        if not (self.blow_up_factor > 1):
            raise ConfigError("blow_up_factor must exceed 1")
        if not (self.blow_up_norm >= 0):
            raise ConfigError("blow_up_norm must be >= 0")

    def sample_taus(self):
        return np.linspace(0.0, self.tau_end, int(self.samples))

    def to_document(self):
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["samples"] = int(self.samples)
        return doc

    @staticmethod
    def from_document(doc):
        return SolverConfig(**doc)


def oscillation_step(config, eigenvalues):
    """Slow-time step resolving the fastest phase of the rotated field."""
    span = max(1.0, float(np.max(np.abs(eigenvalues))))
    return min(config.dt, config.theta_osc * config.epsilon / span)


@dataclass
class Trajectory:
    """Sampled mode coordinates of a single run (interaction representation)."""

    taus: np.ndarray
    states: np.ndarray          # (samples, modes) complex
    scheme: str
    epsilon: float | None = None   # None marks an effective-equation run
    seed: int | None = None
    frame_hash: str | None = None
    noise_doc: dict | None = None
    disparity_max: np.ndarray | None = None  # running max of |gap integral|
    meta: dict | None = None

    def actions(self):
        return 0.5 * np.abs(self.states) ** 2

    def final_state(self):
        return self.states[-1]


# -- noise ------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Per-basis-function noise amplitudes b_l (canonical trigonometric order)."""

    amplitudes: tuple

    def __post_init__(self):
        b = tuple(float(x) for x in self.amplitudes)
        if any(x < 0 or not math.isfinite(x) for x in b):
            raise ConfigError("noise amplitudes must be finite and >= 0")
        object.__setattr__(self, "amplitudes", b)

    @staticmethod
    def zero(modes):
        return NoiseModel((0.0,) * int(modes))

    @staticmethod
    def from_eigenvalue_power(eigenvalues, power):
        """b_k = lambda_k^{-power}; modes with lambda_k <= 0 get b = 0."""
        lam = np.asarray(eigenvalues, dtype=float)
        b = np.zeros_like(lam)
        mask = lam > 0
        b[mask] = lam[mask] ** -float(power)
        return NoiseModel(tuple(b))

    @property
    def is_zero(self):
        return all(x == 0.0 for x in self.amplitudes)

    def array(self, frame):
        """The amplitudes, refused unless there is one per mode of the frame."""
        b = np.asarray(self.amplitudes, dtype=float)
        if b.shape != (frame.modes,):
            raise ConfigError(f"noise has {b.size} amplitudes, the frame has {frame.modes} modes")
        return b

    def to_document(self):
        return {"amplitudes": list(self.amplitudes), "convention": NOISE_CONVENTION}

    @staticmethod
    def from_document(doc):
        return NoiseModel(tuple(doc["amplitudes"]))


def check_seed(seed, name, keys=None):
    """seed as an int, refused unless it is a non-negative integer (a bool is not);
    the base of `keys` member streams must also keep seed + keys - 1 a Philox key."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    if keys is not None and seed + keys - 1 >= 2 ** _KEY_BITS:
        raise ConfigError(f"{name} + {keys - 1} must be below 2**{_KEY_BITS}, "
                          f"the Philox key range, got {name} = {seed}")
    return seed


class _NoiseStream:
    """Per-member Philox generators, drawn in step blocks of a bounded buffer.

    Member i always consumes its stream in the same order (2 * modes normals
    per step: the real parts, then the imaginary ones), so a member integrated
    alone reproduces its batch trajectory, and how the steps are split into
    refills does not change a single draw.  steps_left is the number of steps
    the run still takes; _drive sets it, so no refill draws past the run's end.

    The buffer holds (steps, members, modes) complex normals, at most
    _NOISE_BYTES, or one step when a step is larger, so next_step() hands out
    each step as a contiguous view.  Philox only fills contiguous arrays, so a
    fill draws _NOISE_BLOCK members at a time into a scratch of
    (block, steps, 2, modes) and writes its real and imaginary parts into the
    buffer with one transposed assignment each.  The buffer is an anonymous
    shared mmap, split into two halves along the step axis.  The caller draws
    the first half itself and then forks one producer process, which draws
    every later step: while the caller consumes one half, the producer
    refills the other.  Each swap waits for the producer's acknowledgement of
    the pending fill and sends it the next (half, steps).  Philox is
    counter-based and keyed per member, so the producer's normals are the bits
    the caller would draw.  A failing fill sends its exception back, and the
    swap re-raises it.  The producer exits after the run's last fill, handing
    its generators' states back to gens, or when close() stops it or its pipe
    closes.  A one-step buffer has no second half, and where fork is
    unavailable the caller refills each half itself.  _drive calls close()
    however the run ends.
    """

    def __init__(self, seed_base, members, modes):
        self.gens = [np.random.Generator(np.random.Philox(key=int(seed_base) + i))
                     for i in range(members)]
        self.modes = int(modes)
        self.steps_left = 0
        self._buffer = None  # (steps, members, modes) complex normals in the shared mmap
        self._halves = None  # the buffer's two halves along the step axis
        self._scratch = None  # (block, steps of a half, 2, modes) normals of one member block
        self._current = 0  # index of the half being consumed
        self._cursor = self._filled = 0
        self._producer = None  # (process, connection) once forked
        self._pending = 0  # steps of the fill the producer is drawing

    def _draw(self, half, steps):
        block = self._scratch[:, :steps]
        for lo in range(0, len(self.gens), len(block)):
            gens = self.gens[lo:lo + len(block)]
            for g, rows in zip(gens, block):
                g.standard_normal(out=rows)
            drawn = block[:len(gens)]
            target = half[:steps, lo:lo + len(gens)]
            target.real = drawn[:, :, 0].transpose(1, 0, 2)
            target.imag = drawn[:, :, 1].transpose(1, 0, 2)

    def _fork(self):
        """Start the producer; False where fork is unavailable."""
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            return False
        context = multiprocessing.get_context("fork")
        connection, child_end = context.Pipe()
        process = context.Process(target=self._produce, args=(child_end,), daemon=True)
        self._producer = (process, connection)
        process.start()
        child_end.close()
        return True

    def _produce(self, connection):
        """The producer's loop: draw each requested half, then acknowledge it."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
        self._producer[1].close()
        left = self.steps_left  # the fork comes before the first request is counted
        try:
            while left > 0:
                half, steps = connection.recv()
                try:
                    self._draw(self._halves[half], steps)
                except Exception as exc:
                    connection.send((exc, None))
                    return
                left -= steps
                connection.send((None, _pack_states(self.gens) if left == 0 else None))
        except (EOFError, OSError):
            return

    def _receive(self):
        """Wait for the pending fill's acknowledgement; returns its steps or re-raises."""
        steps, self._pending = self._pending, 0
        try:
            error, states = self._producer[1].recv()
        except EOFError:
            error, states = RuntimeError("the noise producer ended during a fill"), None
        if error is not None:
            raise error
        if states is not None:  # the run's last fill: the producer exits
            for g, row in zip(self.gens, states):
                g.bit_generator.state = _unpack_state(row)
            self._stop(finished=True)
        return steps

    def _stop(self, finished):
        """Close the pipe and reap the producer, terminating it unless it has finished."""
        process, connection = self._producer
        self._producer, self._pending = None, 0
        connection.close()
        if not finished:
            process.terminate()  # drops a fill in progress
        process.join()

    def _swap(self):
        """Make the next drawn half current and start drawing the one after it."""
        members = len(self.gens)
        if self._halves is None:
            steps = max(1, min(self.steps_left,
                               _NOISE_BYTES // (16 * members * self.modes)))
            shape = (steps, members, self.modes)
            shared = mmap.mmap(-1, 16 * math.prod(shape))
            self._buffer = np.frombuffer(shared, dtype=complex).reshape(shape)
            first = (steps + 1) // 2
            self._halves = (self._buffer[:first], self._buffer[first:])
            self._scratch = np.empty((min(members, _NOISE_BLOCK), first, 2, self.modes))
        if self._pending:
            filled = self._receive()
            self._current = 1 - self._current
        else:
            filled = max(1, min(self.steps_left, len(self._halves[self._current])))
            self._draw(self._halves[self._current], filled)
            self.steps_left -= filled
        self._cursor, self._filled = 0, filled
        ahead = min(self.steps_left, len(self._halves[1 - self._current]))
        if ahead > 0 and (self._producer is not None or self._fork()):
            self.steps_left -= ahead
            self._producer[1].send((1 - self._current, ahead))
            self._pending = ahead

    def next_step(self):
        """Complex normals z_re + i z_im of shape (members, modes) for one step: a
        view into the buffer, valid until the next call."""
        if self._cursor == self._filled:
            self._swap()
        z = self._halves[self._current][self._cursor]
        self._cursor += 1
        return z

    def close(self):
        """Stop the producer, dropping a pending fill and its errors."""
        if self._producer is not None:
            self._stop(finished=False)


def _pack_states(gens):
    """The generators' Philox states as one (members, 13) uint64 array, a small message."""
    packed = np.empty((len(gens), 13), dtype=np.uint64)
    for row, g in zip(packed, gens):
        state = g.bit_generator.state
        row[:4], row[4:6] = state["state"]["counter"], state["state"]["key"]
        row[6:10], row[10:] = state["buffer"], (state["buffer_pos"], state["has_uint32"],
                                                 state["uinteger"])
    return packed


def _unpack_state(row):
    """The bit_generator.state of one row of _pack_states."""
    return {"bit_generator": "Philox", "state": {"counter": row[:4], "key": row[4:6]},
            "buffer": row[6:10], "buffer_pos": int(row[10]), "has_uint32": int(row[11]),
            "uinteger": int(row[12])}


def _full_noise_injector(noise, frame, epsilon):
    b = noise.array(frame)
    if noise.is_zero:
        return None
    # (basis l, mode k), cast to complex once: the products are those of the real matrix
    scaled = (b[:, None] * frame.eigenvectors.T).astype(complex)
    lam = frame.eigenvalues

    def inject(tau, dbeta, out):
        # physical-space increment Psi(b dbeta), rotated into interaction frame
        phase = np.exp(1j * (tau / epsilon) * lam)
        return np.multiply(phase, np.matmul(dbeta, scaled, out=out), out=out)

    return inject


def _effective_noise_injector(noise, frame):
    """B dbeta, with B the principal root of the noise's resonant covariance."""
    b = noise.array(frame)
    if noise.is_zero:
        return None
    root = build_diffusion(frame, b).root

    def inject(tau, dbeta, out):
        return np.matmul(dbeta, root.T, out=out)

    return inject


# -- batched driver ---------------------------------------------------------

def _lawson4_step(a, tau, h, E, E2, g, k1):
    k2 = g(E2 * (a + (0.5 * h) * k1), tau + 0.5 * h)
    k3 = g(E2 * a + (0.5 * h) * k2, tau + 0.5 * h)
    k4 = g(E * a + h * (E2 * k3), tau + h)
    return E * a + (h / 6.0) * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)


def _expeuler_step(a, h, E, k1, out=None):
    """E * (a + h * k1), into out when given (which must not be a or k1)."""
    out = np.multiply(h, k1, out=out)
    np.add(a, out, out=out)
    return np.multiply(E, out, out=out)


def _segment_steps(taus, h_target):
    """Per-segment (count, width) pairs; widths divide segments exactly."""
    plan = []
    for t0, t1 in zip(taus[:-1], taus[1:]):
        seg = float(t1 - t0)
        n = max(1, math.ceil(seg / h_target - 1e-12))
        plan.append((n, seg / n))
    return plan


def _guard_weights(eigenvalues, s):
    """|lambda_k|^s + 1, each repeated for the real and imaginary part of mode k."""
    return np.repeat(np.abs(np.asarray(eigenvalues, dtype=float)) ** s + 1.0, 2)


def _guard_norm(a, weights, out=None, work=None):
    """sqrt(sum_k w_k |a_k|^2) of contiguous complex rows a, as one matrix-vector
    product of the squared real view with the repeated weights."""
    r = np.square(a.view(float), out=work)
    return np.sqrt(np.matmul(r, weights, out=out), out=out)


def _drive(a0, g, lam, mu, config, h_target, inject=None, stream=None, drift=None):
    """Propagate an (members, modes) batch over the sample grid.

    Members whose guard norm leaves the safety ball are frozen to NaN but keep
    consuming their noise stream, so survivors are unaffected by exclusions.
    Disparity tracking (drift given) accumulates the integral of g - drift by
    the trapezoid rule on step nodes, reusing the scheme's own k1 stages; the
    stage that closes a segment at its sample node is the next segment's first.
    The expeuler update, the noise increment and the guard norm run in work
    arrays the driver owns.  The returned "meta" (h_target, steps) is what
    every result reports.
    """
    taus = config.sample_taus()
    members, modes = a0.shape
    states = np.empty((taus.size, members, modes), dtype=complex)
    states[0] = a0
    a = a0.astype(complex, order="C")  # the guard norm reads a contiguous complex copy
    weights = _guard_weights(lam, config.blow_up_norm)
    bound = config.blow_up_factor * (_guard_norm(a, weights) + 1.0)
    limit = np.minimum(bound, np.finfo(float).max)  # an infinite norm is over any bound
    dead = np.zeros(members, dtype=bool)
    death_tau = np.full(members, np.nan)
    death_norm = np.full(members, np.nan)

    track = drift is not None
    disp_max = np.zeros((members, modes)) if track else None
    D = np.zeros((members, modes), dtype=complex)
    gap_prev = None
    h_prev = 0.0
    node = None  # (k1, gap) at the last sample node, reused by the next step

    use_lawson = config.scheme == "lawson4"
    spare = np.empty_like(a)  # the expeuler update writes here, then the two swap
    normals, increment = (np.empty_like(a), np.empty_like(a)) if inject else (None, None)
    norm, norm_work = np.empty(members), np.empty((members, 2 * modes))
    total = 0
    plan = _segment_steps(taus, h_target)
    if stream is not None:
        stream.steps_left = sum(n for n, _ in plan)
    try:
        for i, (n, h) in enumerate(plan):
            E = np.exp(-mu * lam * h)
            E2 = np.exp(-mu * lam * (0.5 * h)) if use_lawson else None
            sqrt_h = math.sqrt(h)
            t0 = taus[i]
            for j in range(n):
                tau_n = t0 + j * h
                if node is not None:
                    (k1, gap), node = node, None
                else:
                    k1 = g(a, tau_n)
                    if track:
                        gap = k1 - drift(a)
                        if gap_prev is not None:
                            D = D + (0.5 * h_prev) * (gap_prev + gap)
                            np.maximum(disp_max, np.abs(D), out=disp_max)
                if track:
                    gap_prev, h_prev = gap, h
                if use_lawson:
                    a = _lawson4_step(a, tau_n, h, E, E2, g, k1)
                else:
                    a, spare = _expeuler_step(a, h, E, k1, out=spare), a
                if inject is not None:
                    z = np.multiply(sqrt_h, stream.next_step(), out=normals)
                    np.add(a, inject(tau_n + h, z, increment), out=a)
                with np.errstate(over="ignore", invalid="ignore"):
                    # the norm is >= 0, inf or NaN: over means "not finite or above the bound"
                    over = ~(_guard_norm(a, weights, out=norm, work=norm_work) <= limit)
                if over.any():
                    fresh = over & ~dead
                    dead |= fresh
                    death_tau[fresh] = tau_n + h
                    death_norm[fresh] = norm[fresh]
                    a[fresh] = np.nan
                total += 1
            states[i + 1] = a
            if track:
                # close the trapezoid at the sample node before recording
                k1 = g(a, taus[i + 1])
                gap = k1 - drift(a)
                D = D + (0.5 * h_prev) * (gap_prev + gap)
                with np.errstate(invalid="ignore"):
                    np.maximum(disp_max, np.abs(D), out=disp_max)
                node = (k1, gap)
    finally:
        if stream is not None:
            stream.close()
    return {
        "taus": taus, "states": states, "dead": dead,
        "death_tau": death_tau, "death_norm": death_norm, "bound": bound,
        "disp_max": disp_max, "steps": total,
        "meta": {"h_target": h_target, "steps": total},
    }


# -- run helpers: one per system, shared by single runs and ensembles --------

def _full_field(spec, frame, epsilon):
    """Y(a, tau / epsilon) in slow time; the one place fast time is spelled."""
    inv_eps = 1.0 / epsilon
    field = Field(spec, frame)
    return lambda x, tau: eval_Y(x, inv_eps * tau, field)


def _noise_stream(config, seed, members, modes, inject):
    """Member streams of a stochastic run; a seed of None marks a deterministic one,
    so it refuses noise that injects.  Noise that injects nothing draws nothing."""
    if seed is None:
        if inject is not None:
            raise ConfigError("a run whose noise injects needs a seed")
        return None
    if config.scheme != "expeuler":
        raise ConfigError("stochastic runs use scheme='expeuler'")
    return None if inject is None else _NoiseStream(seed, members, modes)


def _run_full(a0, spec, frame, config, noise=None, seed=None, drift=None):
    """Drive the rotated full system over an (members, modes) batch; a drift given
    is what the disparity is tracked against, and must be of this spec and frame."""
    if drift is not None and (drift.spec != spec or (
            drift.frame is not frame and drift.frame.content_hash() != frame.content_hash())):
        raise ConfigError("disparity tracking needs a drift of the run's spec and frame")
    inject = None if noise is None else _full_noise_injector(noise, frame, config.epsilon)
    stream = _noise_stream(config, seed, *a0.shape, inject)
    h_target = oscillation_step(config, frame.eigenvalues)
    return _drive(a0, _full_field(spec, frame, config.epsilon), frame.eigenvalues,
                  spec.mu, config, h_target, inject=inject, stream=stream, drift=drift)


def _run_effective(a0, drift, config, noise=None, seed=None):
    """Drive the averaged system of a drift over an (members, modes) batch."""
    inject = None if noise is None else _effective_noise_injector(noise, drift.frame)
    stream = _noise_stream(config, seed, *a0.shape, inject)
    return _drive(a0, lambda x, tau: drift(x), drift.frame.eigenvalues, drift.spec.mu,
                  config, config.dt, inject=inject, stream=stream)


def _trajectory(run, config, frame, epsilon=None, seed=None, noise_doc=None):
    """Member 0 of a single run; raises BlowUpError if it left the safety ball."""
    if run["dead"][0]:
        raise BlowUpError(float(run["death_tau"][0]), float(run["death_norm"][0]),
                          float(np.atleast_1d(run["bound"])[0]),
                          member=None if seed is None else 0)
    return Trajectory(
        taus=run["taus"], states=run["states"][:, 0], scheme=config.scheme,
        epsilon=epsilon, seed=None if seed is None else int(seed),
        frame_hash=frame.content_hash(), noise_doc=noise_doc,
        disparity_max=None if run["disp_max"] is None else run["disp_max"][0],
        meta=run["meta"])


# -- public single-run integrators ------------------------------------------

def step_full_deterministic(state, tau, h, spec, frame, config):
    """Advance the full rotated system by one step of the configured scheme.

    Refuses steps larger than the oscillation-resolving bound; the driver
    routines never produce such steps, so hitting this means a caller bug.
    """
    limit = oscillation_step(config, frame.eigenvalues)
    if h > limit * (1.0 + 1e-9):
        raise ConfigError(f"step {h:.3g} exceeds the oscillation bound {limit:.3g}")
    a = np.atleast_2d(mode_vector(state))
    lam = frame.eigenvalues
    E = np.exp(-spec.mu * lam * h)
    g = _full_field(spec, frame, config.epsilon)
    k1 = g(a, tau)
    if config.scheme == "lawson4":
        E2 = np.exp(-spec.mu * lam * (0.5 * h))
        out = _lawson4_step(a, tau, h, E, E2, g, k1)
    else:
        out = _expeuler_step(a, h, E, k1)
    return out.reshape(np.shape(mode_vector(state)))


def integrate_full(state, spec, frame, config, drift=None):
    """Integrate the rotated full system from tau = 0 to tau_end.

    Given the averaged drift of the same spec and frame, the running integral
    of Y - drift along the numerical trajectory is accumulated and sampled.
    """
    run = _run_full(np.atleast_2d(mode_vector(state)), spec, frame, config, drift=drift)
    return _trajectory(run, config, frame, epsilon=config.epsilon)


def integrate_effective(state, drift, config):
    """Integrate the averaged equation of a drift (the resonant sum, or the
    quadrature route for oracle swaps); autonomous, so no oscillation refinement."""
    run = _run_effective(np.atleast_2d(mode_vector(state)), drift, config)
    return _trajectory(run, config, drift.frame)


def integrate_full_stochastic(state, spec, frame, config, noise, seed):
    """Single noisy trajectory of the full rotated system."""
    run = _run_full(np.atleast_2d(mode_vector(state)), spec, frame, config,
                    noise=noise, seed=seed)
    return _trajectory(run, config, frame, epsilon=config.epsilon, seed=seed,
                       noise_doc=noise.to_document())


def integrate_effective_stochastic(state, drift, config, noise, seed):
    """Single noisy trajectory of the averaged equation, driven by the resonant
    average of the full system's noise."""
    run = _run_effective(np.atleast_2d(mode_vector(state)), drift, config,
                         noise=noise, seed=seed)
    return _trajectory(run, config, drift.frame, seed=seed,
                       noise_doc=noise.to_document())


# -- ensembles --------------------------------------------------------------

@dataclass
class EnsembleResult:
    """Action statistics over the surviving members of a batch run."""

    taus: np.ndarray
    mean_actions: np.ndarray    # (samples, modes)
    var_actions: np.ndarray     # unbiased, over surviving members
    stderr_actions: np.ndarray
    members: int
    excluded: list
    seed_base: int | None  # None for a seedless run whose noise injects nothing
    frame_hash: str | None = None
    disparity_mean: np.ndarray | None = None  # per-mode mean over survivors
    meta: dict | None = None

    @property
    def survivors(self):
        return self.members - len(self.excluded)


_MAX_EXCLUDED_FRACTION = 0.05


def _summarize(run, seed_base, frame_hash, meta):
    states, dead = run["states"], run["dead"]
    members = states.shape[1]
    excluded = [int(i) for i in np.flatnonzero(dead)]
    if len(excluded) > _MAX_EXCLUDED_FRACTION * members:
        raise EnsembleError(
            f"{len(excluded)} of {members} members blew up; "
            f"more than {_MAX_EXCLUDED_FRACTION:.0%} lost")
    alive = states[:, ~dead]
    n = alive.shape[1]
    if n == 0:
        raise EnsembleError("no surviving members")
    acts = 0.5 * np.abs(alive) ** 2
    mean = np.sum(acts, axis=1) / n  # np.sum is pairwise, keeps roundoff flat
    if n > 1:
        var = np.sum((acts - mean[:, None]) ** 2, axis=1) / (n - 1)
    else:
        var = np.zeros_like(mean)
    stderr = np.sqrt(var / n)
    disp_mean = None
    if run["disp_max"] is not None:
        disp_mean = np.sum(run["disp_max"][~dead], axis=0) / n
    return EnsembleResult(taus=run["taus"], mean_actions=mean, var_actions=var,
                          stderr_actions=stderr, members=members,
                          excluded=excluded,
                          seed_base=None if seed_base is None else int(seed_base),
                          frame_hash=frame_hash, disparity_mean=disp_mean,
                          meta=meta)


def _broadcast_members(state, members, modes):
    a0 = mode_vector(state)
    if a0.ndim == 1:
        a0 = np.broadcast_to(a0, (members, modes)).copy()
    if a0.shape != (members, modes):
        raise ConfigError(f"initial state must have shape ({members}, {modes})")
    return a0


def ensemble_full(state, spec, frame, config, noise, members, seed_base, drift=None):
    """Batch of noisy full-system runs; member i uses Philox key seed_base + i.
    A drift given tracks the disparity as integrate_full does."""
    run = _run_full(_broadcast_members(state, members, frame.modes), spec, frame,
                    config, noise=noise, seed=seed_base, drift=drift)
    return _summarize(run, seed_base, frame.content_hash(),
                      {**run["meta"], "system": "full", "noise": noise.to_document()})


def ensemble_effective(state, drift, config, noise, members, seed_base):
    """Batch of noisy effective-equation runs with matched member seeding."""
    run = _run_effective(_broadcast_members(state, members, drift.frame.modes), drift,
                         config, noise=noise, seed=seed_base)
    return _summarize(run, seed_base, drift.frame.content_hash(),
                      {**run["meta"], "system": "effective", "noise": noise.to_document()})
