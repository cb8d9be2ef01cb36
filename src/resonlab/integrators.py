"""Time integration of the full rotated system and of its averaged limit.

Both systems share the stiff diagonal -mu lambda_k, handled exactly through
exponential (Lawson) schemes:

    full       da/dtau = -mu Lambda a + Y(a, tau / epsilon)      [+ noise]
    effective  da/dtau = -mu Lambda a + R(a)                     [+ B dbeta]

Deterministic runs use a Lawson RK4 step by default; stochastic runs use an
exponential Euler-Maruyama step.  Each system has one single-run function
(integrate_full, integrate_effective; noise and seed optional) and one ensemble
function, and all four run through one batched driver, _drive, which alone
makes a run stochastic: a seed marks one, so a zero-amplitude stochastic run
is bitwise identical to the deterministic "expeuler" scheme.  Runs take the
averaged drift they integrate or track the disparity against (a
fields.ResonantDrift or QuadratureDrift, built by the caller and reused across
runs); nothing here builds one.  Noisy runs of both systems take the full
system's NoiseModel, whose resonant average (resonance.build_diffusion) is the
effective run's diffusion B.
Complex noise follows the convention E|beta_l(tau)|^2 = 2 tau (independent
standard real and imaginary parts).
A stochastic run's normals are drawn ahead by one forked producer process that
shares the noise buffer with it and draws every fill of the run's steps
(_NoiseStream); the run draws them itself only where fork is unavailable.  The
buffer is step-major and complex, so each step's normals are one contiguous
(members, modes) block that the driver reads in place.
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
        object.__setattr__(self, "samples", check_count(self.samples, "samples", 2))
        if not (self.blow_up_factor > 1):
            raise ConfigError("blow_up_factor must exceed 1")
        if not (self.blow_up_norm >= 0):
            raise ConfigError("blow_up_norm must be >= 0")

    def sample_taus(self):
        return np.linspace(0.0, self.tau_end, self.samples)

    def to_document(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

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


def check_count(value, name, least):
    """value as an int, refused unless it is an integer (a bool is not) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    fills does not change a single draw.

    The buffer holds (steps, members, modes) complex normals, at most
    _NOISE_BYTES, or one step when a step is larger, so next_step() hands out
    each step as a contiguous view.  It is an anonymous shared mmap split into
    two halves along the step axis, or kept as one half when it holds one
    step.  The run's steps are fixed at construction and listed as fills of
    (half, steps), which go to the halves in turn.  Philox only fills
    contiguous arrays, so a fill draws _NOISE_BLOCK members at a time into a
    scratch of (block, steps, 2, modes) and writes its real and imaginary
    parts into its half with one transposed assignment each.

    One side draws every fill.  The first next_step() forks one producer
    process, which builds the generators and the scratch and draws the fills
    in order; before it refills a half it waits for the caller to release
    that half, so while the caller consumes one half, the producer refills
    the other.  It answers each fill with None, or with the fill's exception,
    which next_step() re-raises, and exits after the last fill.  Philox is
    counter-based and keyed per member, so these are the bits the caller
    would draw; where fork is unavailable, the caller draws each fill itself
    when it needs it.  _drive calls close() however the run ends.
    """

    def __init__(self, seed_base, members, modes, steps):
        self.seed_base, self.members, self.modes = int(seed_base), int(members), int(modes)
        size = max(1, min(steps, _NOISE_BYTES // (16 * self.members * self.modes)))
        shape = (size, self.members, self.modes)
        self._buffer = np.frombuffer(mmap.mmap(-1, 16 * math.prod(shape)),
                                     dtype=complex).reshape(shape)
        first = (size + 1) // 2
        self._halves = (self._buffer[:first], self._buffer[first:]) if size > 1 else (self._buffer,)
        self._fills = []  # (half, steps) of each fill, in the order they are drawn
        left = int(steps)
        while left > 0:
            half = len(self._fills) % len(self._halves)
            self._fills.append((half, min(left, len(self._halves[half]))))
            left -= self._fills[-1][1]
        self._gens = self._scratch = None  # built by the side that draws
        self._next = 0  # index of the next fill to consume
        self._half = self._cursor = self._filled = 0  # the fill being consumed
        self._producer = None  # (process, connection) while forked

    def _draw(self, k):
        """Draw fill k into its half."""
        half, steps = self._fills[k]
        if self._gens is None:
            self._gens = [np.random.Generator(np.random.Philox(key=self.seed_base + i))
                          for i in range(self.members)]
            self._scratch = np.empty((min(self.members, _NOISE_BLOCK),
                                      len(self._halves[0]), 2, self.modes))
        block = self._scratch[:, :steps]
        for lo in range(0, self.members, len(block)):
            gens = self._gens[lo:lo + len(block)]
            for g, rows in zip(gens, block):
                g.standard_normal(out=rows)
            drawn = block[:len(gens)]
            target = self._halves[half][:steps, lo:lo + len(gens)]
            target.real = drawn[:, :, 0].transpose(1, 0, 2)
            target.imag = drawn[:, :, 1].transpose(1, 0, 2)

    def _fork(self):
        """Start the producer, unless fork is unavailable."""
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            return
        context = multiprocessing.get_context("fork")
        connection, child_end = context.Pipe()
        process = context.Process(target=self._produce, args=(child_end,), daemon=True)
        self._producer = (process, connection)
        process.start()
        child_end.close()

    def _produce(self, connection):
        """The producer's loop: draw every fill, each once its half is released."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
        self._producer[1].close()
        try:
            for k in range(len(self._fills)):
                if k >= len(self._halves):
                    connection.recv()  # the caller is done with this half
                try:
                    self._draw(k)
                except Exception as exc:
                    connection.send(exc)
                    return
                connection.send(None)
        except (EOFError, OSError):
            return

    def _receive(self, k):
        """Release the half of fill k - 1 if a later fill reuses it, then wait for
        fill k; re-raises the producer's error."""
        connection = self._producer[1]
        if k > 0 and k - 1 + len(self._halves) < len(self._fills):
            try:
                connection.send(None)
            except BrokenPipeError:
                pass  # the producer has ended; its last answer says why
        try:
            error = connection.recv()
        except EOFError:
            error = RuntimeError("the noise producer ended during a fill")
        if error is not None:
            raise error
        if k == len(self._fills) - 1:
            self._stop(finished=True)

    def _stop(self, finished):
        """Close the pipe and reap the producer, terminating it unless it has finished."""
        process, connection = self._producer
        self._producer = None
        connection.close()
        if not finished:
            process.terminate()  # drops a fill in progress
        process.join()

    def next_step(self):
        """Complex normals z_re + i z_im of shape (members, modes) for one step: a
        view into the buffer, valid until the next call."""
        if self._cursor == self._filled:
            k = self._next
            if k == 0:
                self._fork()
            if self._producer is not None:
                self._receive(k)
            else:
                self._draw(k)
            self._next, self._cursor = k + 1, 0
            self._half, self._filled = self._fills[k]
        z = self._halves[self._half][self._cursor]
        self._cursor += 1
        return z

    def close(self):
        """Stop the producer, dropping a pending fill and its errors."""
        if self._producer is not None:
            self._stop(finished=False)


def _noise_injector(noise, frame, epsilon=None):
    """Increments of the full system's Psi(b dbeta) rotated into the interaction
    frame (epsilon given), or of the effective B dbeta, with B the principal
    root of the noise's resonant covariance; None if the noise injects nothing."""
    b = noise.array(frame)
    if noise.is_zero:
        return None
    if epsilon is None:
        matrix = build_diffusion(frame, b).root.T
    else:
        matrix = b[:, None] * frame.eigenvectors.T  # (basis l, mode k)
        rotation = 1j * frame.eigenvalues

    def inject(tau, sqrt_h, normals, out):
        # sqrt(h), and the full system's rotation, fold into the matrix
        scale = sqrt_h if epsilon is None else sqrt_h * np.exp((tau / epsilon) * rotation)
        return np.matmul(normals, matrix * scale, out=out)

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


def _drive(a0, g, lam, mu, config, h_target, inject=None, seed=None, drift=None):
    """Propagate an (members, modes) batch over the sample grid.

    A seed marks a stochastic run, which must use the expeuler scheme; noise
    that injects needs one, and draws from seed's member streams, sized to the
    run's steps.  Members whose guard norm leaves the safety ball are frozen to
    NaN but keep consuming their noise stream, so survivors are unaffected by
    exclusions.  Disparity tracking (drift given) accumulates the integral of
    g - drift by the trapezoid rule on step nodes, reusing the scheme's own k1
    stages: a segment's first stage closes the last one's trapezoid at the
    sample node, and one evaluation after the last step closes the run's.  The
    expeuler update, the noise increment and the guard norm run in work arrays
    the driver owns.  The returned "meta" (h_target, steps) is what every
    result reports.
    """
    if seed is None and inject is not None:
        raise ConfigError("a run whose noise injects needs a seed")
    if seed is not None and config.scheme != "expeuler":
        raise ConfigError("stochastic runs use scheme='expeuler'")
    taus = config.sample_taus()
    members, modes = a0.shape
    plan = _segment_steps(taus, h_target)
    steps = sum(n for n, _ in plan)
    stream = None if inject is None else _NoiseStream(seed, members, modes, steps)
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

    use_lawson = config.scheme == "lawson4"
    spare = np.empty_like(a)  # the expeuler update writes here, then the two swap
    increment = np.empty_like(a) if inject else None
    norm, norm_work = np.empty(members), np.empty((members, 2 * modes))
    try:
        for i, (n, h) in enumerate(plan):
            E = np.exp(-mu * lam * h)
            E2 = np.exp(-mu * lam * (0.5 * h)) if use_lawson else None
            sqrt_h = math.sqrt(h)
            t0 = taus[i]
            for j in range(n):
                tau_n = t0 + j * h
                k1 = g(a, tau_n)
                if track:
                    gap = k1 - drift(a)
                    if gap_prev is not None:
                        D = D + (0.5 * h_prev) * (gap_prev + gap)
                        np.maximum(disp_max, np.abs(D), out=disp_max)
                    gap_prev, h_prev = gap, h
                if use_lawson:
                    a = _lawson4_step(a, tau_n, h, E, E2, g, k1)
                else:
                    a, spare = _expeuler_step(a, h, E, k1, out=spare), a
                if inject is not None:
                    np.add(a, inject(tau_n + h, sqrt_h, stream.next_step(), increment), out=a)
                with np.errstate(over="ignore", invalid="ignore"):
                    # the norm is >= 0, inf or NaN: over means "not finite or above the bound"
                    over = ~(_guard_norm(a, weights, out=norm, work=norm_work) <= limit)
                if over.any():
                    fresh = over & ~dead
                    dead |= fresh
                    death_tau[fresh] = tau_n + h
                    death_norm[fresh] = norm[fresh]
                    a[fresh] = np.nan
            states[i + 1] = a
    finally:
        if stream is not None:
            stream.close()
    if track:
        # close the trapezoid at the last sample node
        gap = g(a, taus[-1]) - drift(a)
        D = D + (0.5 * h_prev) * (gap_prev + gap)
        np.maximum(disp_max, np.abs(D), out=disp_max)
    return {
        "taus": taus, "states": states, "dead": dead,
        "death_tau": death_tau, "death_norm": death_norm, "bound": bound,
        "disp_max": disp_max, "steps": steps,
        "meta": {"h_target": h_target, "steps": steps},
    }


# -- run helpers: one per system, shared by single runs and ensembles --------

def _run_full(state, members, spec, frame, config, noise=None, seed=None, drift=None):
    """Drive the rotated full system, Y(a, tau / epsilon) in slow time, from state
    over `members` members; a drift given is what the disparity is tracked
    against, and must be of this spec and frame."""
    if drift is not None and (drift.spec != spec or (
            drift.frame is not frame and drift.frame.content_hash() != frame.content_hash())):
        raise ConfigError("disparity tracking needs a drift of the run's spec and frame")
    a0 = _broadcast_members(state, members, frame.modes)
    inject = None if noise is None else _noise_injector(noise, frame, config.epsilon)
    field, inv_eps = Field(spec, frame), 1.0 / config.epsilon
    return _drive(a0, lambda x, tau: eval_Y(x, inv_eps * tau, field), frame.eigenvalues,
                  spec.mu, config, oscillation_step(config, frame.eigenvalues),
                  inject=inject, seed=seed, drift=drift)


def _run_effective(state, members, drift, config, noise=None, seed=None):
    """Drive the averaged system of a drift from state over `members` members."""
    a0 = _broadcast_members(state, members, drift.frame.modes)
    inject = None if noise is None else _noise_injector(noise, drift.frame)
    return _drive(a0, lambda x, tau: drift(x), drift.frame.eigenvalues, drift.spec.mu,
                  config, config.dt, inject=inject, seed=seed)


def _broadcast_members(state, members, modes):
    """The initial (members, modes) batch: state as given, or one (modes,) state
    repeated; any other shape is refused."""
    a0 = mode_vector(state)
    if a0.shape not in ((modes,), (members, modes)):
        raise ConfigError(f"initial state must have shape ({modes},) or ({members}, {modes}), "
                          f"got {a0.shape}")
    return np.broadcast_to(a0, (members, modes)).copy() if a0.ndim == 1 else a0


def _trajectory(run, config, frame, epsilon=None, seed=None, noise=None):
    """Member 0 of a single run; raises BlowUpError if it left the safety ball."""
    if run["dead"][0]:
        raise BlowUpError(float(run["death_tau"][0]), float(run["death_norm"][0]),
                          float(np.atleast_1d(run["bound"])[0]),
                          member=None if seed is None else 0)
    return Trajectory(
        taus=run["taus"], states=run["states"][:, 0], scheme=config.scheme,
        epsilon=epsilon, seed=None if seed is None else int(seed),
        frame_hash=frame.content_hash(),
        noise_doc=None if noise is None else noise.to_document(),
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
    field, inv_eps = Field(spec, frame), 1.0 / config.epsilon
    g = lambda x, t: eval_Y(x, inv_eps * t, field)  # fast time as _run_full spells it
    k1 = g(a, tau)
    if config.scheme == "lawson4":
        E2 = np.exp(-spec.mu * lam * (0.5 * h))
        out = _lawson4_step(a, tau, h, E, E2, g, k1)
    else:
        out = _expeuler_step(a, h, E, k1)
    return out.reshape(np.shape(mode_vector(state)))


def integrate_full(state, spec, frame, config, drift=None, noise=None, seed=None):
    """Integrate the rotated full system from tau = 0 to tau_end.

    Given the averaged drift of the same spec and frame, the running integral
    of Y - drift along the numerical trajectory is accumulated and sampled.
    Given a seed, the run is stochastic: the noise draws from the seed's stream.
    """
    run = _run_full(state, 1, spec, frame, config, noise=noise, seed=seed, drift=drift)
    return _trajectory(run, config, frame, epsilon=config.epsilon, seed=seed, noise=noise)


def integrate_effective(state, drift, config, noise=None, seed=None):
    """Integrate the averaged equation of a drift (the resonant sum, or the
    quadrature route for oracle swaps); autonomous, so no oscillation refinement.
    Given a seed, the run is stochastic, driven by the full system's noise."""
    run = _run_effective(state, 1, drift, config, noise=noise, seed=seed)
    return _trajectory(run, config, drift.frame, seed=seed, noise=noise)


def integrate_full_stochastic(state, spec, frame, config, noise, seed):
    """integrate_full with noise and a seed; kept while benchmark/traced_cli.py names it."""
    return integrate_full(state, spec, frame, config, noise=noise, seed=seed)


def integrate_effective_stochastic(state, drift, config, noise, seed):
    """integrate_effective with noise and a seed; kept while benchmark/traced_cli.py
    names it."""
    return integrate_effective(state, drift, config, noise=noise, seed=seed)


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


def _summarize(run, system, frame, noise, seed_base):
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
                          frame_hash=frame.content_hash(), disparity_mean=disp_mean,
                          meta={**run["meta"], "system": system,
                                "noise": noise.to_document()})


def ensemble_full(state, spec, frame, config, noise, members, seed_base, drift=None):
    """Batch of noisy full-system runs; member i uses Philox key seed_base + i.
    A drift given tracks the disparity as integrate_full does."""
    run = _run_full(state, members, spec, frame, config, noise=noise, seed=seed_base,
                    drift=drift)
    return _summarize(run, "full", frame, noise, seed_base)


def ensemble_effective(state, drift, config, noise, members, seed_base):
    """Batch of noisy effective-equation runs with matched member seeding."""
    run = _run_effective(state, members, drift, config, noise=noise, seed=seed_base)
    return _summarize(run, "effective", drift.frame, noise, seed_base)
