"""Time integration of the full rotated system and of its averaged limit.

Both systems share the stiff diagonal -mu lambda_k, handled exactly through
exponential (Lawson) schemes:

    full       da/dtau = -mu Lambda a + Y(a, tau / epsilon)      [+ noise]
    effective  da/dtau = -mu Lambda a + R(a)                     [+ B dbeta]

Each system has one single-run function (integrate_full, integrate_effective;
noise and seed optional; every member of an (n, M) batch of initial states is
run) and one ensemble function, and all four run through one batched driver,
_drive, which alone decides how a run steps: noise that injects makes it
stochastic, needing a seed and stepping with exponential Euler-Maruyama;
every other run steps with Lawson RK4.  Runs take the averaged drift they
integrate or track the disparity against (a fields.ResonantDrift or
QuadratureDrift, built by the caller and reused across runs).  Noisy runs of
both systems take the full system's NoiseModel, whose resonant average over
the drift's clusters (resonance.build_diffusion) is the effective run's
diffusion B.  Complex noise follows the convention E|beta_l(tau)|^2 = 2 tau
(independent standard real and imaginary parts).  A run that draws noise
splits its members with one forked child (_sharded), which sends its members'
run back over a pipe; each process draws its own members' normals
(_NoiseStream): member i's stream is keyed seed + i whichever process draws
it.  The noise buffer is step-major and complex, so each step's normals are
one contiguous (members, modes) block that the driver reads in place.
"""

from dataclasses import dataclass, fields
import math
import signal

import numpy as np

from .errors import (BlowUpError, ConfigError, EnsembleError, check_int, check_keys,
                     check_real, check_reals, check_seed)
from .fields import Field, eval_Y
from .resonance import build_diffusion
from .spectral import mode_vector

NOISE_CONVENTION = "E|beta_l(tau)|^2 = 2 tau"
_NOISE_BYTES = 1 << 22  # bytes of normals one refill of the noise buffer may hold
_NOISE_BLOCK = 64  # members drawn into the contiguous scratch at a time
_SHARD_ROWS = 8  # GEMM row block: shards split on a multiple round as one batch does


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
    theta_osc: float = 0.2
    samples: int = 101
    blow_up_factor: float = 100.0
    blow_up_norm: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "tau_end", "dt"):
            if not 0 < check_real(getattr(self, name), name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")
        if not (check_real(self.theta_osc, "theta_osc") > 0):
            raise ConfigError("theta_osc must be positive")
        object.__setattr__(self, "samples", check_int(self.samples, "samples", 2))
        if not (check_real(self.blow_up_factor, "blow_up_factor") > 1):
            raise ConfigError("blow_up_factor must exceed 1")
        if not (check_real(self.blow_up_norm, "blow_up_norm") >= 0):
            raise ConfigError("blow_up_norm must be >= 0")

    def sample_taus(self):
        return np.linspace(0.0, self.tau_end, self.samples)

    def to_document(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_document(doc):
        check_keys("solver", doc, {f.name for f in fields(SolverConfig)},
                   required=("epsilon", "tau_end"))
        return SolverConfig(**doc)


def oscillation_step(config, eigenvalues):
    """Slow-time step resolving the fastest phase of the rotated field."""
    span = max(1.0, float(np.max(np.abs(eigenvalues))))
    return min(config.dt, config.theta_osc * config.epsilon / span)


@dataclass
class Trajectory:
    """Sampled mode coordinates of a single run (interaction representation)."""

    taus: np.ndarray
    states: np.ndarray          # (samples, modes) complex, or (samples, members, modes)
    scheme: str
    epsilon: float | None = None   # None marks an effective-equation run
    seed: int | None = None
    frame_hash: str | None = None
    noise_doc: dict | None = None
    disparity_max: np.ndarray | None = None  # running max of |gap integral|, per member
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
        b = check_reals(self.amplitudes, "noise.amplitudes")
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
        return NoiseModel(doc["amplitudes"])


class _NoiseStream:
    """Per-member Philox generators, drawn in step blocks of a bounded buffer.

    Member i always consumes its stream in the same order (2 * modes normals
    per step: the real parts, then the imaginary ones), so a member integrated
    alone, or in either shard of a forked run, reproduces its batch trajectory,
    and how the steps are split into refills does not change a single draw.

    The buffer holds (steps, members, modes) complex normals, at most
    _NOISE_BYTES, or one step when a step is larger, so next_step() hands out
    each step as a contiguous view; the process that reads it refills it in
    place with the run's next steps once it is used up.  Philox only fills
    contiguous arrays, so a refill draws _NOISE_BLOCK members at a time into
    a scratch of (block, steps, 2, modes) and writes its real and imaginary
    parts into the buffer with one transposed assignment each.
    """

    def __init__(self, seed_base, members, modes, steps):
        size = max(1, min(steps, _NOISE_BYTES // (16 * members * modes)))
        self._buffer = np.empty((size, members, modes), dtype=complex)
        self._gens = [np.random.Generator(np.random.Philox(key=seed_base + i))
                      for i in range(members)]
        self._scratch = np.empty((min(members, _NOISE_BLOCK), size, 2, modes))
        self._left = int(steps)  # steps of the run not drawn yet
        self._cursor = self._filled = 0  # steps of the buffer handed out, and drawn

    def _refill(self):
        """Draw the run's next steps into the buffer, as many as it holds."""
        steps = min(self._left, len(self._buffer))
        block = self._scratch[:, :steps]
        for lo in range(0, len(self._gens), len(block)):
            gens = self._gens[lo:lo + len(block)]
            for g, rows in zip(gens, block):
                g.standard_normal(out=rows)
            drawn = block[:len(gens)]
            target = self._buffer[:steps, lo:lo + len(gens)]
            target.real = drawn[:, :, 0].transpose(1, 0, 2)
            target.imag = drawn[:, :, 1].transpose(1, 0, 2)
        self._left -= steps
        self._cursor, self._filled = 0, steps

    def next_step(self):
        """Complex normals z_re + i z_im of shape (members, modes) for one step: a
        view into the buffer, valid until the next call."""
        if self._cursor == self._filled:
            self._refill()
        z = self._buffer[self._cursor]
        self._cursor += 1
        return z


def _noise_injector(noise, frame, epsilon=None, clusters=None):
    """Increments of the full system's Psi(b dbeta) rotated into the interaction
    frame (epsilon given), or of the effective B dbeta, with B the principal
    root of the noise's resonant covariance on the drift's clusters; None if the
    noise injects nothing."""
    b = noise.array(frame)
    if noise.is_zero:
        return None
    if epsilon is None:
        matrix = build_diffusion(frame, b, clusters).root.T
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

    The one place that decides how a run steps: noise that injects (inject
    given) needs a seed, keys member i's stream seed + i, steps with
    exponential Euler-Maruyama and splits the members with one forked child
    (_sharded).  Every other run steps with Lawson RK4, and a seed given to
    it is checked and recorded but keys no stream.  The returned "meta"
    (h_target, steps) is what every result reports, "scheme" names the step
    taken and "seed" is the seed as an int, refused unless it keys every member.
    """
    members = len(a0)
    if seed is None and inject is not None:
        raise ConfigError("a run whose noise injects needs a seed")
    seed = None if seed is None else check_seed(seed, "seed", keys=members)
    taus = config.sample_taus()
    plan = _segment_steps(taus, h_target)
    steps = sum(n for n, _ in plan)

    def propagate(lo, hi):  # members lo..hi - 1, run alone
        return _propagate(a0[lo:hi], g, lam, mu, config, taus, plan, inject,
                          None if seed is None else seed + lo, drift)

    run = propagate(0, members) if inject is None else _sharded(propagate, members)
    return {"taus": taus, **run, "steps": steps, "seed": seed,
            "scheme": "lawson4" if inject is None else "expeuler",
            "meta": {"h_target": h_target, "steps": steps}}


def _propagate(a0, g, lam, mu, config, taus, plan, inject, seed, drift):
    """_drive's loop over the steps of plan, for one batch of members.

    Members whose guard norm leaves the safety ball are frozen to NaN but keep
    consuming their noise stream, so survivors are unaffected by exclusions.
    Disparity tracking (drift given) accumulates the integral of g - drift by
    the trapezoid rule on step nodes, reusing the step's own k1 stages: a
    segment's first stage closes the last one's trapezoid at the sample node,
    and one evaluation after the last step closes the run's.  A run with
    inject takes the noisy step, whose update and increment run, with the
    guard norm, in work arrays the loop owns; any other takes Lawson RK4.
    """
    members, modes = a0.shape
    stream = None if inject is None else _NoiseStream(seed, members, modes,
                                                      sum(n for n, _ in plan))
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

    spare, increment = (np.empty_like(a), np.empty_like(a)) if inject else (None, None)
    norm, norm_work = np.empty(members), np.empty((members, 2 * modes))
    for i, (n, h) in enumerate(plan):
        E = np.exp(-mu * lam * h)
        E2 = None if inject else np.exp(-mu * lam * (0.5 * h))
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
            if inject:
                a, spare = _expeuler_step(a, h, E, k1, out=spare), a
                np.add(a, inject(tau_n + h, sqrt_h, stream.next_step(), increment), out=a)
            else:
                a = _lawson4_step(a, tau_n, h, E, E2, g, k1)
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
    if track:
        # close the trapezoid at the last sample node
        gap = g(a, taus[-1]) - drift(a)
        D = D + (0.5 * h_prev) * (gap_prev + gap)
        np.maximum(disp_max, np.abs(D), out=disp_max)
    return {"states": states, "dead": dead, "death_tau": death_tau,
            "death_norm": death_norm, "bound": bound, "disp_max": disp_max}


def _sharded(propagate, members):
    """propagate(0, members), with the members from split on run by one forked
    child where fork is available.  split is half the members rounded down to
    a multiple of _SHARD_ROWS, so each member rounds as in an unsharded run;
    fewer than 2 * _SHARD_ROWS members stay here.  The child sends back over a
    pipe what propagate(split, members) returned, or the exception it raised,
    which is raised here; the two results join along the member axis.  An
    error or an interrupt in the caller terminates the child, which is reaped
    however the run ends.
    """
    import multiprocessing  # imported by the first noisy run only
    split = members // 2 // _SHARD_ROWS * _SHARD_ROWS
    if split == 0 or "fork" not in multiprocessing.get_all_start_methods():
        return propagate(0, members)
    connection, child_end = multiprocessing.Pipe(duplex=False)

    def child():
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
        try:
            result = propagate(split, members)
        except Exception as exc:
            result = exc
        child_end.send(result)

    process = multiprocessing.get_context("fork").Process(target=child, daemon=True)
    process.start()
    child_end.close()
    try:
        mine = propagate(0, split)
        try:
            theirs = connection.recv()
        except EOFError:
            theirs = RuntimeError("the forked member shard ended without a result")
    except BaseException:
        process.terminate()
        raise
    finally:
        connection.close()
        process.join()
    if isinstance(theirs, Exception):
        raise theirs
    return {name: None if part is None else
            np.concatenate((part, theirs[name]), axis=1 if name == "states" else 0)
            for name, part in mine.items()}


# -- run helpers: one per system, shared by single runs and ensembles --------

def _rotated_field(spec, frame, epsilon):
    """The full system's field Y(a, tau / epsilon), the one spelling of fast time."""
    field, inv_eps = Field(spec, frame), 1.0 / epsilon
    return lambda x, tau: eval_Y(x, inv_eps * tau, field)


def _run_full(state, members, spec, frame, config, noise=None, seed=None, drift=None):
    """Drive the rotated full system from state over `members` members; a drift
    given tracks the disparity, and must be of this spec and frame."""
    if drift is not None and (drift.spec != spec or (
            drift.frame is not frame and drift.frame.content_hash() != frame.content_hash())):
        raise ConfigError("disparity tracking needs a drift of the run's spec and frame")
    a0 = _initial_batch(state, members, frame.modes)
    inject = None if noise is None else _noise_injector(noise, frame, config.epsilon)
    return _drive(a0, _rotated_field(spec, frame, config.epsilon), frame.eigenvalues,
                  spec.mu, config, oscillation_step(config, frame.eigenvalues),
                  inject=inject, seed=seed, drift=drift)


def _run_effective(state, members, drift, config, noise=None, seed=None):
    """Drive the averaged system of a drift from state over `members` members."""
    a0 = _initial_batch(state, members, drift.frame.modes)
    inject = None if noise is None else _noise_injector(noise, drift.frame, clusters=drift.clusters)
    return _drive(a0, lambda x, tau: drift(x), drift.frame.eigenvalues, drift.spec.mu,
                  config, config.dt, inject=inject, seed=seed)


def _initial_batch(state, members, modes):
    """The initial (members, modes) batch: one (modes,) state repeated, or an
    (n, modes) batch, where an ensemble needs n = members and a single run
    (members None) takes any n >= 1; any other shape is refused."""
    a0 = mode_vector(state)
    n = len(np.atleast_2d(a0)) if members is None else members
    if a0.shape not in ((modes,), (n, modes)) or n == 0:
        raise ConfigError(f"initial state must have shape ({modes},) or "
                          f"({'n >= 1' if members is None else members}, {modes}), got {a0.shape}")
    return np.broadcast_to(a0, (n, modes)).copy() if a0.ndim == 1 else a0


def _trajectory(run, shape, frame, epsilon=None, noise=None):
    """Every member of a single run from an initial state of the given shape:
    (samples, *shape) states.  Raises BlowUpError naming the first member that
    left the safety ball, or none for a (modes,) run."""
    dead = run["dead"]
    if dead.any():
        i = int(np.argmax(dead))
        raise BlowUpError(float(run["death_tau"][i]), float(run["death_norm"][i]),
                          float(run["bound"][i]), None if len(shape) == 1 else i)
    return Trajectory(
        taus=run["taus"], states=run["states"].reshape(-1, *shape), scheme=run["scheme"],
        epsilon=epsilon, seed=run["seed"], frame_hash=frame.content_hash(),
        noise_doc=None if noise is None else noise.to_document(),
        disparity_max=None if run["disp_max"] is None else run["disp_max"].reshape(shape),
        meta=run["meta"])


# -- public single-run integrators ------------------------------------------

def step_full_deterministic(state, tau, h, spec, frame, config):
    """Advance the full rotated system by one Lawson RK4 step, the step of a
    noiseless run.

    Refuses steps larger than the oscillation-resolving bound; the driver
    routines never produce such steps, so hitting this means a caller bug.
    """
    limit = oscillation_step(config, frame.eigenvalues)
    if h > limit * (1.0 + 1e-9):
        raise ConfigError(f"step {h:.3g} exceeds the oscillation bound {limit:.3g}")
    a, lam = mode_vector(state), frame.eigenvalues
    g = _rotated_field(spec, frame, config.epsilon)
    return _lawson4_step(a, tau, h, np.exp(-spec.mu * lam * h),
                         np.exp(-spec.mu * lam * (0.5 * h)), g, g(a, tau))


def integrate_full(state, spec, frame, config, drift=None, noise=None, seed=None):
    """Integrate the rotated full system from tau = 0 to tau_end, from one (M,)
    state or from each member of an (n, M) batch.

    Given the averaged drift of the same spec and frame, the running integral
    of Y - drift along the numerical trajectory is accumulated and sampled.
    Given noise that injects, the run is stochastic and needs a seed: member i
    draws noise from seed + i's stream.
    """
    run = _run_full(state, None, spec, frame, config, noise=noise, seed=seed, drift=drift)
    return _trajectory(run, np.shape(state), frame, config.epsilon, noise)


def integrate_effective(state, drift, config, noise=None, seed=None):
    """integrate_full's counterpart for the averaged equation of a drift (the
    resonant sum, or the quadrature route for oracle swaps), driven by the full
    system's noise; autonomous, so no oscillation refinement."""
    run = _run_effective(state, None, drift, config, noise=noise, seed=seed)
    return _trajectory(run, np.shape(state), drift.frame, noise=noise)


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


def _summarize(run, system, frame, noise):
    states, dead = run["states"], run["dead"]
    members = states.shape[1]
    excluded = [int(i) for i in np.flatnonzero(dead)]
    if len(excluded) > _MAX_EXCLUDED_FRACTION * members:
        raise EnsembleError(
            f"{len(excluded)} of {members} members blew up; "
            f"more than {_MAX_EXCLUDED_FRACTION:.0%} lost")
    alive = states[:, ~dead]
    n = alive.shape[1]
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
                          seed_base=run["seed"],
                          frame_hash=frame.content_hash(), disparity_mean=disp_mean,
                          meta={**run["meta"], "system": system,
                                "noise": noise.to_document()})


def ensemble_full(state, spec, frame, config, noise, members, seed_base, drift=None):
    """Batch of noisy full-system runs; member i uses Philox key seed_base + i.
    A drift given tracks the disparity as integrate_full does."""
    run = _run_full(state, members, spec, frame, config, noise=noise, seed=seed_base,
                    drift=drift)
    return _summarize(run, "full", frame, noise)


def ensemble_effective(state, drift, config, noise, members, seed_base):
    """Batch of noisy effective-equation runs with matched member seeding."""
    run = _run_effective(state, members, drift, config, noise=noise, seed=seed_base)
    return _summarize(run, "effective", drift.frame, noise)
