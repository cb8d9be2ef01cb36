"""Time integration of the full rotated system and of its averaged limit.

Both systems share the stiff diagonal -mu lambda_k, handled exactly through
exponential (Lawson) schemes:

    full       da/dtau = -mu Lambda a + Y(a, tau / epsilon)      [+ noise]
    effective  da/dtau = -mu Lambda a + R(a)                     [+ B dbeta]

Deterministic runs use a Lawson RK4 step by default; stochastic runs use an
exponential Euler-Maruyama step.  Every run, single or ensemble, goes through
one batched driver, so a zero-amplitude stochastic run is bitwise identical to
the deterministic "expeuler" scheme.  Complex noise follows the convention
E|beta_l(tau)|^2 = 2 tau (independent standard real and imaginary parts).
"""

from dataclasses import dataclass, fields
import math
import threading

import numpy as np

from .errors import BlowUpError, ConfigError, EnsembleError
from .fields import ResonantDrift, eval_Y
from .spectral import mode_vector

SCHEMES = ("lawson4", "expeuler")
NOISE_CONVENTION = "E|beta_l(tau)|^2 = 2 tau"
_NOISE_BYTES = 1 << 22  # bytes of normals one refill of the noise buffer may hold


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
        if not (self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.tau_end > 0):
            raise ConfigError(f"tau_end must be positive, got {self.tau_end}")
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
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
    disparity: np.ndarray | None = None      # (samples, modes) accumulated gap
    disparity_max: np.ndarray | None = None  # running max of |gap integral|
    meta: dict | None = None

    def actions(self):
        return 0.5 * np.abs(self.states) ** 2

    def final_state(self):
        return self.states[-1]

    def physical_states(self, eigenvalues):
        """Undo the interaction rotation; identity for effective runs."""
        if self.epsilon is None:
            return self.states
        phases = np.exp(-1j * np.outer(self.taus / self.epsilon, eigenvalues))
        return phases * self.states


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

    def array(self):
        return np.asarray(self.amplitudes, dtype=float)

    def to_document(self):
        return {"amplitudes": list(self.amplitudes), "convention": NOISE_CONVENTION}

    @staticmethod
    def from_document(doc):
        return NoiseModel(tuple(doc["amplitudes"]))


class _NoiseStream:
    """Per-member Philox generators, drawn in step blocks of a bounded buffer.

    Member i always consumes its stream in the same order (2 * modes normals
    per step), so a member integrated alone reproduces its batch trajectory,
    and how the steps are split into refills does not change a single draw.
    steps_left is the number of steps the run still takes; _drive sets it, so
    no refill draws past the run's end.

    The buffer holds at most _NOISE_BYTES, or one step when a step is larger,
    and is split into two halves along the step axis.  While the caller
    consumes one half, one helper thread refills the other with the next
    steps; the halves swap once the caller has used up its half and the fill
    has ended.  The helper starts after a swap and is joined at the next one,
    and the caller draws only when no fill is pending, so each generator is
    used by one thread at a time and in the same order as a serial run.  A
    one-step buffer has no second half and is refilled in the calling thread.
    close() ends a pending fill; _drive calls it however the run ends.
    """

    def __init__(self, seed_base, members, modes):
        self.gens = [np.random.Generator(np.random.Philox(key=int(seed_base) + i))
                     for i in range(members)]
        self.modes = int(modes)
        self.steps_left = 0
        self._halves = None  # [half being consumed, half being refilled]
        self._cursor = self._filled = 0
        self._fill = None  # (thread, steps, errors) of the pending refill

    def _draw(self, half, steps):
        for g, block in zip(self.gens, half):
            g.standard_normal(out=block[:steps])

    def _draw_ahead(self, half, steps, errors):
        try:
            self._draw(half, steps)
        except BaseException as exc:
            errors.append(exc)  # re-raised in the caller by _join

    def _join(self):
        """Wait for the pending refill; returns its steps or re-raises its error."""
        thread, steps, errors = self._fill
        thread.join()
        self._fill = None
        if errors:
            raise errors[0]
        return steps

    def _swap(self):
        """Make the next drawn half current and start drawing the one after it."""
        members = len(self.gens)
        if self._halves is None:
            steps = max(1, min(self.steps_left,
                               _NOISE_BYTES // (16 * members * self.modes)))
            buffer = np.empty((members, steps, 2, self.modes))
            first = (steps + 1) // 2
            self._halves = [buffer[:, :first], buffer[:, first:]]
        if self._fill is not None:
            filled = self._join()
            self._halves.reverse()
        else:
            filled = max(1, min(self.steps_left, self._halves[0].shape[1]))
            self._draw(self._halves[0], filled)
            self.steps_left -= filled
        self._cursor, self._filled = 0, filled
        ahead = min(self.steps_left, self._halves[1].shape[1])
        if ahead > 0:
            self.steps_left -= ahead
            errors = []
            thread = threading.Thread(target=self._draw_ahead, daemon=True,
                                      args=(self._halves[1], ahead, errors))
            thread.start()
            self._fill = (thread, ahead, errors)

    def next_step(self):
        """Complex normals z_re + i z_im of shape (members, modes) for one step."""
        if self._cursor == self._filled:
            self._swap()
        z = self._halves[0][:, self._cursor]
        self._cursor += 1
        out = np.empty((len(self.gens), self.modes), dtype=complex)
        out.real, out.imag = z[:, 0], z[:, 1]
        return out

    def close(self):
        """Wait for a pending refill and drop it, errors included."""
        if self._fill is not None:
            self._fill[0].join()
            self._fill = None


def _full_noise_injector(noise, frame, epsilon):
    b = noise.array()
    if b.shape != (frame.modes,):
        raise ConfigError(f"noise has {b.size} amplitudes, the frame has {frame.modes} modes")
    if noise.is_zero:
        return None
    scaled = b[:, None] * frame.eigenvectors.T  # (basis l, mode k)
    lam = frame.eigenvalues

    def inject(tau, dbeta):
        # physical-space increment Psi(b dbeta), rotated into interaction frame
        phase = np.exp(1j * (tau / epsilon) * lam)
        return phase * (dbeta @ scaled)

    return inject


def _effective_noise_injector(diffusion):
    root = diffusion.root
    if not np.any(root):
        return None

    def inject(tau, dbeta):
        return dbeta @ root.T

    return inject


# -- batched driver ---------------------------------------------------------

def _lawson4_step(a, tau, h, E, E2, g, k1):
    k2 = g(E2 * (a + (0.5 * h) * k1), tau + 0.5 * h)
    k3 = g(E2 * a + (0.5 * h) * k2, tau + 0.5 * h)
    k4 = g(E * a + h * (E2 * k3), tau + h)
    return E * a + (h / 6.0) * (E * k1 + 2.0 * E2 * (k2 + k3) + k4)


def _expeuler_step(a, h, E, k1):
    return E * (a + h * k1)


def _segment_steps(taus, h_target):
    """Per-segment (count, width) pairs; widths divide segments exactly."""
    plan = []
    for t0, t1 in zip(taus[:-1], taus[1:]):
        seg = float(t1 - t0)
        n = max(1, math.ceil(seg / h_target - 1e-12))
        plan.append((n, seg / n))
    return plan


def _guard_weights(eigenvalues, s):
    return np.abs(np.asarray(eigenvalues, dtype=float)) ** s + 1.0


def _guard_norm(a, weights):
    return np.sqrt(np.sum(weights * np.abs(a) ** 2, axis=-1))


def _drive(a0, g, lam, mu, config, h_target, inject=None, stream=None, drift=None):
    """Propagate an (members, modes) batch over the sample grid.

    Members whose guard norm leaves the safety ball are frozen to NaN but keep
    consuming their noise stream, so survivors are unaffected by exclusions.
    Disparity tracking (drift given) accumulates the integral of g - drift by
    the trapezoid rule on step nodes, reusing the scheme's own k1 stages.
    The returned "meta" (h_target, steps) is what every result reports.
    """
    taus = config.sample_taus()
    members, modes = a0.shape
    states = np.empty((taus.size, members, modes), dtype=complex)
    states[0] = a0
    weights = _guard_weights(lam, config.blow_up_norm)
    bound = config.blow_up_factor * (_guard_norm(a0, weights) + 1.0)
    dead = np.zeros(members, dtype=bool)
    death_tau = np.full(members, np.nan)
    death_norm = np.full(members, np.nan)

    track = drift is not None
    disparity = np.zeros_like(states) if track else None
    disp_max = np.zeros((members, modes)) if track else None
    D = np.zeros((members, modes), dtype=complex)
    gap_prev = None
    h_prev = 0.0

    use_lawson = config.scheme == "lawson4"
    a = a0.astype(complex)
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
                    a = _expeuler_step(a, h, E, k1)
                if inject is not None:
                    a = a + inject(tau_n + h, sqrt_h * stream.next_step())
                with np.errstate(invalid="ignore"):
                    norm = _guard_norm(a, weights)
                    fresh = ~dead & (~np.isfinite(norm) | (norm > bound))
                if np.any(fresh):
                    dead |= fresh
                    death_tau[fresh] = tau_n + h
                    death_norm[fresh] = norm[fresh]
                    a[fresh] = np.nan
                total += 1
            states[i + 1] = a
            if track:
                # close the trapezoid at the sample node before recording
                gap = g(a, taus[i + 1]) - drift(a)
                D_here = D + (0.5 * h_prev) * (gap_prev + gap)
                disparity[i + 1] = D_here
                with np.errstate(invalid="ignore"):
                    np.maximum(disp_max, np.abs(D_here), out=disp_max)
    finally:
        if stream is not None:
            stream.close()
    return {
        "taus": taus, "states": states, "dead": dead,
        "death_tau": death_tau, "death_norm": death_norm, "bound": bound,
        "disparity": disparity, "disp_max": disp_max, "steps": total,
        "meta": {"h_target": h_target, "steps": total},
    }


# -- run helpers: one per system, shared by single runs and ensembles --------

def _full_field(spec, frame, epsilon):
    """Y(a, tau / epsilon) in slow time; the one place fast time is spelled."""
    inv_eps = 1.0 / epsilon
    return lambda x, tau: eval_Y(x, inv_eps * tau, spec, frame)


def _noise_stream(config, seed, members, modes, inject):
    """Member streams of a stochastic run; a seed of None marks a deterministic one,
    so it refuses noise that injects."""
    if seed is None:
        if inject is not None:
            raise ConfigError("a run whose noise injects needs a seed")
        return None
    if config.scheme != "expeuler":
        raise ConfigError("stochastic runs use scheme='expeuler'")
    return _NoiseStream(seed, members, modes)


def _run_full(a0, spec, frame, config, noise=None, seed=None, table=None,
              track_disparity=False):
    """Drive the rotated full system over an (members, modes) batch."""
    inject = None if noise is None else _full_noise_injector(noise, frame, config.epsilon)
    stream = _noise_stream(config, seed, *a0.shape, inject)
    drift = None
    if track_disparity:
        if table is None:
            raise ConfigError("disparity tracking needs a resonance table")
        drift = ResonantDrift(frame, spec, table)
    h_target = oscillation_step(config, frame.eigenvalues)
    return _drive(a0, _full_field(spec, frame, config.epsilon), frame.eigenvalues,
                  spec.mu, config, h_target, inject=inject, stream=stream, drift=drift)


def _run_effective(a0, spec, frame, config, table=None, drift=None,
                   diffusion=None, seed=None):
    """Drive the averaged system over an (members, modes) batch."""
    inject = None if diffusion is None else _effective_noise_injector(diffusion)
    stream = _noise_stream(config, seed, *a0.shape, inject)
    if drift is None:
        drift = ResonantDrift(frame, spec, table)
    return _drive(a0, lambda x, tau: drift(x), frame.eigenvalues, spec.mu, config,
                  config.dt, inject=inject, stream=stream)


def _trajectory(run, config, frame, epsilon=None, seed=None, noise_doc=None):
    """Member 0 of a single run; raises BlowUpError if it left the safety ball."""
    if run["dead"][0]:
        raise BlowUpError(float(run["death_tau"][0]), float(run["death_norm"][0]),
                          float(np.atleast_1d(run["bound"])[0]),
                          member=None if seed is None else 0)
    tracked = run["disparity"] is not None
    return Trajectory(
        taus=run["taus"], states=run["states"][:, 0], scheme=config.scheme,
        epsilon=epsilon, seed=None if seed is None else int(seed),
        frame_hash=frame.content_hash(), noise_doc=noise_doc,
        disparity=run["disparity"][:, 0] if tracked else None,
        disparity_max=run["disp_max"][0] if tracked else None,
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


def integrate_full(state, spec, frame, config, table=None, track_disparity=False):
    """Integrate the rotated full system from tau = 0 to tau_end.

    With track_disparity the running integral of Y - R along the numerical
    trajectory is accumulated and sampled; this needs a resonance table for
    the averaged drift.
    """
    run = _run_full(np.atleast_2d(mode_vector(state)), spec, frame, config,
                    table=table, track_disparity=track_disparity)
    return _trajectory(run, config, frame, epsilon=config.epsilon)


def integrate_effective(state, spec, frame, config, table=None, drift=None):
    """Integrate the averaged equation; autonomous, so no oscillation refinement.

    A custom drift callable (e.g. the quadrature route, for oracle swaps)
    replaces the resonant-sum drift built from the table.
    """
    run = _run_effective(np.atleast_2d(mode_vector(state)), spec, frame, config,
                         table=table, drift=drift)
    return _trajectory(run, config, frame)


def integrate_full_stochastic(state, spec, frame, config, noise, seed):
    """Single noisy trajectory of the full rotated system."""
    run = _run_full(np.atleast_2d(mode_vector(state)), spec, frame, config,
                    noise=noise, seed=seed)
    return _trajectory(run, config, frame, epsilon=config.epsilon, seed=seed,
                       noise_doc=noise.to_document())


def integrate_effective_stochastic(state, spec, frame, config, table, diffusion, seed):
    """Single noisy trajectory of the averaged equation."""
    run = _run_effective(np.atleast_2d(mode_vector(state)), spec, frame, config,
                         table=table, diffusion=diffusion, seed=seed)
    return _trajectory(run, config, frame, seed=seed)


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


def ensemble_full(state, spec, frame, config, noise, members, seed_base,
                  table=None, track_disparity=False):
    """Batch of noisy full-system runs; member i uses Philox key seed_base + i."""
    run = _run_full(_broadcast_members(state, members, frame.modes), spec, frame,
                    config, noise=noise, seed=seed_base, table=table,
                    track_disparity=track_disparity)
    return _summarize(run, seed_base, frame.content_hash(),
                      {**run["meta"], "system": "full", "noise": noise.to_document()})


def ensemble_effective(state, spec, frame, config, table, diffusion, members, seed_base):
    """Batch of noisy effective-equation runs with matched member seeding."""
    run = _run_effective(_broadcast_members(state, members, frame.modes), spec, frame,
                         config, table=table, diffusion=diffusion, seed=seed_base)
    return _summarize(run, seed_base, frame.content_hash(),
                      {**run["meta"], "system": "effective"})
