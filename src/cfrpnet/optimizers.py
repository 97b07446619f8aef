"""Population-based continuous minimizers: PSO, GWO, and BA.

All three minimize a scalar objective over a bounded box and record an
elitist (non-increasing) best-fitness trace.

Randomness contract: the config seed expands into one independent stream
per population member, spawned in index order from a single SeedSequence.
Member i draws, in a fixed order, first its initial position and then its
per-iteration variates (listed in each run function). Fitness updates are
reduced in member-index order, so results cannot depend on how objective
evaluations are scheduled.

PSO and GWO move the whole population at once as (population, dim)
arrays, drawing member i's k variate vectors of a step as one vector into
row i of a (population, k * dim) array: ``Generator.random(k * dim)`` is
bit for bit the k consecutive ``random(dim)`` draws of a per-member loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import ConfigBase, csv_text
from .neuralnet import WEIGHT_BOUND, NetworkTopology, _check_batch, _mse, _workspace, parameter_count

Objective = Callable[[np.ndarray], float]


class ObjectiveError(RuntimeError):
    """The objective returned a non-finite value."""

    def __init__(self, value: float, iteration: int, member: int):
        super().__init__(
            f"objective returned non-finite value {value} at iteration {iteration}, member {member}")
        self.value = value
        self.iteration = iteration
        self.member = member


@dataclass
class SearchSpace:
    """Axis-aligned box over which the optimizers search."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper bounds must be 1-D arrays of equal length")
        if not np.all(self.upper > self.lower):
            raise ValueError("every upper bound must exceed its lower bound")

    @classmethod
    def symmetric(cls, dimension: int, half_width: float) -> "SearchSpace":
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if half_width <= 0.0:
            raise ValueError("half_width must be positive")
        return cls(np.full(dimension, -half_width), np.full(dimension, half_width))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


@dataclass
class PsoConfig(ConfigBase):
    population: int = 70
    iterations: int = 900
    inertia_weight: float = 0.729
    cognitive_weight: float = 1.49445
    social_weight: float = 1.49445
    velocity_clamp: float = 0.2
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.inertia_weight < 0.0:
            raise ValueError("inertia_weight must be >= 0")
        if self.cognitive_weight <= 0.0 or self.social_weight <= 0.0:
            raise ValueError("cognitive_weight and social_weight must be positive")
        if not 0.0 < self.velocity_clamp <= 1.0:
            raise ValueError("velocity_clamp must lie in (0, 1]")


@dataclass
class GwoConfig(ConfigBase):
    population: int = 75
    iterations: int = 900
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        # three leaders are needed, so at least three wolves
        if self.population < 3:
            raise ValueError("population must be >= 3")


@dataclass
class BaConfig(ConfigBase):
    population: int = 80
    iterations: int = 900
    f_min: float = 0.0
    f_max: float = 2.0
    loudness: float = 1.0
    pulse_rate: float = 0.5
    alpha: float = 0.9
    gamma: float = 0.9
    velocity_clamp: float = 0.2
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not self.f_max > self.f_min >= 0.0:
            raise ValueError("frequency range must satisfy f_max > f_min >= 0")
        if self.loudness <= 0.0:
            raise ValueError("loudness must be positive")
        if not 0.0 <= self.pulse_rate <= 1.0:
            raise ValueError("pulse_rate must lie in [0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if not 0.0 < self.velocity_clamp <= 1.0:
            raise ValueError("velocity_clamp must lie in (0, 1]")


@dataclass
class OptimizationTrace:
    """Elitist optimization record.

    ``best_fitness[0]`` is the best after initial evaluation; entry t is
    the best after iteration t. ``loudness`` and ``acceptances`` are BA
    diagnostics, None for the other algorithms.
    """

    best_fitness: np.ndarray
    best_position: np.ndarray
    evaluations: int
    loudness: np.ndarray | None = None
    acceptances: np.ndarray | None = None

    def __post_init__(self):
        self.best_fitness = np.asarray(self.best_fitness, dtype=float)
        if np.any(np.diff(self.best_fitness) > 0.0):
            raise ValueError("best-fitness trace must be non-increasing")

    @property
    def final_fitness(self) -> float:
        return float(self.best_fitness[-1])


def trace_csv(history: Sequence[float]) -> str:
    """Render a fitness/loss history as iteration,best_fitness CSV."""
    return csv_text(("iteration", "best_fitness"), enumerate(map(float, history)))


def _streams(seed: int, population: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(population)
    return [np.random.default_rng(c) for c in children]


def _checked(objective: Objective, x: np.ndarray, iteration: int, member: int) -> float:
    value = float(objective(x))
    if not math.isfinite(value):
        raise ObjectiveError(value, iteration, member)
    return value


def pso_velocity_update(v, x, pbest, gbest, r1, r2, w, c1, c2):
    """Velocities of the swarm (rows of v) or of one particle, in place: v
    becomes w * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x), operation
    for operation; r1 and r2 are overwritten. Returns v."""
    v *= w
    r1 *= c1
    r1 *= pbest - x
    v += r1
    r2 *= c2
    r2 *= gbest - x
    v += r2
    return v


def pso_run(config: PsoConfig, space: SearchSpace, objective: Objective) -> OptimizationTrace:
    """Global-best particle swarm with inertia weight.

    Per particle and iteration the stream yields r1 then r2 (one vector
    each). Velocities start at zero, are clamped per dimension to
    velocity_clamp times the box width, and positions are clipped to the
    box. The velocity update uses the previous iteration's global best.
    """
    streams = _streams(config.seed, config.population)
    dim = space.dimension
    x = np.array([s.uniform(space.lower, space.upper) for s in streams])
    v = np.zeros_like(x)
    vmax = config.velocity_clamp * space.width
    draws = np.empty((config.population, 2 * dim))

    fitness = np.array([_checked(objective, x[i], 0, i) for i in range(config.population)])
    pbest = x.copy()
    pbest_f = fitness.copy()
    g = int(np.argmin(pbest_f))
    gbest = pbest[g].copy()
    gbest_f = float(pbest_f[g])
    history = [gbest_f]
    evaluations = config.population

    for t in range(1, config.iterations + 1):
        for stream, row in zip(streams, draws):
            stream.random(out=row)
        pso_velocity_update(v, x, pbest, gbest, draws[:, :dim], draws[:, dim:],
                            config.inertia_weight, config.cognitive_weight, config.social_weight)
        np.clip(v, -vmax, vmax, out=v)
        x += v
        np.clip(x, space.lower, space.upper, out=x)
        for i in range(config.population):
            f = _checked(objective, x[i], t, i)
            evaluations += 1
            if f < pbest_f[i]:
                pbest_f[i] = f
                pbest[i] = x[i]
                if f < gbest_f:
                    gbest_f = f
                    gbest = x[i].copy()
        history.append(gbest_f)
    return OptimizationTrace(np.array(history), gbest, evaluations)


def gwo_move(x, leaders, a, streams, space: SearchSpace, draws, out):
    """Move every wolf (row of x) toward the three leaders; returns out.

    For each leader in turn, wolf i's stream yields the A-vector variates
    then the C-vector variates, into row i of the (population, 2 * dim)
    buffer draws. With a = 0 the update collapses onto the leader mean.
    """
    dim = x.shape[1]
    coef_a, term = draws[:, :dim], draws[:, dim:]
    out.fill(0.0)
    for leader in leaders:
        for stream, row in zip(streams, draws):
            stream.random(out=row)
        coef_a *= 2.0 * a
        coef_a -= a
        term *= 2.0
        term *= leader
        term -= x
        np.abs(term, out=term)
        term *= coef_a
        out += np.subtract(leader, term, out=term)
    out /= 3.0
    return np.clip(out, space.lower, space.upper, out=out)


def gwo_run(config: GwoConfig, space: SearchSpace, objective: Objective) -> OptimizationTrace:
    """Grey wolf optimizer with linearly decaying control scalar.

    The three best-so-far wolves (alpha, beta, delta) steer every move;
    the control scalar a decays linearly from 2 to exactly 0 over the
    iterations.
    """
    streams = _streams(config.seed, config.population)
    x = np.array([s.uniform(space.lower, space.upper) for s in streams])
    moved = np.empty_like(x)
    draws = np.empty((config.population, 2 * space.dimension))

    leader_pos = [None, None, None]
    leader_f = [math.inf, math.inf, math.inf]

    def offer(position, f):
        rank = sum(f >= best for best in leader_f)  # leaders at least as fit
        if rank < 3:
            leader_pos.insert(rank, position.copy())
            leader_f.insert(rank, f)
            del leader_pos[3:], leader_f[3:]

    for i in range(config.population):
        offer(x[i], _checked(objective, x[i], 0, i))
    history = [leader_f[0]]
    evaluations = config.population

    for t in range(1, config.iterations + 1):
        a = 2.0 * (1.0 - t / config.iterations)
        x, moved = gwo_move(x, leader_pos, a, streams, space, draws, moved), x
        for i in range(config.population):
            offer(x[i], _checked(objective, x[i], t, i))
            evaluations += 1
        history.append(leader_f[0])
    return OptimizationTrace(np.array(history), leader_pos[0], evaluations)


def ba_flight(x, v, gbest, frequency, vmax, space: SearchSpace):
    """One bat's frequency-scaled flight; returns (candidate, new velocity).

    A bat sitting at the global best with zero velocity stays put for any
    frequency.
    """
    v_new = np.clip(v + (x - gbest) * frequency, -vmax, vmax)
    return space.clip(x + v_new), v_new


def ba_run(config: BaConfig, space: SearchSpace, objective: Objective) -> OptimizationTrace:
    """Bat algorithm with loudness decay and rising pulse rate.

    Per bat and iteration the stream yields: the frequency variate, the
    local-walk trigger, the walk offsets (only when triggered), and the
    acceptance variate. With probability equal to its pulse rate a bat
    abandons its flight for a local walk around the global best, scaled by
    the mean loudness. A candidate replaces the bat's position only when
    the acceptance draw falls below the bat's loudness AND the fitness
    improves; each acceptance decays the loudness by alpha and resets the
    pulse rate to pulse_rate * (1 - exp(-gamma * t)). The global best
    tracks every evaluated candidate.
    """
    streams = _streams(config.seed, config.population)
    dim = space.dimension
    x = np.array([s.uniform(space.lower, space.upper) for s in streams])
    v = np.zeros_like(x)
    vmax = config.velocity_clamp * space.width

    fitness = np.array([_checked(objective, x[i], 0, i) for i in range(config.population)])
    loudness = np.full(config.population, config.loudness)
    pulse = np.full(config.population, config.pulse_rate)
    acceptances = np.zeros(config.population, dtype=int)
    g = int(np.argmin(fitness))
    gbest = x[g].copy()
    gbest_f = float(fitness[g])
    history = [gbest_f]
    evaluations = config.population

    for t in range(1, config.iterations + 1):
        mean_loudness = float(loudness.mean())
        for i in range(config.population):
            rng = streams[i]
            beta = rng.random()
            frequency = config.f_min + (config.f_max - config.f_min) * beta
            candidate, v[i] = ba_flight(x[i], v[i], gbest, frequency, vmax, space)
            if rng.random() < pulse[i]:
                walk = rng.uniform(-1.0, 1.0, dim)
                candidate = space.clip(gbest + walk * mean_loudness)
            f = _checked(objective, candidate, t, i)
            evaluations += 1
            accept = rng.random()
            if accept < loudness[i] and f < fitness[i]:
                x[i] = candidate
                fitness[i] = f
                loudness[i] *= config.alpha
                pulse[i] = config.pulse_rate * (1.0 - math.exp(-config.gamma * t))
                acceptances[i] += 1
            if f < gbest_f:
                gbest_f = f
                gbest = candidate.copy()
        history.append(gbest_f)
    return OptimizationTrace(np.array(history), gbest, evaluations,
                             loudness=loudness, acceptances=acceptances)


def objective_from_dataset(topology: NetworkTopology, X, y) -> Objective:
    """MSE of forward-pass predictions on a fixed normalized training set.

    A fitness only ranks candidates, so the forward pass runs in float32:
    the training set is checked and cast once, here, each position is copied
    into a float32 weight buffer, and the squared errors are summed in
    float64. The objective owns its scratch buffers, so a call allocates no
    batch-sized array: it is deterministic and invariant to the order of the
    training rows, but not re-entrant across threads.
    """
    X, Y = (a.astype(np.float32) for a in _check_batch(topology, X, y))
    acts = _workspace(topology, X.shape[0], np.float32)
    w = np.empty(parameter_count(topology), np.float32)

    def objective(position: np.ndarray) -> float:
        if np.shape(position) != w.shape:  # copyto would broadcast a scalar
            raise ValueError(f"weight vector has length {np.size(position)}, topology needs {w.size}")
        np.copyto(w, position)
        return _mse(topology, w, X, Y, acts, acts[-1])

    return objective


_RUNNERS = {"pso": (pso_run, PsoConfig), "gwo": (gwo_run, GwoConfig), "ba": (ba_run, BaConfig)}


def train_hybrid(algorithm: str, topology: NetworkTopology, X, y,
                 config) -> tuple[np.ndarray, OptimizationTrace]:
    """Train the network's flat weights with one of the swarm optimizers.

    The search box is [-WEIGHT_BOUND, WEIGHT_BOUND] per parameter, the box
    the gradient baseline initializes from, so all trainers explore the
    same space.
    """
    if algorithm not in _RUNNERS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {tuple(_RUNNERS)}")
    runner, config_cls = _RUNNERS[algorithm]
    if not isinstance(config, config_cls):
        raise ValueError(f"{algorithm} expects a {config_cls.__name__}, got {type(config).__name__}")
    space = SearchSpace.symmetric(parameter_count(topology), WEIGHT_BOUND)
    objective = objective_from_dataset(topology, X, y)
    trace = runner(config, space, objective)
    return trace.best_position.copy(), trace
