"""Population-based continuous minimizers: PSO, GWO, and BA.

All three minimize a scalar objective over the symmetric box
[-bound, bound]^dim and record an elitist (non-increasing) best-fitness
trace. They share one start (member streams and uniform initial
positions) and one checked evaluation of the whole population.

Randomness contract: the config seed expands into one independent stream
per population member, spawned in index order from a single SeedSequence.
Member i draws, in a fixed order, first its initial position and then its
per-iteration variates (listed in each run function). Fitness updates are
reduced in member-index order, so results cannot depend on how objective
evaluations are scheduled.

PSO moves the whole swarm at once as (population, dim) arrays; GWO moves
the pack as such arrays in blocks of wolves, sized so that a block's draws
stay in cache, with the draw order and bits of a whole-pack move. Both
draw member i's k variate vectors of a step with one call:
``Generator.random(k * dim)`` is bit for bit the k consecutive
``random(dim)`` draws of a per-member loop. Their personal bests, global
best and leaders are chosen by array reductions that break ties as a
per-member loop does. BA's walk offsets are 2u - 1 from raw ``random(dim)``
variates u, the bits of ``uniform(-1, 1, dim)``. It flies every bat at
once against the global best held at the start of an iteration; when bat
i moves it, bats i + 1 onward are flown again, as in the per-member loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import ConfigBase, csv_text
from .neuralnet import INPUT_SIZE, WEIGHT_BOUND, _bind, _check_batch, parameter_count, unflatten

Objective = Callable[[np.ndarray], float]

# Bytes of GWO draws moved as one block: small enough to stay in a core's L2.
GWO_BLOCK_BYTES = 1 << 20


class ObjectiveError(RuntimeError):
    """The objective returned a non-finite value."""


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
    the best after iteration t. ``acceptances``, BA's moves accepted per bat,
    is None for the other algorithms; a bat's final loudness is the
    configured loudness times alpha ** acceptances.
    """

    best_fitness: np.ndarray
    best_position: np.ndarray
    evaluations: int
    acceptances: np.ndarray | None = None

    def __post_init__(self):
        self.best_fitness = np.asarray(self.best_fitness, dtype=float)
        if np.any(np.diff(self.best_fitness) > 0.0):
            raise ValueError("best-fitness trace must be non-increasing")


def trace_csv(history: Sequence[float]) -> str:
    """Render a fitness/loss history as iteration,best_fitness CSV."""
    return csv_text(("iteration", "best_fitness"), enumerate(map(float, history)))


def _streams(seed: int, population: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(population)
    return [np.random.default_rng(c) for c in children]


def _start(config, dim: int, bound: float) -> tuple[list[np.random.Generator], np.ndarray]:
    """The member streams and the (population, dim) initial positions, each
    member's drawn from its own stream, uniform on [-bound, bound]. The
    positions come first: a population that memory cannot hold raises
    MemoryError before a single stream is built."""
    x = np.empty((config.population, dim))
    streams = _streams(config.seed, config.population)
    for stream, row in zip(streams, x):
        row[:] = stream.uniform(-bound, bound, dim)
    return streams, x


def _checked(objective: Objective, x: np.ndarray, iteration: int, member: int) -> float:
    value = float(objective(x))
    if not math.isfinite(value):
        raise ObjectiveError(
            f"objective returned non-finite value {value} at iteration {iteration}, member {member}")
    return value


def _evaluate(objective: Objective, positions: np.ndarray, iteration: int) -> np.ndarray:
    """Fitness of every member (row), evaluated in member order, so the first
    non-finite value raises."""
    return np.array([_checked(objective, x, iteration, i) for i, x in enumerate(positions)])


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


def pso_run(config: PsoConfig, dim: int, bound: float, objective: Objective) -> OptimizationTrace:
    """Global-best particle swarm with inertia weight.

    Per particle and iteration the stream yields r1 then r2 (one vector
    each). Velocities start at zero, are clamped per dimension to
    velocity_clamp times the box width, and positions are clipped to the
    box. The velocity update uses the previous iteration's global best; a
    new global best is the first particle to reach the lowest fitness.
    """
    streams, x = _start(config, dim, bound)
    v = np.zeros_like(x)
    vmax = config.velocity_clamp * 2.0 * bound
    draws = np.empty((config.population, 2 * dim))
    pbest, pbest_f = np.empty_like(x), np.full(config.population, math.inf)
    gbest, gbest_f = None, math.inf
    history, evaluations = [], 0

    for t in range(config.iterations + 1):
        if t:
            for stream, row in zip(streams, draws):
                stream.random(out=row)
            pso_velocity_update(v, x, pbest, gbest, draws[:, :dim], draws[:, dim:],
                                config.inertia_weight, config.cognitive_weight, config.social_weight)
            np.clip(v, -vmax, vmax, out=v)
            x += v
            np.clip(x, -bound, bound, out=x)
        fitness = _evaluate(objective, x, t)
        evaluations += len(fitness)
        better = fitness < pbest_f
        np.copyto(pbest, x, where=better[:, None])
        pbest_f[better] = fitness[better]
        g = int(np.argmin(pbest_f))
        if pbest_f[g] < gbest_f:
            gbest, gbest_f = pbest[g].copy(), float(pbest_f[g])
        history.append(gbest_f)
    return OptimizationTrace(np.array(history), gbest, evaluations)


def gwo_move(x, leaders, a, streams, bound: float, draws, out):
    """Move every wolf (row of x) toward the three leaders; returns out.

    Wolf i's stream yields, in one call, the A-vector variates then the
    C-vector variates of each leader in turn. The pack moves in blocks of
    draws.shape[2] wolves, so that a block's draws stay in cache: wolf i of
    a block lands in draws[:, :, i] of the (3, 2, rows, dim) buffer, so
    that each leader's coefficients for the block are contiguous. Blocking
    changes neither the draw order nor any element's operations. With
    a = 0 the update collapses onto the leader mean.
    """
    rows, wolf = draws.shape[2], np.empty((3, 2, x.shape[1]))
    for start in range(0, len(streams), rows):
        block = streams[start:start + rows]
        xb, ob, db = x[start:start + rows], out[start:start + rows], draws[:, :, :len(block)]
        for i, stream in enumerate(block):
            db[:, :, i] = stream.random(out=wolf)
        ob.fill(0.0)
        for (coef_a, term), leader in zip(db, leaders):
            coef_a *= 2.0 * a
            coef_a -= a
            term *= 2.0 * leader  # the bits of (term * 2.0) * leader: doubling is exact
            term -= xb
            np.abs(term, out=term)
            term *= coef_a
            ob += np.subtract(leader, term, out=term)
        ob /= 3.0
        np.clip(ob, -bound, bound, out=ob)
    return out


def gwo_run(config: GwoConfig, dim: int, bound: float, objective: Objective) -> OptimizationTrace:
    """Grey wolf optimizer with linearly decaying control scalar.

    The three fittest wolves seen so far (alpha, beta, delta) steer every
    move; on a tie an old leader ranks first, then the lower-index wolf.
    The control scalar a decays linearly from 2 to exactly 0 over the
    iterations. The pack moves in near-equal blocks, as few as keep a
    block's draws to about GWO_BLOCK_BYTES; their size depends only on
    population and dim.
    """
    streams, x = _start(config, dim, bound)
    moved = np.empty_like(x)
    blocks = max(1, -(-config.population * 3 * 2 * dim * 8 // GWO_BLOCK_BYTES))  # ceiling division
    draws = np.empty((3, 2, -(-config.population // blocks), dim))
    leaders, leader_f = np.empty((3, dim)), np.full(3, math.inf)
    history, evaluations = [], 0

    for t in range(config.iterations + 1):
        if t:
            a = 2.0 * (1.0 - t / config.iterations)
            x, moved = gwo_move(x, leaders, a, streams, bound, draws, moved), x
        fitness = _evaluate(objective, x, t)
        evaluations += len(fitness)
        pool_f = np.concatenate((leader_f, fitness))
        best = np.argsort(pool_f, kind="stable")[:3]
        # a copy, not views of x: the next move overwrites x's buffer
        leaders, leader_f = np.array([leaders[i] if i < 3 else x[i - 3] for i in best]), pool_f[best]
        history.append(float(leader_f[0]))
    return OptimizationTrace(np.array(history), leaders[0], evaluations)


def ba_flight(x, v, gbest, frequency, vmax, bound: float, steps, walking, loudness: float, v_out, out):
    """Fly a block of bats (rows of x) against the global best, in place.

    Row i of v_out gets bat i's frequency-scaled velocity and row i of out
    its candidate: the flight's, or, where walking[i] is set, a local walk
    from the global best by (2 * steps[i] - 1) * loudness, steps[i] being
    raw [0, 1) variates (only walking rows are read). A bat sitting at the
    global best with zero velocity stays put for any frequency.
    """
    np.subtract(x, gbest, out=v_out)
    v_out *= frequency[:, None]
    v_out += v
    np.clip(v_out, -vmax, vmax, out=v_out)
    np.clip(np.add(x, v_out, out=out), -bound, bound, out=out)
    if walking.any():
        out[walking] = np.clip(gbest + (steps[walking] * 2.0 - 1.0) * loudness, -bound, bound)


def ba_run(config: BaConfig, dim: int, bound: float, objective: Objective) -> OptimizationTrace:
    """Bat algorithm with loudness decay and rising pulse rate.

    Per bat and iteration the stream yields: the frequency variate, the
    local-walk trigger, dim walk variates u (only when triggered), and the
    acceptance variate. With probability equal to its pulse rate a bat
    abandons its flight for a local walk around the global best by 2u - 1
    (bit for bit ``uniform(-1, 1)``), scaled by the mean loudness. A
    candidate replaces the bat's position only when the acceptance draw
    falls below the bat's loudness AND the fitness improves; each
    acceptance decays the loudness by alpha and resets the pulse rate to
    pulse_rate * (1 - exp(-gamma * t)).

    The global best tracks every evaluated candidate, and each bat flies
    against it as the bats before it left it. A bat's draws and acceptance
    test depend only on its own stream, pulse rate and loudness, so each
    iteration makes them all first, flies every bat against the global
    best held at its start, and evaluates the candidates in bat order; when
    bat i moves the global best, bats i + 1 onward are flown again.
    """
    streams, x = _start(config, dim, bound)
    v, v_new, candidates, steps = np.zeros_like(x), np.empty_like(x), np.empty_like(x), np.empty_like(x)
    walking = np.zeros(config.population, dtype=bool)
    draws = np.empty(config.population)  # frequency variates
    vmax = config.velocity_clamp * 2.0 * bound
    loudness, pulse = [config.loudness] * config.population, [config.pulse_rate] * config.population
    acceptances = np.zeros(config.population, dtype=int)

    fitness = _evaluate(objective, x, 0).tolist()
    evaluations, gbest_f = len(fitness), min(fitness)
    gbest = x[fitness.index(gbest_f)].copy()
    history = [gbest_f]

    for t in range(1, config.iterations + 1):
        mean_loudness, accepting = float(np.mean(loudness)), []
        for i, rng in enumerate(streams):
            draws[i] = rng.random()
            walking[i] = walk = rng.random() < pulse[i]
            if walk:
                rng.random(out=steps[i])
            accepting.append(rng.random() < loudness[i])
        frequency = config.f_min + (config.f_max - config.f_min) * draws
        ba_flight(x, v, gbest, frequency, vmax, bound, steps, walking, mean_loudness, v_new, candidates)
        for i, candidate in enumerate(candidates):
            f = _checked(objective, candidate, t, i)
            evaluations += 1
            if accepting[i] and f < fitness[i]:
                x[i] = candidate
                fitness[i] = f
                loudness[i] *= config.alpha
                pulse[i] = config.pulse_rate * (1.0 - math.exp(-config.gamma * t))
                acceptances[i] += 1
            if f < gbest_f:
                gbest_f = f
                gbest = candidate.copy()
                rest = slice(i + 1, None)
                ba_flight(x[rest], v[rest], gbest, frequency[rest], vmax, bound, steps[rest],
                          walking[rest], mean_loudness, v_new[rest], candidates[rest])
        v, v_new = v_new, v
        history.append(gbest_f)
    return OptimizationTrace(np.array(history), gbest, evaluations, acceptances=acceptances)


def objective_from_dataset(hidden: int, X, y) -> Objective:
    """MSE of forward-pass predictions on a fixed normalized training set.

    A fitness only ranks candidates, so the forward pass runs in float32: the
    batch kernel is bound once, here, to the checked and cast training set, to
    its own buffers and to the views of a float32 weight buffer; each call
    copies the position into that buffer and runs the bound mse(), which sums
    the squared errors in float64. The flat layout puts b1 right after W1, so
    the first (n + 1) * h weights are [W1; b1] as one view, and X gets a ones
    column: the first product adds the hidden bias. On OpenBLAS's SkylakeX
    kernels that kept every bit where the product goes to sgemm; a width of 1
    or a 1-row set goes to sgemv, which may round the sums differently. A call
    allocates no batch-sized array: it is deterministic and invariant to the
    order of the training rows, but not re-entrant across threads.
    """
    w = np.empty(parameter_count(hidden), np.float32)
    W2, b2 = unflatten(w, np.float32)[2:]
    n, h = INPUT_SIZE, W2.size
    X, Y = _check_batch(X, y)
    X, Y = np.hstack([X, np.ones((len(X), 1))]).astype(np.float32), Y.astype(np.float32)
    mse = _bind((w[:(n + 1) * h].reshape(n + 1, h), None, W2, b2), X, Y)  # views of w

    def objective(position: np.ndarray) -> float:
        if np.shape(position) != w.shape:  # copyto would broadcast a scalar
            raise ValueError(f"weight vector has length {np.size(position)}, the network of hidden "
                             f"width {h} needs {w.size}")
        np.copyto(w, position)
        return mse()

    return objective


_RUNNERS = {"pso": (pso_run, PsoConfig), "gwo": (gwo_run, GwoConfig), "ba": (ba_run, BaConfig)}


def train_hybrid(algorithm: str, hidden: int, X, y,
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
    objective = objective_from_dataset(hidden, X, y)
    trace = runner(config, parameter_count(hidden), WEIGHT_BOUND, objective)
    return trace.best_position.copy(), trace
