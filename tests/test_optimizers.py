import inspect
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from cfrpnet import neuralnet, optimizers
from cfrpnet.neuralnet import WEIGHT_BOUND, forward, gradient, loss_mse, parameter_count, unflatten
from cfrpnet.optimizers import (
    BaConfig,
    GwoConfig,
    ObjectiveError,
    OptimizationTrace,
    PsoConfig,
    _streams,
    ba_flight,
    ba_run,
    gwo_move,
    gwo_run,
    objective_from_dataset,
    pso_run,
    pso_velocity_update,
    trace_csv,
    train_hybrid,
)

from conftest import assert_rejects_bad_values


def sphere(x):
    return float(np.dot(x, x))


# the sphere tests search [-5.12, 5.12] per dimension
HALF = 5.12


SMALL = dict(population=12, iterations=60, seed=3)
# the swarm objective's float32 fitness against the float64 loss: float32 rounds at
# 6e-8, and a forward pass plus MSE gathers a few such errors
REL32 = 1e-6


# The allocating matmul kernel the bound np.dot kernel replaced, kept as the exact reference.
def float32_forward(w, X, folded):
    """The float32 hidden activations and (n, 1) predictions, as fresh arrays, with the
    output layer an (h, 1) matrix and a (1,) bias taken from the flat vector here, not
    through unflatten. folded adds the hidden bias inside the first matmul, [X, 1] @ [W1; b1];
    else it is added after X @ W1."""
    w, h = np.asarray(w).astype(np.float32), (np.size(w) - 1) // 9
    W1, b1, W2, b2 = w[:7 * h].reshape(7, h), w[7 * h:8 * h], w[8 * h:-1].reshape(h, 1), w[-1:]
    if folded:
        X1 = np.hstack([X, np.ones((len(X), 1))]).astype(np.float32)
        hidden = np.tanh(np.matmul(X1, np.vstack([W1, b1])))
    else:
        hidden = np.tanh(np.matmul(np.asarray(X).astype(np.float32), W1) + b1)
    return hidden, np.matmul(hidden, W2) + b2


def _float32_squares_mean(pred, y):
    errors = pred - np.asarray(y).astype(np.float32)[:, None]
    return float(np.square(errors).sum(dtype=np.float64)) / errors.size  # np.mean's, in float64


def two_step_float32_mse(w, X, y):
    """The float32 kernel adding the hidden bias after the first matmul."""
    return _float32_squares_mean(float32_forward(w, X, folded=False)[1], y)


def bound_buffers(run):
    """The (n, h) and (n,) buffers a bound forward() or mse() computes in, read from the
    closure of the forward pass it runs."""
    forward = inspect.getclosurevars(run).nonlocals.get("forward", run)
    cells = inspect.getclosurevars(forward).nonlocals
    return cells["hidden"], cells["out"]


def float32_mse(w, X, y):
    """What the swarm objective computes: the float32 kernel with the hidden bias
    inside the first matmul, [X, 1] @ [W1; b1]."""
    return _float32_squares_mean(float32_forward(w, X, folded=True)[1], y)


def small_configs():
    return [
        ("pso", pso_run, PsoConfig(**SMALL)),
        ("gwo", gwo_run, GwoConfig(**SMALL)),
        ("ba", ba_run, BaConfig(**SMALL)),
    ]


class TestConfigs:
    def test_defaults_match_reference_settings(self):
        assert (PsoConfig().population, PsoConfig().iterations) == (70, 900)
        assert (GwoConfig().population, GwoConfig().iterations) == (75, 900)
        assert (BaConfig().population, BaConfig().iterations) == (80, 900)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            PsoConfig(population=1)
        with pytest.raises(ValueError):
            GwoConfig(population=2)
        with pytest.raises(ValueError):
            BaConfig(f_min=2.0, f_max=1.0)
        with pytest.raises(ValueError):
            BaConfig(alpha=1.0)
        for config in (PsoConfig(), GwoConfig(), BaConfig()):
            assert_rejects_bad_values(config)

    @pytest.mark.parametrize("cls", [PsoConfig, GwoConfig, BaConfig])
    @pytest.mark.parametrize("population", [2 ** 63, 10 ** 400], ids=["2**63", "10**400"])
    def test_population_past_maxsize_refused(self, cls, population):
        # numpy counts in a C ssize_t: SeedSequence.spawn raised OverflowError on these
        with pytest.raises(ValueError, match=f"population must be at most {sys.maxsize}$"):
            cls.from_dict({"population": population})
        assert cls(seed=10 ** 400).seed == 10 ** 400  # a seed has no upper bound

    @pytest.mark.parametrize("run, cls", [(pso_run, PsoConfig), (gwo_run, GwoConfig), (ba_run, BaConfig)])
    def test_population_past_memory_raises_before_member_streams(self, run, cls, monkeypatch):
        # 2**40 positions of the paper network's 451 weights are 3.5 PiB, past any address
        # space, so their allocation fails at once; the member streams, built one by one
        # until memory ran out, must not be reached
        monkeypatch.setattr(optimizers, "_streams", lambda *args: pytest.fail("member streams built"))
        with pytest.raises(MemoryError):
            run(cls(population=2 ** 40, iterations=1), 451, WEIGHT_BOUND, sphere)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            PsoConfig.from_dict({"population": 10, "bananas": 3})

    def test_from_dict_rejects_non_mapping(self):
        for data in (5, [("population", 10)], None):
            with pytest.raises(ValueError, match="mapping"):
                GwoConfig.from_dict(data)

    def test_from_dict_roundtrip(self):
        cfg = PsoConfig.from_dict({"population": 30, "iterations": 50, "seed": 9})
        assert cfg.population == 30 and cfg.iterations == 50 and cfg.seed == 9


class TestTraceContract:
    def test_non_increasing_and_final_entry(self):
        for name, run, cfg in small_configs():
            trace = run(cfg, 4, HALF, sphere)
            diffs = np.diff(trace.best_fitness)
            assert np.all(diffs <= 0.0), name
            assert len(trace.best_fitness) == cfg.iterations + 1

    def test_positions_stay_in_box(self):
        for name, run, cfg in small_configs():
            trace = run(cfg, 4, 0.7, sphere)
            assert np.all(trace.best_position >= -0.7), name
            assert np.all(trace.best_position <= 0.7), name

    def test_final_fitness_matches_position(self):
        for name, run, cfg in small_configs():
            trace = run(cfg, 4, HALF, sphere)
            assert sphere(trace.best_position) == pytest.approx(trace.best_fitness[-1], rel=1e-12), name

    def test_evaluation_budget(self):
        for name, run, cfg in small_configs():
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                return sphere(x)

            trace = run(cfg, 4, HALF, counted)
            assert calls == trace.evaluations, name
            assert calls == cfg.population * (cfg.iterations + 1), name

    def test_bitwise_determinism(self):
        for name, run, cfg in small_configs():
            t1 = run(cfg, 6, HALF, sphere)
            t2 = run(cfg, 6, HALF, sphere)
            assert np.array_equal(t1.best_fitness, t2.best_fitness), name
            assert np.array_equal(t1.best_position, t2.best_position), name

    def test_seed_changes_trajectory(self):
        t1 = pso_run(PsoConfig(population=12, iterations=30, seed=1), 4, HALF, sphere)
        t2 = pso_run(PsoConfig(population=12, iterations=30, seed=2), 4, HALF, sphere)
        assert not np.array_equal(t1.best_fitness, t2.best_fitness)

    def test_trace_validates_monotonicity(self):
        with pytest.raises(ValueError):
            OptimizationTrace(np.array([1.0, 2.0]), np.zeros(2), 4)

    def test_trace_csv_format(self):
        lines = trace_csv([3.0, 2.0, 1.5]).strip().split("\n")
        assert lines[0] == "iteration,best_fitness"
        assert lines[1] == "0,3.0"
        assert lines[-1] == "2,1.5"


class TestObjectiveErrors:
    def test_error_carries_iteration_and_member(self):
        calls = 0

        def flaky(x):
            nonlocal calls
            calls += 1
            return math.nan if calls > 20 else sphere(x)

        with pytest.raises(ObjectiveError) as exc:
            pso_run(PsoConfig(population=8, iterations=50, seed=0), 3, HALF, flaky)
        assert re.fullmatch(r"objective returned non-finite value nan at iteration [1-9]\d*, member [0-7]",
                            str(exc.value))

    def test_error_at_initialization(self):
        def bad(x):
            return math.inf

        with pytest.raises(ObjectiveError) as exc:
            gwo_run(GwoConfig(population=5, iterations=5, seed=0), 3, HALF, bad)
        assert str(exc.value) == "objective returned non-finite value inf at iteration 0, member 0"


class TestPsoUpdate:
    def test_stationary_at_shared_best(self):
        # particle sitting on pbest == gbest with zero velocity never moves
        x = np.array([0.3, -0.2])
        rng = np.random.default_rng(0)
        v = np.zeros(2)
        for _ in range(50):
            v = pso_velocity_update(v, x, x, x, rng.random(2), rng.random(2),
                                    0.729, 1.49445, 1.49445)
            assert np.array_equal(v, np.zeros(2))

    def test_pull_toward_best(self):
        v = pso_velocity_update(np.zeros(1), np.array([1.0]), np.array([0.0]),
                                np.array([0.0]), np.array([1.0]), np.array([1.0]),
                                0.729, 1.5, 1.5)
        assert v[0] < 0.0


class TestGwoUpdate:
    def _move(self, wolves, leaders, seed):
        streams = _streams(seed, len(wolves))
        draws = np.empty((3, 2, *wolves.shape))  # 6 * dim variates per wolf
        return gwo_move(wolves, leaders, 0.0, streams, HALF, draws,
                        np.empty_like(wolves))

    def test_zero_scalar_collapses_to_leader_mean(self):
        point = np.array([0.25, -0.4, 0.1])
        leaders = [point.copy(), point.copy(), point.copy()]
        wolves = np.array([[3.0, -3.0, 2.0], [-1.0, 0.5, 4.0], [0.0, 0.0, 0.0]])
        moved = self._move(wolves, leaders, 1)
        assert moved.shape == wolves.shape
        assert np.allclose(moved, point, atol=1e-15)

    def test_distinct_leaders_average_at_zero(self):
        leaders = [np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0])]
        moved = self._move(np.array([[0.0, 0.0], [4.0, -4.0]]), leaders, 2)
        assert np.allclose(moved, [[2.0, 2.0], [2.0, 2.0]], atol=1e-15)

    def test_blocked_move_matches_whole_pack(self):
        # 7 wolves through a 2-row draws buffer: three full blocks and a partial one
        rng = np.random.default_rng(4)
        wolves, leaders = rng.uniform(-HALF, HALF, (7, 5)), rng.uniform(-HALF, HALF, (3, 5))
        moved = [gwo_move(wolves, leaders, 1.3, _streams(9, 7), HALF, np.empty((3, 2, rows, 5)),
                          np.empty_like(wolves)) for rows in (7, 2)]
        assert np.array_equal(moved[0], moved[1])


def reference_pso_run(config, dim, half, objective):
    """Per-member PSO loop: each particle draws r1 then r2 and moves in turn.
    The box is given per dimension, as explicit lower and upper bound arrays."""
    streams = _streams(config.seed, config.population)
    lower, upper = np.full(dim, -half), np.full(dim, half)
    x = np.array([s.uniform(lower, upper) for s in streams])
    v = np.zeros_like(x)
    vmax = config.velocity_clamp * (upper - lower)
    pbest = x.copy()
    pbest_f = np.array([objective(x[i]) for i in range(config.population)])
    g = int(np.argmin(pbest_f))
    gbest, gbest_f = pbest[g].copy(), float(pbest_f[g])
    history = [gbest_f]
    evaluations = config.population
    for _ in range(config.iterations):
        for i in range(config.population):
            r1 = streams[i].random(dim)
            r2 = streams[i].random(dim)
            v[i] = (config.inertia_weight * v[i] + config.cognitive_weight * r1 * (pbest[i] - x[i])
                    + config.social_weight * r2 * (gbest - x[i]))
            np.clip(v[i], -vmax, vmax, out=v[i])
            x[i] = np.clip(x[i] + v[i], lower, upper)
        for i in range(config.population):
            f = objective(x[i])
            evaluations += 1
            if f < pbest_f[i]:
                pbest_f[i] = f
                pbest[i] = x[i].copy()
                if f < gbest_f:
                    gbest_f, gbest = f, x[i].copy()
        history.append(gbest_f)
    return OptimizationTrace(np.array(history), gbest, evaluations)


def reference_gwo_run(config, dim, half, objective):
    """Per-member GWO loop: each wolf draws A then C variates per leader.
    The box is given per dimension, as explicit lower and upper bound arrays."""
    streams = _streams(config.seed, config.population)
    lower, upper = np.full(dim, -half), np.full(dim, half)
    x = np.array([s.uniform(lower, upper) for s in streams])
    leaders = []  # (fitness, position), best first, at most three

    def offer(position, f):
        for k in range(3):
            if k == len(leaders) or f < leaders[k][0]:
                leaders.insert(k, (f, position.copy()))
                del leaders[3:]
                return

    for i in range(config.population):
        offer(x[i], objective(x[i]))
    history = [leaders[0][0]]
    evaluations = config.population
    for t in range(1, config.iterations + 1):
        a = 2.0 * (1.0 - t / config.iterations)
        for i in range(config.population):
            acc = np.zeros(dim)
            for _, leader in leaders:
                coef_a = 2.0 * a * streams[i].random(dim) - a
                coef_c = 2.0 * streams[i].random(dim)
                acc += leader - coef_a * np.abs(coef_c * leader - x[i])
            x[i] = np.clip(acc / 3.0, lower, upper)
        for i in range(config.population):
            offer(x[i], objective(x[i]))
            evaluations += 1
        history.append(leaders[0][0])
    return OptimizationTrace(np.array(history), leaders[0][1], evaluations)


def reference_ba_flight(x, v, gbest, frequency, vmax, bound):
    """One bat's frequency-scaled flight; returns (candidate, new velocity)."""
    v_new = np.clip(v + (x - gbest) * frequency, -vmax, vmax)
    return np.clip(x + v_new, -bound, bound), v_new


def reference_ba_run(config, dim, bound, objective):
    """Per-bat BA loop: each bat draws, flies against the global best as the
    bats before it left it, and is evaluated in turn."""
    streams = _streams(config.seed, config.population)
    x = np.array([s.uniform(-bound, bound, dim) for s in streams])
    v = np.zeros_like(x)
    vmax = config.velocity_clamp * 2.0 * bound
    loudness = np.full(config.population, config.loudness)
    pulse = np.full(config.population, config.pulse_rate)
    acceptances = np.zeros(config.population, dtype=int)

    fitness = np.array([float(objective(x[i])) for i in range(config.population)])
    evaluations = len(fitness)
    g = int(np.argmin(fitness))
    gbest, gbest_f = x[g].copy(), float(fitness[g])
    history = [gbest_f]

    for t in range(1, config.iterations + 1):
        mean_loudness = float(loudness.mean())
        for i, rng in enumerate(streams):
            frequency = config.f_min + (config.f_max - config.f_min) * rng.random()
            candidate, v[i] = reference_ba_flight(x[i], v[i], gbest, frequency, vmax, bound)
            if rng.random() < pulse[i]:
                walk = rng.uniform(-1.0, 1.0, dim)
                candidate = np.clip(gbest + walk * mean_loudness, -bound, bound)
            f = float(objective(candidate))
            evaluations += 1
            if rng.random() < loudness[i] and f < fitness[i]:  # the acceptance draw is always made
                x[i] = candidate
                fitness[i] = f
                loudness[i] *= config.alpha
                pulse[i] = config.pulse_rate * (1.0 - math.exp(-config.gamma * t))
                acceptances[i] += 1
            if f < gbest_f:
                gbest_f = f
                gbest = candidate.copy()
        history.append(gbest_f)
    return OptimizationTrace(np.array(history), gbest, evaluations, acceptances=acceptances)


def shifted_sphere(x):
    # minimum at 0.3 in every coordinate: outside the box [-0.2, 0.2], so clipping is active
    return float(np.sum((x - 0.3) ** 2))


def rounded_sphere(x):
    # fitness on a 0.1 grid: members and leaders tie often, so the tie rules decide
    return round(sphere(x), 1)


class TestVectorisedMatchesPerMemberLoop:
    @pytest.mark.parametrize("seed, population, dim, half, objective", [
        (0, 5, 1, 5.12, sphere),
        (3, 12, 4, 5.12, sphere),
        (11, 30, 13, 0.5, sphere),
        (7, 9, 6, 0.2, shifted_sphere),
        (5, 10, 3, 0.5, rounded_sphere),
    ])
    def test_pso(self, seed, population, dim, half, objective):
        # velocity_clamp=0.05 keeps the clamp active for most moves
        cfg = PsoConfig(population=population, iterations=25, seed=seed, velocity_clamp=0.05)
        got = pso_run(cfg, dim, half, objective)
        want = reference_pso_run(cfg, dim, half, objective)
        assert np.array_equal(got.best_fitness, want.best_fitness)
        assert np.array_equal(got.best_position, want.best_position)
        assert got.evaluations == want.evaluations

    @pytest.mark.parametrize("seed, population, dim, half, objective", [
        (0, 3, 1, 5.12, sphere),
        (3, 12, 4, 5.12, sphere),
        (11, 30, 13, 0.5, sphere),
        (7, 9, 6, 0.2, shifted_sphere),
        (5, 10, 3, 0.5, rounded_sphere),
    ])
    def test_gwo(self, seed, population, dim, half, objective):
        cfg = GwoConfig(population=population, iterations=25, seed=seed)
        got = gwo_run(cfg, dim, half, objective)
        want = reference_gwo_run(cfg, dim, half, objective)
        assert np.array_equal(got.best_fitness, want.best_fitness)
        assert np.array_equal(got.best_position, want.best_position)
        assert got.evaluations == want.evaluations

    # one GWO block holds 8 wolves of this dim, whatever the block budget
    BLOCK_DIM = optimizers.GWO_BLOCK_BYTES // (3 * 2 * 8 * 8)

    @pytest.mark.parametrize("population, dim, iterations, split", [
        (16, BLOCK_DIM, 10, "full"),  # two full blocks
        (17, BLOCK_DIM, 10, "partial"),  # the last block is a partial one
        (75, 451, 3, None),  # the reference pack: blocks of 38 and 37 wolves at 1 MiB
    ])
    def test_gwo_across_blocks(self, monkeypatch, population, dim, iterations, split):
        rows, real_move = [], optimizers.gwo_move

        def spy(x, leaders, a, streams, bound, draws, out):
            rows.append(draws.shape[2])
            return real_move(x, leaders, a, streams, bound, draws, out)

        monkeypatch.setattr(optimizers, "gwo_move", spy)
        cfg = GwoConfig(population=population, iterations=iterations, seed=2)
        got = gwo_run(cfg, dim, 0.5, sphere)
        want = reference_gwo_run(cfg, dim, 0.5, sphere)
        assert np.array_equal(got.best_fitness, want.best_fitness)
        assert np.array_equal(got.best_position, want.best_position)
        assert got.evaluations == want.evaluations
        assert len(rows) == iterations
        if split is not None:
            assert rows[0] < population and (population % rows[0] != 0) == (split == "partial")

    @staticmethod
    def assert_ba_matches(cfg, dim, half, objective):
        got = ba_run(cfg, dim, half, objective)
        want = reference_ba_run(cfg, dim, half, objective)
        assert np.array_equal(got.best_fitness, want.best_fitness)
        assert np.array_equal(got.best_position, want.best_position)
        assert got.evaluations == want.evaluations
        assert np.array_equal(got.acceptances, want.acceptances)

    @pytest.mark.parametrize("seed", [0, 4, 9, 23])
    @pytest.mark.parametrize("problem", ["sphere", "shifted_sphere", "rounded_sphere", "dataset"])
    def test_ba(self, problem, seed):
        if problem == "dataset":
            rng = np.random.default_rng(12)
            objective = objective_from_dataset(4, rng.uniform(0.1, 0.9, (20, 7)), rng.uniform(0.1, 0.9, 20))
            dim, half = parameter_count(4), WEIGHT_BOUND
        else:
            objective, dim, half = {"sphere": (sphere, 4, 5.12), "shifted_sphere": (shifted_sphere, 6, 0.2),
                                    "rounded_sphere": (rounded_sphere, 3, 0.5)}[problem]
        self.assert_ba_matches(BaConfig(population=10, iterations=25, seed=seed), dim, half, objective)

    @pytest.mark.parametrize("pulse_rate", [0.0, 1.0])
    def test_ba_pulse_rate_extremes(self, pulse_rate):
        # 0.0: every bat flies; 1.0: every bat walks, so only its velocity comes from the flight
        cfg = BaConfig(population=9, iterations=25, seed=7, pulse_rate=pulse_rate)
        self.assert_ba_matches(cfg, 5, 2.0, sphere)

    def test_ba_reflies_after_a_mid_iteration_best(self, monkeypatch):
        # a bat that moves the global best sends the bats after it on a second flight
        blocks, real_flight = [], optimizers.ba_flight

        def spy(x, *args):
            blocks.append(len(x))
            return real_flight(x, *args)

        monkeypatch.setattr(optimizers, "ba_flight", spy)
        cfg = BaConfig(population=12, iterations=25, seed=3)
        self.assert_ba_matches(cfg, 4, HALF, sphere)
        assert blocks.count(cfg.population) == cfg.iterations
        assert any(0 < n < cfg.population for n in blocks)

    def test_clipping_is_exercised(self):
        # the shifted-sphere cases end on the box face, where only clipping keeps them
        for run, cfg in ((pso_run, PsoConfig(population=9, iterations=25, seed=7)),
                         (gwo_run, GwoConfig(population=9, iterations=25, seed=7))):
            trace = run(cfg, 6, 0.2, shifted_sphere)
            assert np.any(trace.best_position == 0.2)


class TestBaUpdate:
    def test_stationary_at_global_best(self):
        # bats sitting at the global best with zero velocity stay put for any frequency
        gbest = np.array([0.1, 0.2])
        x, v = np.tile(gbest, (3, 1)), np.zeros((3, 2))
        v_out, out = np.full_like(x, np.nan), np.full_like(x, np.nan)
        ba_flight(x, v, gbest, np.array([0.0, 1.7, 2.0]), np.full(2, 1.0), HALF,
                  np.zeros_like(x), np.zeros(3, dtype=bool), 0.9, v_out, out)
        assert np.array_equal(out, x)
        assert np.array_equal(v_out, np.zeros_like(x))

    def test_walking_rows_land_on_the_scaled_uniform_offsets(self):
        # a walking bat's candidate is clip(gbest + uniform(-1, 1) * loudness) whatever its
        # flight, from the raw [0, 1) variates of its row; the other rows fly
        gbest, loudness, bound = np.array([0.1, -0.2, 0.3]), 0.7, 0.5
        x = np.array([[0.2, 0.1, -0.1], [-0.3, 0.4, 0.0], [0.1, 0.1, 0.1], [0.0, -0.4, 0.2]])
        v, frequency, vmax = np.full_like(x, 0.05), np.array([0.5, 1.0, 1.5, 2.0]), np.full(3, 0.2)
        walking = np.array([True, False, True, False])
        steps = np.full_like(x, np.nan)  # never read in a row that flies
        steps[0], steps[2] = [0.25, 0.5, 0.75], [0.0, 0.875, 0.5]
        v_out, out = np.empty_like(x), np.empty_like(x)
        ba_flight(x, v, gbest, frequency, vmax, bound, steps, walking, loudness, v_out, out)
        offsets = np.array([[-0.5, 0.0, 0.5], [-1.0, 0.75, 0.0]])
        assert np.array_equal(out[walking], np.clip(gbest + offsets * loudness, -bound, bound))
        assert out[2, 0] == -bound  # 0.1 - 0.7 lies beyond the box face
        flown = reference_ba_flight(x[~walking], v[~walking], gbest, frequency[~walking, None], vmax, bound)[0]
        assert np.array_equal(out[~walking], flown)
        assert np.array_equal(v_out, reference_ba_flight(x, v, gbest, frequency[:, None], vmax, bound)[1])
        assert not np.isnan(out).any()

    @pytest.mark.parametrize("seed", [0, 1, 4, 9, 23, 2 ** 40])
    def test_uniform_walk_is_doubled_random_minus_one(self, seed):
        # ba_run draws a walk with random(out=) and ba_flight maps u to u * 2 - 1: this holds
        # only while numpy's uniform(-1, 1) computes -1 + 2 * u from the same doubles
        for twin_a, twin_b in zip(_streams(seed, 3), _streams(seed, 3)):
            walk = twin_a.uniform(-1.0, 1.0, 451)
            assert walk.tobytes() == (twin_b.random(451) * 2.0 - 1.0).tobytes()
            assert twin_a.bit_generator.state == twin_b.bit_generator.state

    def test_acceptances_per_bat(self):
        # a bat's final loudness is loudness * alpha ** acceptances, so only the counts are kept
        cfg = BaConfig(population=10, iterations=80, seed=5)
        trace = ba_run(cfg, 4, HALF, sphere)
        assert trace.acceptances.shape == (cfg.population,)
        assert 0 < trace.acceptances.sum() and trace.acceptances.max() <= cfg.iterations

    def test_pinned_sphere_run(self):
        # a small run pinned to the values of the array-box version, on a correctly rounded
        # sphere: a BLAS ddot's sum differs in the last bit between OpenBLAS kernel sets
        trace = ba_run(BaConfig(population=6, iterations=20, seed=4), 4, HALF, lambda x: math.fsum(x * x))
        assert trace.best_fitness[0] == 11.770849027235725
        assert trace.best_fitness[-1] == 0.22949788218087355
        assert trace.best_position.tolist() == [-0.002228280468333038, 0.07264323323401722,
                                                -0.3738305196090322, -0.2906314164387208]
        assert trace.acceptances.tolist() == [2, 6, 3, 6, 5, 5]
        assert trace.evaluations == 6 * 21

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_pulse_rate_never_improves_on_first_best(self, seed):
        # with pulse_rate 0 every move is a pure flight, and Yang's velocity
        # term (x - gbest) * f points away from the best; on the sphere no move is accepted
        cfg = BaConfig(population=10, iterations=40, seed=seed, pulse_rate=0.0)
        trace = ba_run(cfg, 3, HALF, sphere)
        assert np.all(trace.best_fitness == trace.best_fitness[0])
        assert trace.acceptances.sum() == 0


class TestSphereConvergence:
    def test_reference_runs_2d(self):
        # pinned reference runs: seeds recorded once (BA is seed-sensitive)
        assert pso_run(PsoConfig(seed=0), 2, HALF, sphere).best_fitness[-1] < 1e-6
        assert gwo_run(GwoConfig(seed=0), 2, HALF, sphere).best_fitness[-1] < 1e-6
        assert ba_run(BaConfig(seed=1), 2, HALF, sphere).best_fitness[-1] < 1e-6


class TestObjectiveFromDataset:
    def test_perfect_fit_is_zero(self):
        # labels that are the net's own float32 predictions
        X = np.array([[0.2, 0.4, 0.1, 0.9, 0.3, 0.5, 0.7], [0.6, 0.8, 0.2, 0.1, 0.5, 0.3, 0.4]])
        w = np.array([1.0, -0.3, 0.5, 0.2, -0.6, 0.4, 0.1, 0.1, 0.8, 0.3])
        y = float32_forward(w, X, folded=True)[1][:, 0]
        objective = objective_from_dataset(1, X, y.astype(float))
        assert objective(w) == 0.0

    def test_zero_weights_against_constant_targets(self):
        X = np.full((5, 7), 0.4)
        y = np.full(5, 0.5)
        objective = objective_from_dataset(4, X, y)
        assert objective(np.zeros(parameter_count(4))) == pytest.approx(0.25, rel=1e-15)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.1, 0.9, (20, 7))
        y = rng.uniform(0.1, 0.9, 20)
        w = rng.uniform(-0.5, 0.5, parameter_count(3))
        perm = rng.permutation(20)
        a = objective_from_dataset(3, X, y)(w)
        b = objective_from_dataset(3, X[perm], y[perm])(w)
        assert a == pytest.approx(b, rel=1e-12)

    def test_wrong_length_position(self):
        objective = objective_from_dataset(3, np.zeros((3, 7)), np.zeros(3))
        # a scalar or a length-1 array would broadcast into the weight buffer; 10 weights are
        # another network's, of hidden width 1
        for position in (np.zeros(10), np.zeros(1), 0.0, np.zeros((1, 28))):
            with pytest.raises(ValueError, match="length .*the network of hidden width 3 needs 28"):
                objective(position)

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            objective_from_dataset(1, np.empty((0, 7)), np.empty(0))

    @pytest.mark.parametrize("hidden_size", [1, 5, 50])
    @pytest.mark.parametrize("rows", [17, 531])
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_equals_loss_mse_exactly(self, seed, rows, hidden_size):
        rng = np.random.default_rng(hidden_size * rows + seed)
        X = rng.uniform(0.1, 0.9, (rows, 7))
        y = rng.uniform(0.1, 0.9, rows)
        objective = objective_from_dataset(hidden_size, X, y)
        for _ in range(3):
            w = rng.uniform(-2.0, 2.0, parameter_count(hidden_size))
            assert objective(w) == float32_mse(w, X, y)
            # loss_mse stays the float64 kernel; the float32 ranking agrees with it closely
            loss = loss_mse(w, X, y)
            hidden = np.tanh(np.matmul(X, w[:7 * hidden_size].reshape(7, hidden_size))
                             + w[7 * hidden_size:8 * hidden_size])
            pred = np.matmul(hidden, w[8 * hidden_size:-1].reshape(hidden_size, 1)) + w[-1:]
            assert loss == float(np.mean(np.square(pred - y[:, None])))
            assert objective(w) == pytest.approx(loss, rel=REL32)

    # one and two rows, and a width of 1, are where BLAS takes its dot and gemv paths; 45 rows
    # is the small-data training split
    @pytest.mark.parametrize("hidden_size", [1, 5, 50])
    @pytest.mark.parametrize("rows", [1, 2, 45])
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_bit_identical_on_dot_and_gemv_shapes(self, seed, rows, hidden_size):
        rng = np.random.default_rng(100 * seed + 10 * hidden_size + rows)
        X = rng.uniform(0.1, 0.9, (rows, 7))
        y = rng.uniform(0.1, 0.9, rows)
        objective = objective_from_dataset(hidden_size, X, y)
        for _ in range(20):
            w = rng.uniform(-2.0, 2.0, parameter_count(hidden_size))
            assert objective(w) == float32_mse(w, X, y)

    @pytest.mark.parametrize("hidden_size", [5, 50])
    @pytest.mark.parametrize("rows", [17, 45, 531, 708])
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_folded_bias_is_bit_identical_on_sgemm_shapes(self, seed, rows, hidden_size):
        # numpy hands these shapes' first matmul to sgemm. The objective keeps the bits of the
        # folded [X, 1] @ [W1; b1]; whether those equal the bits of X @ W1 + b1 depends on the
        # OpenBLAS kernel set (SkylakeX's do, Haswell's round some sums differently), so the
        # two forms are held within float32's rounding of each other.
        rng = np.random.default_rng(1000 * seed + 10 * hidden_size + rows)
        X = rng.uniform(0.0, 1.0, (rows, 7))
        y = rng.uniform(0.0, 1.0, rows)
        objective = objective_from_dataset(hidden_size, X, y)
        for _ in range(100):
            w = rng.uniform(-2.0, 2.0, parameter_count(hidden_size))
            assert objective(w) == float32_mse(w, X, y)
            assert objective(w) == pytest.approx(two_step_float32_mse(w, X, y), rel=REL32)

    def test_repeated_and_interleaved_calls(self):
        rng = np.random.default_rng(4)
        X1, X2 = rng.uniform(0.1, 0.9, (20, 7)), rng.uniform(0.1, 0.9, (9, 7))
        y1, y2 = rng.uniform(0.1, 0.9, 20), rng.uniform(0.1, 0.9, 9)
        w1, w2 = rng.uniform(-0.5, 0.5, (2, parameter_count(6)))
        first = objective_from_dataset(6, X1, y1)
        second = objective_from_dataset(6, X2, y2)
        expected = (float32_mse(w1, X1, y1), float32_mse(w2, X2, y2))
        for _ in range(3):
            assert first(w1) == expected[0]
            assert second(w2) == expected[1]
        assert [first(w1) for _ in range(4)] == [expected[0]] * 4

    def test_calls_allocate_no_batch_sized_array(self):
        # the reference-scale objective: 531 rows, 7 -> 50 -> 1
        rng = np.random.default_rng(9)
        objective = objective_from_dataset(50, rng.uniform(0.0, 1.0, (531, 7)), rng.uniform(0.0, 1.0, 531))
        w = rng.uniform(-0.5, 0.5, parameter_count(50))
        objective(w)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                objective(w)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 531 * 50 * 8

    def test_computes_in_float32(self, monkeypatch):
        # np.asarray(weights, dtype=float) anywhere on the path would silently compute in
        # float64: every weight view, input, target and buffer the objective binds is float32,
        # and they are bound once, when the objective is made
        rng = np.random.default_rng(11)
        X, y = rng.uniform(0.1, 0.9, (13, 7)), rng.uniform(0.1, 0.9, 13)
        w = rng.uniform(-0.5, 0.5, parameter_count(5))
        views, bound = [], []
        real_unflatten, real_bind = neuralnet.unflatten, neuralnet._bind

        def spy_unflatten(*args):
            params = real_unflatten(*args)
            views.extend(params)
            return params

        def spy_bind(params, X, Y=None):
            run = real_bind(params, X, Y)
            bound.append((params, X, Y, bound_buffers(run)))
            return run

        for module in (neuralnet, optimizers):
            monkeypatch.setattr(module, "unflatten", spy_unflatten)
            monkeypatch.setattr(module, "_bind", spy_bind)
        objective = objective_from_dataset(5, X, y)
        assert len(views) == 4 and len(bound) == 1
        fitness = objective(w)
        assert objective(w) == fitness
        assert len(views) == 4 and len(bound) == 1  # the calls bind nothing
        (folded, no_bias, W2, b2), X1, Y, (hidden, out) = bound[0]
        # [W1; b1] spans unflatten's W1 and b1 in the one float32 weight buffer, which holds
        # the position
        assert no_bias is None and W2 is views[2] and b2 is views[3]
        assert folded.shape == (8, 5) and folded.base is views[0].base is W2.base
        assert np.shares_memory(folded, views[0]) and np.shares_memory(folded, views[1])
        assert np.array_equal(folded, np.vstack(views[:2]))
        assert np.array_equal(np.concatenate([folded.ravel(), W2, b2.ravel()]), w.astype(np.float32))
        assert X1.shape == (13, 8) and np.array_equal(X1, np.hstack([X, np.ones((13, 1))]).astype(np.float32))
        assert np.array_equal(Y, y.astype(np.float32)) and hidden.shape == (13, 5) and out.shape == (13,)
        arrays = [*views, folded, X1, Y, hidden, out]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        # float32 squared errors, left over the outputs and summed in float64
        pred = float32_forward(w, X, folded=True)[1][:, 0]
        assert out.tobytes() == np.square(pred - y.astype(np.float32)).tobytes()
        assert fitness == out.astype(np.float64).sum() / out.size
        # backprop and serving stay float64
        views.clear()
        bound.clear()
        loss_mse(w, X, y)
        gradient(w, X, y)
        forward(neuralnet.unflatten(w), X[0])
        neuralnet.forward_batch(neuralnet.unflatten(w), X)
        assert views and len(bound) == 3
        assert all(params[1] is not None for params, *_ in bound)  # unfolded: b1 is added
        arrays = [*views, *(a for params, X, Y, acts in bound for a in (*params, X, Y, *acts)
                            if isinstance(a, np.ndarray))]
        assert {a.dtype for a in arrays} == {np.dtype(np.float64)}


class TestTrainHybrid:
    def test_single_record_exact_fit(self):
        X = np.array([[0.5, 0.3, 0.7, 0.2, 0.6, 0.4, 0.8]])
        y = np.array([0.45])
        for algorithm, cfg in [("pso", PsoConfig(population=15, iterations=150, seed=0)),
                               ("gwo", GwoConfig(population=15, iterations=150, seed=0))]:
            weights, trace = train_hybrid(algorithm, 1, X, y, cfg)
            assert trace.best_fitness[-1] < 1e-8, algorithm
        _, ba_trace = train_hybrid("ba", 1, X, y, BaConfig(population=15, iterations=150, seed=1))
        assert ba_trace.best_fitness[-1] < 1e-4

    def test_final_fitness_matches_naive_recomputation(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.1, 0.9, (15, 7))
        y = rng.uniform(0.1, 0.9, 15)
        weights, trace = train_hybrid("pso", 3, X, y, PsoConfig(population=10, iterations=40, seed=2))
        # the trace holds the float32-ranked fitness of the returned weights
        assert trace.best_fitness[-1] == float32_mse(weights, X, y)
        params = unflatten(weights)
        recomputed = sum((forward(params, X[i]) - y[i]) ** 2 for i in range(15)) / 15
        assert recomputed == pytest.approx(trace.best_fitness[-1], rel=REL32)

    @pytest.mark.parametrize("algorithm, config", [
        ("pso", PsoConfig(population=8, iterations=20, seed=0)),
        ("gwo", GwoConfig(population=8, iterations=20, seed=0)),
        ("ba", BaConfig(population=8, iterations=20, seed=0))])
    def test_search_box_bound(self, algorithm, config):
        # the data has slope 1 in the one input that varies, but in the box the net's slope is at
        # most 0.5 * 0.5 * tanh' <= 0.25: the best fit lies outside the box, and the search stops
        # at its edge
        X = np.array([[0.5, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3], [0.7, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3]])
        y = np.array([0.4, 0.6])
        weights, _ = train_hybrid(algorithm, 1, X, y, config)
        assert np.all(np.abs(weights) <= WEIGHT_BOUND)
        assert np.any(np.abs(weights) == WEIGHT_BOUND)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            train_hybrid("sa", 1, np.zeros((2, 7)), np.zeros(2), PsoConfig())

    def test_config_type_checked(self):
        with pytest.raises(ValueError, match="expects"):
            train_hybrid("pso", 1, np.zeros((2, 7)), np.zeros(2), GwoConfig())
