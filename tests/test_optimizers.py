import math
import tracemalloc

import numpy as np
import pytest

from cfrpnet import neuralnet
from cfrpnet.neuralnet import (WEIGHT_BOUND, NetworkTopology, _check_batch, _mse, _workspace, forward,
                               gradient, loss_mse, parameter_count)
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


def float32_mse(topology, w, X, y):
    """The shared kernel on a float32 workspace and float32 copies of the
    inputs: what the swarm objective computes."""
    X, Y = (a.astype(np.float32) for a in _check_batch(topology, X, y))
    acts = _workspace(topology, X.shape[0], np.float32)
    return _mse(topology, np.asarray(w).astype(np.float32), X, Y, acts, acts[-1])


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
            assert trace.final_fitness == trace.best_fitness[-1]
            assert len(trace.best_fitness) == cfg.iterations + 1

    def test_positions_stay_in_box(self):
        for name, run, cfg in small_configs():
            trace = run(cfg, 4, 0.7, sphere)
            assert np.all(trace.best_position >= -0.7), name
            assert np.all(trace.best_position <= 0.7), name

    def test_final_fitness_matches_position(self):
        for name, run, cfg in small_configs():
            trace = run(cfg, 4, HALF, sphere)
            assert sphere(trace.best_position) == pytest.approx(trace.final_fitness, rel=1e-12), name

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
        assert exc.value.iteration >= 1
        assert 0 <= exc.value.member < 8

    def test_error_at_initialization(self):
        def bad(x):
            return math.inf

        with pytest.raises(ObjectiveError) as exc:
            gwo_run(GwoConfig(population=5, iterations=5, seed=0), 3, HALF, bad)
        assert exc.value.iteration == 0


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
        draws = np.empty((len(wolves), 2 * wolves.shape[1]))
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

    def test_clipping_is_exercised(self):
        # the shifted-sphere cases end on the box face, where only clipping keeps them
        for run, cfg in ((pso_run, PsoConfig(population=9, iterations=25, seed=7)),
                         (gwo_run, GwoConfig(population=9, iterations=25, seed=7))):
            trace = run(cfg, 6, 0.2, shifted_sphere)
            assert np.any(trace.best_position == 0.2)


class TestBaUpdate:
    def test_stationary_at_global_best(self):
        gbest = np.array([0.1, 0.2])
        x, v = ba_flight(gbest.copy(), np.zeros(2), gbest, 1.7, np.full(2, 1.0), HALF)
        assert np.array_equal(x, gbest)
        assert np.array_equal(v, np.zeros(2))

    def test_loudness_geometric_decay(self):
        cfg = BaConfig(population=10, iterations=80, seed=5)
        trace = ba_run(cfg, 4, HALF, sphere)
        assert trace.loudness is not None and trace.acceptances is not None
        for a, k in zip(trace.loudness, trace.acceptances):
            assert a == pytest.approx(cfg.loudness * cfg.alpha ** int(k), rel=1e-9)
        assert trace.acceptances.sum() > 0

    def test_pinned_sphere_run(self):
        # BA has no reference loop: a small run pinned to the values of the array-box version
        trace = ba_run(BaConfig(population=6, iterations=20, seed=4), 4, HALF, sphere)
        assert trace.best_fitness[0] == 11.770849027235725
        assert trace.final_fitness == 0.22949788218087352
        assert trace.best_position.tolist() == [-0.002228280468333038, 0.07264323323401722,
                                                -0.3738305196090322, -0.2906314164387208]
        assert trace.acceptances.tolist() == [2, 6, 3, 6, 5, 5]
        assert trace.evaluations == 6 * 21

    def test_zero_pulse_rate_never_walks(self):
        # with pulse_rate 0 every move is a pure flight; still must optimize a bit
        cfg = BaConfig(population=10, iterations=40, seed=6, pulse_rate=0.0)
        trace = ba_run(cfg, 3, HALF, sphere)
        assert trace.best_fitness[-1] <= trace.best_fitness[0]


class TestSphereConvergence:
    def test_reference_runs_2d(self):
        # pinned reference runs: seeds recorded once (BA is seed-sensitive)
        assert pso_run(PsoConfig(seed=0), 2, HALF, sphere).final_fitness < 1e-6
        assert gwo_run(GwoConfig(seed=0), 2, HALF, sphere).final_fitness < 1e-6
        assert ba_run(BaConfig(seed=1), 2, HALF, sphere).final_fitness < 1e-6


class TestObjectiveFromDataset:
    def test_perfect_fit_is_zero(self):
        topology = NetworkTopology(1, (), 1)
        X = np.array([[0.2], [0.6]])
        y = np.array([0.2, 0.6])
        objective = objective_from_dataset(topology, X, y)
        assert objective(np.array([1.0, 0.0])) == 0.0

    def test_zero_weights_against_constant_targets(self):
        topology = NetworkTopology(3, (4,), 1)
        X = np.full((5, 3), 0.4)
        y = np.full(5, 0.5)
        objective = objective_from_dataset(topology, X, y)
        assert objective(np.zeros(parameter_count(topology))) == pytest.approx(0.25, rel=1e-15)

    def test_row_order_invariance(self):
        topology = NetworkTopology(2, (3,), 1)
        rng = np.random.default_rng(7)
        X = rng.uniform(0.1, 0.9, (20, 2))
        y = rng.uniform(0.1, 0.9, 20)
        w = rng.uniform(-0.5, 0.5, parameter_count(topology))
        perm = rng.permutation(20)
        a = objective_from_dataset(topology, X, y)(w)
        b = objective_from_dataset(topology, X[perm], y[perm])(w)
        assert a == pytest.approx(b, rel=1e-12)

    def test_wrong_length_position(self):
        topology = NetworkTopology(2, (3,), 1)
        objective = objective_from_dataset(topology, np.zeros((3, 2)), np.zeros(3))
        # a scalar or a length-1 array would broadcast into the weight buffer
        for position in (np.zeros(5), np.zeros(1), 0.0, np.zeros((1, 13))):
            with pytest.raises(ValueError, match="length"):
                objective(position)

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            objective_from_dataset(NetworkTopology(2, (), 1), np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("hidden_sizes", [(), (5,), (4, 3)])
    @pytest.mark.parametrize("hidden", ["sigmoid", "relu", "tanh"])
    @pytest.mark.parametrize("out", ["linear", "sigmoid"])
    def test_equals_loss_mse_exactly(self, hidden_sizes, hidden, out):
        topology = NetworkTopology(3, hidden_sizes, 1, hidden_activation=hidden,
                                   output_activation=out)
        rng = np.random.default_rng(len(hidden_sizes))
        X = rng.uniform(0.1, 0.9, (17, 3))
        y = rng.uniform(0.1, 0.9, 17)
        objective = objective_from_dataset(topology, X, y)
        X64, Y64 = _check_batch(topology, X, y)
        for _ in range(3):
            w = rng.uniform(-2.0, 2.0, parameter_count(topology))
            assert objective(w) == float32_mse(topology, w, X, y)
            # loss_mse stays the float64 kernel; the float32 ranking agrees with it closely
            acts64 = _workspace(topology, 17)
            loss = loss_mse(topology, w, X, y)
            assert loss == _mse(topology, w, X64, Y64, acts64, acts64[-1])
            assert objective(w) == pytest.approx(loss, rel=REL32)

    def test_repeated_and_interleaved_calls(self):
        topology = NetworkTopology(3, (6,), 1)
        rng = np.random.default_rng(4)
        X1, X2 = rng.uniform(0.1, 0.9, (20, 3)), rng.uniform(0.1, 0.9, (9, 3))
        y1, y2 = rng.uniform(0.1, 0.9, 20), rng.uniform(0.1, 0.9, 9)
        w1, w2 = rng.uniform(-0.5, 0.5, (2, parameter_count(topology)))
        first = objective_from_dataset(topology, X1, y1)
        second = objective_from_dataset(topology, X2, y2)
        expected = (float32_mse(topology, w1, X1, y1), float32_mse(topology, w2, X2, y2))
        for _ in range(3):
            assert first(w1) == expected[0]
            assert second(w2) == expected[1]
        assert [first(w1) for _ in range(4)] == [expected[0]] * 4

    def test_calls_allocate_no_batch_sized_array(self):
        # the reference-scale objective: 531 rows, 7 -> 50 -> 1
        topology = NetworkTopology(7, (50,), 1)
        rng = np.random.default_rng(9)
        objective = objective_from_dataset(topology, rng.uniform(0.0, 1.0, (531, 7)),
                                           rng.uniform(0.0, 1.0, 531))
        w = rng.uniform(-0.5, 0.5, parameter_count(topology))
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
        # float64: every weight view and activation the objective's kernel sees is float32
        topology = NetworkTopology(3, (5, 4), 1)
        rng = np.random.default_rng(11)
        X, y = rng.uniform(0.1, 0.9, (13, 3)), rng.uniform(0.1, 0.9, 13)
        w = rng.uniform(-0.5, 0.5, parameter_count(topology))
        seen, outputs = [], []
        real_unflatten, real_forward = neuralnet.unflatten, neuralnet._forward

        def spy_unflatten(*args):
            mats, biases = real_unflatten(*args)
            seen.extend(mats + biases)
            return mats, biases

        def spy_forward(topology, weights, X, acts=None):
            out = real_forward(topology, weights, X, acts)
            seen.extend([weights, X, *(acts or [])])
            outputs.append(out.copy())  # _mse then overwrites out with the squared errors
            return out

        monkeypatch.setattr(neuralnet, "unflatten", spy_unflatten)
        monkeypatch.setattr(neuralnet, "_forward", spy_forward)
        fitness = objective_from_dataset(topology, X, y)(w)
        assert len(seen) == 6 + 2 + 3 and len(outputs) == 1
        assert {a.dtype for a in seen + outputs} == {np.dtype(np.float32)}
        # float32 squared errors, summed in float64
        errors = outputs[0] - y.astype(np.float32)[:, None]
        assert fitness == np.square(errors).astype(np.float64).sum() / errors.size
        # backprop and serving stay float64
        seen.clear()
        outputs.clear()
        loss_mse(topology, w, X, y)
        gradient(topology, w, X, y)
        forward(topology, w, X[0])
        neuralnet.forward_batch(topology, w, X)
        assert seen and {a.dtype for a in seen + outputs} == {np.dtype(np.float64)}


class TestTrainHybrid:
    def test_single_record_exact_fit(self):
        topology = NetworkTopology(1, (), 1)
        X = np.array([[0.5]])
        y = np.array([0.45])
        for algorithm, cfg in [("pso", PsoConfig(population=15, iterations=150, seed=0)),
                               ("gwo", GwoConfig(population=15, iterations=150, seed=0))]:
            weights, trace = train_hybrid(algorithm, topology, X, y, cfg)
            assert trace.final_fitness < 1e-8, algorithm
        _, ba_trace = train_hybrid("ba", topology, X, y,
                                   BaConfig(population=15, iterations=150, seed=1))
        assert ba_trace.final_fitness < 1e-4

    def test_final_fitness_matches_naive_recomputation(self):
        topology = NetworkTopology(2, (3,), 1)
        rng = np.random.default_rng(8)
        X = rng.uniform(0.1, 0.9, (15, 2))
        y = rng.uniform(0.1, 0.9, 15)
        weights, trace = train_hybrid("pso", topology, X, y,
                                      PsoConfig(population=10, iterations=40, seed=2))
        # the trace holds the float32-ranked fitness of the returned weights
        assert trace.final_fitness == float32_mse(topology, weights, X, y)
        recomputed = sum((forward(topology, weights, X[i]) - y[i]) ** 2 for i in range(15)) / 15
        assert recomputed == pytest.approx(trace.final_fitness, rel=REL32)

    @pytest.mark.parametrize("algorithm, config", [
        ("pso", PsoConfig(population=8, iterations=20, seed=0)),
        ("gwo", GwoConfig(population=8, iterations=20, seed=0)),
        ("ba", BaConfig(population=8, iterations=20, seed=0))])
    def test_search_box_bound(self, algorithm, config):
        # the best fit, slope 1 and intercept -0.1, lies outside the box: the search stops at its edge
        topology = NetworkTopology(1, (), 1)
        X = np.array([[0.5], [0.7]])
        y = np.array([0.4, 0.6])
        weights, _ = train_hybrid(algorithm, topology, X, y, config)
        assert np.all(np.abs(weights) <= WEIGHT_BOUND)
        assert np.any(np.abs(weights) == WEIGHT_BOUND)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            train_hybrid("sa", NetworkTopology(1, (), 1), np.zeros((2, 1)), np.zeros(2), PsoConfig())

    def test_config_type_checked(self):
        with pytest.raises(ValueError, match="expects"):
            train_hybrid("pso", NetworkTopology(1, (), 1), np.zeros((2, 1)), np.zeros(2),
                         GwoConfig())
