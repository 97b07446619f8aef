"""One benchmark session in a fresh interpreter.

Started by run.py with the BLAS thread variables pinned; not meant to be
run by hand. Usage: ``python3 session.py SPEC.json RESULT.json``.

The session times its set-up (``import cfrpnet``, parse, split,
normalize) and, unless the spec asks for set-up only, then runs reps
until the spec's seconds are spent. A rep is one closed-loop client doing
what a user does: ``run_experiment`` over the roster (train, score, write
report files), then serving from the written model files: load them, one
batch evaluation of the serving CSV with the models and the empirical
baselines, single-record ``predict_values`` requests, one sweep per sweep
variable, and ``cfrpnet predict`` calls through ``cli.main``.

Every timing is scaled by the host-speed probe timed around it
(hostspeed.py), and kept raw beside. Every output is checked; a failed
check fails its operation and is counted, never skipped. The result is
written as JSON to RESULT.json.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import hostspeed
import tracing

TRAINED = ("ann", "pso", "gwo", "ba")
SWARMS = ("pso", "gwo", "ba")
BASELINES = ("lam_teng", "miyauchi")
# Direction in which the Lam-Teng strength must move along each sweep
# variable when the others are held fixed (fco is not monotone in general).
LAM_TENG_SLOPE = {"d": -1, "ef": 1, "nt": 1}
REQUEST_RTOL = 1e-9  # single-row vs batch forward pass: a few ulp of BLAS order
# A rep's timed phases in order, with the parts of the host-speed probe
# that scale each (hostspeed.py); a probe runs before, between and after them.
PHASES = {"roster_s": hostspeed.WHOLE, "serve_s": hostspeed.ONE_ROW,
          "requests_s": hostspeed.ONE_ROW, "sweeps_cli_s": hostspeed.ONE_ROW}
TRAINER_SPANS = ("neuralnet.train_backprop", "optimizers.train_hybrid")


class Session:
    def __init__(self, spec, cfrpnet):
        self.spec = spec
        self.pkg = cfrpnet
        self.host_speed = None  # set once set-up is timed
        self.tracer = tracing.Tracer(cfrpnet)
        for name in TRAINER_SPANS:
            self.tracer.on_call[name] = self._probe_trainer
        self.tracer.on_return["neuralnet.train_backprop"] = self._probe_trainer
        self.tracer.on_return["optimizers.train_hybrid"] = self._on_train_hybrid
        self.tracer.on_return["dataset.parse_dataset"] = self._on_parse
        self.attempted = 0
        self.failures: list[str] = []
        self.reps: list[dict] = []
        self.latencies_ns: list[int] = []
        self.raw_latencies_ns: list[int] = []
        self.best_traced: dict | None = None
        self._hybrid: dict = {}
        self._parsed_records = 0

    # -- bookkeeping -------------------------------------------------------
    def op(self, ok: bool, what: str) -> None:
        """Count one operation; a failed one is recorded with what went wrong."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def _probe_trainer(self, op, *_):
        """Host-speed probe right before and right after each trainer call."""
        self._trainer_probes.setdefault(op, []).append(self.host_speed())

    def _on_train_hybrid(self, op, args, result):
        _, trace = result
        self._hybrid[op] = trace
        self._probe_trainer(op)

    def _on_parse(self, op, args, result):
        self._parsed_records += len(result)

    # -- set-up ------------------------------------------------------------
    def setup(self):
        ds = self.pkg.dataset
        self.records = ds.parse_dataset(self.spec["train_csv"])
        split_seed = self.pkg.experiment.model_seed(self.spec["experiment_seed"], "split")
        self.train, self.test = ds.split(self.records, self.spec["train_fraction"], seed=split_seed)
        self.norm = ds.fit_normalizer(self.train)
        self.config = self._experiment_config()
        requests = json.loads(Path(self.spec["requests_json"]).read_text(encoding="utf-8"))
        self.requests = requests["requests"]
        self.sweeps = requests["sweeps"]

    def _experiment_config(self):
        ex, opt, nn = self.pkg.experiment, self.pkg.optimizers, self.pkg.neuralnet
        s = self.spec
        pops = s["populations"]
        return ex.ExperimentConfig(
            roster=tuple(s["roster"]), seed=s["experiment_seed"],
            train_fraction=s["train_fraction"], hidden_neurons=s["hidden_neurons"],
            pso=opt.PsoConfig(population=pops["pso"], iterations=s["iterations"]),
            gwo=opt.GwoConfig(population=pops["gwo"], iterations=s["iterations"]),
            ba=opt.BaConfig(population=pops["ba"], iterations=s["iterations"]),
            ann=nn.BackpropConfig(epochs=s["epochs"]),
        )

    # -- one rep -----------------------------------------------------------
    def rep(self, index: int, traced: bool, work: Path) -> None:
        """One rep in four phases, with a host-speed probe around each.

        Every timing is stored scaled by the probes around its phase
        (hostspeed.py); the raw times go under ``raw``.
        """
        out_dir = work / f"rep{index}"
        config = replace(self.config, out_dir=str(out_dir))
        self.tracer.spans = []
        self._hybrid = {}
        self._trainer_probes = {}
        self._parsed_records = 0
        timings: dict = {"traced": traced, "warmup": index == 0}
        raw: dict = {}
        probes = [self.host_speed()]
        with self.tracer.install(full=traced):
            start = time.perf_counter()
            with self.tracer.operation(f"r{index}.roster"):
                result = self.pkg.experiment.run_experiment(config, self.records)
            raw["roster_s"] = time.perf_counter() - start - sum(
                hostspeed.HostSpeed.duration(probe)
                for pair in self._trainer_probes.values() for probe in pair)
            probes.append(self.host_speed())
            models = self.serve(index, out_dir, raw, traced, probes)
        scales = [hostspeed.HostSpeed.scale((a, b), parts)
                  for parts, a, b in zip(PHASES.values(), probes, probes[1:])]
        spans = self.tracer.spans
        trainers = {op: (end - begin) / 1e9 for name, begin, end, _, op in spans if name in TRAINER_SPANS}
        raw["train_s"] = {op.rsplit(".", 1)[1]: t for op, t in trainers.items()}
        raw["wall_s"] = sum(raw[phase] for phase in PHASES)
        timings.update(
            raw=raw, host_scale=scales, evaluate_records=raw.pop("evaluate_records"),
            r2=raw.pop("r2"),
            wall_s=sum(raw[phase] * scale for phase, scale in zip(PHASES, scales)),
            roster_s=raw["roster_s"] * scales[0],
            train_s={op.rsplit(".", 1)[1]: t * hostspeed.HostSpeed.scale(self._trainer_probes[op])
                     for op, t in trainers.items()},
            evaluate_s=raw["evaluate_s"] * scales[1],
        )
        raw_latencies = raw.pop("latencies_ns")
        if not traced and index > 0:
            self.latencies_ns.extend(ns * scales[2] for ns in raw_latencies)
            self.raw_latencies_ns.extend(raw_latencies)
        timings["outputs_sha256"] = _tree_digest(out_dir)
        self.check_roster(index, result, models, spans if traced else None)
        shutil.rmtree(out_dir)
        if traced and (self.best_traced is None or timings["wall_s"] < self.best_traced["wall_s"]):
            self.best_traced = {"wall_s": timings["wall_s"], "spans": spans, "op": f"r{index}.roster",
                                "hybrid": self._hybrid, "parsed": self._parsed_records}
        self.reps.append(timings)

    def serve(self, index, out_dir, raw, traced, probes):
        """Serving from the written model files, in three phases whose raw
        times go into ``raw``; a host-speed probe is appended after each."""
        pkg = self.pkg
        tracer = self.tracer
        models = {}
        phase_start = time.perf_counter()
        with tracer.operation(f"r{index}.load"):
            for name in TRAINED:
                models[name] = pkg.neuralnet.load_model(out_dir / f"model_{name}.json")

        start = time.perf_counter()
        with tracer.operation(f"r{index}.evaluate"):
            serve_records = pkg.dataset.parse_dataset(self.spec["serve_csv"])
            targets = [r.fcc for r in serve_records]
            predictions, reports = {}, {}
            for name, model in models.items():
                predictions[name] = model.predict_records(serve_records)
                reports[name] = pkg.metrics.report_from_pairs(targets, predictions[name],
                                                              model.normalization)
            for name in BASELINES:
                predictions[name] = [pkg.mechanics.predict_record(r, model=name)
                                     for r in serve_records]
                reports[name] = pkg.metrics.report_from_pairs(targets, predictions[name])
        raw["evaluate_s"] = time.perf_counter() - start
        raw["evaluate_records"] = len(serve_records)
        raw["r2"] = {name: report.r_squared for name, report in reports.items()}
        floors = self.spec["floors"]
        for name, report in reports.items():
            finite = all(math.isfinite(float(p)) for p in predictions[name])
            r2 = report.r_squared
            self.op(finite and r2 is not None and r2 >= floors[name],
                    f"rep {index} evaluate {name}: r2={r2} floor={floors[name]} finite={finite}")
        raw["serve_s"] = time.perf_counter() - phase_start
        probes.append(self.host_speed())

        phase_start = time.perf_counter()
        latencies, answers = [], []
        for j, request in enumerate(self.requests):
            name = TRAINED[j % len(TRAINED)]
            with tracer.operation(f"r{index}.q{j}"):
                t0 = time.perf_counter_ns()
                value, _ = models[name].predict_values(request["values"])
                latencies.append(time.perf_counter_ns() - t0)
            answers.append(value)
            expected = float(predictions[name][request["row"]])
            self.op(math.isfinite(value) and math.isclose(value, expected, rel_tol=REQUEST_RTOL),
                    f"rep {index} request {j} ({name}): {value!r} vs batch {expected!r}")
        raw["requests_s"] = time.perf_counter() - phase_start
        raw["latencies_ns"] = latencies
        probes.append(self.host_speed())

        phase_start = time.perf_counter()
        lam_teng = pkg.experiment.EmpiricalPredictor("lam_teng", eps_f=0.015)
        for sweep in self.sweeps:
            spec = pkg.experiment.SweepSpec(var=sweep["var"], start=sweep["start"],
                                            stop=sweep["stop"], steps=sweep["steps"],
                                            fixed=sweep["fixed"])
            for label, predictor in (("ann", models["ann"]), ("lam_teng", lam_teng)):
                with tracer.operation(f"r{index}.sweep.{label}.{spec.var}"):
                    grid = pkg.experiment.parametric_sweep(predictor, spec)
                ok = all(math.isfinite(float(p)) for p in grid.predictions)
                slope = LAM_TENG_SLOPE.get(spec.var) if label == "lam_teng" else None
                if ok and slope is not None:
                    steps = [slope * (b - a) for a, b in zip(grid.predictions, grid.predictions[1:])]
                    ok = all(step > 0.0 for step in steps)
                self.op(ok, f"rep {index} sweep {label} over {spec.var}")

        for j in range(min(self.spec["cli_requests"], len(self.requests))):
            request = self.requests[j]
            name = TRAINED[j % len(TRAINED)]
            argv = ["predict", str(out_dir / f"model_{name}.json"), "--format", "json",
                    "--input", ",".join(f"{k}={v!r}" for k, v in request["values"].items())]
            stdout, stderr = io.StringIO(), io.StringIO()
            with tracer.operation(f"r{index}.cli{j}"), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = pkg.cli.main(argv)
            ok = code == 0 and json.loads(stdout.getvalue())["fcc_mpa"] == answers[j]
            self.op(ok, f"rep {index} cli predict {j} ({name}): exit {code}")
        raw["sweeps_cli_s"] = time.perf_counter() - phase_start
        probes.append(self.host_speed())
        return models

    def check_roster(self, index, result, models, spans):
        """One op per roster model: errors, finiteness, traces, counts, round trip."""
        s = self.spec
        errors = result.comparison.errors
        objective_counts = {}
        if spans is not None:
            for name, _, _, _, op in spans:
                if name == tracing.OBJECTIVE:
                    objective_counts[op] = objective_counts.get(op, 0) + 1
        for name in s["roster"]:
            problems = []
            if name in errors:
                problems.append(errors[name])
            report = result.reports.get(name)
            if report is None or not all(math.isfinite(float(p)) for p in report.predictions):
                problems.append("missing or non-finite test predictions")
            if name in TRAINED and not problems:
                history = result.histories[name]
                length = (s["epochs"] if name == "ann" else s["iterations"]) + 1
                if len(history) != length:
                    problems.append(f"history has {len(history)} entries, expected {length}")
                if name in SWARMS:
                    if any(b > a for a, b in zip(history, history[1:])):
                        problems.append("best-fitness trace increases")
                    expected = s["populations"][name] * (s["iterations"] + 1)
                    trace = self._hybrid.get(f"r{index}.roster.{name}")
                    counted = [trace.evaluations if trace is not None else None]
                    if spans is not None:
                        counted.append(objective_counts.get(f"r{index}.roster.{name}", 0))
                    if any(c != expected for c in counted):
                        problems.append(f"evaluations {counted} != population x (iterations+1) = {expected}")
                model = models[name]
                if model.normalization.to_dict() != self.norm.to_dict():
                    problems.append("model normalization differs from the set-up's training split")
                loaded = model.predict_records(self.test)
                if list(map(float, loaded)) != list(map(float, report.predictions)):
                    problems.append("model file does not reproduce the run's test predictions")
            elif name in BASELINES and not problems:
                if report.r_squared is None or report.r_squared < s["floors"][name]:
                    problems.append(f"r2 {report.r_squared} below floor {s['floors'][name]}")
            self.op(not problems, f"rep {index} roster {name}: {'; '.join(problems)}")
        if (result.n_train, result.n_test) != (len(self.train), len(self.test)):
            self.op(False, f"rep {index}: split {result.n_train}/{result.n_test} differs from set-up")

    # -- per-layer numbers from the fastest traced rep ----------------------
    def layer_metrics(self) -> dict:
        """Per-layer metrics of the fastest traced rep, as the end-to-end
        numbers are taken from the fastest untraced one."""
        s, best = self.spec, self.best_traced
        spans = best["spans"]
        names = tracing.by_name(spans)

        def durations(name):
            return [d for d, _, _ in names.get(name, [])]

        def mean(values, scale):
            return sum(values) / len(values) / scale if values else float("nan")

        out = {}
        objective = names.get(tracing.OBJECTIVE, [])
        out["optimizers.objective_us"] = mean([d for d, _, _ in objective], 1e3)
        for alg in SWARMS:
            op = f"{best['op']}.{alg}"
            total = sum(d for d, _, i in names["optimizers.train_hybrid"] if spans[i][4] == op)
            busy = [d for d, _, i in objective if spans[i][4] == op]
            out[f"optimizers.update_us_per_iter.{alg}"] = (total - sum(busy)) / s["iterations"] / 1e3
            out[f"optimizers.evaluations.{alg}"] = len(busy)
            out[f"optimizers.evals_per_s.{alg}"] = len(busy) / (total / 1e9)
            out[f"optimizers.objective_share.{alg}"] = sum(busy) / total
        ba = best["hybrid"][f"{best['op']}.ba"]
        out["optimizers.ba.accept_ratio"] = int(ba.acceptances.sum()) / ba.evaluations
        out["neuralnet.backprop_epoch_us"] = sum(durations("neuralnet.train_backprop")) / s["epochs"] / 1e3
        batch = [d for d, _, i in names.get("neuralnet.forward_batch", [])
                 if spans[i][3] < 0 or spans[spans[i][3]][0] != "neuralnet.forward"]
        out["neuralnet.forward_batch_us"] = mean(batch, 1e3)
        out["neuralnet.forward_one_us"] = mean(durations("neuralnet.forward"), 1e3)
        out["neuralnet.save_model_ms"] = mean(durations("neuralnet.save_model"), 1e6)
        out["neuralnet.load_model_ms"] = mean(durations("neuralnet.load_model"), 1e6)
        out["experiment.write_outputs_ms"] = mean(
            [own for _, own, _ in names.get("experiment.write_experiment_outputs", [])], 1e6)
        out["dataset.parse_us_per_record"] = sum(durations("dataset.parse_dataset")) / best["parsed"] / 1e3
        out["dataset.split_ms"] = mean(durations("dataset.split"), 1e6)
        out["dataset.normalize_ms"] = mean(durations("dataset.fit_normalizer"), 1e6)
        out["mechanics.predict_record_us"] = mean(durations("mechanics.predict_record"), 1e3)
        out["metrics.report_ms"] = mean(durations("metrics.report_from_pairs"), 1e6)
        out["cli.predict_ms"] = mean(durations("cli.main"), 1e6)
        return out


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    start = time.perf_counter()
    import cfrpnet
    from cfrpnet import cli  # noqa: F401  (the package does not import its CLI; set-up does)
    src = Path(spec["src"]).resolve()
    if src not in Path(cfrpnet.__file__).resolve().parents:
        print(f"error: imported cfrpnet from {cfrpnet.__file__}, not from {src}", file=sys.stderr)
        return 2
    session = Session(spec, cfrpnet)
    session.setup()
    setup_s = time.perf_counter() - start
    session.host_speed = hostspeed.HostSpeed()
    probes = [session.host_speed() for _ in range(3)]
    host_scale = hostspeed.HostSpeed.scale(probes, hostspeed.PYTHON)
    result = {"setup_s": setup_s * host_scale, "setup_raw_s": setup_s, "setup_probes": probes}
    if spec["mode"] == "session":
        import numpy as np
        work = Path(spec["work_dir"])
        main_start = time.perf_counter()
        index = 0
        try:
            while index < spec["min_reps"] or time.perf_counter() - main_start < spec["seconds"]:
                session.rep(index, traced=spec["trace"] and index % 2 == 1, work=work)
                index += 1
        except Exception:  # a crash inside the program fails the run, with its traceback
            session.op(False, f"rep {index} raised:\n{traceback.format_exc()}")
        result.update(
            reps=session.reps, latencies_ns=session.latencies_ns,
            raw_latencies_ns=session.raw_latencies_ns,
            attempted=session.attempted, failed=len(session.failures),
            failures=session.failures[:20],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment=_environment(np),
        )
        if session.best_traced is not None:
            result["per_layer"] = session.layer_metrics()
            spans = session.best_traced["spans"]
            result["span_count"] = len(spans)
            spans_path = Path(spec["spans_path"])
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_path, "w", encoding="utf-8") as fh:
                for i, (name, begin, end, parent, op) in enumerate(spans):
                    fh.write(json.dumps({"id": i, "name": name, "start_ns": begin, "end_ns": end,
                                         "parent": parent, "op": op}) + "\n")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
