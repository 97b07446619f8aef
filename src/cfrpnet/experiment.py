"""End-to-end experiment harness.

Runs the full model roster (gradient-trained net, swarm-trained nets, and
closed-form empirical baselines) on one shared seeded split, generates
synthetic databases with a known ground truth, sweeps single inputs, and
emits every report file as plain CSV/JSON. No plotting here, only the
data behind the plots.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import mechanics
from .dataset import (
    FIELD_BOUNDS,
    ConfigBase,
    NormalizationSpec,
    SpecimenRecord,
    csv_text,
    feature_matrix,
    fit_normalizer,
    json_text,
    parse_dataset,
    split,
    target_vector,
    write_text,
)
from .mechanics import EmpiricalModelParams
from .metrics import EvaluationReport, report_from_pairs
from .neuralnet import BackpropConfig, TrainedModel, parameter_count, save_model, train_backprop
from .optimizers import BaConfig, GwoConfig, PsoConfig, trace_csv, train_hybrid

TRAINABLE_MODELS = ("ann", "pso", "gwo", "ba")
ALL_MODELS = TRAINABLE_MODELS + mechanics.EMPIRICAL_MODELS
# Settings class of every model that takes settings. ExperimentConfig holds
# one of each under the model's name, read from its "models" mapping.
MODEL_CONFIGS = {"ann": BackpropConfig, "pso": PsoConfig, "gwo": GwoConfig, "ba": BaConfig,
                 "nonlinear": EmpiricalModelParams}
SWEEP_VARIABLES = ("fco", "d", "ef", "nt")

# Synthetic database generator. FIBER_STRAIN is the uniform sampling range
# of the fiber ultimate tensile strain. The synthetic confined strain
# exceeds the unconfined strain by STRAIN_PER_PRESSURE times the lateral
# pressure the jacket would exert at NOMINAL_FIBER_STRAIN; this surrogate
# is strictly increasing in the confinement stiffness ratio and exists only
# so the full seven-feature input contract stays exercisable. It is a
# data-generation device, not a mechanics claim.
FIBER_STRAIN = (0.0135, 0.0165)
NOMINAL_FIBER_STRAIN = 0.015
STRAIN_PER_PRESSURE = 0.0004  # dimensionless strain per MPa
MAX_ATTEMPTS_PER_RECORD = 10_000


def model_seed(master_seed: int, name: str) -> int:
    """Per-model seed derived from the master seed and the model name."""
    ss = np.random.SeedSequence([int(master_seed), zlib.crc32(name.encode("ascii"))])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def synth_dataset(n: int, seed: int, noise_fraction: float = 0.02) -> list[SpecimenRecord]:
    """Generate a synthetic specimen database with a known ground truth.

    Geometry, jacket, and concrete properties are sampled uniformly within
    the reference bounds (height pinned at twice the diameter). Each record
    carries its sampled hoop rupture strain, and the label is the Lam-Teng
    strength for that rupture strain, perturbed by multiplicative Gaussian
    noise of the given fraction. Candidate records whose derived label or
    confined strain leave the reference bounds are resampled, so every
    emitted field stays in range.
    """
    if n < 10:
        raise ValueError("synthetic datasets need n >= 10")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not 0.0 <= noise_fraction < np.inf:
        raise ValueError(f"noise_fraction must be non-negative and finite, got {noise_fraction}")
    rng = np.random.default_rng(seed)
    fcc_lo, fcc_hi = FIELD_BOUNDS["fcc"]
    ecc_lo, ecc_hi = FIELD_BOUNDS["ecc"]

    records: list[SpecimenRecord] = []
    for _ in range(n):
        for _attempt in range(MAX_ATTEMPTS_PER_RECORD):
            d = rng.uniform(*FIELD_BOUNDS["d"])
            nt = rng.uniform(*FIELD_BOUNDS["nt"])
            ef = rng.uniform(*FIELD_BOUNDS["ef"])
            fco = rng.uniform(*FIELD_BOUNDS["fco"])
            eco_pct = rng.uniform(*FIELD_BOUNDS["eco"])
            eps_f = rng.uniform(*FIBER_STRAIN)
            noise = rng.standard_normal()

            eps_h = mechanics.hoop_rupture_strain(eps_f, fco)
            f_l = mechanics.confinement_stress(ef * 1000.0, eps_h, nt, d)
            eps_h_nom = mechanics.hoop_rupture_strain(NOMINAL_FIBER_STRAIN, fco)
            f_l_nom = mechanics.confinement_stress(ef * 1000.0, eps_h_nom, nt, d)
            ecc_pct = eco_pct + 100.0 * STRAIN_PER_PRESSURE * f_l_nom
            fcc = mechanics.lam_teng(fco, f_l) * (1.0 + noise_fraction * noise)
            if fcc_lo <= fcc <= fcc_hi and ecc_lo <= ecc_pct <= ecc_hi:
                records.append(SpecimenRecord(d=d, h=2.0 * d, nt=nt, ef=ef, fco=fco,
                                              eco=eco_pct, ecc=ecc_pct, fcc=fcc,
                                              eps_h_rup=eps_h))
                break
        else:
            raise RuntimeError("synthetic sampler failed to draw an in-range record")
    return records


@dataclass
class SynthSpec(ConfigBase):
    """Synthetic-data request inside an experiment config, drawn with its master seed."""

    n: int = 708
    noise_fraction: float = 0.02


@dataclass
class ExperimentConfig(ConfigBase):
    """Configuration for a full comparison run.

    Exactly one data source is used: an explicit records argument to
    run_experiment, else ``dataset`` (CSV path), else ``synth``.
    ``fiber_strain`` is the fallback fiber ultimate strain from which the
    empirical baselines derive rupture strains when records carry none.
    """

    dataset: str | Path | None = None
    synth: SynthSpec | None = None
    roster: tuple[str, ...] = ("ann", "pso", "gwo", "ba", "lam_teng", "miyauchi")
    train_fraction: float = 0.75
    seed: int = 0
    out_dir: str | Path | None = None
    hidden_neurons: int = 50
    pso: PsoConfig = field(default_factory=PsoConfig)
    gwo: GwoConfig = field(default_factory=GwoConfig)
    ba: BaConfig = field(default_factory=BaConfig)
    ann: BackpropConfig = field(default_factory=BackpropConfig)
    nonlinear: EmpiricalModelParams | None = None
    fiber_strain: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if not self.roster:
            raise ValueError("roster must not be empty")
        for name in self.roster:
            if name not in ALL_MODELS:
                raise ValueError(f"unknown roster model {name!r}; choose from {ALL_MODELS}")
        if len(set(self.roster)) != len(self.roster):
            raise ValueError("roster models must be unique")
        if "nonlinear" in self.roster and self.nonlinear is None:
            raise ValueError("roster includes 'nonlinear' but no k/n parameters were given")
        parameter_count(self.hidden_neurons)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        """Build from a JSON-style mapping: each model's settings sit under
        ``models``, keyed by model name, and ``synth`` is a mapping. A model's
        settings hold no seed: run_experiment derives it from the master seed."""
        if not isinstance(data, Mapping):
            raise ValueError(f"experiment config must be a mapping, got {type(data).__name__}")
        kwargs = dict(data)
        models = kwargs.pop("models", {})
        if not isinstance(models, Mapping):
            raise ValueError(f"models must be a mapping, got {type(models).__name__}")
        unknown = sorted(str(name) for name in models if name not in MODEL_CONFIGS)
        if unknown:
            raise ValueError(f"unknown model config key(s): {', '.join(unknown)}")
        seeded = [name for name, given in models.items() if isinstance(given, Mapping) and "seed" in given]
        if seeded:
            raise ValueError(f"models.{seeded[0]}.seed is not a setting: compare derives each model's seed "
                             "from the master seed")
        kwargs.update((name, MODEL_CONFIGS[name].from_dict(settings)) for name, settings in models.items())
        if kwargs.get("synth") is not None:
            kwargs["synth"] = SynthSpec.from_dict(kwargs["synth"])
        return super().from_dict(kwargs)


# The comparison table's columns after "model", each a field of the model's EvaluationReport.
COMPARISON_COLUMNS = ("n", "accuracy_percent", "r_squared", "mse_pct", "mae_pct", "mse_mpa", "mae_mpa")


@dataclass
class ComparisonTable:
    """The report of each roster model that was scored, in roster order, plus the failures."""

    reports: dict[str, EvaluationReport]
    errors: dict[str, str]

    def _rows(self) -> list[tuple]:
        return [(name, *(getattr(report, c) for c in COMPARISON_COLUMNS))
                for name, report in self.reports.items()]

    def to_dict(self) -> dict:
        header = ("model", *COMPARISON_COLUMNS)
        return {"rows": [dict(zip(header, row)) for row in self._rows()], "errors": dict(self.errors)}

    def to_csv(self) -> str:
        return csv_text(("model", *COMPARISON_COLUMNS), self._rows())


@dataclass
class ExperimentResult:
    comparison: ComparisonTable
    models: dict[str, TrainedModel]
    histories: dict[str, list[float]]
    n_train: int
    n_test: int

    @property
    def reports(self) -> dict[str, EvaluationReport]:
        return self.comparison.reports


def train_model(name: str, cfg, hidden: int, norm: NormalizationSpec,
                X, y) -> tuple[TrainedModel, list[float]]:
    """Train one network of the roster, ``hidden`` tanh units wide, on rows normalized by ``norm``.

    ``cfg`` is an instance of ``MODEL_CONFIGS[name]``; its seed is used as
    given. Returns the model, which carries ``norm`` and the provenance
    record stored in its file, and the training history (loss per epoch
    for ann, best fitness per iteration for the swarms).
    """
    if name == "ann":
        weights, history = train_backprop(hidden, X, y, cfg)
        provenance = {"optimizer": "ann", "seed": cfg.seed, "iterations": cfg.epochs,
                      "learning_rate": cfg.learning_rate}
    else:
        weights, trace = train_hybrid(name, hidden, X, y, cfg)
        history = [float(v) for v in trace.best_fitness]
        provenance = {"optimizer": name, "seed": cfg.seed, "iterations": cfg.iterations,
                      "population": cfg.population}
    model = TrainedModel(weights=weights, normalization=norm, provenance=provenance)
    return model, history


def run_experiment(
    config: ExperimentConfig, records: Sequence[SpecimenRecord] | None = None
) -> ExperimentResult:
    """Train and evaluate the whole roster on one shared seeded split.

    The split seed, and each model's training seed, derive from the master
    seed, so the identical test split scores every model and a repeated
    run reproduces every artifact byte for byte. A single model's failure
    is recorded in the comparison's errors without aborting the rest.
    When ``config.out_dir`` is set all report files are written there.
    """
    if records is None:
        if config.dataset is not None:
            records = parse_dataset(config.dataset)
        elif config.synth is not None:
            records = synth_dataset(config.synth.n, config.seed, config.synth.noise_fraction)
        else:
            raise ValueError("config needs a dataset path, a synth spec, or explicit records")
    if not records:
        raise ValueError("dataset is empty")

    train, test = split(records, config.train_fraction, seed=model_seed(config.seed, "split"))
    if not test or len(train) < 2:
        short = "no test records" if not test else "fewer than 2 training records"
        raise ValueError(f"train_fraction {config.train_fraction} leaves {short}: "
                         f"{len(train)} train / {len(test)} test")
    norm = fit_normalizer(train)
    X_train = feature_matrix(train, norm)
    y_train = target_vector(train, norm)
    t_test_mpa = np.array([r.fcc for r in test], dtype=float)

    comparison = ComparisonTable(reports={}, errors={})
    models: dict[str, TrainedModel] = {}
    histories: dict[str, list[float]] = {}
    for name in config.roster:
        try:
            if name in TRAINABLE_MODELS:
                cfg = replace(getattr(config, name), seed=model_seed(config.seed, name))
                models[name], histories[name] = train_model(name, cfg, config.hidden_neurons, norm,
                                                            X_train, y_train)
                predictor = models[name]
            else:
                predictor = EmpiricalPredictor(name, config.nonlinear, eps_f=config.fiber_strain)
            comparison.reports[name] = report_from_pairs(t_test_mpa, predictor.predict_records(test), norm)
        except (ValueError, RuntimeError) as exc:  # isolate per-model domain failures
            comparison.errors[name] = f"{type(exc).__name__}: {exc}"
    result = ExperimentResult(comparison=comparison, models=models, histories=histories,
                              n_train=len(train), n_test=len(test))
    if config.out_dir is not None:
        write_experiment_outputs(result, config)
    return result


def write_model_files(out: Path, name: str, model: TrainedModel, history) -> tuple[Path, Path]:
    """Write ``model_<name>.json`` and ``trace_<name>.csv`` into out; returns their paths."""
    model_path, trace_path = out / f"model_{name}.json", out / f"trace_{name}.csv"
    save_model(model, model_path)
    write_text(trace_path, trace_csv(history))
    return model_path, trace_path


def write_experiment_outputs(result: ExperimentResult, config: ExperimentConfig) -> None:
    """Write comparison tables, per-model predictions/traces, and models."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "seed": config.seed,
        "train_fraction": config.train_fraction,
        "n_train": result.n_train,
        "n_test": result.n_test,
        "roster": list(config.roster),
        "comparison": result.comparison.to_dict(),
    }
    write_text(out / "comparison.json", json_text(payload))
    write_text(out / "comparison.csv", result.comparison.to_csv())
    for name, report in result.reports.items():
        write_text(out / f"predictions_{name}.csv", report.pairs_csv())
    for name, model in result.models.items():
        write_model_files(out, name, model, result.histories[name])


class EmpiricalPredictor:
    """Closed-form strength model behind the predict_values interface.

    The rupture strain is the input's own ``eps_h_rup`` entry, else derived
    from the constructor fiber strain ``eps_f``.
    """

    def __init__(self, model: str = "lam_teng", params: EmpiricalModelParams | None = None,
                 eps_f: float | None = None):
        mechanics.check_model(model, params)
        self.model = model
        self.params = params
        self.eps_f = eps_f

    def predict_records(self, records) -> np.ndarray:
        """Physical-unit predictions for a sequence of specimen records."""
        return np.array([mechanics.predict_record(r, model=self.model, params=self.params, eps_f=self.eps_f)
                         for r in records], dtype=float)

    def predict_values(self, values: Mapping[str, float]) -> tuple[float, list[str]]:
        fcc = mechanics.predict_record(values, model=self.model, params=self.params, eps_f=self.eps_f)
        return fcc, []


@dataclass(frozen=True)
class SweepSpec(ConfigBase):
    """One-variable sweep request: grid bounds plus fixed companions."""

    var: str
    start: float
    stop: float
    steps: int
    fixed: Mapping  # a subscripted Mapping[str, float] cannot go through isinstance

    def __post_init__(self):
        super().__post_init__()
        if self.var not in SWEEP_VARIABLES:
            raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if not self.stop > self.start:
            raise ValueError(f"sweep needs stop > start, got [{self.start}, {self.stop}]")


@dataclass
class SweepGrid:
    var: str
    values: np.ndarray
    fixed: dict[str, float]
    predictions: np.ndarray
    percent_change: float
    warnings: list[str]

    def to_csv(self) -> str:
        return csv_text((self.var, "prediction_mpa"), zip(self.values, self.predictions))

    def to_dict(self) -> dict:
        return {
            "var": self.var,
            "values": [float(v) for v in self.values],
            "fixed": {k: float(v) for k, v in self.fixed.items()},
            "predictions": [float(p) for p in self.predictions],
            "percent_change": self.percent_change,
            "warnings": list(self.warnings),
        }


def parametric_sweep(predictor, spec: SweepSpec) -> SweepGrid:
    """Evaluate a predictor over a strictly increasing grid in one input.

    ``predictor`` needs a ``predict_values(mapping) -> (fcc, warnings)``
    method (TrainedModel and EmpiricalPredictor both qualify). Grid points
    outside a trained model's normalization range only produce warnings,
    each distinct one once, in first-seen order; extrapolation is allowed.
    """
    values = np.linspace(spec.start, spec.stop, spec.steps)
    base = {k: float(v) for k, v in spec.fixed.items()}
    predictions = np.empty(spec.steps)
    warnings: dict[str, None] = {}  # an ordered set
    for i, v in enumerate(values):
        point = dict(base)
        point[spec.var] = float(v)
        fcc, point_warnings = predictor.predict_values(point)
        predictions[i] = fcc
        warnings.update(dict.fromkeys(point_warnings))
    if predictions[0] == 0.0:
        raise ValueError("cannot report percent change from a zero first prediction")
    percent = 100.0 * (predictions[-1] - predictions[0]) / predictions[0]
    return SweepGrid(var=spec.var, values=values, fixed=base,
                     predictions=predictions, percent_change=float(percent),
                     warnings=list(warnings))
