"""Experiment configuration: a schema-versioned JSON key-value file.

A config describes one data distribution (marginal plus planted label
model), the learners to train, the evaluation pairs, the bound checks to
run, and the seeds.  An optional ``instances`` list sweeps corruption
settings on top of the base label model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import fenchel, learners, synth, transfer
from .errors import ConfigError, InvalidInputError

SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    marginal: synth.MarginalSpec
    label_model: synth.LabelModel
    n_train: int
    n_eval: int
    learners: list
    pairs: list = field(default_factory=list)
    checks: list = field(default_factory=lambda: ["sim_sqrt"])
    eps: float = 0.05
    seeds: list = field(default_factory=lambda: [0])
    instances: list = field(default_factory=list)   # (name, corruption) pairs

    def instance_models(self):
        """The label-model sweep: the base model under each instance name."""
        if not self.instances:
            return [("base", self.label_model)]
        out = []
        for name, corruption in self.instances:
            out.append((name, synth.LabelModel(
                self.label_model.planted_w, self.label_model.activation_tag,
                corruption=corruption, label_space=self.label_model.label_space,
                clip=self.label_model.clip)))
        return out


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _marginal_from(obj):
    kind = _require(obj, "kind", "marginal")
    try:
        return synth.MarginalSpec(
            kind=kind, dim=int(_require(obj, "dim", "marginal")),
            scale=float(obj.get("scale", 1.0)), dof=int(obj.get("dof", 5)),
            augment_constant=bool(obj.get("augment_constant", False)))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad marginal spec: {exc}") from exc


def _corruption_from(obj):
    if obj is None:
        return synth.Corruption()
    return synth.Corruption(
        kind=obj.get("kind", "none"), mass=float(obj.get("mass", 0.0)),
        level=float(obj.get("level", 0.0)), value=float(obj.get("value", 0.0)))


def _activation_tag(tag):
    try:
        fenchel.activation_from_tag(tag)
    except InvalidInputError as exc:
        raise ConfigError(f"unknown activation tag {tag!r}") from exc
    return tag


def _label_model_from(obj, total_dim):
    tag = _activation_tag(_require(obj, "activation", "label_model"))
    if "planted_w" in obj:
        w = np.asarray(obj["planted_w"], dtype=float)
        if w.size != total_dim:
            raise ConfigError(
                f"planted_w has dimension {w.size}, expected {total_dim}")
    else:
        norm = float(_require(obj, "norm", "label_model"))
        w = synth.planted_direction(
            total_dim, norm, int(obj.get("direction_seed", 0)),
            constant_weight=obj.get("constant_weight"))
    return synth.LabelModel(
        planted_w=tuple(float(v) for v in w),
        activation_tag=tag,
        corruption=_corruption_from(obj.get("corruption")),
        label_space=obj.get("label_space", "interval"),
        clip=bool(obj.get("clip", True)))


def _learner_entry(obj, idx):
    algo = _require(obj, "algorithm", f"learners[{idx}]")
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}")
    needs_activation, _ = ALGORITHMS[algo]
    entry = dict(obj)
    entry.setdefault("name", algo)
    if needs_activation:
        _activation_tag(_require(obj, "activation", f"learners[{idx}]"))
    _require(obj, "norm_bound", f"learners[{idx}]")
    return entry


def parse_config(obj):
    """Validate a parsed JSON object into an ExperimentConfig."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    version = _require(obj, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")
    data = _require(obj, "data", "config")
    marginal = _marginal_from(_require(data, "marginal", "data"))
    label_model = _label_model_from(_require(data, "label_model", "data"),
                                    marginal.total_dim)
    learner_objs = _require(obj, "learners", "config")
    if not isinstance(learner_objs, list):
        raise ConfigError("learners must be a list")
    entries = [_learner_entry(o, i) for i, o in enumerate(learner_objs)]
    pairs = [_activation_tag(tag) for tag in obj.get("pairs", [])]
    checks = obj.get("checks", ["sim_sqrt"])
    for i, chk in enumerate(checks):
        kind, *tags = chk.split(":")
        if kind not in transfer.CHECKS:
            raise ConfigError(f"unknown check {chk!r}")
        if len(tags) != transfer.CHECKS[kind][1]:
            raise ConfigError(f"check {chk!r} needs {transfer.CHECKS[kind][1]}"
                              f" activation tag(s) after {kind!r}")
        # rows are keyed by the check's theorem tag: one check per kind
        if kind in [c.split(":")[0] for c in checks[:i]]:
            raise ConfigError(f"check {chk!r}: only one {kind!r} check "
                              f"may be listed")
        for tag in tags:
            _activation_tag(tag)
    seeds = obj.get("seeds", [0])
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    instances = []
    for inst in obj.get("instances", []):
        name = _require(inst, "name", "instances[]")
        instances.append((name, _corruption_from(inst.get("corruption"))))
    return ExperimentConfig(
        marginal=marginal, label_model=label_model,
        n_train=int(data.get("n_train", 20000)),
        n_eval=int(data.get("n_eval", 50000)),
        learners=entries, pairs=pairs, checks=list(checks),
        eps=float(obj.get("eps", 0.05)), seeds=[int(s) for s in seeds],
        instances=instances)


def load_config(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(obj)


def _options(entry, kinds):
    """The options the entry sets, each converted by its kind (None: as
    given); options it leaves out keep the trainer's defaults."""
    return {key: entry[key] if kind is None else kind(entry[key])
            for key, kind in kinds.items() if key in entry}


OMNI_OPTIONS = {"eps_ma": float, "eps_cal": float, "eps_weak": None,
                "step": None, "bucket_width": float, "round_cap": int,
                "bernoulli_reduction": bool}
GD_OPTIONS = {"step": float, "iters": int, "tol": float}

# algorithm -> (needs an "activation" tag?, trainer(entry, dataset, B, seed))
ALGORITHMS = {
    "omnipredictor": (False, lambda e, ds, B, seed: learners.train_omnipredictor(
        ds, B, learners.OmniConfig(**_options(e, OMNI_OPTIONS)), seed=seed)),
    "glmtron": (True, lambda e, ds, B, seed: learners.train_glmtron(
        ds, e["activation"], B, **_options(e, {"iters": int, "tol": float}))),
    "isotron": (False, lambda e, ds, B, seed: learners.train_isotron(
        ds, B, **_options(e, {"iters": int}))),
    "logistic": (False, lambda e, ds, B, seed: learners.train_logistic(
        ds, B, **_options(e, GD_OPTIONS))),
    "matching_gd": (True, lambda e, ds, B, seed: learners.train_matching_gd(
        ds, fenchel.pair_from_tag(e["activation"]), B,
        **_options(e, GD_OPTIONS))),
}


def train_learner(entry, dataset, seed):
    """Run the configured algorithm on a dataset; returns the predictor."""
    _, trainer = ALGORITHMS[entry["algorithm"]]
    return trainer(entry, dataset, float(entry["norm_bound"]), seed)
