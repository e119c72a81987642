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
    checks: list = field(default_factory=lambda: [("sim_sqrt", ())])
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


def _flag(value):
    """A JSON ``true`` or ``false``; anything else is a TypeError."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a JSON boolean")
    return value


def _number(value):
    """A JSON number as a float; a boolean or a string is a TypeError."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def _count(value):
    """A size, count or seed: a non-negative integral JSON number, as int."""
    if not _number(value).is_integer() or value < 0:
        raise ValueError(f"{value!r} is not a non-negative integer")
    return int(value)


def _optional_float(value):
    return None if value is None else _number(value)


def _convert(kind, value, key, where):
    """``kind(value)``, or a ConfigError that names the key."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        expected = {_flag: "true or false",
                    _count: "a non-negative integer"}.get(kind, "a number")
        raise ConfigError(f"{key!r} in {where} must be {expected}, "
                          f"not {value!r}") from exc


def _marginal_from(obj):
    return synth.MarginalSpec(
        kind=_require(obj, "kind", "marginal"),
        dim=_convert(_count, _require(obj, "dim", "marginal"), "dim",
                     "marginal"),
        scale=_convert(_number, obj.get("scale", 1.0), "scale", "marginal"),
        dof=_convert(_count, obj.get("dof", 5), "dof", "marginal"),
        augment_constant=_convert(_flag, obj.get("augment_constant", False),
                                  "augment_constant", "marginal"))


def _corruption_from(obj):
    if obj is None:
        return synth.Corruption()
    return synth.Corruption(
        kind=obj.get("kind", "none"),
        **{key: _convert(_number, obj.get(key, 0.0), key, "corruption")
           for key in ("mass", "level", "value")})


def _activation_tag(tag):
    try:
        fenchel.activation_from_tag(tag)
    except InvalidInputError as exc:
        raise ConfigError(f"unknown activation tag {tag!r}") from exc
    return tag


def _label_model_from(obj, total_dim):
    tag = _activation_tag(_require(obj, "activation", "label_model"))
    if "planted_w" in obj:
        w = _convert(lambda v: np.array([_number(x) for x in v]),
                     obj["planted_w"], "planted_w", "label_model")
        if w.size != total_dim:
            raise ConfigError(
                f"planted_w has dimension {w.size}, expected {total_dim}")
    else:
        w = synth.planted_direction(
            total_dim,
            _convert(_number, _require(obj, "norm", "label_model"), "norm",
                     "label_model"),
            _convert(_count, obj.get("direction_seed", 0), "direction_seed",
                     "label_model"),
            constant_weight=_convert(_optional_float,
                                     obj.get("constant_weight"),
                                     "constant_weight", "label_model"))
    return synth.LabelModel(
        planted_w=tuple(float(v) for v in w),
        activation_tag=tag,
        corruption=_corruption_from(obj.get("corruption")),
        label_space=obj.get("label_space", "interval"),
        clip=_convert(_flag, obj.get("clip", True), "clip", "label_model"))


def _learner_entry(obj, idx):
    algo = _require(obj, "algorithm", f"learners[{idx}]")
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}")
    needs_activation, options, _ = ALGORITHMS[algo]
    where = f"learners[{idx}]"
    known = {"algorithm", "name", "norm_bound", *options} | (
        {"activation"} if needs_activation else set())
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where} "
                              f"(algorithm {algo!r})")
    entry = dict(obj)
    entry.setdefault("name", algo)
    if needs_activation:
        _activation_tag(_require(obj, "activation", where))
    entry["norm_bound"] = _convert(_number, _require(obj, "norm_bound", where),
                                   "norm_bound", where)
    for key, kind in options.items():
        if key in entry:
            entry[key] = _convert(kind, entry[key], key, where)
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
    checks = []    # (kind, activation tags)
    for chk in obj.get("checks", ["sim_sqrt"]):
        kind, *tags = chk.split(":")
        if kind not in transfer.CHECKS:
            raise ConfigError(f"unknown check {chk!r}")
        if len(tags) != transfer.CHECKS[kind][1]:
            raise ConfigError(f"check {chk!r} needs {transfer.CHECKS[kind][1]}"
                              f" activation tag(s) after {kind!r}")
        # rows are keyed by the check's theorem tag: one check per kind
        if kind in [k for k, _ in checks]:
            raise ConfigError(f"check {chk!r}: only one {kind!r} check "
                              f"may be listed")
        checks.append((kind, tuple(_activation_tag(tag) for tag in tags)))
    seeds = obj.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list")
    instances = []
    for inst in obj.get("instances", []):
        name = _require(inst, "name", "instances[]")
        instances.append((name, _corruption_from(inst.get("corruption"))))
    return ExperimentConfig(
        marginal=marginal, label_model=label_model,
        n_train=_convert(_count, data.get("n_train", 20000), "n_train", "data"),
        n_eval=_convert(_count, data.get("n_eval", 50000), "n_eval", "data"),
        learners=entries, pairs=pairs, checks=checks,
        eps=_convert(_number, obj.get("eps", 0.05), "eps", "config"),
        seeds=[_convert(_count, s, f"seeds[{i}]", "config")
               for i, s in enumerate(seeds)],
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


OMNI_OPTIONS = {"eps_ma": _number, "eps_cal": _number,
                "eps_weak": _optional_float, "step": _optional_float,
                "bucket_width": _number, "round_cap": _count,
                "bernoulli_reduction": _flag}

# algorithm -> (needs an "activation" tag?, option -> its kind,
#               trainer(entry, dataset, B, seed, **options))
ALGORITHMS = {
    "omnipredictor": (False, OMNI_OPTIONS, lambda e, ds, B, seed, **o:
                      learners.train_omnipredictor(ds, B, seed, **o)),
    "glmtron": (True, {"iters": _count, "tol": _number},
                lambda e, ds, B, seed, **o:
                learners.train_glmtron(ds, e["activation"], B, **o)),
    "isotron": (False, {"iters": _count}, lambda e, ds, B, seed, **o:
                learners.train_isotron(ds, B, **o)),
    "logistic": (False, {}, lambda e, ds, B, seed:
                 learners.train_logistic(ds, B)),
    "matching_gd": (True, {}, lambda e, ds, B, seed:
                    learners.train_matching_gd(
                        ds, fenchel.pair_from_tag(e["activation"]), B)),
}


def train_learner(entry, dataset, seed):
    """Run the algorithm of a parsed learner entry on a dataset; returns the
    predictor.  Options the entry leaves out keep the trainer's defaults."""
    _, options, trainer = ALGORITHMS[entry["algorithm"]]
    return trainer(entry, dataset, entry["norm_bound"], seed,
                   **{key: entry[key] for key in options if key in entry})
