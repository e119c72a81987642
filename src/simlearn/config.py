"""Experiment configuration: a schema-versioned JSON key-value file.

A config describes one data distribution (marginal plus planted label
model), the learners to train, the evaluation pairs, the bound checks to
run, and the seeds.  An optional ``instances`` list sweeps corruption
settings on top of the base label model.  Each JSON object is read against
one table, which maps its keys to kinds: conversion, domain and error text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from . import fenchel, learners, synth, transfer
from .errors import ConfigError, InvalidInputError

SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    marginal: synth.MarginalSpec
    label_model: synth.LabelModel
    learners: list
    n_train: int = 20000
    n_eval: int = 50000
    pairs: list = field(default_factory=list)
    checks: list = field(default_factory=lambda: [("sim_sqrt", ())])
    eps: float = 0.05
    seeds: list = field(default_factory=lambda: [0])
    instances: list = field(default_factory=list)   # (name, corruption) pairs

    def units(self):
        """The units in (instance, seed, learner) order, named
        ``<instance>_s<seed>``; without instances the instance is ``base``."""
        lm = self.label_model
        models = [(name, replace(lm, corruption=corruption))
                  for name, corruption in self.instances] or [("base", lm)]
        return [Unit(f"{name}_s{seed}", self.marginal, model, self.n_train,
                     self.n_eval, seed, entry, self.checks, self.eps)
                for name, model in models for seed in self.seeds
                for entry in self.learners]


@dataclass(frozen=True)
class Unit:
    """One pass of ``acceptance.run_unit``; ``entry`` is a parsed learner
    entry and ``checks`` lists ``(kind, tags)`` pairs."""
    instance: str
    marginal: synth.MarginalSpec
    model: synth.LabelModel
    n_train: int
    n_eval: int
    seed: int
    entry: dict
    checks: list
    eps: float


@dataclass(frozen=True)
class Kind:
    """How a key is read: ``read(value, key, where)`` returns the value, or
    raises a ConfigError naming ``key`` in ``where``."""
    read: object
    required: bool = False


def _need(kind):
    return replace(kind, required=True)


def _scalar(what, ok, convert=lambda value: value, nullable=False):
    """The kind of a value ``ok`` accepts, read as ``convert(value)`` (with
    ``nullable``, a JSON null reads as None); any other must be ``what``."""
    def read(value, key, where):
        if nullable and value is None:
            return None
        try:
            if ok(value):
                return convert(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, LookupError, OverflowError):
            pass
        raise ConfigError(f"{key!r} in {where} must be {what}, not {value!r}")
    return Kind(read)


def _number(what, ok=lambda value: True, convert=float, nullable=False):
    """The kind of a JSON number (a boolean is not one) that ``ok`` takes."""
    return _scalar(what, lambda v: type(v) in (int, float) and ok(v), convert,
                   nullable)


def _choice(choices):
    """The kind of a value that is one of ``choices``."""
    return _scalar("one of " + ", ".join(choices), lambda v: v in choices)


def _tag(value):
    """An activation tag, checked by parsing it."""
    try:
        fenchel.pair_from_tag(value)
    except InvalidInputError as exc:
        raise ConfigError(f"unknown activation tag {value!r}") from exc
    return value


def _check(value):
    """A check name, ``kind`` and its ``:tag`` parts, as (kind, tags), each
    tag spelt canonically: a premise row names its pair by its tag."""
    kind, *tags = value.split(":")
    if len(tags) != transfer.CHECKS[kind][1]:
        raise ConfigError(f"check {value!r} needs {transfer.CHECKS[kind][1]}"
                          f" activation tag(s) after {kind!r}")
    return kind, tuple(fenchel.pair_from_tag(_tag(tag)).tag for tag in tags)


def _fields(obj, table, where):
    """The keys of the JSON object ``obj``, each read by its kind in
    ``table``; a missing required key or an unknown one is a ConfigError."""
    for key, kind in table.items():
        if kind.required and key not in obj:
            raise ConfigError(f"missing key {key!r} in {where}")
    for key in obj:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return {key: table[key].read(value, key, where)
            for key, value in obj.items()}


def _object(table, build=dict, nullable=False):
    """The kind of a JSON object read against ``table`` as ``build(**fields)``
    (with ``nullable``, null reads as ``{}``); its key is its fields' where."""
    is_object = _scalar("an object", lambda v: type(v) is dict,
                        nullable=nullable)
    return Kind(lambda value, key, where: build(
        **_fields(is_object.read(value, key, where) or {}, table, key)))


def _list(item, nonempty=False):
    """The kind of a JSON list whose i-th entry, named ``<key>[i]``, is read
    as ``item``."""
    is_list = _scalar("a non-empty list" if nonempty else "a list",
                      lambda v: type(v) is list and (bool(v) or not nonempty))
    return Kind(lambda value, key, where: [
        item.read(entry, f"{key}[{i}]", where)
        for i, entry in enumerate(is_list.read(value, key, where))])


FLAG = _scalar("true or false", lambda v: type(v) is bool)
# a CSV row holds a unit's instance and learner names in one line
LINE_BREAKS = {"\n", "\r"}
NAME = _scalar("a string without a line break",
               lambda v: type(v) is str and not set(v) & LINE_BREAKS)
TAG = _scalar("an activation tag", lambda v: type(v) is str, _tag)
NUMBER = _number("a number")
NON_NEGATIVE = _number("a non-negative number", lambda v: v >= 0.0)
POSITIVE = _number("a positive number", lambda v: v > 0.0)
COUNT = _number("a non-negative integer", lambda v: v >= 0 and v == int(v),
                int)
CAP = _number("a positive integer", lambda v: v >= 1 and v == int(v), int)
# a Student-t marginal has bounded second moments only for dof > 2
DOF = _number("an integer greater than 2", lambda v: v > 2 and v == int(v),
              int)

OMNI_OPTIONS = {
    "eps_ma": POSITIVE,
    "bucket_width": _number("1/n for an integer n >= 1", lambda v: 0.0 < v
                            <= 1.0 and abs((1.0 / v + 0.5) % 1.0 - 0.5)
                            <= 1e-9),
    "round_cap": CAP, "bernoulli_reduction": FLAG}

# algorithm -> (needs an "activation" tag?, option -> its kind).  An entry
# trains as learners.train_<algorithm>(dataset, [pair,] B, **options), the
# pair parsed from its activation tag
ALGORITHMS = {
    "omnipredictor": (False, OMNI_OPTIONS),
    "glmtron": (True, {"iters": CAP, "tol": NON_NEGATIVE}),
    "isotron": (False, {"iters": CAP}),
    "logistic": (False, {}),
    "matching_gd": (True, {}),
}

# the keys of every learner entry; ALGORITHMS adds each algorithm's own.
# `train` writes <name>.predictor.txt under its output directory, so a name
# is no path either
LEARNER = {"algorithm": _need(_choice(ALGORITHMS)),
           "name": _scalar("a string without '/' or a line break",
                           lambda v: type(v) is str
                           and not set(v) & {"/", *LINE_BREAKS}),
           "norm_bound": _need(POSITIVE)}


def _learner_entry(value, key, where):
    """A learner entry, read against its algorithm's table."""
    algo = None
    if type(value) is dict and "algorithm" in value:
        algo = LEARNER["algorithm"].read(value["algorithm"], "algorithm", key)
    needs_activation, options = ALGORITHMS.get(algo, (False, {}))
    table = {**LEARNER, **options,
             **({"activation": _need(TAG)} if needs_activation else {})}
    entry = _object(table).read(value, key, where)
    entry.setdefault("name", algo)
    return entry


CORRUPTION = _object({"kind": _choice(synth.CORRUPTION_KINDS),
                      "mass": NUMBER, "level": NUMBER, "value": NUMBER},
                     synth.Corruption, nullable=True)


def _marginal(kind, **spec):
    """The marginal; only a Student-t marginal reads ``dof``."""
    if "dof" in spec and kind != "student_t":
        raise ConfigError(f"'dof' in marginal must be left out when 'kind' "
                          f"is {kind!r}, not {spec['dof']!r}")
    return synth.MarginalSpec(kind, **spec)


CONFIG = {
    "schema_version": _need(_scalar(str(SCHEMA_VERSION),
                                    lambda v: v == SCHEMA_VERSION)),
    "data": _need(_object({
        "marginal": _need(_object({
            "kind": _need(_choice(synth.MARGINAL_KINDS)), "dim": _need(CAP),
            "scale": POSITIVE, "dof": DOF, "augment_constant": FLAG},
            _marginal)),
        "label_model": _need(_object({
            "activation": _need(TAG),
            "planted_w": _scalar("a list of numbers", lambda v: type(v) is list
                                 and all(type(x) in (int, float) for x in v),
                                 lambda v: tuple(map(float, v))),
            "norm": NON_NEGATIVE, "direction_seed": COUNT,
            "constant_weight": _number("null or a number", nullable=True),
            "corruption": CORRUPTION,
            "label_space": _choice(synth.LABEL_SPACES), "clip": FLAG})),
        "n_train": CAP, "n_eval": CAP})),
    "learners": _need(_list(Kind(_learner_entry), nonempty=True)),
    "pairs": _list(TAG),
    "checks": _list(_scalar("a check name", lambda v: type(v) is str,
                            _check), nonempty=True),
    "eps": NON_NEGATIVE,
    "seeds": _list(COUNT, nonempty=True),
    "instances": _list(_object({"name": _need(NAME), "corruption": CORRUPTION},
                               lambda name, corruption=synth.Corruption():
                               (name, corruption))),
}


def _planted_direction(marginal, norm=None, direction_seed=0,
                       constant_weight=None):
    """A planted direction of ``norm``, as a tuple of floats; a
    ``constant_weight`` pins the weight of the marginal's intercept
    feature, so it needs one."""
    if norm is None:
        raise ConfigError("missing key 'norm' in label_model")
    if constant_weight is not None and abs(constant_weight) > norm:
        raise ConfigError(f"'constant_weight' in label_model must be at "
                          f"most 'norm' = {norm!r} in absolute value, "
                          f"not {constant_weight!r}")
    if constant_weight is not None and not marginal.augment_constant:
        raise ConfigError(f"'constant_weight' in label_model must be null "
                          f"or left out when the marginal has no "
                          f"'augment_constant', not {constant_weight!r}")
    return tuple(map(float, synth.planted_direction(
        marginal.total_dim, norm, direction_seed, constant_weight)))


def _label_model(marginal, activation, planted_w=None, **model):
    """The label model: ``planted_w``, or a planted direction; the keys that
    draw the direction must be left out when ``planted_w`` is given."""
    direction = {key: model.pop(key) for key in
                 ("norm", "direction_seed", "constant_weight") if key in model}
    total_dim = marginal.total_dim
    if planted_w is None:
        planted_w = _planted_direction(marginal, **direction)
    elif direction:
        key, value = next(iter(direction.items()))
        raise ConfigError(f"{key!r} in label_model must be left out when "
                          f"'planted_w' is given, not {value!r}")
    if len(planted_w) != total_dim:
        raise ConfigError(f"planted_w has dimension {len(planted_w)}, "
                          f"expected {total_dim}")
    return synth.LabelModel(planted_w, activation, **model)


def parse_config(obj):
    """Validate a parsed JSON object into an ExperimentConfig."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    top = _fields(obj, CONFIG, "config")
    del top["schema_version"]
    data = top.pop("data")
    data["label_model"] = _label_model(data["marginal"],
                                       **data["label_model"])
    cfg = ExperimentConfig(**data, **top)
    # rows are keyed by instance, seed and learner name as a CSV row writes
    # them (acceptance.csv_text turns "," into ";"), and by the columns
    # transfer.check_key gives each check: a repeat would overwrite the rows
    # of an earlier unit or check
    for error, values in (
            ("only one {!r} check may be listed",
             [kind + transfer.check_key("", kind, tags)[0]
              for kind, tags in cfg.checks]),
            ("duplicate learner name {!r}", [e["name"] for e in cfg.learners]),
            ("duplicate instance name {!r}", [n for n, _ in cfg.instances]),
            ("duplicate seed {!r}", cfg.seeds)):
        values = [v.replace(",", ";") if type(v) is str else v for v in values]
        dup = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if dup is not None:
            raise ConfigError(error.format(dup))
    for i, e in enumerate(cfg.learners):
        if "bucket_width" in e and round(1 / e["bucket_width"]) > cfg.n_train:
            raise ConfigError(f"'bucket_width' in learners[{i}] gives more "
                              f"buckets than n_train = {cfg.n_train} can fill")
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            return parse_config(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def train_learner(entry, dataset):
    """Run the algorithm of a parsed learner entry on a dataset; returns the
    predictor.  Options the entry leaves out keep the trainer's defaults.
    The trainer is looked up on ``learners`` at each call, so a wrapper set
    there sees the call."""
    algorithm = entry["algorithm"]
    needs_activation, options = ALGORITHMS[algorithm]
    pair = ([fenchel.pair_from_tag(entry["activation"])] if needs_activation
            else [])
    return getattr(learners, f"train_{algorithm}")(
        dataset, *pair, entry["norm_bound"],
        **{key: entry[key] for key in options if key in entry})
