"""Synthetic marginals, planted label models and dataset I/O.

All generators are pure functions of (spec, seed).  Every generated dataset
records a certified upper bound on the least squared error achievable by the
planted model class: the empirical squared error of the planted model itself
on the generating sample.  Bound checks downstream only ever need an upper
bound on that optimum.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError, RangeError
from . import fenchel

FILE_MAGIC = "#simlearn"
FILE_VERSION = "v1"

# the choices of Corruption.kind and label_space (MarginalSpec.kind: below)
CORRUPTION_KINDS = ("none", "flip_region", "bounded_noise",
                    "constant_override")
LABEL_SPACES = ("interval", "binary")


# ---------------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------------


def _sample_ball(rng, spec, n):
    g = rng.standard_normal((n, spec.dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = rng.random(n) ** (1.0 / spec.dim)
    return g * radii[:, None]


# One row per marginal kind: ``sample`` draws (n, dim) features at scale 1,
# ``second_moment`` bounds E[(v.x)^2] over unit v, and ``tails`` holds the
# declared (lam, gamma) classes by their largest scale, in increasing scale;
# the ball's and the Laplace product's tails exceed theirs above scale 1.
MarginalKind = namedtuple("MarginalKind", "sample second_moment tails")
MARGINALS = {
    "standard_gaussian": MarginalKind(
        lambda rng, spec, n: rng.standard_normal((n, spec.dim)),
        lambda spec: spec.scale ** 2,
        # (1, 2) requires scale^2 <= 1/2: 2*Phibar(r/s) <= exp(-r^2) then
        ((2 ** -0.5 + 1e-12, (1.0, 2.0)), (1.0, (2.0, 1.5)))),
    "uniform_ball": MarginalKind(
        _sample_ball, lambda spec: spec.scale ** 2 / (spec.dim + 2),
        ((1.0, (3.0, 2.0)),)),
    "laplace_product": MarginalKind(
        lambda rng, spec, n: rng.laplace(size=(n, spec.dim)),
        lambda spec: 2.0 * spec.scale ** 2,
        ((2 ** -0.5 + 1e-12, (1.0, 1.0)), (1.0, (2.0, 1.0)))),
    "student_t": MarginalKind(
        lambda rng, spec, n: rng.standard_t(spec.dof, size=(n, spec.dim)),
        lambda spec: spec.scale ** 2 * spec.dof / (spec.dof - 2), ()),
}
MARGINAL_KINDS = tuple(MARGINALS)


@dataclass(frozen=True)
class MarginalSpec:
    """A feature distribution on R^d with declared moment/tail classes.

    ``second_moment`` is the claimed bound on E[(v.x)^2] over unit v;
    ``concentration`` is an optional (lam, gamma) pair claiming directional
    tails P[|v.x| >= r] <= lam * exp(-r^gamma), or None when only second
    moments are claimed.  ``augment_constant`` appends a constant-1 feature
    (an intercept coordinate); tail claims are not available in that case.
    """

    kind: str
    dim: int
    scale: float = 1.0
    dof: int = 5
    augment_constant: bool = False

    def __post_init__(self):
        if self.kind not in MARGINALS:
            raise ConfigError(f"unknown marginal kind {self.kind!r}")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.kind == "student_t" and self.dof <= 2:
            raise ConfigError("student_t needs dof > 2 for bounded second moments")

    @property
    def total_dim(self):
        return self.dim + (1 if self.augment_constant else 0)

    @property
    def second_moment(self):
        lam = MARGINALS[self.kind].second_moment(self)
        return max(lam, 1.0) if self.augment_constant else lam

    @property
    def concentration(self):
        if self.augment_constant:
            return None
        return next((tail for largest, tail in MARGINALS[self.kind].tails
                     if self.scale <= largest), None)


def sample_marginal(spec, n, seed):
    """Draw an (n, d) feature matrix; deterministic in (spec, n, seed)."""
    if n < 1:
        raise InvalidInputError("need n >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xFEA7]))
    x = MARGINALS[spec.kind].sample(rng, spec, n)
    x *= spec.scale
    if spec.augment_constant:
        x = np.hstack([x, np.ones((n, 1))])
    return x


# ---------------------------------------------------------------------------
# Label models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Corruption:
    """Label corruption with a controllable error budget.

    kinds:
      none                    clean labels
      flip_region(mass)       y -> 1 - y where w*.x falls in the upper
                              ``mass``-quantile region of the planted score
      bounded_noise(level)    y -> clip(y + uniform(-level, level), 0, 1)
      constant_override(mass, value)
                              y -> value on the upper ``mass``-quantile region
    """

    kind: str = "none"
    mass: float = 0.0
    level: float = 0.0
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ConfigError(f"unknown corruption kind {self.kind!r}")
        for key, ok, domain in (("mass", 0.0 <= self.mass <= 1.0, "in [0, 1]"),
                                ("level", self.level >= 0.0, "non-negative"),
                                ("value", 0.0 <= self.value <= 1.0,
                                 "in [0, 1]")):
            if not ok:
                raise ConfigError(f"{key!r} in corruption must be {domain}, "
                                  f"not {getattr(self, key)!r}")


@dataclass(frozen=True)
class LabelModel:
    """Planted conditional mean g'(w*.x) with optional corruption."""

    planted_w: tuple
    activation_tag: str
    corruption: Corruption = Corruption()
    label_space: str = "interval"   # "interval" or "binary"
    clip: bool = True

    def __post_init__(self):
        if self.label_space not in LABEL_SPACES:
            raise ConfigError("label_space must be one of "
                              + ", ".join(LABEL_SPACES))

    @property
    def w(self):
        return np.asarray(self.planted_w, dtype=float)

    @property
    def activation(self):
        return fenchel.pair_from_tag(self.activation_tag)

    def conditional_mean(self, features):
        mean = self.activation(features @ self.w)
        if self.clip:
            return np.clip(mean, 0.0, 1.0)
        if np.any(mean < 0.0) or np.any(mean > 1.0):
            raise RangeError("activation output leaves [0, 1]; enable clipping")
        return mean


def planted_direction(dim, norm, seed, constant_weight=None):
    """A planted weight vector of the given norm, deterministic in seed.

    With ``constant_weight`` set, the last coordinate (the intercept feature)
    is pinned to that value and the rest of the norm budget goes to a random
    direction over the leading coordinates, of which there must be at least
    one.
    """
    pinned = [] if constant_weight is None else [constant_weight]
    if pinned and abs(constant_weight) > norm:
        raise InvalidInputError("constant weight exceeds the norm budget")
    if pinned and dim < 2:
        raise InvalidInputError("a constant weight needs a free coordinate "
                                f"beside it; dim is {dim}")
    free_norm = math.sqrt(norm ** 2 - constant_weight ** 2) if pinned else norm
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9A37]))
    w = rng.standard_normal(dim - len(pinned))
    w *= free_norm / np.linalg.norm(w)
    return np.concatenate([w, pinned])


def generate_labels(features, model, seed):
    """Labels plus the certified optimum bound of the planted model.

    Returns ``(labels, opt_bound)`` where ``opt_bound`` is the empirical
    squared error of the planted (clipped) model against the final labels on
    this sample.
    """
    features = np.asarray(features, dtype=float)
    if features.shape[1] != model.w.size:
        raise InvalidInputError("planted weight dimension does not match features")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1AB5]))
    mean = model.conditional_mean(features)
    if model.label_space == "binary":
        labels = (rng.random(mean.shape) < mean).astype(float)
    else:
        labels = mean.copy()

    corr = model.corruption
    if corr.kind != "none":
        score = features @ model.w
        if corr.kind == "bounded_noise":
            labels = np.clip(labels + rng.uniform(-corr.level, corr.level,
                                                  size=labels.shape), 0.0, 1.0)
        else:
            cut = np.quantile(score, 1.0 - corr.mass) if corr.mass > 0 else np.inf
            region = score >= cut
            if corr.kind == "flip_region":
                labels = np.where(region, 1.0 - labels, labels)
            else:
                labels = np.where(region, corr.value, labels)
        if model.label_space == "binary":
            labels = np.round(np.clip(labels, 0.0, 1.0))

    opt_bound = float(np.mean((labels - mean) ** 2))
    return labels, opt_bound


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    label_space: str
    seed: int
    marginal: MarginalSpec = None
    label_model: LabelModel = None
    certified_opt_upper_bound: float = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.size:
            raise InvalidInputError("features must be (n, d) matching labels")
        if self.n == 0 or self.d == 0:
            raise InvalidInputError("need n, d > 0")
        if not np.all(np.isfinite(self.features)) or not np.all(np.isfinite(self.labels)):
            raise InvalidInputError("non-finite values in dataset")
        if np.any(self.labels < 0.0) or np.any(self.labels > 1.0):
            raise RangeError("labels outside [0, 1]")
        if self.label_space == "binary" and \
                not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise RangeError("binary dataset has non 0/1 labels")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    @property
    def second_moment(self):
        return self.marginal.second_moment if self.marginal is not None else 1.0


def make_dataset(marginal, model, n, seed):
    """Sample features and labels; the one-stop generator."""
    x = sample_marginal(marginal, n, seed)
    y, opt = generate_labels(x, model, seed)
    return Dataset(x, y, model.label_space, int(seed), marginal, model, opt)


def serialize_dataset(ds):
    """Canonical text serialization (header plus one line per example)."""
    buf = io.StringIO()
    np.savetxt(buf, np.hstack([ds.features, ds.labels[:, None]]),
               fmt="%.17g", comments="",
               header=f"{FILE_MAGIC} {FILE_VERSION} n={ds.n} d={ds.d} "
                      f"labels={ds.label_space} seed={ds.seed}")
    return buf.getvalue()


def save_dataset(ds, path):
    """Write the canonical serialization plus a sidecar with provenance.

    The sidecar ``<path>.meta.json`` carries the marginal spec, label model
    and certified optimum bound, which have no slot in the canonical format;
    it is optional on load.
    """
    with open(path, "w") as fh:
        fh.write(serialize_dataset(ds))
    meta = {}
    if ds.marginal is not None:
        meta["marginal"] = asdict(ds.marginal)
    if ds.label_model is not None:
        meta["label_model"] = asdict(ds.label_model)
    if ds.certified_opt_upper_bound is not None:
        meta["certified_opt_upper_bound"] = ds.certified_opt_upper_bound
    if meta:
        with open(str(path) + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
            fh.write("\n")


def load_dataset(path):
    with open(path) as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 6 or parts[0] != FILE_MAGIC or parts[1] != FILE_VERSION:
            raise ConfigError(f"malformed dataset header: {header.strip()!r}")
        try:
            kv = dict(p.split("=", 1) for p in parts[2:])
            n = int(kv["n"])
            d = int(kv["d"])
            label_space = kv["labels"]
            seed = int(kv["seed"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"malformed dataset header: {header.strip()!r}") from exc
        if label_space not in LABEL_SPACES:
            raise ConfigError(f"unknown label space {label_space!r}")
        rows = np.empty((n, d + 1))
        for i in range(n):
            line = fh.readline()
            if not line:
                raise ConfigError(f"truncated dataset file: expected {n} rows, got {i}")
            vals = line.split()
            if len(vals) != d + 1:
                raise ConfigError(
                    f"dimension mismatch on row {i}: expected {d + 1} values")
            try:
                rows[i] = [float(v) for v in vals]
            except ValueError as exc:
                raise ConfigError(f"non-numeric value on row {i}") from exc
        if extra := fh.readline():
            raise ConfigError(f"more than the header's n={n} rows: "
                              f"line {n + 2} is {extra.strip()!r}")
    if not np.all(np.isfinite(rows)):
        raise ConfigError("non-finite values in dataset file")
    ds = Dataset(rows[:, :d], rows[:, d], label_space, seed)
    meta_path = str(path) + ".meta.json"
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
        if "marginal" in meta:
            ds.marginal = MarginalSpec(**meta["marginal"])
        if "label_model" in meta:
            lm = meta["label_model"]
            ds.label_model = LabelModel(**{
                **lm, "planted_w": tuple(lm["planted_w"]),
                "corruption": Corruption(**lm["corruption"])})
        ds.certified_opt_upper_bound = meta.get("certified_opt_upper_bound")
    return ds
