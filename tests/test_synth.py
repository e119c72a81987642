import hashlib
import json
import math

import numpy as np
import pytest

from simlearn import fenchel, synth
from simlearn.errors import ConfigError, InvalidInputError, RangeError


def unit_directions(d, k, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


# the spec test_second_moment_bound samples for each marginal kind; a kind
# with no entry here fails collection
MOMENT_SPECS = {
    "standard_gaussian": dict(dim=5),
    "uniform_ball": dict(dim=3),
    "laplace_product": dict(dim=2, scale=2 ** -0.5),
    "student_t": dict(dim=4, dof=5),
}


@pytest.mark.parametrize("spec", [
    synth.MarginalSpec(kind, **MOMENT_SPECS[kind])
    for kind in synth.MARGINAL_KINDS])
def test_second_moment_bound(spec):
    x = synth.sample_marginal(spec, 100_000, 7)
    for v in unit_directions(spec.total_dim, 20, 5):
        assert np.mean((x @ v) ** 2) <= 1.5 * spec.second_moment


def test_gaussian_second_moment_near_one():
    spec = synth.MarginalSpec("standard_gaussian", 5)
    x = synth.sample_marginal(spec, 100_000, 11)
    for v in unit_directions(5, 5, 3):
        assert 0.97 <= np.mean((x @ v) ** 2) <= 1.03


def test_uniform_ball_support():
    x = synth.sample_marginal(synth.MarginalSpec("uniform_ball", 3), 20_000, 3)
    assert np.max(np.linalg.norm(x, axis=1)) <= 1.0 + 1e-12


@pytest.mark.parametrize("spec", [
    synth.MarginalSpec("standard_gaussian", 5, scale=2 ** -0.5),
    synth.MarginalSpec("uniform_ball", 4),
    synth.MarginalSpec("laplace_product", 2, scale=2 ** -0.5),
])
def test_concentration_tails(spec):
    lam_c, gamma = spec.concentration
    x = synth.sample_marginal(spec, 100_000, 13)
    for v in unit_directions(spec.total_dim, 20, 17):
        s = np.abs(x @ v)
        for r in (1.0, 2.0, 3.0):
            assert np.mean(s >= r) <= 2.0 * lam_c * math.exp(-r ** gamma)


@pytest.mark.parametrize("kind, largest, tail", [
    (kind, largest, tail) for kind in synth.MARGINAL_KINDS
    for largest, tail in synth.MARGINALS[kind].tails])
def test_declared_tail_class_holds_up_to_its_largest_scale(kind, largest,
                                                           tail):
    spec = synth.MarginalSpec(kind, 2, scale=largest)
    assert spec.concentration == tail
    lam_c, gamma = tail
    x = synth.sample_marginal(spec, 100_000, 29)
    for v in unit_directions(2, 20, 31):
        s = np.abs(x @ v)
        for r in (0.5, 1.0, 2.0, 3.0):
            assert np.mean(s >= r) <= lam_c * math.exp(-r ** gamma) + 0.01


@pytest.mark.parametrize("kind, scale", [("uniform_ball", 3.0),
                                         ("laplace_product", 2.0),
                                         ("standard_gaussian", 1.5),
                                         ("student_t", 1.0)])
def test_no_tail_class_above_the_largest_declared_scale(kind, scale):
    assert synth.MarginalSpec(kind, 2, scale=scale).concentration is None


def test_laplace_tail_example():
    spec = synth.MarginalSpec("laplace_product", 2, scale=2 ** -0.5)
    x = synth.sample_marginal(spec, 100_000, 19)
    assert np.mean(np.abs(x[:, 0]) >= 3.0) <= 2.0 * math.exp(-3.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        synth.MarginalSpec("cauchy", 3)


def test_student_t_needs_moments():
    with pytest.raises(ConfigError):
        synth.MarginalSpec("student_t", 3, dof=2)


def test_sampling_deterministic():
    spec = synth.MarginalSpec("laplace_product", 3)
    a = synth.sample_marginal(spec, 500, 23)
    b = synth.sample_marginal(spec, 500, 23)
    c = synth.sample_marginal(spec, 500, 24)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_augment_constant_column():
    spec = synth.MarginalSpec("standard_gaussian", 3, augment_constant=True)
    x = synth.sample_marginal(spec, 100, 1)
    assert x.shape == (100, 4)
    assert np.all(x[:, -1] == 1.0)
    assert spec.concentration is None
    assert spec.second_moment == 1.0


# ---------------------------------------------------------------------------
# label models
# ---------------------------------------------------------------------------


def gaussian_dataset(model, n, seed, d=5):
    spec = synth.MarginalSpec("standard_gaussian", d)
    return synth.make_dataset(spec, model, n, seed)


def test_realizable_interval_opt_zero():
    w = synth.planted_direction(5, 2.0, 1)
    ds = gaussian_dataset(synth.LabelModel(tuple(w), "sigmoid"), 5000, 2)
    assert ds.certified_opt_upper_bound == 0.0
    assert np.allclose(ds.labels, ds.label_model.conditional_mean(ds.features))


def test_flip_region_mass():
    w = synth.planted_direction(5, 2.0, 1)
    clean = synth.LabelModel(tuple(w), "sigmoid", label_space="binary")
    flip = synth.LabelModel(tuple(w), "sigmoid", label_space="binary",
                            corruption=synth.Corruption("flip_region",
                                                        mass=0.05))
    spec = synth.MarginalSpec("standard_gaussian", 5)
    x = synth.sample_marginal(spec, 100_000, 31)
    y_clean, _ = synth.generate_labels(x, clean, 31)
    y_flip, _ = synth.generate_labels(x, flip, 31)
    assert abs(np.mean(y_clean != y_flip) - 0.05) <= 0.01


def test_binary_opt_matches_bernoulli_variance():
    w = synth.planted_direction(5, 2.0, 1)
    model = synth.LabelModel(tuple(w), "sigmoid", label_space="binary")
    ds = gaussian_dataset(model, 100_000, 41)
    p = model.conditional_mean(ds.features)
    expected = np.mean(p * (1.0 - p))
    assert ds.certified_opt_upper_bound == pytest.approx(expected, rel=0.02)


def test_certified_bound_is_planted_error():
    w = synth.planted_direction(4, 1.0, 5)
    model = synth.LabelModel(tuple(w), "identity_clamped",
                             corruption=synth.Corruption("bounded_noise",
                                                         level=0.1))
    ds = gaussian_dataset(model, 20_000, 51, d=4)
    planted = model.conditional_mean(ds.features)
    err2 = float(np.mean((ds.labels - planted) ** 2))
    assert err2 <= ds.certified_opt_upper_bound + 1e-12


def test_constant_override_error_budget():
    w = synth.planted_direction(5, 2.0, 1)
    model = synth.LabelModel(tuple(w), "sigmoid",
                             corruption=synth.Corruption("constant_override",
                                                         mass=0.1, value=0.0))
    ds = gaussian_dataset(model, 100_000, 61)
    # override region has mass 0.1; each point contributes (mean - 0)^2 <= 1
    assert 0.0 < ds.certified_opt_upper_bound <= 0.1 + 0.01


def test_dimension_mismatch():
    w = synth.planted_direction(4, 1.0, 5)
    model = synth.LabelModel(tuple(w), "sigmoid")
    x = synth.sample_marginal(synth.MarginalSpec("standard_gaussian", 5), 10, 1)
    with pytest.raises(InvalidInputError):
        synth.generate_labels(x, model, 0)


def test_unknown_corruption_kind_and_label_space_rejected():
    with pytest.raises(ConfigError, match="unknown corruption kind 'smudge'"):
        synth.Corruption("smudge")
    with pytest.raises(ConfigError, match="label_space must be one of"):
        synth.LabelModel((0.5, 0.0, 0.0), "sigmoid", label_space="ternary")


def test_unclipped_means_inside_the_interval_are_kept():
    # clip=False returns the activation's means when they stay in [0, 1]
    w = synth.planted_direction(3, 2.0, 5)
    model = synth.LabelModel(tuple(w), "sigmoid", clip=False)
    x = synth.sample_marginal(synth.MarginalSpec("standard_gaussian", 3), 100, 1)
    assert np.array_equal(model.conditional_mean(x),
                          model.activation(x @ model.w))


def test_unclipped_range_violation():
    w = synth.planted_direction(3, 2.0, 5)
    model = synth.LabelModel(tuple(w), "identity", clip=False)
    x = synth.sample_marginal(synth.MarginalSpec("standard_gaussian", 3), 100, 1)
    with pytest.raises(RangeError):
        synth.generate_labels(x, model, 0)


def test_bernoulli_reduction_consistency():
    # for any score function, the mean matching loss under resampled binary
    # labels converges to the interval-label loss (the loss is linear in y)
    w = synth.planted_direction(3, 1.0, 5)
    ds = gaussian_dataset(synth.LabelModel(tuple(w), "sigmoid"), 200, 71, d=3)
    pair = fenchel.pair_from_tag("sigmoid")
    scores = 0.7 * (ds.features @ w) - 0.1
    interval_loss = float(np.mean(pair.g(scores) - ds.labels * scores))
    rng = np.random.default_rng(72)
    resamples = 500
    draws = rng.random((resamples, ds.n)) < ds.labels
    losses = np.mean(pair.g(scores)[None, :] - draws * scores[None, :], axis=1)
    assert np.mean(losses) == pytest.approx(interval_loss, abs=0.01 * max(1.0, abs(interval_loss)))


# ---------------------------------------------------------------------------
# dataset I/O
# ---------------------------------------------------------------------------


def small_dataset():
    w = synth.planted_direction(3, 1.0, 5)
    spec = synth.MarginalSpec("standard_gaussian", 3)
    return synth.make_dataset(spec, synth.LabelModel(tuple(w), "sigmoid"),
                              10, 5)


def test_round_trip_bytes(tmp_path):
    ds = small_dataset()
    path = tmp_path / "data.txt"
    synth.save_dataset(ds, path)
    back = synth.load_dataset(path)
    assert synth.serialize_dataset(back) == synth.serialize_dataset(ds)
    assert back.label_space == ds.label_space
    assert back.seed == ds.seed
    assert back.certified_opt_upper_bound == ds.certified_opt_upper_bound
    assert back.marginal == ds.marginal
    assert back.label_model == ds.label_model


# sha256 of the serialization of one small dataset per marginal kind, with
# and without the constant feature; a kind with no entry here fails
DATASET_SHA256 = {
    ("standard_gaussian", False):
    "067e9ca95751e8b24043c61f244dbd72fb172724f39114e2ecb4835c515eba73",
    ("standard_gaussian", True):
    "e524d43318a55d7b0eef3d925cdf1f1762168a2e15d69f15f4a7fe4b8758dac8",
    ("uniform_ball", False):
    "9526a147462f52926e23b0eea1dafa17f207463cd214c220f3c5e5b0e8df9a3c",
    ("uniform_ball", True):
    "176978cfc1b4a0c47bfee0b55865c531909b1cddd04dad92267a96278c5c2514",
    ("laplace_product", False):
    "2d018ba63afcf7b086bb7448b486c6c88d9c99a37070ce4a0a958363addafc9e",
    ("laplace_product", True):
    "e0a374705893e0520525b72328e9c0031010fd75125c551c0134f5c393f30396",
    ("student_t", False):
    "b44f5ff2e4caf84e76ad5af9c2c968f4fc187b8f6dfca82359269cc12a273673",
    ("student_t", True):
    "32c90e69be5ff925523b21c9ca4f3b19041b45e57cad418aa42bd9371d7d0815",
}


@pytest.mark.parametrize("augment", [False, True])
@pytest.mark.parametrize("kind", synth.MARGINAL_KINDS)
def test_serialized_dataset_bytes_are_pinned(kind, augment):
    spec = synth.MarginalSpec(kind, 2, augment_constant=augment)
    w = synth.planted_direction(spec.total_dim, 1.0, 3)
    ds = synth.make_dataset(spec, synth.LabelModel(tuple(w), "sigmoid"), 6, 11)
    text = synth.serialize_dataset(ds)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DATASET_SHA256[kind, augment]


@pytest.mark.parametrize("args, expected", [
    ((3, 1.0, 5),
     [0.26992389275381085, -0.9507146868177938, 0.15258661930055817]),
    ((1, 0.7, 0), [-0.7]),
    ((4, 1.5, 21, -0.7),
     [-0.6993741362275833, -0.7570855620923804, 0.8352827480842557, -0.7]),
    ((6, 2.0, 90, 0.2),
     [0.06283490674673013, -1.8369759847055311, 0.3099703234513524,
      0.5747867134428164, 0.3938396104232573, 0.2]),
    ((2, 1.0, 7, 0.0), [-1.0, 0.0]),
])
def test_planted_direction_is_pinned(args, expected):
    assert synth.planted_direction(*args).tolist() == expected


@pytest.mark.parametrize("args, message", [
    ((3, 1.0, 0, -1.5), "exceeds the norm budget"),
    # it returned (0.2,), of norm 0.2 where 1.3 was asked for
    ((1, 1.3, 0, 0.2), "needs a free coordinate beside it; dim is 1"),
], ids=["pin_above_norm", "no_free_coordinate"])
def test_planted_direction_rejects_a_pin_it_cannot_honour(args, message):
    with pytest.raises(InvalidInputError, match=message):
        synth.planted_direction(*args)


def test_reproducibility_same_spec_seed():
    a = small_dataset()
    b = small_dataset()
    assert synth.serialize_dataset(a) == synth.serialize_dataset(b)


def test_truncated_file_rejected(tmp_path):
    ds = small_dataset()
    path = tmp_path / "data.txt"
    synth.save_dataset(ds, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:5]) + "\n")
    with pytest.raises(ConfigError, match="truncated"):
        synth.load_dataset(path)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("#wrong v9 n=1 d=1 labels=interval seed=0\n0.0 0.5\n")
    with pytest.raises(ConfigError, match="header"):
        synth.load_dataset(path)


def _saved_lines(tmp_path):
    """A saved small dataset's path and the lines of its file."""
    path = tmp_path / "data.txt"
    synth.save_dataset(small_dataset(), path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines.__setitem__(2, "0.1 x 0.3 0.5"),
     "non-numeric value on row 1"),
    (lambda lines: lines.__setitem__(0, lines[0].replace("labels=interval",
                                                         "labels=ternary")),
     "unknown label space 'ternary'"),
    (lambda lines: lines.__setitem__(0, lines[0].replace("n=10", "n=ten")),
     "malformed dataset header"),
], ids=["non_numeric", "label_space", "header_value"])
def test_malformed_dataset_file_rejected(tmp_path, edit, message):
    path, lines = _saved_lines(tmp_path)
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        synth.load_dataset(path)


def test_sidecar_marginal_of_no_dimension_rejected(tmp_path):
    path, _ = _saved_lines(tmp_path)
    meta_path = tmp_path / "data.txt.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["marginal"]["dim"] = 0
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match="dim must be >= 1"):
        synth.load_dataset(path)


def test_label_out_of_range_rejected(tmp_path):
    ds = small_dataset()
    path = tmp_path / "data.txt"
    synth.save_dataset(ds, path)
    lines = path.read_text().splitlines()
    cols = lines[1].split()
    cols[-1] = "1.5"
    lines[1] = " ".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RangeError):
        synth.load_dataset(path)


def test_dimension_mismatch_row_rejected(tmp_path):
    ds = small_dataset()
    path = tmp_path / "data.txt"
    synth.save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3] + " 0.25"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="dimension"):
        synth.load_dataset(path)


def test_non_finite_rejected(tmp_path):
    ds = small_dataset()
    path = tmp_path / "data.txt"
    synth.save_dataset(ds, path)
    lines = path.read_text().splitlines()
    cols = lines[2].split()
    cols[0] = "nan"
    lines[2] = " ".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="non-finite"):
        synth.load_dataset(path)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0].replace("n=10", "n=3")] + lines[1:],
     "more than the header's n=3 rows: line 5 is '"),
    (lambda lines: lines + ["garbage"],
     "more than the header's n=10 rows: line 12 is 'garbage'"),
], ids=["more_rows_than_n", "trailing_garbage"])
def test_rows_beyond_the_header_rejected(tmp_path, edit, message):
    path, lines = _saved_lines(tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ConfigError, match=message):
        synth.load_dataset(path)
