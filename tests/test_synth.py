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


@pytest.mark.parametrize("spec", [
    synth.MarginalSpec("standard_gaussian", 5),
    synth.MarginalSpec("uniform_ball", 3),
    synth.MarginalSpec("laplace_product", 2, scale=2 ** -0.5),
    synth.MarginalSpec("student_t", 4, dof=5),
])
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
