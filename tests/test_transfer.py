import json
import math

import numpy as np
import pytest

from simlearn import fenchel, learners, synth, transfer
from simlearn.errors import InvalidInputError, NoConvergenceError


def planted_dataset(act="sigmoid", n=20_000, seed=5, d=5, B=2.0, **kw):
    spec = synth.MarginalSpec("standard_gaussian", d)
    w = synth.planted_direction(d, B, 99)
    model = synth.LabelModel(tuple(w), act, **kw)
    return synth.make_dataset(spec, model, n, seed)


def planted_predictions(ds):
    return ds.label_model.conditional_mean(ds.features)


def constant(ds, value):
    return learners.ConstantPredictor(value).predict(ds.features)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_perfect_predictor():
    ds = planted_dataset()
    rep = transfer.evaluate(planted_predictions(ds), ds)
    assert rep.err2 == 0.0
    assert rep.err1 == 0.0


def test_evaluate_constant_on_coin_labels():
    rng = np.random.default_rng(3)
    x = synth.sample_marginal(synth.MarginalSpec("standard_gaussian", 3),
                              100_000, 4)
    ds = synth.Dataset(x, (rng.random(100_000) < 0.5).astype(float),
                       "binary", 4)
    rep = transfer.evaluate(constant(ds, 0.5), ds)
    assert rep.err2 == pytest.approx(0.25, rel=0.01)
    assert rep.err1 == pytest.approx(0.5, rel=0.01)


def test_evaluate_jensen_always_holds():
    ds = planted_dataset(corruption=synth.Corruption("bounded_noise", level=0.3))
    pred = learners.train_glmtron(ds, "sigmoid", 2.0, iters=30)
    rep = transfer.evaluate(pred.predict(ds.features), ds)
    assert rep.err1 ** 2 <= rep.err2 + 1e-12


def test_evaluate_matching_losses_and_json():
    ds = planted_dataset(n=2000)
    pairs = [fenchel.pair_from_tag(t) for t in ("identity", "sigmoid")]
    rep = transfer.evaluate(planted_predictions(ds), ds, pairs=pairs)
    assert set(rep.matching_losses) == {"identity", "sigmoid"}
    payload = json.loads(rep.to_json())
    assert list(payload) == ["err2", "err1", "matching_losses", "n_eval", "seed"]
    assert payload["n_eval"] == 2000
    # fixed key order and repeatability
    assert rep.to_json() == rep.to_json()


def test_predictions_must_cover_the_sample():
    ds = planted_dataset(n=100)
    with pytest.raises(InvalidInputError):
        transfer.evaluate(planted_predictions(ds)[:50], ds)
    binary = planted_dataset(n=100, label_space="binary")
    with pytest.raises(InvalidInputError):
        transfer.pconcept_disagreement(0.5, binary)


# ---------------------------------------------------------------------------
# premise measurement
# ---------------------------------------------------------------------------


def test_premise_planted_predictor_is_optimal():
    ds = planted_dataset(n=30_000)
    pair = fenchel.pair_from_tag("sigmoid")
    prem = transfer.measure_premise(planted_predictions(ds), ds, pair, 2.0)
    # realizable: the planted scores minimize the loss pointwise, so no
    # point of the ball does better
    assert prem.eps_hat <= 1e-12
    assert abs(prem.raw_slack) <= 1e-12


def test_premise_ball_minimiser_is_at_least_as_strict_as_the_planted_weights():
    ds = planted_dataset(n=10_000, corruption=synth.Corruption(
        "flip_region", mass=0.1))
    pair = fenchel.pair_from_tag("sigmoid")
    p = learners.train_glmtron(ds, "sigmoid", 2.0, iters=10).predict(ds.features)
    prem = transfer.measure_premise(p, ds, pair, 2.0)
    planted_loss = float(transfer.linear_matching_losses(
        ds, pair, ds.label_model.w)[0])
    # on its own sample the ball minimiser beats the planted weights
    assert prem.comparator_loss < planted_loss
    assert prem.eps_hat >= max(0.0, prem.predictor_loss - planted_loss)
    assert prem.eps_hat > 0.0


def test_premise_needs_a_certified_comparator(monkeypatch):
    ds = planted_dataset(n=2000, corruption=synth.Corruption(
        "flip_region", mass=0.1))
    monkeypatch.setattr(learners, "NEWTON_STEP_CAP", 0)
    with pytest.raises(NoConvergenceError):
        transfer.measure_premise(constant(ds, 0.5), ds,
                                 fenchel.pair_from_tag("sigmoid"), 2.0)


def test_premise_needs_no_label_model():
    x = synth.sample_marginal(synth.MarginalSpec("standard_gaussian", 3),
                              2000, 1)
    y = np.clip(x @ np.array([0.2, -0.1, 0.3]), 0.0, 1.0)
    ds = synth.Dataset(x, y, "interval", 1)
    pair = fenchel.pair_from_tag("identity")
    # the scores of w = 0 lie in the ball, and the labels follow x
    prem = transfer.measure_premise(constant(ds, 0.0), ds, pair, 1.0)
    assert prem.eps_hat == prem.raw_slack > 0.0


# ---------------------------------------------------------------------------
# bi-Lipschitz and general-activation transfer
# ---------------------------------------------------------------------------


def identity_instance(corruption=synth.Corruption("none"), n=20_000, seed=7):
    spec = synth.MarginalSpec("standard_gaussian", 4, scale=0.3,
                              augment_constant=True)
    w = synth.planted_direction(5, math.sqrt(0.3 ** 2 + 0.25), 12,
                                constant_weight=0.5)
    model = synth.LabelModel(tuple(w), "identity", corruption=corruption)
    return synth.make_dataset(spec, model, n, seed), float(np.linalg.norm(w))


def test_bilipschitz_transfer_realizable():
    ds, B = identity_instance()
    pair = fenchel.pair_from_tag("identity")
    pred = learners.train_matching_gd(ds, pair, B)
    p = pred.predict(ds.features)
    chk = transfer.check_bilipschitz_transfer(p, transfer.evaluate(p, ds), ds,
                                              pair, B)
    assert chk.passed
    # realizable: the bound collapses to err2 <= 2 beta eps_hat
    assert chk.lhs <= 2.0 * pair.beta * chk.params["eps_hat"] + 1e-6


def test_bilipschitz_transfer_needs_alpha():
    ds, B = identity_instance()
    p = constant(ds, 0.5)
    with pytest.raises(InvalidInputError):
        transfer.check_bilipschitz_transfer(
            p, transfer.evaluate(p, ds), ds, fenchel.pair_from_tag("relu"), B)


def test_bilipschitz_transfer_without_planted_model():
    x = synth.sample_marginal(synth.MarginalSpec("standard_gaussian", 3), 100, 1)
    ds = synth.Dataset(x, np.full(100, 0.5), "interval", 1)
    p = constant(ds, 0.5)
    with pytest.raises(InvalidInputError):
        transfer.check_bilipschitz_transfer(
            p, transfer.evaluate(p, ds), ds, fenchel.pair_from_tag("identity"),
            1.0)


def test_general_activation_approximation_term():
    # ramp data; stand-in activation ramp + slope*t
    spec = synth.MarginalSpec("standard_gaussian", 4)
    w = synth.planted_direction(4, 1.5, 21)
    model = synth.LabelModel(tuple(w), "identity_clamped")
    ds = synth.make_dataset(spec, model, 50_000, 22)
    lam, B = 1.0, 1.5
    g_pair = fenchel.pair_from_tag("identity_clamped")
    pred = learners.train_isotron(ds, B, iters=15)
    p = pred.predict(ds.features)
    for slope in (0.05, 1e-6):
        phi_pair = fenchel.perturb_bilipschitz(g_pair, slope)
        chk = transfer.check_general_activation_transfer(
            p, transfer.evaluate(p, ds), ds, g_pair, phi_pair, B)
        approx = chk.extras["approximation_term"]
        assert approx <= slope ** 2 * lam * B ** 2 * 1.05
        assert chk.passed


def test_general_activation_adversarial_slope():
    spec = synth.MarginalSpec("standard_gaussian", 4)
    w = synth.planted_direction(4, 1.5, 21)
    model = synth.LabelModel(tuple(w), "identity_clamped",
                             corruption=synth.Corruption("constant_override",
                                                         mass=0.1, value=0.0))
    ds = synth.make_dataset(spec, model, 50_000, 23)
    opt_hat = ds.certified_opt_upper_bound
    lam, B = 1.0, 1.5
    slope = math.sqrt(opt_hat) / (B * math.sqrt(lam))
    g_pair = fenchel.pair_from_tag("identity_clamped")
    phi_pair = fenchel.perturb_bilipschitz(g_pair, slope)
    pred = learners.train_isotron(ds, B, iters=15)
    p = pred.predict(ds.features)
    chk = transfer.check_general_activation_transfer(
        p, transfer.evaluate(p, ds), ds, g_pair, phi_pair, B)
    assert chk.extras["approximation_term"] <= opt_hat * 1.05
    assert chk.passed


# ---------------------------------------------------------------------------
# sqrt-opt bound
# ---------------------------------------------------------------------------


def test_sim_bound_realizable_degenerates():
    ds = planted_dataset(n=20_000)
    pred = learners.train_glmtron(ds, "sigmoid", 2.0, iters=200)
    chk = transfer.check_sim_bound(
        transfer.evaluate(pred.predict(ds.features), ds), ds, 2.0, 1.0,
        eps=0.05)
    assert chk.params["opt_hat"] == 0.0
    assert chk.rhs == pytest.approx(0.05)
    assert chk.extras["c_needed"] == 0.0
    assert chk.passed


def test_sim_bound_scaling_probe():
    # doubling the planted norm (rescaled instance) must not need a larger
    # constant than the shared guard
    spec = synth.MarginalSpec("standard_gaussian", 5)
    needed = []
    for B in (1.0, 2.0):
        w = synth.planted_direction(5, B, 27)
        model = synth.LabelModel(tuple(w), "sigmoid",
                                 corruption=synth.Corruption(
                                     "constant_override", mass=0.05, value=0.0))
        train = synth.make_dataset(spec, model, 20_000, 28)
        ev = synth.make_dataset(spec, model, 30_000, 29)
        omni = learners.train_omnipredictor(train, B, seed=6)
        chk = transfer.check_sim_bound(
            transfer.evaluate(omni.predict(ev.features), ev), ev, B, 1.0,
            eps=0.05)
        needed.append(chk.extras["c_needed"])
        assert chk.passed
    assert max(needed) <= transfer.SIM_C


# ---------------------------------------------------------------------------
# logistic bounds
# ---------------------------------------------------------------------------


def test_logistic_squared_rhs_formula_exact():
    # B = 1, opt = 0.01: growth factor is exp(1 + sqrt(log 100))
    rhs = transfer.logistic_squared_rhs(0.01, 1.0, 1.0, 0.0)
    assert rhs == 0.01 * math.exp(1.0 + math.sqrt(math.log(100.0)))
    again = transfer.logistic_squared_rhs(0.01, 1.0, 1.0, 0.0)
    assert rhs == again  # bit-stable


def test_logistic_absolute_rhs_formula_exact():
    rhs = transfer.logistic_absolute_rhs(0.1, 2.0, 1.0, 0.0)
    assert rhs == 2.0 * 0.1 * math.log(10.0)


def test_logistic_squared_requires_subgaussian_claim():
    ds = planted_dataset()  # plain gaussian: claims gamma = 1.5, not 2
    p = constant(ds, 0.5)
    with pytest.raises(InvalidInputError):
        transfer.check_logistic_squared(p, transfer.evaluate(p, ds), ds, 1.0)


def test_logistic_squared_realizable_flags_degenerate():
    spec = synth.MarginalSpec("standard_gaussian", 3, scale=2 ** -0.5)
    w = synth.planted_direction(3, 1.0, 31)
    ds = synth.make_dataset(spec, synth.LabelModel(tuple(w), "sigmoid"),
                            20_000, 32)
    pred = learners.train_logistic(ds, 1.0)
    p = pred.predict(ds.features)
    chk = transfer.check_logistic_squared(p, transfer.evaluate(p, ds), ds,
                                          1.0)
    assert chk.extras["degenerate_opt"]
    assert chk.passed


def test_logistic_absolute_requires_binary_and_subexponential():
    spec = synth.MarginalSpec("laplace_product", 3, scale=2 ** -0.5)
    w = synth.planted_direction(3, 2.0, 33)
    interval = synth.make_dataset(spec, synth.LabelModel(tuple(w), "sigmoid"),
                                  1000, 34)
    p = constant(interval, 0.5)
    with pytest.raises(InvalidInputError):
        transfer.check_logistic_absolute(
            p, transfer.evaluate(p, interval), interval, 2.0)
    gauss = synth.MarginalSpec("standard_gaussian", 3, scale=2 ** -0.5)
    binary_gauss = synth.make_dataset(
        gauss, synth.LabelModel(tuple(w), "sigmoid", label_space="binary"),
        1000, 35)
    p = constant(binary_gauss, 0.5)
    with pytest.raises(InvalidInputError):
        transfer.check_logistic_absolute(
            p, transfer.evaluate(p, binary_gauss), binary_gauss, 2.0)


def test_gaussian_tail_oracle_vs_monte_carlo():
    rng = np.random.default_rng(37)
    s2 = 0.5
    z = rng.normal(scale=math.sqrt(s2), size=400_000)
    vals = np.exp(np.abs(z)) * (np.abs(z) > 2.0)
    mc = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(z.size)
    oracle = transfer.gaussian_abs_exp_tail(2.0, s2)
    assert abs(mc - oracle) <= 4.0 * se


def test_gaussian_tail_matches_the_normal_survival_function():
    from scipy.stats import norm

    for s2 in (0.25, 0.5, 1.0, 2.0):
        s = math.sqrt(s2)
        for z in np.linspace(-8.0, 8.0, 321):
            want = 2.0 * math.exp(s2 / 2.0) * norm.sf(z)
            assert transfer.gaussian_abs_exp_tail(s2 + z * s, s2) == \
                pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# p-concept disagreement
# ---------------------------------------------------------------------------


def test_pconcept_zero_predictor_zero_labels():
    x = synth.sample_marginal(synth.MarginalSpec("standard_gaussian", 3),
                              10_000, 41)
    ds = synth.Dataset(x, np.zeros(10_000), "binary", 41)
    rep = transfer.pconcept_disagreement(constant(ds, 0.0), ds,
                                         resamples=10_000, seed=8)
    assert rep.disagreement == 0.0
    assert rep.err1 == 0.0


def test_pconcept_half_coin():
    rng = np.random.default_rng(43)
    x = synth.sample_marginal(synth.MarginalSpec("standard_gaussian", 3),
                              100_000, 44)
    ds = synth.Dataset(x, (rng.random(100_000) < 0.5).astype(float),
                       "binary", 44)
    rep = transfer.pconcept_disagreement(constant(ds, 0.5), ds,
                                         resamples=100_000, seed=9)
    assert rep.err1 == pytest.approx(0.5, abs=0.01)
    assert rep.within()


def test_pconcept_needs_binary():
    ds = planted_dataset(n=100)
    with pytest.raises(InvalidInputError):
        transfer.pconcept_disagreement(constant(ds, 0.5), ds)


def test_pconcept_planted_sigmoid_within_three_se():
    ds = planted_dataset(n=100_000, label_space="binary")
    rep = transfer.pconcept_disagreement(planted_predictions(ds), ds,
                                         resamples=100_000, seed=10)
    assert rep.within()
