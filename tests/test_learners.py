import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import LinearConstraint, minimize

from simlearn import fenchel, learners, synth
from simlearn.errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    PreconditionError,
)

GAUSS5 = synth.MarginalSpec("standard_gaussian", 5)


def planted_sigmoid(n, seed, d=5, B=2.0, **model_kw):
    w = synth.planted_direction(d, B, 90)
    spec = synth.MarginalSpec("standard_gaussian", d)
    model = synth.LabelModel(tuple(w), "sigmoid", **model_kw)
    return synth.make_dataset(spec, model, n, seed), w


# ---------------------------------------------------------------------------
# weak learner
# ---------------------------------------------------------------------------


def test_weak_learn_zero_correlation_rejects():
    x = synth.sample_marginal(GAUSS5, 5000, 1)
    res = learners.weak_learn(x, np.zeros(5000), 1.0, 0.5,
                              enforce_sample_size=False)
    assert not res.accepted
    assert res.correlation_estimate == 0.0


def test_weak_learn_planted_accepts_with_norm_b():
    spec = synth.MarginalSpec("standard_gaussian", 10)
    x = synth.sample_marginal(spec, 100_000, 2)
    z = np.clip(x[:, 0], -1.0, 1.0)
    res = learners.weak_learn(x, z, 1.0, 0.5)
    assert res.accepted
    assert np.linalg.norm(res.w) == pytest.approx(1.0, rel=1e-12)
    fresh = synth.sample_marginal(spec, 100_000, 3)
    corr = np.mean(np.clip(fresh[:, 0], -1.0, 1.0) * (fresh @ res.w))
    assert corr >= 0.5 / 4.0


def test_weak_learn_null_rejects_most_seeds():
    spec = synth.MarginalSpec("standard_gaussian", 10)
    rejects = 0
    trials = 12
    for t in range(trials):
        x = synth.sample_marginal(spec, 100_000, 100 + t)
        z = np.random.default_rng(200 + t).choice([-1.0, 1.0], size=100_000)
        if not learners.weak_learn(x, z, 1.0, 0.5).accepted:
            rejects += 1
    assert rejects / trials >= 5.0 / 6.0


def test_weak_learn_sample_precondition():
    x = synth.sample_marginal(GAUSS5, 100, 1)
    need = learners.weak_learner_sample_requirement(5, 1.0, 1.0, 0.5)
    with pytest.raises(PreconditionError, match=str(need)):
        learners.weak_learn(x, np.zeros(100), 1.0, 0.5)


def test_weak_learn_z_range_validated():
    x = synth.sample_marginal(GAUSS5, 100, 1)
    with pytest.raises(InvalidInputError):
        learners.weak_learn(x, np.full(100, 1.5), 1.0, 0.5,
                            enforce_sample_size=False)


# ---------------------------------------------------------------------------
# omnipredictor
# ---------------------------------------------------------------------------


def test_omnipredictor_constant_labels():
    x = synth.sample_marginal(GAUSS5, 5000, 7)
    ds = synth.Dataset(x, np.full(5000, 0.3), "interval", 7, marginal=GAUSS5)
    omni = learners.train_omnipredictor(ds, 2.0, seed=1, eps_ma=0.02)
    assert omni.converged
    p = omni.predict(x)
    assert np.max(np.abs(p - 0.3)) <= learners.DEFAULT_BUCKET_WIDTH + 0.02


def test_omnipredictor_realizable_invariants():
    ds, _ = planted_sigmoid(50_000, 11)
    omni = learners.train_omnipredictor(ds, 2.0, seed=2, eps_ma=0.02)
    p = omni.predict(ds.features)
    assert np.all((p > 0.0) & (p < 1.0))
    resid = ds.labels - p
    ma = np.abs(ds.features.T @ resid) / ds.n
    assert np.max(ma) <= 0.02
    assert learners.calibration_error(p, ds.labels) <= 0.02


def test_omnipredictor_heldout_generalization_smoke():
    # the two calibrated-multiaccuracy inequalities, with doubled epsilon,
    # on a fresh sample from the same distribution
    train, w = planted_sigmoid(50_000, 13)
    omni = learners.train_omnipredictor(train, 2.0, seed=3, eps_ma=0.02)
    spec = synth.MarginalSpec("standard_gaussian", 5)
    held = synth.make_dataset(spec, train.label_model, 50_000, 14)
    p = omni.predict(held.features)
    resid = held.labels - p
    assert np.max(np.abs(held.features.T @ resid) / held.n) <= 2 * 0.02
    assert learners.calibration_error(p, held.labels) <= 2 * 0.02


def test_omnipredictor_noise_labels_near_best_constant():
    x = synth.sample_marginal(GAUSS5, 40_000, 17)
    y = np.random.default_rng(18).random(40_000)
    ds = synth.Dataset(x, y, "interval", 17, marginal=GAUSS5)
    omni = learners.train_omnipredictor(ds, 2.0, seed=4)
    p = omni.predict(x)
    assert abs(np.mean(p) - 0.5) <= 0.02
    # per pair, the predictor's matching loss is within eps of the best
    # constant-score competitor found by grid search
    for tag in ("identity", "sigmoid", "leaky_relu(0.1)"):
        pair = fenchel.pair_from_tag(tag)
        scores = pair.clamped_link(p, 1e-9)
        loss_p = np.mean(pair.g(scores) - y * scores)
        grid = np.linspace(-3.0, 3.0, 601)
        const_losses = [np.mean(pair.g(c) - y * c) for c in grid]
        assert loss_p <= min(const_losses) + 0.01


def test_omnipredictor_steps_follow_config():
    # every accepted step is a rung of the ladder bucket_width 2^k /
    # (B sqrt(lambda)), k = -6..4, and the training err2 falls every round
    ds, _ = planted_sigmoid(20_000, 19)
    for bucket_width in (learners.DEFAULT_BUCKET_WIDTH, 0.05):
        omni = learners.train_omnipredictor(ds, 2.0, seed=5, eps_ma=0.02,
                                            bucket_width=bucket_width)
        scale = bucket_width / (2.0 * math.sqrt(ds.second_moment))
        ladder = [scale * 2.0 ** k for k in range(-6, 5)]
        accepted = [step for step in omni.trace if "sigma" in step]
        assert accepted
        assert all(step["sigma"] in ladder for step in accepted)
        errs = [step["err2"] for step in omni.trace]
        assert all(later < earlier for earlier, later in zip(errs, errs[1:]))


def test_omnipredictor_stalls_when_no_rung_lowers_the_error(monkeypatch):
    # the weak learner accepts a direction along a feature that is 0
    # everywhere, so every rung leaves the buckets and err2 as they are
    ds, _ = planted_sigmoid(5000, 19)
    features = np.column_stack([ds.features, np.zeros(ds.n)])
    ds = dataclasses.replace(ds, features=features)
    direction = np.zeros(ds.d)
    direction[-1] = 2.0
    monkeypatch.setattr(learners, "weak_learn", lambda *a, **k:
                        learners.LinearWeakLearnerResult(True, direction, 1.0))
    omni = learners.train_omnipredictor(ds, 2.0, seed=5)
    assert not omni.converged
    assert len(omni.trace) == 1 and omni.trace[-1]["stalled"]
    assert "sigma" not in omni.trace[-1]
    assert np.array_equal(omni.score_w, np.zeros(ds.d))


def test_omnipredictor_converges_exactly_when_the_weak_learner_rejects():
    # the weak learner's threshold is eps_ma / 4; predictions are bucket
    # means of the training labels, so the training calibration error is
    # zero up to the output clamp and needs no test of its own
    ds, _ = planted_sigmoid(20_000, 19)
    omni = learners.train_omnipredictor(ds, 2.0, seed=5, eps_ma=0.02)
    assert omni.converged
    *rounds, last = omni.trace
    assert rounds and all("sigma" in step for step in rounds)
    assert "sigma" not in last and "stalled" not in last
    assert last["ma_violation"] <= 3.0 * (0.02 / 4.0) / (4.0 * 2.0)
    assert learners.calibration_error(omni.predict(ds.features), ds.labels) \
        <= learners.DEFAULT_OUTPUT_CLAMP
    # the same fit stopped by the cap before the rejecting round
    capped = learners.train_omnipredictor(ds, 2.0, seed=5, eps_ma=0.02,
                                          round_cap=len(rounds))
    assert not capped.converged
    assert capped.trace == rounds


def test_omnipredictor_bernoulli_reduction_flag():
    ds, _ = planted_sigmoid(30_000, 23)
    omni = learners.train_omnipredictor(ds, 2.0, seed=6, eps_ma=0.04,
                                        bernoulli_reduction=True)
    p = omni.predict(ds.features)
    # trained on resampled binary labels, still close in squared error
    assert learners.squared_error(p, ds.labels) <= 0.02


@pytest.mark.parametrize("label_space", ["interval", "binary"])
def test_omnipredictor_same_fit_from_either_feature_layout(label_space):
    # the boosting rounds run on their own column-major copy of the features
    ds, _ = planted_sigmoid(20_000, 19, label_space=label_space)
    fortran = dataclasses.replace(ds, features=np.asfortranarray(ds.features))
    assert ds.features.flags.c_contiguous and fortran.features.flags.f_contiguous
    a = learners.train_omnipredictor(ds, 2.0, seed=5)
    b = learners.train_omnipredictor(fortran, 2.0, seed=5)
    assert np.array_equal(a.values, b.values)
    assert len(a.trace) == len(b.trace) and a.converged == b.converged
    assert np.array_equal(a.predict(ds.features), b.predict(ds.features))


# The round count, flag and bucket values of this fit, recorded at 17 digits
# with the ladder step search, pin every round's bucketing: a bucket value is
# a mean of labels, so it moves only when a running score changes bucket.
PINNED_OMNI_ROUNDS = 3
PINNED_OMNI_VALUES = [
    0.025428322998613109, 0.050735563911161789, 0.057120283062928941,
    0.064398857074341315, 0.072231045102598215, 0.080916438634235296,
    0.090807475391759471, 0.10139673505048549, 0.11367050993885779,
    0.12622713510957009, 0.14086540414035364, 0.15681402995441385,
    0.1734947308293463, 0.19272565353490864, 0.21270004112959828,
    0.23456760455654074, 0.25737158191720366, 0.28134588478332673,
    0.3079943269548896, 0.33451467673397628, 0.36384954610534881,
    0.39311958523214341, 0.42285651156517889, 0.45353877154762873,
    0.48430496868490613, 0.51556906845876094, 0.5469589105771574,
    0.57687972459345871, 0.60739360332061731, 0.63643765702305855,
    0.66556459331503204, 0.6923883023422116, 0.71815650972965783,
    0.74253107365425075, 0.76529889802794615, 0.78696752142429105,
    0.80701117381757881, 0.82572856014687301, 0.84323098573186561,
    0.85865404208342067, 0.87327457205128722, 0.88597156065427618,
    0.89829223564391703, 0.90927810758937178, 0.9190833048883108,
    0.9281170298642174, 0.93575275594555574, 0.94301257198032851,
    0.94911305100225951, 0.9753450208582416]


def test_omnipredictor_pinned_rounds_and_values():
    ds, _ = planted_sigmoid(20_000, 19)
    omni = learners.train_omnipredictor(ds, 2.0, seed=5)
    assert omni.converged and len(omni.trace) == PINNED_OMNI_ROUNDS
    np.testing.assert_allclose(omni.values, PINNED_OMNI_VALUES, rtol=1e-12,
                               atol=0)


def test_omnipredictor_serialization_roundtrip():
    ds, _ = planted_sigmoid(10_000, 29)
    omni = learners.train_omnipredictor(ds, 2.0, seed=7)
    text = learners.write_predictor(omni)
    back = learners.read_predictor(text, learners.OmniPredictor)
    assert learners.write_predictor(back) == text
    x = ds.features[:100]
    assert np.array_equal(back.predict(x), omni.predict(x))


# ---------------------------------------------------------------------------
# glmtron
# ---------------------------------------------------------------------------


def test_glmtron_realizable_recovery():
    ds, _ = planted_sigmoid(10_000, 31)
    pred = learners.train_glmtron(ds, "sigmoid", 2.0, iters=500)
    assert learners.squared_error(pred.predict(ds.features), ds.labels) <= 1e-3


def test_glmtron_constant_labels_stay_at_zero():
    x = synth.sample_marginal(GAUSS5, 2000, 37)
    ds = synth.Dataset(x, np.full(2000, 0.5), "interval", 37)
    pred = learners.train_glmtron(ds, "sigmoid", 2.0, iters=50)
    assert np.all(pred.w == 0.0)
    # w = 0 is a fixed point whose error is the running minimum, so the
    # next iterate stalls within tol: converged, as without the stop
    assert pred.converged and len(pred.trace) == 2


def glmtron_reference(ds, tag, B, iters=500, tol=1e-8, fixed_point_stop=True):
    """GLMtron written out as a plain loop, the clipped error always taken:
    ``(w, converged, trace)``; without ``fixed_point_stop`` it runs on from
    a fixed point to the cap."""
    act = fenchel.pair_from_tag(tag)
    x, y = ds.features, ds.labels
    w = np.zeros(ds.d)
    best_w, best_err = w.copy(), math.inf
    trace = []
    for t in range(iters):
        mean = act(x @ w)
        err = learners.squared_error(np.clip(mean, 0.0, 1.0), y)
        s = x.T @ (y - mean) / ds.n
        trace.append({"iter": t, "err2": err, "w": w,
                      "gap": B * float(np.linalg.norm(s)) - float(s @ w)})
        if t > 0 and best_err - tol <= err <= best_err + tol:
            return w, True, trace
        if err < best_err:
            best_err, best_w = err, w.copy()
        w, w_prev = learners.project_ball(w + s, B), w
        if (fixed_point_stop and err > best_err + tol
                and np.array_equal(w, w_prev)):
            break
    return best_w, False, trace


def fixed_point_dataset():
    # with an intercept and binary labels the squared error is least early
    # on and rises as the matching loss falls, until an update returns w
    # bit for bit
    spec = synth.MarginalSpec("standard_gaussian", 5, augment_constant=True)
    w = synth.planted_direction(6, 2.0, 90, constant_weight=0.2)
    model = synth.LabelModel(tuple(w), "sigmoid", label_space="binary",
                             corruption=synth.Corruption("flip_region",
                                                         mass=0.1))
    return synth.make_dataset(spec, model, 5000, 43)


def test_glmtron_fixed_point_returns_what_the_cap_returns():
    ds = fixed_point_dataset()
    pred = learners.train_glmtron(ds, "sigmoid", 2.0, iters=500)
    ref_w, ref_converged, _ = glmtron_reference(ds, "sigmoid", 2.0,
                                                iters=500,
                                                fixed_point_stop=False)
    assert not ref_converged and not pred.converged
    assert np.array_equal(pred.w, ref_w)
    assert len(pred.trace) < 500


def leaky_relu_dataset():
    # leaky_relu means a(x.w) leave [0, 1]: the error is the clipped mean's
    w = synth.planted_direction(5, 2.0, 91)
    model = synth.LabelModel(tuple(w), "leaky_relu(0.1)")
    return synth.make_dataset(GAUSS5, model, 5000, 47)


@pytest.mark.parametrize("make, tag", [(fixed_point_dataset, "sigmoid"),
                                       (leaky_relu_dataset,
                                        "leaky_relu(0.1)")],
                         ids=["sigmoid_fixed_point", "leaky_relu_clipped"])
def test_glmtron_matches_the_reference_loop_bit_for_bit(make, tag):
    ds = make()
    pred = learners.train_glmtron(ds, tag, 2.0, iters=500)
    ref_w, ref_converged, ref_trace = glmtron_reference(ds, tag, 2.0,
                                                        iters=500)
    mean = fenchel.pair_from_tag(tag)(ds.features @ ref_trace[-1]["w"])
    assert np.any((mean < 0.0) | (mean > 1.0)) == (tag != "sigmoid")
    assert np.array_equal(pred.w, ref_w)
    assert pred.converged == ref_converged
    assert len(pred.trace) == len(ref_trace)
    for got, want in zip(pred.trace, ref_trace):
        assert got["iter"] == want["iter"]
        assert got["err2"] == want["err2"]
        assert np.array_equal(got["w"], want["w"])
        assert got["gap"] == want["gap"]


def test_glmtron_update_is_negative_matching_loss_gradient():
    ds, _ = planted_sigmoid(2000, 41)
    pair = fenchel.pair_from_tag("sigmoid")
    rng = np.random.default_rng(42)
    w = rng.normal(size=5) * 0.3
    x, y = ds.features, ds.labels
    update = x.T @ (y - pair(x @ w)) / ds.n
    h = 1e-6
    for k in range(5):
        e = np.zeros(5)
        e[k] = h
        lp = learners.empirical_matching_loss(pair, x @ (w + e), y)
        lm = learners.empirical_matching_loss(pair, x @ (w - e), y)
        fd = (lp - lm) / (2 * h)
        assert abs(-fd - update[k]) <= 1e-5 * max(1.0, abs(update[k]))


def test_glmtron_matching_loss_trace_non_increasing():
    ds, _ = planted_sigmoid(
        20_000, 43,
        corruption=synth.Corruption("flip_region", mass=0.1))
    pred = learners.train_glmtron(ds, "sigmoid", 2.0, iters=100)
    # each iterate's loss, from the same scores the fit computed
    pair = fenchel.pair_from_tag("sigmoid")
    losses = [learners.empirical_matching_loss(pair, ds.features @ step["w"],
                                               ds.labels)
              for step in pred.trace]
    assert all(b <= a + 1e-10 for a, b in zip(losses, losses[1:]))


def test_glmtron_records_its_frank_wolfe_gap_per_iterate():
    # B*||s|| >= s.w on the ball, so a gap below 0 is rounding at most
    ds, _ = planted_sigmoid(10_000, 31)
    pred = learners.train_glmtron(ds, "sigmoid", 2.0, iters=500)
    gaps = [step["gap"] for step in pred.trace]
    assert len(gaps) > 2 and all(gap >= -1e-12 for gap in gaps)
    assert gaps[-1] < gaps[0]
    step = pred.trace[-1]
    act = fenchel.pair_from_tag("sigmoid")
    s = ds.features.T @ (ds.labels - act(ds.features @ step["w"])) / ds.n
    assert step["gap"] == 2.0 * np.linalg.norm(s) - s @ step["w"]


# Weights and trace lengths of these fits, recorded at 17 digits, pin every
# iterate: GLMtron shares one activation pass per iterate between its
# prediction and its update, and the matching-loss solver reuses the
# accepted trial point's scores for its next gradient.  The relative
# tolerance allows only for another BLAS or LAPACK build's summation order.
PINNED_GLMTRON_W = [0.01759616977878479, -0.5667448312517156,
                    0.09600853976845519, 0.1691740055483381,
                    0.10985459761604413]
PINNED_SOLVER_W = [0.06315145695129164, -1.8462303218719534,
                   0.31153189539315596, 0.5776823799618312,
                   0.3958236997405179]


def test_glmtron_pinned_weights_and_iterations():
    ds, _ = planted_sigmoid(
        20_000, 43,
        corruption=synth.Corruption("flip_region", mass=0.1))
    pred = learners.train_glmtron(ds, "sigmoid", 2.0)
    assert pred.converged and len(pred.trace) == 54
    np.testing.assert_allclose(pred.w, PINNED_GLMTRON_W, rtol=1e-12, atol=0)


def test_matching_gd_pinned_weights_and_iterations():
    # five full Newton steps; the optimum lies just inside the ball
    ds, _ = planted_sigmoid(5000, 73)
    pair = fenchel.pair_from_tag("sigmoid")
    pred = learners.train_matching_gd(ds, pair, 2.0)
    assert pred.converged and len(pred.trace) == 6
    assert [step["step"] for step in pred.trace[1:]] == [1.0] * 5
    np.testing.assert_allclose(pred.w, PINNED_SOLVER_W, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# isotron and the Lipschitz isotonic fit
# ---------------------------------------------------------------------------


def test_lipschitz_isotonic_fit_matches_qp_oracle():
    rng = np.random.default_rng(47)
    # scores rounded to one decimal include ties
    for decimals in (None, None, None, 1, 1, 1):
        n = 12
        t = np.sort(rng.normal(size=n)) * 2.0
        if decimals is not None:
            t = np.round(t, decimals)
        y = rng.uniform(0, 1, n)
        u = learners.lipschitz_isotonic_fit(t, y)
        A = np.zeros((n - 1, n))  # rows: u[i+1] - u[i]
        for i in range(n - 1):
            A[i, i], A[i, i + 1] = -1.0, 1.0
        # tied scores give equality rows, which SLSQP takes apart from the
        # inequality rows
        gaps = np.diff(t)
        tied = gaps == 0.0
        cons = [LinearConstraint(A[~tied], 0.0, gaps[~tied])]
        if tied.any():
            cons.append(LinearConstraint(A[tied], 0.0, 0.0))
        ref = minimize(lambda v: np.sum((v - y) ** 2), y, constraints=cons,
                       method="SLSQP", options={"maxiter": 500, "ftol": 1e-14})
        assert np.max(np.abs(u - ref.x)) <= 1e-6


def test_lipschitz_isotonic_fit_all_tied_is_the_mean():
    y = np.random.default_rng(48).uniform(0, 1, 100)
    u = learners.lipschitz_isotonic_fit(np.full(100, 0.3), y)
    assert np.max(np.abs(u - y.mean())) <= 1e-12


def test_lipschitz_isotonic_fit_large_with_ties_and_tiny_gaps():
    # every score drawn twice: every other pair tied, the rest 1e-12 apart
    rng = np.random.default_rng(49)
    n = 20_000
    t = np.repeat(np.sort(rng.normal(size=n // 2)), 2)
    t[2::4] += 1e-12
    t = np.sort(t)
    y = rng.uniform(0, 1, n)
    u = learners.lipschitz_isotonic_fit(t, y)
    du = np.diff(u)
    assert np.all(du >= -1e-12)
    assert np.all(du <= np.diff(t) + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
       st.integers(0, 10_000))
def test_lipschitz_isotonic_fit_postconditions(ys, seed):
    y = np.asarray(ys)
    t = np.sort(np.random.default_rng(seed).normal(size=y.size))
    u = learners.lipschitz_isotonic_fit(t, y)
    du = np.diff(u)
    assert np.all(du >= -1e-8)
    assert np.all(du <= np.diff(t) + 1e-8)


def tuple_stack_isotonic_fit(t_sorted, y):
    """The dynamic programme of ``learners.lipschitz_isotonic_fit`` as it
    was first written, on stacks of (position, jump) tuples: the oracle
    for the flat-stack version, which must return the same bytes."""
    t = np.asarray(t_sorted, dtype=float).tolist()
    y = np.asarray(y, dtype=float).tolist()
    if not y:
        return np.empty(0)
    left, right = [(-math.inf, 0.0)], [(math.inf, 0.0)]
    shift = 0.0
    a, b = -2.0 * y[0], 2.0
    zeros = [y[0]]
    for i in range(1, len(y)):
        delta = t[i] - t[i - 1]
        if delta > 0.0:
            left.append((zeros[-1], -b))
            shift += delta
            right.append((zeros[-1] + delta - shift, b))
            a, b = 0.0, 0.0
        a -= 2.0 * y[i]
        b += 2.0
        if a + b * left[-1][0] > 0.0:
            while a + b * left[-1][0] > 0.0:
                x, jump = left.pop()
                a += jump * x
                b -= jump
                right.append((x - shift, jump))
        else:
            while a + b * (right[-1][0] + shift) < 0.0:
                x, jump = right.pop()
                x += shift
                a -= jump * x
                b += jump
                left.append((x, jump))
        zeros.append(min(max(-a / b, left[-1][0]), right[-1][0] + shift))
    u = zeros
    for i in range(len(u) - 1, 0, -1):
        u[i - 1] = min(max(u[i - 1], u[i] - (t[i] - t[i - 1])), u[i])
    return np.array(u)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0),
       st.lists(st.tuples(st.sampled_from([0.0, 1e-12, None]),
                          st.floats(0.0, 1.0), st.floats(-1.0, 2.0)),
                max_size=60),
       st.floats(-1.0, 2.0))
def test_lipschitz_isotonic_fit_is_bitwise_the_tuple_stack_dp(t0, steps, y0):
    # each step is a tie, a 1e-12 gap or a gap drawn from [0, 1]; no steps
    # is a single point
    t, y = [t0], [y0]
    for gap, drawn, label in steps:
        t.append(t[-1] + (drawn if gap is None else gap))
        y.append(label)
    u = learners.lipschitz_isotonic_fit(np.array(t), np.array(y))
    assert u.tobytes() == tuple_stack_isotonic_fit(t, y).tobytes()


def test_isotron_recovers_planted_ramp():
    spec = synth.MarginalSpec("standard_gaussian", 3)
    w = synth.planted_direction(3, 1.0, 53)
    ds = synth.make_dataset(spec, synth.LabelModel(tuple(w), "identity_clamped"),
                            4000, 54)
    pred = learners.train_isotron(ds, 1.0, iters=100)
    assert learners.squared_error(pred.predict(ds.features), ds.labels) <= 1e-2
    # the weight steps shrink like 1/t and are still above the tolerance
    # after 100 rounds, so the flag says so
    assert not pred.converged
    # fitted activation close to the planted ramp on the score range
    ts = np.linspace(-1.5, 1.5, 101)
    ramp = np.clip(ts, 0.0, 1.0)
    fitted = pred.activation_values(ts * (np.linalg.norm(pred.w)
                                          / np.linalg.norm(w)))
    assert np.max(np.abs(fitted - ramp)) <= 0.05


def test_isotron_single_point():
    ds = synth.Dataset(np.array([[1.0, 2.0]]), np.array([0.7]), "interval", 0)
    pred = learners.train_isotron(ds, 1.0, iters=3)
    assert learners.squared_error(pred.predict(ds.features), ds.labels) == 0.0
    assert pred.converged    # fitted exactly at once: every step is zero
    assert pred.predict(np.array([[5.0, -3.0]]))[0] == pytest.approx(0.7)


def test_isotron_fit_monotone_lipschitz_knots():
    ds, _ = planted_sigmoid(3000, 59)
    pred = learners.train_isotron(ds, 2.0, iters=10)
    du = np.diff(pred.knots_u)
    dt = np.diff(pred.knots_t)
    assert np.all(du >= -1e-8)
    assert np.all(du <= dt + 1e-8)


def test_isotron_ties_are_stable():
    x = np.array([[1.0], [1.0], [1.0], [2.0]])
    y = np.array([0.2, 0.4, 0.6, 1.0])
    ds = synth.Dataset(x, y, "interval", 0)
    pred = learners.train_isotron(ds, 2.0, iters=5)
    # tied scores collapse to one knot with their pooled value
    assert pred.knots_t.size == np.unique(pred.knots_t).size


def _planted_ramp():
    spec = synth.MarginalSpec("standard_gaussian", 3)
    w = synth.planted_direction(3, 1.0, 53)
    ds = synth.make_dataset(
        spec, synth.LabelModel(tuple(w), "identity_clamped"), 4000, 54)
    return ds, 1.0, 100


def _tied_scores():
    x = np.array([[1.0], [1.0], [1.0], [2.0]])
    y = np.array([0.2, 0.4, 0.6, 1.0])
    return synth.Dataset(x, y, "interval", 0), 2.0, 5


@pytest.mark.parametrize("data", [_planted_ramp, _tied_scores],
                         ids=["planted_ramp", "tied_scores"])
def test_isotron_trace_holds_the_returned_predictor_error(data):
    # a round's error is taken at its fitted values; the returned predictor,
    # evaluated through its knots, gives the best round's error bit for bit
    ds, B, iters = data()
    pred = learners.train_isotron(ds, B, iters=iters)
    assert min(entry["err2"] for entry in pred.trace) \
        == learners.squared_error(pred.predict(ds.features), ds.labels)


def test_sim_predictor_serialization_roundtrip():
    ds, _ = planted_sigmoid(1000, 61)
    pred = learners.train_isotron(ds, 2.0, iters=5)
    text = learners.write_predictor(pred)
    back = learners.read_predictor(text, learners.SimPredictor)
    assert learners.write_predictor(back) == text
    assert np.array_equal(back.predict(ds.features[:50]),
                          pred.predict(ds.features[:50]))


# ---------------------------------------------------------------------------
# matching-loss minimisation over the ball
# ---------------------------------------------------------------------------


def test_logistic_matches_grid_search_oracle_2d():
    spec = synth.MarginalSpec("standard_gaussian", 2)
    w = synth.planted_direction(2, 1.0, 67)
    ds = synth.make_dataset(spec, synth.LabelModel(tuple(w), "sigmoid"),
                            5000, 68)
    B = 1.2
    pred = learners.train_logistic(ds, B)
    pair = fenchel.pair_from_tag("sigmoid")
    final_loss = learners.empirical_matching_loss(pair,
                                                  ds.features @ pred.w,
                                                  ds.labels)
    # dense polar grid over the radius-B disc
    best = math.inf
    for radius in np.linspace(0.0, B, 61):
        for theta in np.linspace(0.0, 2 * math.pi, 181, endpoint=False):
            cand = radius * np.array([math.cos(theta), math.sin(theta)])
            best = min(best, learners.empirical_matching_loss(
                pair, ds.features @ cand, ds.labels))
    assert final_loss <= best + 1e-4


def test_logistic_symmetric_noise_stays_at_origin():
    x = synth.sample_marginal(GAUSS5, 20_000, 71)
    ds = synth.Dataset(x, np.full(20_000, 0.5), "interval", 71)
    pred = learners.train_logistic(ds, 1.0)
    assert np.linalg.norm(pred.w) <= 1e-9
    pair = fenchel.pair_from_tag("sigmoid")
    loss0 = learners.empirical_matching_loss(pair, np.zeros(ds.n), ds.labels)
    assert pred.trace[-1]["loss"] == pytest.approx(loss0)
    assert loss0 == pytest.approx(0.0, abs=1e-12)


def ball_instance(tag, seed, n=2000):
    """Labels from ``tag`` on a 0.6-norm planted direction, flipped on 10%
    of the points so that no weight vector fits them exactly.  A fourth
    feature that is always 0 leaves every Hessian singular, so each step
    relies on the solver's eigenvalue floor."""
    spec = synth.MarginalSpec("standard_gaussian", 3)
    w = synth.planted_direction(3, 0.6, seed)
    model = synth.LabelModel(tuple(w), tag, corruption=synth.Corruption(
        "flip_region", mass=0.1))
    ds = synth.make_dataset(spec, model, n, seed + 1)
    return synth.Dataset(np.column_stack([ds.features, np.zeros(n)]),
                         ds.labels, ds.label_space, ds.seed)


@pytest.mark.parametrize("tag", ["sigmoid", "leaky_relu(0.1)",
                                 "identity_clamped"])
@pytest.mark.parametrize("B", [0.02, 50.0], ids=["boundary", "interior"])
def test_matching_gd_matches_slsqp_on_the_ball(tag, B):
    ds = ball_instance(tag, 5)
    pair = fenchel.pair_from_tag(tag)
    x, y = ds.features, ds.labels
    pred = learners.train_matching_gd(ds, pair, B)
    ref = minimize(
        lambda w: learners.empirical_matching_loss(pair, x @ w, y),
        np.zeros(ds.d), method="SLSQP",
        jac=lambda w: x.T @ (pair(x @ w) - y) / ds.n,
        constraints=[{"type": "ineq", "fun": lambda w: B * B - w @ w,
                      "jac": lambda w: -2.0 * w}],
        options={"ftol": 1e-15, "maxiter": 1000})
    loss = learners.empirical_matching_loss(pair, x @ pred.w, y)
    assert pred.converged and pred.trace[-1]["gap"] <= learners.GAP_TOL
    assert np.linalg.norm(pred.w) <= B
    assert abs(loss - ref.fun) <= 1e-9
    # the ball binds at B = 0.02 and not at B = 50
    assert (np.linalg.norm(pred.w) == pytest.approx(B)) == (B == 0.02)


def test_matching_gd_backtracking_contract():
    # a ramp with knots at 1 and 2: after the first step most scores lie
    # outside the knots, where the slope is 0.05, so the quadratic model of
    # the second step is too flat and its full step raises the loss from
    # -0.57 to -0.13, far above rounding; the line search halves it. Near
    # the minimiser a step may raise the computed loss by its rounding,
    # where the loss still falls along the step
    spec = synth.MarginalSpec("standard_gaussian", 5, augment_constant=True)
    w = synth.planted_direction(6, 2.0, 20321, constant_weight=0.2)
    ds = synth.make_dataset(spec, synth.LabelModel(tuple(w), "sigmoid"),
                            20_000, 20323)
    pair = fenchel.PiecewiseLinearActivation([1.0, 2.0], [0.0, 1.0], 0.0,
                                             0.0).add_linear(0.05)
    pred = learners.train_matching_gd(ds, pair, 2.0)
    assert pred.converged
    assert pred.trace[2]["step"] == 0.5
    losses = [step["loss"] for step in pred.trace]
    assert all(b <= a + learners.LOSS_ROUNDING * max(1.0, abs(a))
               for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_matching_gd_step_cap_leaves_it_unconverged(monkeypatch):
    ds, _ = planted_sigmoid(5000, 73)
    pair = fenchel.pair_from_tag("sigmoid")
    monkeypatch.setattr(learners, "NEWTON_STEP_CAP", 1)
    pred = learners.train_matching_gd(ds, pair, 2.0)
    assert not pred.converged and len(pred.trace) == 2
    assert pred.trace[-1]["gap"] > learners.GAP_TOL


def test_matching_gd_divergence_error():
    class WrongGradientPair:
        # the loss is |s| and the claimed slope points the other way
        tag = "broken"
        derivative = fenchel.identity_clamped().derivative

        def g(self, s):
            return np.abs(s)

        def __call__(self, s):
            return -np.sign(s) - 1.0

    x = np.ones((100, 1))
    ds = synth.Dataset(x, np.zeros(100), "interval", 0)
    with pytest.raises(DivergenceError, match="line search"):
        learners.train_matching_gd(ds, WrongGradientPair(), 5.0)


def test_glm_predictor_serialization_roundtrip():
    ds, _ = planted_sigmoid(1000, 79)
    pred = learners.train_glmtron(ds, "sigmoid", 2.0, iters=20)
    text = learners.write_predictor(pred)
    back = learners.read_predictor(text, learners.GlmPredictor)
    assert learners.write_predictor(back) == text
    assert np.array_equal(back.predict(ds.features), pred.predict(ds.features))


GLM_TEXT = "#simlearn-predictor v2 kind=glm activation_tag=sigmoid converged=1\n" \
    "w 0.5 -0.25\n"


@pytest.mark.parametrize("text, cls", [
    ("", learners.GlmPredictor),
    (GLM_TEXT.replace(" v2 ", " v9 "), learners.GlmPredictor),
    (GLM_TEXT.replace(" v2 ", " v1 "), learners.GlmPredictor),
    (GLM_TEXT, learners.SimPredictor),
    (GLM_TEXT.replace("w 0.5 -0.25\n", ""), learners.GlmPredictor),
    (GLM_TEXT.replace("0.5", "half"), learners.GlmPredictor),
])
def test_read_predictor_rejects_foreign_text(text, cls):
    # empty text, foreign versions, a kind mismatch, a missing array, a
    # malformed number
    assert learners.read_predictor(GLM_TEXT, learners.GlmPredictor).converged
    with pytest.raises(ConfigError):
        learners.read_predictor(text, cls)


SIM_TEXT = "#simlearn-predictor v2 kind=sim converged=0\n" \
    "w 0.5 -0.25\nknots_t -1 0 1\nknots_u 0.25 0.5 0.75\n"


@pytest.mark.parametrize("text, cls, message", [
    (GLM_TEXT + "w 5 6 7\n", learners.GlmPredictor,
     r"has \['w', 'w'\], not \['w'\]"),
    (GLM_TEXT + "bias 1\n", learners.GlmPredictor,
     r"has \['w', 'bias'\], not \['w'\]"),
    (GLM_TEXT.replace("converged=1", "converged=1 bias=2"),
     learners.GlmPredictor,
     r"has \['activation_tag', 'converged', 'bias'\], not"),
    (GLM_TEXT.replace("converged=1", "converged=1 converged=0"),
     learners.GlmPredictor,
     r"has \['activation_tag', 'converged', 'converged'\], not"),
    (GLM_TEXT.replace("converged=1", "converged=7"), learners.GlmPredictor,
     "converged='7', not 0 or 1"),
    (GLM_TEXT.replace("w 0.5 -0.25", "w"), learners.GlmPredictor,
     "an empty array"),
    (SIM_TEXT.replace("knots_u 0.25 0.5 0.75", "knots_u 0.25 0.5"),
     learners.SimPredictor, "knot arrays of two lengths"),
    # np.interp predicted 0.9, 0.1, 0.1 at scores -1, 0, 1 from these
    (SIM_TEXT.replace("knots_t -1 0 1", "knots_t 1 0 -1")
     .replace("knots_u 0.25 0.5 0.75", "knots_u 0.9 0.5 0.1"),
     learners.SimPredictor, "knots_t that is not strictly increasing"),
], ids=["repeated_array", "unknown_array", "unknown_key", "repeated_key",
        "converged_not_a_flag", "empty_array", "knot_lengths",
        "knots_t_not_increasing"])
def test_read_predictor_rejects_lines_no_writer_writes(text, cls, message):
    with pytest.raises(ConfigError, match=message):
        learners.read_predictor(text, cls)


def test_matching_gd_converged_only_when_tol_stop_fires():
    # converged means certified: the Frank-Wolfe gap met GAP_TOL
    ds, _ = planted_sigmoid(5000, 73)
    pair = fenchel.pair_from_tag("sigmoid")
    pred = learners.train_matching_gd(ds, pair, 2.0)
    assert pred.converged
    assert [step["gap"] <= learners.GAP_TOL for step in pred.trace] == \
        [False] * (len(pred.trace) - 1) + [True]
