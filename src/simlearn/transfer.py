"""Error metrics and executable bound checks.

A trained predictor that approximately minimizes a matching loss over the
norm-B linear class inherits squared- or absolute-error guarantees relative
to the best GLM/SIM with the corresponding activation.  The checks here
assemble each bound's right-hand side from measured quantities:

* the certified optimum upper bound recorded by the dataset generator
  (every right-hand side is increasing in opt, so an upper bound preserves
  the direction of the test), and
* the premise gap ``eps_hat``: the predictor's empirical matching loss
  minus that of the comparator, the loss's minimiser over the norm-B ball
  on the same sample (:func:`learners.train_matching_gd`), whose
  Frank-Wolfe certificate puts ``eps_hat`` within ``learners.GAP_TOL`` =
  1e-12 of the exact empirical premise gap.

Functions take the predictions ``p`` on ``dataset.features``, so a caller
predicts once per sample; the bound checks also take the
:class:`ErrorReport` that :func:`evaluate` made of ``p``, so a caller
evaluates once per sample.

Constants reported as ``c_needed`` are regression values logged by the
suites, never asserted as ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fenchel, learners
from .errors import InvalidInputError, NoConvergenceError

CHECK_TOL = 1e-6
OPT_FLOOR = 1e-6
LOGISTIC_C = 1.0              # constant of both logistic bounds
TAIL_C = 4.0                  # constant of the exponential-tail bound
SIM_C = 10.0                  # logged constant of the sqrt-opt bound


# ---------------------------------------------------------------------------
# Error reports
# ---------------------------------------------------------------------------


@dataclass
class ErrorReport:
    err2: float
    err1: float
    matching_losses: dict
    n_eval: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.err2 <= 1.0 and 0.0 <= self.err1 <= 1.0):
            raise InvalidInputError("errors must lie in [0, 1]")
        if self.err1 ** 2 > self.err2 + 1e-12:
            raise InvalidInputError("err1^2 <= err2 must hold (Jensen)")

    def to_json(self):
        return json.dumps(asdict(self))


def _predictions(p, dataset):
    """``p`` as predictions on the dataset's rows, clipped into [0, 1]."""
    p = np.asarray(p, dtype=float)
    if p.shape != (dataset.n,):
        raise InvalidInputError(
            f"predictions have shape {p.shape}, expected ({dataset.n},)")
    return np.clip(p, 0.0, 1.0)


def _matching_loss(pair, p, labels):
    """The empirical matching loss of the predictions ``p``, scored at their
    clamped link."""
    return learners.empirical_matching_loss(
        pair, pair.clamped_link(p, fenchel.DEFAULT_CLAMP_MARGIN), labels)


def evaluate(p, dataset, pairs=()):
    """Empirical squared/absolute errors and per-pair matching losses."""
    p = _predictions(p, dataset)
    y = dataset.labels
    losses = {pair.tag: _matching_loss(pair, p, y) for pair in pairs}
    return ErrorReport(
        err2=float(np.mean((y - p) ** 2)),
        err1=float(np.mean(np.abs(y - p))),
        matching_losses=losses,
        n_eval=dataset.n,
        seed=dataset.seed,
    )


# ---------------------------------------------------------------------------
# Premise slack measurement
# ---------------------------------------------------------------------------


def linear_matching_losses(dataset, pair, W):
    """Empirical matching loss of each linear score row of W.  Nothing in
    simlearn calls it; it stays because the benchmark's tracer wraps it."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    scores = dataset.features @ W.T
    return np.mean(pair.g(scores) - dataset.labels[:, None] * scores, axis=0)


@dataclass
class PremiseEstimate:
    predictor_loss: float
    comparator_loss: float
    eps_hat: float          # max(0, predictor_loss - comparator_loss)
    raw_slack: float        # predictor_loss - comparator_loss, signed
    # read by the benchmark's tracer only; ROADMAP item 1 drops it
    best_source = "ball_minimiser"


def measure_premise(p, dataset, pair, B):
    """The matching-loss premise gap of the predictions ``p``.

    The comparator minimises ``pair``'s empirical matching loss over
    ``||w|| <= B`` on ``dataset`` (:func:`learners.train_matching_gd`); its
    Frank-Wolfe certificate puts its trace's last loss within
    ``learners.GAP_TOL`` = 1e-12 of the ball's minimum, so ``raw_slack`` is
    the exact empirical premise gap to within that, and ``eps_hat`` is its
    positive part.  The signed slack is kept, since a predictor outside the
    linear class can beat the ball.  Raises NoConvergenceError when the
    comparator misses its certificate.
    """
    pred_loss = _matching_loss(pair, _predictions(p, dataset), dataset.labels)
    ball_min = learners.train_matching_gd(dataset, pair, B)
    if not ball_min.converged:
        raise NoConvergenceError(
            f"the {pair.tag} ball minimiser missed its certificate")
    best = ball_min.trace[-1]["loss"]
    return PremiseEstimate(pred_loss, best, max(0.0, pred_loss - best),
                           pred_loss - best)


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------


@dataclass
class BoundCheck:
    theorem_tag: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    params: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def _certified_opt(dataset):
    if dataset.certified_opt_upper_bound is None:
        raise InvalidInputError(
            "dataset lacks a certified optimum bound (no planted model)")
    return float(dataset.certified_opt_upper_bound)


def _finish(tag, lhs, rhs, params, extras):
    slack = rhs - lhs
    return BoundCheck(tag, float(lhs), float(rhs), float(slack),
                      bool(slack >= -CHECK_TOL), params, extras)


def check_bilipschitz_transfer(p, report, dataset, pair, B):
    """err2 <= (beta/alpha) * opt_hat + 2 beta * eps_hat, bi-Lipschitz pairs."""
    if pair.alpha <= 0.0:
        raise InvalidInputError(
            f"pair {pair.tag} is not bi-Lipschitz; the transfer is inapplicable")
    opt_hat = _certified_opt(dataset)
    eps_hat = measure_premise(p, dataset, pair, B).eps_hat
    rhs = (pair.beta / pair.alpha) * opt_hat + 2.0 * pair.beta * eps_hat
    params = {"pair": pair.tag, "alpha": pair.alpha, "beta": pair.beta,
              "B": B, "opt_hat": opt_hat, "eps_hat": eps_hat}
    return _finish("bilipschitz_transfer", report.err2, rhs, params, {})


def check_general_activation_transfer(p, report, dataset, g_pair, phi_pair, B):
    """Transfer through a bi-Lipschitz stand-in phi' for a general activation.

    err2 <= (2 beta/alpha) opt_hat + (2 beta/alpha) E[(g'(w*.x) - phi'(w*.x))^2]
            + 2 beta eps_hat
    with the approximation term measured on the evaluation sample.
    """
    if dataset.label_model is None:
        raise InvalidInputError("dataset lacks a planted model")
    if phi_pair.alpha <= 0.0:
        raise InvalidInputError("phi pair must be bi-Lipschitz")
    opt_hat = _certified_opt(dataset)
    w_star = dataset.label_model.w
    s = dataset.features @ w_star
    approx = float(np.mean((g_pair(s) - phi_pair(s)) ** 2))
    eps_hat = measure_premise(p, dataset, phi_pair, B).eps_hat
    ratio = 2.0 * phi_pair.beta / phi_pair.alpha
    rhs = ratio * opt_hat + ratio * approx + 2.0 * phi_pair.beta * eps_hat
    params = {"g_pair": g_pair.tag, "phi_pair": phi_pair.tag,
              "alpha": phi_pair.alpha, "beta": phi_pair.beta, "B": B,
              "opt_hat": opt_hat, "eps_hat": eps_hat}
    return _finish("general_activation_transfer", report.err2, rhs, params,
                   {"approximation_term": approx})


def check_sim_bound(report, dataset, B, eps):
    """err2 <= SIM_C * B * sqrt(lam) * sqrt(opt_hat) + eps.

    ``lam`` is ``dataset.second_moment``, ``SIM_C`` a logged regression
    constant; ``c_needed`` in the extras is the smallest constant making
    this instance pass.
    """
    opt_hat = _certified_opt(dataset)
    lam = dataset.second_moment
    rhs = SIM_C * B * math.sqrt(lam) * math.sqrt(opt_hat) + eps
    denom = B * math.sqrt(lam) * math.sqrt(opt_hat) if opt_hat > 0 else 0.0
    if denom > 0:
        c_needed = max(0.0, (report.err2 - eps) / denom)
    else:
        c_needed = 0.0 if report.err2 <= eps + CHECK_TOL else math.inf
    params = {"B": B, "lambda": lam, "eps": eps, "opt_hat": opt_hat,
              "c_report": SIM_C}
    return _finish("sim_sqrt_transfer", report.err2, rhs, params,
                   {"c_needed": c_needed})


# -- logistic-specific bounds -------------------------------------------------


def logistic_squared_rhs(opt_hat, B, C, eps_hat):
    """C * opt * exp(B^2 + sqrt(B^2 log(1/opt))) + 2 eps."""
    return C * opt_hat * math.exp(B ** 2 + math.sqrt(B ** 2 * math.log(1.0 / opt_hat))) \
        + 2.0 * eps_hat


def logistic_absolute_rhs(opt_hat, B, C, eps_hat):
    """C * B * opt * log(1/opt) + eps."""
    return C * B * opt_hat * math.log(1.0 / opt_hat) + eps_hat


def gaussian_abs_exp_tail(r, s2):
    """Closed form of E[exp(|Z|) 1{|Z| > r}] for Z ~ N(0, s2)."""
    s = math.sqrt(s2)
    z = (r - s2) / s
    # 2 P(N(0, 1) > z) = erfc(z / sqrt 2)
    return math.exp(s2 / 2.0) * math.erfc(z / math.sqrt(2.0))


def _require_concentration(dataset, gamma):
    spec = dataset.marginal
    conc = spec.concentration if spec is not None else None
    if conc is None or conc[1] != gamma:
        raise InvalidInputError(
            f"marginal must be declared (lam, {gamma:g})-concentrated")
    return conc


def check_logistic_squared(p, report, dataset, B):
    """Squared-error bound for approximate logistic-loss minimizers.

    Requires a subgaussian-declared marginal.  Also reports the intermediate
    exponential-tail quantity E[e^{|w*.x|} (y - s(w*.x))^2] against
    ``8 e^r opt + 8 TAIL_C e^{B^2} e^r e^{-(r/B)^2}`` at r = B sqrt(log(1/opt)).
    """
    _require_concentration(dataset, 2.0)
    pair = fenchel.pair_from_tag("sigmoid")
    opt_hat = _certified_opt(dataset)
    degenerate = opt_hat < OPT_FLOOR
    opt_eff = max(opt_hat, OPT_FLOOR)
    eps_hat = measure_premise(p, dataset, pair, B).eps_hat
    rhs = logistic_squared_rhs(opt_eff, B, LOGISTIC_C, eps_hat)
    c_needed = max(0.0, (report.err2 - 2.0 * eps_hat)
                   / logistic_squared_rhs(opt_eff, B, 1.0, 0.0))
    extras = {"c_needed": c_needed, "degenerate_opt": degenerate}
    if dataset.label_model is not None:
        s = dataset.features @ dataset.label_model.w
        mean = pair(s)
        r = B * math.sqrt(math.log(1.0 / opt_eff))
        tail_lhs = float(np.mean(np.exp(np.abs(s)) * (dataset.labels - mean) ** 2))
        tail_rhs = 8.0 * math.exp(r) * opt_eff \
            + 8.0 * TAIL_C * math.exp(B ** 2) * math.exp(r) * math.exp(-(r / B) ** 2)
        extras.update({"tail_lhs": tail_lhs, "tail_rhs": tail_rhs, "tail_r": r,
                       "tail_pass": bool(tail_lhs <= tail_rhs + CHECK_TOL)})
    params = {"B": B, "C": LOGISTIC_C, "opt_hat": opt_hat, "eps_hat": eps_hat}
    return _finish("logistic_squared_transfer", report.err2, rhs, params,
                   extras)


def planted_absolute_error(dataset):
    """Empirical absolute error of the planted model: an upper bound for the
    best absolute error in the planted class on this sample."""
    if dataset.label_model is None:
        raise InvalidInputError("dataset lacks a planted model")
    planted = dataset.label_model.conditional_mean(dataset.features)
    return float(np.mean(np.abs(dataset.labels - planted)))


def check_logistic_absolute(p, report, dataset, B):
    """Absolute-error bound for approximate logistic-loss minimizers on
    binary labels over a subexponential-declared marginal."""
    if dataset.label_space != "binary":
        raise InvalidInputError("absolute-error transfer needs binary labels")
    _require_concentration(dataset, 1.0)
    pair = fenchel.pair_from_tag("sigmoid")
    opt1 = planted_absolute_error(dataset)
    degenerate = opt1 < OPT_FLOOR
    opt_eff = max(opt1, OPT_FLOOR)
    eps_hat = measure_premise(p, dataset, pair, B).eps_hat
    rhs = logistic_absolute_rhs(opt_eff, B, LOGISTIC_C, eps_hat)
    denom = logistic_absolute_rhs(opt_eff, B, 1.0, 0.0)
    c_needed = max(0.0, (report.err1 - eps_hat) / denom) if denom > 0 else math.inf
    extras = {"c_needed": c_needed, "degenerate_opt": degenerate}
    params = {"B": B, "C": LOGISTIC_C, "opt1_hat": opt1, "eps_hat": eps_hat}
    return _finish("logistic_absolute_transfer", report.err1, rhs, params,
                   extras)


def check_premise(p, dataset, pair, B, eps):
    """The premise of omniprediction for one pair: the signed matching-loss
    gap of ``p`` against the pair's norm-B ball minimiser
    (:func:`measure_premise`), within the allowance ``eps``.  An uncertified
    comparator proves nothing and gives gap inf.  It passes when
    ``eps - gap >= 0`` and the pair passes :func:`fenchel.registration_gate`,
    the bounded-link premise under which omniprediction is stated; the gap,
    the least allowance that passes, is its ``c_needed``."""
    try:
        gap = measure_premise(p, dataset, pair, B).raw_slack
    except NoConvergenceError:
        gap = math.inf
    passed = eps - gap >= 0.0 and fenchel.registration_gate(pair).ok
    return BoundCheck("omni_simultaneity", gap, eps, eps - gap, bool(passed),
                      {"pair": pair.tag, "B": B,
                       "opt_hat": dataset.certified_opt_upper_bound},
                      {"c_needed": gap})


# ---------------------------------------------------------------------------
# p-concept disagreement
# ---------------------------------------------------------------------------


def pconcept_disagreement(p, dataset, resamples=100_000, seed=0):
    """The p-concept identity as a check: a Monte-Carlo estimate of
    P[y != y_p], y_p ~ Bernoulli(p(x)), equals the absolute error of the
    predictor on binary labels.

    lhs is |disagreement - err1| and rhs three binomial standard errors of
    the estimate; it passes when lhs <= rhs.  ``params`` holds the
    disagreement, err1, the standard error and the number of draws.
    """
    if dataset.label_space != "binary":
        raise InvalidInputError("p-concept disagreement needs binary labels")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDC0]))
    p = _predictions(p, dataset)
    y = dataset.labels
    n = dataset.n
    passes = max(1, math.ceil(resamples / n))
    draws = passes * n
    disagree = 0
    for _ in range(passes):
        y_p = (rng.random(n) < p).astype(float)
        disagree += int(np.sum(y_p != y))
    rate = disagree / draws
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / draws)
    err1 = float(np.mean(np.abs(y - p)))
    gap, bound = abs(rate - err1), 3.0 * stderr
    return BoundCheck("pconcept_identity", gap, bound, bound - gap,
                      gap <= bound, {"disagreement": rate, "err1": err1,
                                     "stderr": stderr, "draws": draws})


# ---------------------------------------------------------------------------
# The check table
# ---------------------------------------------------------------------------


# check kind -> (theorem tag, number of activation tags, runner).  A config
# names a check as ``kind`` followed by that many ``:tag`` parts, which
# ``config.parse_config`` splits into ``(kind, tags)``.  A runner takes the
# predictions, their ErrorReport, the evaluation sample, the norm bound B,
# the unit's eps, the unit's seed and then the activation tags, and returns
# a BoundCheck carrying the theorem tag.  The unit's eps is the additive
# slack of the sqrt-opt bound to ``sim_sqrt`` and the allowance of the gap
# to ``premise``; the other kinds ignore it.  ``acceptance.run_unit`` is
# the one caller, and :func:`check_key` keys each check's rows.
CHECKS = {
    "sim_sqrt": ("sim_sqrt_transfer", 0,
                 lambda p, rep, ds, B, eps, seed:
                 check_sim_bound(rep, ds, B, eps)),
    "bilipschitz": ("bilipschitz_transfer", 1,
                    lambda p, rep, ds, B, eps, seed, tag:
                    check_bilipschitz_transfer(
                        p, rep, ds, fenchel.pair_from_tag(tag), B)),
    "general": ("general_activation_transfer", 2,
                lambda p, rep, ds, B, eps, seed, g_tag, phi_tag:
                check_general_activation_transfer(
                    p, rep, ds, fenchel.pair_from_tag(g_tag),
                    fenchel.pair_from_tag(phi_tag), B)),
    "logistic_squared": ("logistic_squared_transfer", 0,
                         lambda p, rep, ds, B, eps, seed:
                         check_logistic_squared(p, rep, ds, B)),
    "logistic_absolute": ("logistic_absolute_transfer", 0,
                          lambda p, rep, ds, B, eps, seed:
                          check_logistic_absolute(p, rep, ds, B)),
    "pconcept": ("pconcept_identity", 0,
                 lambda p, rep, ds, B, eps, seed:
                 pconcept_disagreement(p, ds, seed=seed)),
    "premise": ("omni_simultaneity", 1,
                lambda p, rep, ds, B, eps, seed, tag:
                check_premise(p, ds, fenchel.pair_from_tag(tag), B, eps)),
}


def check_key(name, kind, tags):
    """The (learner, theorem) columns that key the row of check ``(kind,
    tags)`` on the learner ``name``.  A premise row names its pair after the
    learner, ``<name>/<tag>``, so premise checks of several pairs key apart;
    a check of any other kind writes one row per learner."""
    return (f"{name}/{tags[0]}" if kind == "premise" else name,
            CHECKS[kind][0])
