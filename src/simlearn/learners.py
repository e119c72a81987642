"""Training algorithms.

* :func:`weak_learn` - the correlation-thresholding weak learner for linear
  functions (accept iff the empirical correlation vector is long enough).
* :func:`train_omnipredictor` - alternating multiaccuracy boosting and bucket
  recalibration on top of the weak learner.
* :func:`train_glmtron` - unit-step projected gradient descent whose update
  is exactly the negative matching-loss gradient of a known activation.
* :func:`train_isotron` - alternating Lipschitz isotonic fits and
  GLMtron-style weight updates for unknown activations.
* :func:`train_matching_gd` / :func:`train_logistic` - Newton steps to the
  minimiser of an empirical matching loss over the norm-B ball, certified
  by the Frank-Wolfe gap.

Everything is deterministic given its seed; randomized steps consume an
explicit generator and there is no ambient RNG use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fenchel
from .errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    PreconditionError,
)

DEFAULT_BUCKET_WIDTH = 0.02
DEFAULT_OUTPUT_CLAMP = 1e-6
DEFAULT_ROUND_CAP = 1000
DEFAULT_CHEBYSHEV_CONSTANT = 64.0
DEFAULT_FAILURE_PROB = 1.0 / 6.0
ISOTRON_STEP_TOL = 1e-6
# the matching-loss solver (train_matching_gd)
GAP_TOL = 1e-12           # Frank-Wolfe gap that certifies a fit
NEWTON_STEP_CAP = 100
HESSIAN_FLOOR = 1e-12     # least eigenvalue of the model's Hessian
ARMIJO = 1e-4             # sufficient-decrease fraction of the line search
LOSS_ROUNDING = 4 * 2.0 ** -52    # a few ulps, relative to max(1, |loss|)
LINE_SEARCH_FLOOR = 2.0 ** -40


def isotonic_regression(*args, **kwargs):
    """SciPy's ``isotonic_regression``, imported only when called.

    Nothing in simlearn calls it.  It stays as a name because the
    benchmark's tracer (``perfbench/tracer.py``) wraps
    ``learners.isotonic_regression``; the benchmark re-baseline of ROADMAP
    item 1 deletes it together with that wrapper.
    """
    from scipy.optimize import isotonic_regression as fit
    return fit(*args, **kwargs)


def project_ball(w, radius):
    """Radial projection onto the Euclidean ball of the given radius."""
    norm = float(np.linalg.norm(w))
    if norm > radius:
        return w * (radius / norm)
    return w


# ---------------------------------------------------------------------------
# Weak learner
# ---------------------------------------------------------------------------


@dataclass
class LinearWeakLearnerResult:
    accepted: bool
    w: np.ndarray = None           # norm exactly B when accepted
    correlation_estimate: float = 0.0   # ||mean(z x)||, the decision statistic


def weak_learner_sample_requirement(d, second_moment, B, eps):
    """Sample count demanded by the Chebyshev analysis of the weak learner."""
    return int(math.ceil(DEFAULT_CHEBYSHEV_CONSTANT * d ** 2 * second_moment
                         * B ** 2 * math.log(1.0 / DEFAULT_FAILURE_PROB)
                         / eps ** 2))


def weak_learn(features, z, B, eps, *, enforce_sample_size=True):
    """Accept-and-return or reject based on the correlation vector mean(z x).

    Accepts iff ``||mean(z x)|| > 3 eps / (4 B)`` and then returns that vector
    rescaled to norm exactly B.  Completeness: any ``||w|| <= B`` with
    ``E[z (w.x)] >= eps`` makes it accept with high probability; soundness:
    an accepted output has ``E[z (w.x)] >= eps / 4`` with high probability.
    """
    x = np.asarray(features, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim != 2 or z.shape != (x.shape[0],):
        raise InvalidInputError("need features (n, d) and z (n,)")
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise InvalidInputError("z values must lie in [-1, 1]")
    if eps <= 0 or B <= 0:
        raise InvalidInputError("eps and B must be positive")
    n, d = x.shape
    if enforce_sample_size:
        need = weak_learner_sample_requirement(d, 1.0, B, eps)  # lambda = 1
        if n < need:
            raise PreconditionError(
                f"weak learner needs at least {need} samples "
                f"(got {n}) for d={d}, B={B}, eps={eps}")
    v = x.T @ z / n
    norm_v = float(np.linalg.norm(v))
    if norm_v <= 3.0 * eps / (4.0 * B):
        return LinearWeakLearnerResult(False, None, norm_v)
    return LinearWeakLearnerResult(True, v * (B / norm_v), norm_v)


# ---------------------------------------------------------------------------
# Omnipredictor: calibrated multiaccuracy
# ---------------------------------------------------------------------------


def _buckets(raw, bucket_width, n_buckets):
    """Calibration bucket of each raw score, clipping the index to range."""
    idx = np.floor(np.asarray(raw, dtype=float) / bucket_width).astype(int)
    return np.clip(idx, 0, n_buckets - 1)


def fit_calibration_table(idx, labels, bucket_width):
    """Replace each raw-score bucket by the mean label it carries.

    ``idx`` is the :func:`_buckets` index of each raw score.  Returns one
    value per bucket.  Empty buckets inherit their midpoint value.  Values
    are clamped into (0, 1) so downstream links stay finite.
    """
    n_buckets = int(round(1.0 / bucket_width))
    sums = np.bincount(idx, weights=labels, minlength=n_buckets)
    counts = np.bincount(idx, minlength=n_buckets)
    mids = (np.arange(n_buckets) + 0.5) * bucket_width
    values = np.where(counts > 0, sums / np.maximum(counts, 1), mids)
    return np.clip(values, DEFAULT_OUTPUT_CLAMP, 1.0 - DEFAULT_OUTPUT_CLAMP)


def calibration_error(pred, labels):
    """Sum over level sets of |mean residual restricted to the level set|."""
    values, inverse = np.unique(pred, return_inverse=True)
    resid_sums = np.bincount(inverse, weights=labels - pred)
    return float(np.sum(np.abs(resid_sums))) / labels.size


@dataclass
class OmniPredictor:
    """Clipped linear score followed by bucket calibration.

    The score is ``base + score_w.x`` clipped to [0, 1]; ``score_w`` is the
    sum of the accepted boosting updates ``sigma * w_t`` (each ``w_t`` of
    norm B), whose steps the trace records.  ``values`` holds one
    calibrated value per bucket.
    """

    KIND, HEADER = "omnipredictor", {"base": float, "bucket_width": float}
    ARRAYS = ("score_w", "values")

    score_w: np.ndarray
    values: np.ndarray
    bucket_width: float
    base: float = 0.5
    converged: bool = True
    trace: list = field(default_factory=list)

    def raw_score(self, features):
        x = np.asarray(features, dtype=float)
        return np.clip(self.base + x @ self.score_w, 0.0, 1.0)

    def predict(self, features):
        return self.values[_buckets(self.raw_score(features),
                                    self.bucket_width, self.values.size)]


def train_omnipredictor(dataset, B, *, eps_ma=0.02,
                        bucket_width=DEFAULT_BUCKET_WIDTH,
                        round_cap=DEFAULT_ROUND_CAP,
                        bernoulli_reduction=False):
    """Multiaccuracy boosting rounds, each followed by bucket recalibration.

    Each round runs the weak learner (threshold ``eps_ma / 4``) on the
    residual y - p(x), p(x) the mean label of x's score bucket.  An accepted
    direction joins the score with the rung of ``bucket_width * 2^k /
    (B sqrt(lambda))``, k = -6..4, whose recalibrated training squared error
    is least (ties to the smaller), if strictly lower; else the fit stops
    ``stalled``, non-converged.  (The theory step ``eps_ma / (8 B^2
    lambda)`` moves scores far less than a bucket, so rebucketing rounds it
    away and the loop cycles.)  The fit is converged exactly when the weak
    learner rejects, which ends training; the bucket means keep the
    training calibration error at or below the output clamp, so there is no
    separate calibration test.  ``round_cap`` is a guard.
    ``bernoulli_reduction`` trains on Bernoulli(y) labels, drawn from the
    sample's own seed, ``dataset.seed``.  The rounds use a
    column-major copy of the features (faster BLAS for few columns), made
    here because it moves the last bits of ``score_w``.
    """
    x = np.asfortranarray(dataset.features)
    y = dataset.labels.astype(float)
    ladder = (bucket_width / (B * math.sqrt(dataset.second_moment))
              * 2.0 ** np.arange(-6, 5))
    if bernoulli_reduction and dataset.label_space == "interval":
        rng = np.random.default_rng(
            np.random.SeedSequence([int(dataset.seed), 0x0821]))
        y = (rng.random(y.shape) < y).astype(float)
    n_buckets = int(round(1.0 / bucket_width))

    def recalibrate(raw):    # the unclipped score, bucketed as if clipped
        idx = _buckets(raw, bucket_width, n_buckets)
        values = fit_calibration_table(idx, y, bucket_width)
        z = y - values[idx]
        return float(np.mean(z * z)), raw, idx, values, z

    err2, raw, idx, values, z = recalibrate(np.full(x.shape[0], 0.5))
    w, trace = np.zeros(dataset.d), []
    for round_no in range(round_cap):
        result = weak_learn(x, z, B, eps_ma / 4.0, enforce_sample_size=False)
        trace.append({"round": round_no, "err2": err2,
                      "ma_violation": result.correlation_estimate})
        if not result.accepted:
            return OmniPredictor(w, values, bucket_width, trace=trace)
        u = x @ result.w
        sigma, best = None, (err2,)
        for rung in ladder.tolist():    # keeps only the best rung's arrays
            state = recalibrate(raw + rung * u)
            if state[0] < best[0]:
                sigma, best = rung, state
        if sigma is None:
            trace[-1]["stalled"] = True
            break
        err2, raw, idx, values, z = best
        trace[-1]["sigma"] = sigma
        w = w + sigma * result.w
    return OmniPredictor(w, values, bucket_width, converged=False, trace=trace)


@dataclass
class ConstantPredictor:
    """Predicts one fixed value everywhere; useful as a baseline."""

    value: float
    converged = True    # nothing to train

    def predict(self, features):
        return np.full(np.asarray(features).shape[0], float(self.value))


# ---------------------------------------------------------------------------
# GLM predictors and GLMtron
# ---------------------------------------------------------------------------


@dataclass
class GlmPredictor:
    KIND, HEADER, ARRAYS = "glm", {"activation_tag": str}, ("w",)

    w: np.ndarray
    activation_tag: str
    converged: bool = True
    trace: list = field(default_factory=list)

    @property
    def activation(self):
        return fenchel.pair_from_tag(self.activation_tag)

    def score(self, features):
        return np.asarray(features, dtype=float) @ self.w

    def predict(self, features):
        return np.clip(self.activation(self.score(features)), 0.0, 1.0)


def _check_finite(w):
    if not np.all(np.isfinite(w)):
        raise DivergenceError("training iterates became non-finite")


def squared_error(pred, labels):
    return float(np.mean((pred - labels) ** 2))


def train_glmtron(dataset, pair, B, iters=500, tol=1e-8):
    """Unit-step projected updates w += mean((y - a(w.x)) x).

    The update equals the negative gradient of the empirical matching loss
    of ``pair``, the :class:`fenchel.FenchelPair` of the activation a.
    Stops at the first iterate whose squared error is within ``tol`` of the
    running minimum.  At the cap, or at a fixed point (an update that
    returns ``w`` bit for bit, so every later iterate would repeat it) whose
    error is above that minimum by more than ``tol``, it returns the
    running-minimum iterate, non-converged; the trace ends there.

    Each trace entry records the iterate ``w``, from which any per-iterate
    loss can be recomputed, and its Frank-Wolfe gap ``B*||s|| - s.w`` over
    the ball, where ``s`` is the update (the negative loss gradient).
    """
    x, y = dataset.features, dataset.labels
    n = dataset.n
    w = np.zeros(dataset.d)
    best_w, best_err = w.copy(), math.inf
    trace = []
    for t in range(iters):
        mean = pair(x @ w)
        err = squared_error(np.clip(mean, 0.0, 1.0), y)
        s = x.T @ (y - mean) / n
        trace.append({"iter": t, "err2": err, "w": w,
                      "gap": B * float(np.linalg.norm(s)) - float(s @ w)})
        if t > 0 and best_err - tol <= err <= best_err + tol:    # stalled
            return GlmPredictor(w, pair.tag, converged=True, trace=trace)
        if err < best_err:
            best_err, best_w = err, w.copy()
        w, w_prev = project_ball(w + s, B), w
        _check_finite(w)
        if err > best_err + tol and np.array_equal(w, w_prev):
            break    # a fixed point that never stalls
    return GlmPredictor(best_w, pair.tag, converged=False, trace=trace)


# ---------------------------------------------------------------------------
# Isotron: unknown activation via Lipschitz isotonic fits
# ---------------------------------------------------------------------------


def lipschitz_isotonic_fit(t_sorted, y):
    """Least squares fit that is non-decreasing and 1-Lipschitz in t.

    Exact dynamic programme for ``min sum (u_i - y_i)^2`` subject to
    ``0 <= u_i - u_{i-1} <= delta_i = t_i - t_{i-1}``.  The least cost
    F_i(u) of the first i points with u_i = u is convex, and F_i' is
    continuous and piecewise linear with slopes >= 2: the line ``a + b u``
    around its zero m plus slope-jump knots on a left and a right stack, the
    right one with a lazy shift.  The constraint turns F_{i-1}' into a flat
    of width delta_i at m (jump -b at m, +b at m + delta_i, the right part
    shifted by delta_i); adding 2 (u - y_i) moves the zero across knots.
    The backward pass clips each zero into the window its successor allows.
    """
    t = np.asarray(t_sorted, dtype=float)
    y = np.asarray(y, dtype=float)
    if not y.size:
        return np.empty(0)
    gaps = np.diff(t).tolist()
    y2 = (2.0 * y).tolist()
    # knot positions and jumps above sentinels, right positions minus shift;
    # lo and hi are the stack tops, m the last zero
    lx, lj, rx, rj = [-math.inf], [0.0], [math.inf], [0.0]
    lo, hi, shift = -math.inf, math.inf, 0.0
    a, b = -y2[0], 2.0
    m = float(y[0])
    zeros = [m]
    for delta, y2i in zip(gaps, y2[1:]):
        if delta > 0.0:    # tied scores leave F' as it is
            lx.append(m)
            lj.append(-b)
            shift += delta
            lo, hi = m, m + delta - shift
            rx.append(hi)
            rj.append(b)
            a, b = 0.0, 0.0
        a -= y2i
        b += 2.0
        # knots cross in one direction only, so rounding cannot make one
        # bounce between the stacks
        if a + b * lo > 0.0:
            while a + b * lo > 0.0:
                lx.pop()
                jump = lj.pop()
                a += jump * lo
                b -= jump
                hi = lo - shift
                rx.append(hi)
                rj.append(jump)
                lo = lx[-1]
        else:
            while a + b * (hi + shift) < 0.0:
                rx.pop()
                jump = rj.pop()
                lo = hi + shift
                a -= jump * lo
                b += jump
                lx.append(lo)
                lj.append(jump)
                hi = rx[-1]
        m = -a / b
        if lo > m:
            m = lo
        if hi + shift < m:
            m = hi + shift
        zeros.append(m)
    # u[i] = min(max(u[i], u[i + 1] - gaps[i]), u[i + 1]), from the top down
    u = zeros
    for i in range(len(gaps) - 1, -1, -1):
        v, top = u[i], u[i + 1]
        floor = top - gaps[i]
        if floor > v:
            v = floor
        if top < v:
            v = top
        u[i] = v
    return np.array(u)


@dataclass
class SimPredictor:
    """Weights plus a fitted monotone 1-Lipschitz activation (knot form)."""

    KIND, HEADER, ARRAYS = "sim", {}, ("w", "knots_t", "knots_u")

    w: np.ndarray
    knots_t: np.ndarray
    knots_u: np.ndarray
    converged: bool = True
    trace: list = field(default_factory=list)

    def score(self, features):
        return np.asarray(features, dtype=float) @ self.w

    def activation_values(self, scores):
        return np.interp(scores, self.knots_t, self.knots_u)

    def predict(self, features):
        return np.clip(self.activation_values(self.score(features)), 0.0, 1.0)


def _dedupe_knots(t_sorted, u_sorted):
    """Collapse tied scores to a single knot (their common fitted value)."""
    uniq, first = np.unique(t_sorted, return_index=True)
    return uniq, u_sorted[first]


def train_isotron(dataset, B, iters=50):
    """Alternate Lipschitz isotonic activation fits with weight updates.

    Each round sorts scores (stable, ties keep input order), fits the
    activation by :func:`lipschitz_isotonic_fit`, then takes a projected
    GLMtron-style step against the fitted activation.  The activation is
    evaluated at the points it was fitted on, where it takes the fitted
    values (tied scores share one), so knots are made once, for the returned
    round.  Runs all ``iters`` rounds and returns the best-squared-error
    round; it is flagged converged when the last weight step moved ``w`` by
    at most ``ISOTRON_STEP_TOL`` in norm, so the iterates had come to rest.
    """
    x, y = dataset.features, dataset.labels
    n = dataset.n
    w = np.zeros(dataset.d)
    best = None
    trace = []
    pred = np.empty(n)
    for t in range(iters):
        scores = x @ w
        order = np.argsort(scores, kind="stable")
        t_sorted = scores[order]
        u_fit = lipschitz_isotonic_fit(t_sorted, y[order])
        pred[order] = np.clip(u_fit, 0.0, 1.0)
        err = squared_error(pred, y)
        trace.append({"iter": t, "err2": err})
        if best is None or err < best[0]:
            best = (err, w, t_sorted, u_fit)
        w_next = project_ball(w + x.T @ (y - pred) / n, B)
        _check_finite(w_next)
        step = float(np.linalg.norm(w_next - w))
        w = w_next
    _, w_best, t_sorted, u_fit = best
    return SimPredictor(w_best, *_dedupe_knots(t_sorted, u_fit),
                        converged=step <= ISOTRON_STEP_TOL, trace=trace)


# ---------------------------------------------------------------------------
# Matching-loss minimisation over the ball (logistic regression and friends)
# ---------------------------------------------------------------------------


def empirical_matching_loss(pair, scores, labels):
    return float(np.mean(pair.g(scores) - labels * scores))


def _ball_model_minimiser(lam, vecs, w, grad, B):
    """Minimiser over ``||z|| <= B`` of the model ``grad.(z - w) +
    (z - w)' H (z - w) / 2``, where ``H = vecs diag(lam) vecs'`` is positive
    definite: ``(H + mu I)^-1 (H w - grad)`` for the least ``mu >= 0`` that
    puts it in the ball.  Newton's method on ``1/||z(mu)|| - 1/B``, concave
    and increasing in mu, climbs to that mu from 0 without overshooting
    (More & Sorensen, 1983) and stops once mu no longer increases.
    """
    c = lam * (vecs.T @ w) - vecs.T @ grad
    mu = 0.0
    while True:
        z = c / (lam + mu)
        norm = float(np.linalg.norm(z))
        if norm <= B:
            break
        mu_next = mu + ((norm - B) / B * norm ** 2
                        / float(np.sum(z ** 2 / (lam + mu))))
        if not mu_next > mu:
            break
        mu = mu_next
    return project_ball(vecs @ z, B)


def train_matching_gd(dataset, pair, B):
    """Exact minimiser of the empirical matching loss over ``||w|| <= B``.

    Each step minimises the local quadratic model over the ball (see
    :func:`_ball_model_minimiser`); its Hessian ``X' diag(a'(Xw)) X / n``
    has its eigenvalues raised to ``HESSIAN_FLOOR`` where flat pieces of
    the activation leave them lower.  The step is halved until the Armijo
    condition holds, or until the loss rises by at most ``LOSS_ROUNDING``
    times max(1, |loss|) at a trial point where it still falls along the
    step, ``mean((a(x.w_new) - y) (x.d)) <= 0``: the loss is convex along
    the step, so that rise is rounding, which near the minimiser is all an
    Armijo test sees.  The loss trace thus rises by rounding at most; below
    ``LINE_SEARCH_FLOOR`` the search raises :class:`DivergenceError`.  The
    fit is flagged converged once the Frank-Wolfe gap ``grad.w + B
    ||grad||``, which bounds the loss above the ball's minimum (Jaggi, ICML
    2013), is at most ``GAP_TOL``, and non-converged after
    ``NEWTON_STEP_CAP`` steps.
    The trace records the loss, accepted step fraction and gap per step.
    """
    x, y = dataset.features, dataset.labels
    n = dataset.n
    w = np.zeros(dataset.d)
    scores = x @ w    # of the current iterate
    loss = empirical_matching_loss(pair, scores, y)
    trace = [{"iter": 0, "loss": loss}]
    while True:
        grad = x.T @ (pair(scores) - y) / n
        gap = float(grad @ w) + B * float(np.linalg.norm(grad))
        trace[-1]["gap"] = gap
        if gap <= GAP_TOL or len(trace) > NEWTON_STEP_CAP:
            return GlmPredictor(w, pair.tag, converged=gap <= GAP_TOL,
                                trace=trace)
        curv = pair.derivative(scores)
        lam, vecs = np.linalg.eigh(x.T @ (curv[:, None] * x) / n)
        lam = np.maximum(lam, HESSIAN_FLOOR)
        direction = _ball_model_minimiser(lam, vecs, w, grad, B) - w
        slope = float(grad @ direction)
        frac = 1.0
        while True:
            w_new = w + frac * direction
            scores_new = x @ w_new
            loss_new = empirical_matching_loss(pair, scores_new, y)
            if loss_new <= loss + ARMIJO * frac * slope:
                break
            if (loss_new - loss <= LOSS_ROUNDING * max(1.0, abs(loss))
                    and float(np.mean((pair(scores_new) - y)
                                      * (x @ direction))) <= 0.0):
                break
            frac *= 0.5
            if frac < LINE_SEARCH_FLOOR:
                raise DivergenceError("the line search drove the step to zero")
        w, scores, loss = w_new, scores_new, loss_new
        trace.append({"iter": len(trace), "loss": loss, "step": frac})


def train_logistic(dataset, B):
    """:func:`train_matching_gd` on the logistic (sigmoid) matching loss."""
    return train_matching_gd(dataset, fenchel.pair_from_tag("sigmoid"), B)


# ---------------------------------------------------------------------------
# Predictor files
# ---------------------------------------------------------------------------

PREDICTOR_MAGIC = "#simlearn-predictor"
PREDICTOR_VERSION = "v2"


def write_predictor(predictor):
    """The ``#simlearn-predictor v2`` text of a trained predictor: a header
    of key=value pairs (``kind``, the class's ``HEADER`` fields,
    ``converged``), then one line per ``ARRAYS`` field at 17 digits."""
    head = [PREDICTOR_MAGIC, PREDICTOR_VERSION, f"kind={predictor.KIND}"]
    head += [f"{key}={getattr(predictor, key)}" for key in predictor.HEADER]
    head.append(f"converged={int(predictor.converged)}")
    lines = [" ".join(head)] + [
        " ".join([name] + ["%.17g" % v for v in getattr(predictor, name)])
        for name in predictor.ARRAYS]
    return "\n".join(lines) + "\n"


def read_predictor(text, cls):
    """Parse :func:`write_predictor` text into a predictor of class ``cls``.

    ConfigError for anything else: empty text, another version or kind, a
    malformed header or number, a header key or array that is missing,
    repeated or unknown, an empty array, ``converged`` other than 0 or 1,
    knot arrays of two lengths, or a ``knots_t`` that is not strictly
    increasing (the writer's knots are deduplicated and sorted).
    """
    lines = text.strip().split("\n")
    head = lines[0].split()
    kind = cls.KIND
    expected = [PREDICTOR_MAGIC, PREDICTOR_VERSION, f"kind={kind}"]
    if head[:3] != expected:
        raise ConfigError(f"not a {' '.join(expected)} file")
    pairs = [pair.split("=", 1) for pair in head[3:]]
    rows = [line.split() or [""] for line in lines[1:]]
    for got, wanted in (([p[0] for p in pairs], [*cls.HEADER, "converged"]),
                        ([row[0] for row in rows], [*cls.ARRAYS])):
        if sorted(got) != sorted(wanted):
            raise ConfigError(f"{kind} predictor file has {got}, not {wanted}")
    try:
        header = dict(pairs)
        arrays = {name: np.array([float(v) for v in values])
                  for name, *values in rows}
        fields = {key: parse(header[key]) for key, parse in cls.HEADER.items()}
    except ValueError as exc:
        raise ConfigError(f"malformed {kind} predictor file: {exc}") from exc
    if header["converged"] not in ("0", "1"):
        raise ConfigError(f"{kind} predictor file has converged="
                          f"{header['converged']!r}, not 0 or 1")
    if any(a.size == 0 for a in arrays.values()):
        raise ConfigError(f"{kind} predictor file has an empty array")
    if len({a.size for name, a in arrays.items() if "knots" in name}) > 1:
        raise ConfigError(f"{kind} predictor file has knot arrays of two "
                          "lengths")
    if "knots_t" in arrays and not np.all(np.diff(arrays["knots_t"]) > 0):
        raise ConfigError(f"{kind} predictor file has knots_t that is not "
                          "strictly increasing")
    return cls(**fields, **arrays, converged=header["converged"] == "1")
