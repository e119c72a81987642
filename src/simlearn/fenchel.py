"""Convex-duality algebra for monotone activations.

An activation ``a`` is a non-decreasing Lipschitz map from scores to means.
Its running integral ``g(t) = int_0^t a`` is convex; the derivative of the
convex conjugate of ``g`` is the link ``f'``, the (pseudo-)inverse of ``a``
on its range.  This module provides:

* built-in activations (sigmoid, identity, ReLU variants, piecewise linear)
  with closed-form integrals and derivatives, each owning its link and
  conjugate,
* the matching loss ``l_g(y, t) = g(t) - y*t`` and the Bregman divergence
  ``B_f(y, p) = f(y) - f(p) - (y - p) f'(p)``,
* additive bi-Lipschitz perturbation ``a(t) + slope*t``,
* monotone bisection, the link of a perturbed non-piecewise activation,
* a grid-search certificate that a link is polynomially bounded near the
  edges of the unit interval (needed before a pair may be registered for
  omniprediction); a point of [0, 1] outside the range is no witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryError,
    InvalidInputError,
    NoConvergenceError,
    RangeError,
)

DEFAULT_INVERSION_TOL = 1e-10
DEFAULT_CLAMP_MARGIN = 1e-12
BRACKET_CAP_EXP = 60  # bisection brackets expand up to [-2^60, 2^60]


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


class Activation:
    """A non-decreasing Lipschitz score-to-mean map.

    Attributes
    ----------
    kind : str
        Tag such as ``"sigmoid"`` or ``"piecewise_linear"``.
    lipschitz_upper : float
        Global Lipschitz constant (beta).
    lipschitz_lower : float
        Largest alpha with ``a(t2) - a(t1) >= alpha (t2 - t1)``; 0 when the
        activation has flat pieces.
    range_lo, range_hi : float
        Extended-real bounds of the closure of the range.

    Subclasses define ``__call__``, ``integral`` (the running integral from
    0) and ``derivative`` (the slope, taking the right slope at a kink),
    all in closed form, and ``inverse``, the link: the minimal score
    attaining a mean.
    """

    def __init__(self, lipschitz_upper, lipschitz_lower, range_lo, range_hi,
                 params=None, derived_from=None):
        self.lipschitz_upper = float(lipschitz_upper)
        self.lipschitz_lower = float(lipschitz_lower)
        self.range_lo = float(range_lo)
        self.range_hi = float(range_hi)
        self.params = dict(params or {})
        self.derived_from = derived_from

    def _check_range(self, r):
        """``r`` as a float array; raises RangeError outside the range."""
        r = np.asarray(r, dtype=float)
        if np.any(r < self.range_lo) or np.any(r > self.range_hi):
            raise RangeError(
                f"value outside the range [{self.range_lo}, {self.range_hi}] "
                f"of activation {self.tag}")
        return r

    def conjugate_value(self, r):
        """Conjugate f(r) = r t - g(t) at the link value t = inverse(r)."""
        t = self.inverse(r)
        return np.asarray(r, dtype=float) * t - self.integral(t) if np.ndim(r) \
            else float(r) * t - self.integral(t)

    @property
    def tag(self):
        if self.derived_from is not None:
            base, slope = self.derived_from
            return f"perturbed({base.tag},{slope:g})"
        if not self.params:
            return self.kind
        inner = ",".join(f"{v:g}" for v in self.params.values())
        return f"{self.kind}({inner})"

    def __repr__(self):
        return f"<Activation {self.tag}>"


class PiecewiseLinearActivation(Activation):
    """Continuous piecewise-linear activation given by knot points.

    ``knots_t`` must be strictly increasing, ``knots_v`` non-decreasing;
    ``slope_left``/``slope_right`` extend beyond the first/last knot and must
    be non-negative.  All integrals, links and conjugates are exact.
    """

    kind = "piecewise_linear"

    def __init__(self, knots_t, knots_v, slope_left, slope_right,
                 kind=None, params=None, derived_from=None):
        knots_t = np.asarray(knots_t, dtype=float)
        knots_v = np.asarray(knots_v, dtype=float)
        if knots_t.ndim != 1 or knots_t.shape != knots_v.shape or knots_t.size == 0:
            raise InvalidInputError("knots must be matching non-empty 1-d arrays")
        if np.any(np.diff(knots_t) <= 0):
            raise InvalidInputError("knot scores must be strictly increasing")
        if np.any(np.diff(knots_v) < 0):
            raise InvalidInputError("knot values must be non-decreasing")
        if slope_left < 0 or slope_right < 0:
            raise InvalidInputError("extension slopes must be non-negative")
        self.knots_t = knots_t
        self.knots_v = knots_v
        self.slope_left = float(slope_left)
        self.slope_right = float(slope_right)
        if knots_t.size > 1:
            self._seg_slopes = np.diff(knots_v) / np.diff(knots_t)
        else:
            self._seg_slopes = np.empty(0)
        slopes = np.concatenate(
            ([self.slope_left], self._seg_slopes, [self.slope_right]))
        lo = -np.inf if self.slope_left > 0 else knots_v[0]
        hi = np.inf if self.slope_right > 0 else knots_v[-1]
        if kind is not None:
            self.kind = kind
        super().__init__(np.max(slopes), np.min(slopes), lo, hi,
                         params=params, derived_from=derived_from)
        # hinge form: a(t) = v0 + slope_left * (t - t0) + sum_j jump_j * relu(t - t_j)
        # with jump_j the slope increase at knot j; integrating term by term
        # gives an exact expression that vectorizes with a few cheap ops
        self._slopes = slopes    # left extension, segments, right extension
        self._jumps = np.diff(slopes)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.knots_v[0] + self.slope_left * (t - self.knots_t[0])
        for tj, dj in zip(self.knots_t, self._jumps):
            if dj != 0.0:
                out = out + dj * np.maximum(t - tj, 0.0)
        return out if out.ndim else float(out)

    def integral(self, t):
        t = np.asarray(t, dtype=float)
        t0, v0 = self.knots_t[0], self.knots_v[0]
        out = v0 * t + 0.5 * self.slope_left * ((t - t0) ** 2 - t0 ** 2)
        for tj, dj in zip(self.knots_t, self._jumps):
            if dj != 0.0:
                base = max(-tj, 0.0) ** 2
                out = out + (0.5 * dj) * (np.maximum(t - tj, 0.0) ** 2 - base)
        return out if out.ndim else float(out)

    def derivative(self, t):
        # the number of knots at or below t indexes the slope to the right
        out = self._slopes[np.searchsorted(self.knots_t, t, side="right")]
        return out if out.ndim else float(out)

    def inverse(self, r):
        r = self._check_range(r)
        ts, vs = self.knots_t, self.knots_v
        out = np.empty_like(r)
        lo_flat = r <= vs[0]
        hi_side = r > vs[-1]
        mid = ~lo_flat & ~hi_side
        # left extension; at the bottom of a flat tail return its right edge
        if np.any(lo_flat):
            if self.slope_left > 0:
                out[lo_flat] = ts[0] + (r[lo_flat] - vs[0]) / self.slope_left
            else:
                out[lo_flat] = ts[0]
        if np.any(hi_side):
            out[hi_side] = ts[-1] + (r[hi_side] - vs[-1]) / self.slope_right
        if np.any(mid):
            # minimal preimage: first knot index with value >= r
            j = np.searchsorted(vs, r[mid], side="left")
            i = j - 1
            s = self._seg_slopes[i]
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.where(s > 0, (r[mid] - vs[i]) / np.where(s > 0, s, 1.0), 0.0)
            t = ts[i] + frac
            exact = vs[j] == r[mid]  # knot hit: take the knot (minimal for flats)
            t = np.where(exact & (s == 0), ts[j], t)
            out[mid] = t
        return out if out.ndim else float(out)

    def add_linear(self, slope):
        """Return the activation plus ``slope * t`` (still piecewise linear)."""
        return PiecewiseLinearActivation(
            self.knots_t, self.knots_v + slope * self.knots_t,
            self.slope_left + slope, self.slope_right + slope,
            derived_from=(self, slope))


def _xlogy(x, y):
    """``x * log(y)``, taken as 0 wherever ``x == 0`` (also for ``y == 0``)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


class SigmoidActivation(Activation):
    """Logistic activation 1 / (1 + exp(-t)); link is the logit."""

    kind = "sigmoid"

    def __init__(self):
        super().__init__(0.25, 0.0, 0.0, 1.0)

    def __call__(self, t):
        # exp(-t) overflows to inf for t < -709, where 1/(1+inf) is the 0
        # the sigmoid rounds to
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))
        return out if out.ndim else float(out)

    def integral(self, t):
        # softplus(t) - softplus(0); softplus(t) = max(t, 0) + log1p(exp(-|t|))
        # as np.logaddexp(0, t) computes it, but with NumPy's vectorised
        # exp and log1p instead of one scalar libm call per element
        t = np.asarray(t, dtype=float)
        out = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))) - math.log(2.0)
        return out if out.ndim else float(out)

    def derivative(self, t):
        a = self(t)
        return a * (1.0 - a)

    def inverse(self, r):
        r = self._check_range(r)
        # log(r/(1-r)) loses precision near 1/2, where the difference of
        # log1p's keeps it; r = 0 and r = 1 give -inf and inf
        s = 2.0 * (r - 0.5)
        with np.errstate(divide="ignore"):
            out = np.where((r < 0.3) | (r > 0.65), np.log(r / (1.0 - r)),
                           np.log1p(s) - np.log1p(-s))
        return out if out.ndim else float(out)

    def conjugate_value(self, r):
        # negative binary entropy plus log 2; continuous at 0 and 1
        r = np.asarray(r, dtype=float)
        out = _xlogy(r, r) + _xlogy(1.0 - r, 1.0 - r) + math.log(2.0)
        return out if out.ndim else float(out)


class PerturbedActivation(Activation):
    """Base activation plus ``slope * t``; its integral and derivative are
    the base's plus those of the linear term."""

    kind = "perturbed"

    def __init__(self, base, slope):
        self._base = base
        self._slope = float(slope)
        super().__init__(
            base.lipschitz_upper + slope, base.lipschitz_lower + slope,
            -np.inf, np.inf, params={"slope": slope},
            derived_from=(base, slope))

    def __call__(self, t):
        return self._base(t) + self._slope * np.asarray(t, dtype=float)

    def integral(self, t):
        return (self._base.integral(t)
                + 0.5 * self._slope * np.asarray(t, dtype=float) ** 2)

    def derivative(self, t):
        return self._base.derivative(t) + self._slope

    def inverse(self, r):
        return invert_by_bisection(self, r)


# Built-in constructors -----------------------------------------------------


def identity():
    """g'(t) = t."""
    return PiecewiseLinearActivation([0.0], [0.0], 1.0, 1.0, kind="identity")


def identity_clamped():
    """Ramp g'(t) = clip(t, 0, 1)."""
    return PiecewiseLinearActivation([0.0, 1.0], [0.0, 1.0], 0.0, 0.0,
                                     kind="identity_clamped")


def relu():
    """g'(t) = max(t, 0)."""
    return PiecewiseLinearActivation([0.0], [0.0], 0.0, 1.0, kind="relu")


def leaky_relu(slope, level=0.5):
    """Two-slope activation with kink at score 0 and value ``level``.

    Slope ``slope`` below the kink and 1 above.  The default level 0.5 puts
    the kink in the middle of the unit label interval so the pair is a
    non-trivial [slope, 1] bi-Lipschitz model of means in (0, 1).
    """
    if slope <= 0:
        raise InvalidInputError("leaky_relu slope must be positive")
    return PiecewiseLinearActivation([0.0], [float(level)], float(slope), 1.0,
                                     kind="leaky_relu",
                                     params={"slope": slope, "level": level})


def sigmoid():
    return SigmoidActivation()


def perturb_bilipschitz(activation, slope):
    """Return the activation ``t -> a(t) + slope * t``.

    The result is [max(alpha, slope), beta + slope] bi-Lipschitz, strictly
    increasing with full real range, and remembers what it was derived from.
    """
    if not np.isfinite(slope) or slope <= 0:
        raise InvalidInputError("perturbation slope must be a positive real")
    if isinstance(activation, PiecewiseLinearActivation):
        return activation.add_linear(float(slope))
    return PerturbedActivation(activation, float(slope))


# ---------------------------------------------------------------------------
# Pairs
# ---------------------------------------------------------------------------


def invert_by_bisection(fn, p):
    """Minimal t with fn(t) >= p, via predicate bisection on expanding brackets.

    ``fn`` must be continuous and strictly increasing; its Lipschitz
    constant ``fn.lipschitz_upper`` turns the value tolerance
    ``DEFAULT_INVERSION_TOL`` into a score tolerance.
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    lo = np.full(p_arr.shape, -1.0)
    hi = np.full(p_arr.shape, 1.0)
    for _ in range(BRACKET_CAP_EXP):
        bad_hi = ~(fn(hi) >= p_arr)
        bad_lo = fn(lo) >= p_arr
        if not bad_hi.any() and not bad_lo.any():
            break
        hi[bad_hi] *= 2.0
        lo[bad_lo] *= 2.0
    else:
        raise NoConvergenceError(
            "bracket expansion exceeded 2^%d without straddling the value"
            % BRACKET_CAP_EXP)
    t_atol = DEFAULT_INVERSION_TOL / max(fn.lipschitz_upper, 1.0)
    n_iter = int(math.ceil(math.log2(max(2.0 ** (BRACKET_CAP_EXP + 2)
                                         / t_atol, 2.0))))
    # a bracket stops at its own tolerance, so each value is the one a call
    # on that value alone returns
    for _ in range(n_iter):
        live = hi - lo > t_atol
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        ok = fn(mid) >= p_arr
        hi = np.where(live & ok, mid, hi)
        lo = np.where(live & ~ok, mid, lo)
    return hi if np.ndim(p) else float(hi[0])


class FenchelPair:
    """An activation with the integral, link and conjugate it owns."""

    def __init__(self, activation):
        self.activation = activation

    # -- basic maps ---------------------------------------------------------

    @property
    def alpha(self):
        return self.activation.lipschitz_lower

    @property
    def beta(self):
        return self.activation.lipschitz_upper

    @property
    def tag(self):
        return self.activation.tag

    def g_prime(self, t):
        return self.activation(t)

    def g(self, t):
        return self.activation.integral(t)

    def f_prime(self, r):
        """Link value: minimal score t with g'(t) = r."""
        return self.activation.inverse(r)

    def f(self, r):
        return self.activation.conjugate_value(r)

    # -- losses -------------------------------------------------------------

    def matching_loss(self, y, t):
        """Integral of (g' - y) from 0 to t, i.e. g(t) - y*t."""
        y_arr = np.asarray(y, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t_arr)):
            raise InvalidInputError("score must be finite")
        if not np.all(np.isfinite(y_arr)) or np.any(y_arr < 0) or np.any(y_arr > 1):
            raise InvalidInputError("label must lie in [0, 1]")
        out = self.g(t_arr) - y_arr * t_arr
        return out if (np.ndim(y) or np.ndim(t)) else float(out)

    def _interior(self, p, clamp):
        """Clamp p into the open part of the range where the link is finite."""
        p_arr = np.asarray(p, dtype=float)
        lo, hi = self.activation.range_lo, self.activation.range_hi
        lo_open = np.isfinite(lo) and np.isinf(self.f_prime(lo))
        hi_open = np.isfinite(hi) and np.isinf(self.f_prime(hi))
        at_lo = lo_open & (p_arr <= lo)
        at_hi = hi_open & (p_arr >= hi)
        if np.any(at_lo) or np.any(at_hi):
            if clamp is None:
                raise BoundaryError(
                    f"link of {self.tag} diverges at the range boundary; "
                    "pass a clamp margin for clamped evaluation")
            p_arr = np.clip(p_arr, lo + clamp, hi - clamp)
        return p_arr

    def clamped_link(self, p, clamp=DEFAULT_CLAMP_MARGIN):
        """Link values with p clamped away from diverging range boundaries."""
        return self.f_prime(self._interior(p, clamp))

    def bregman(self, y, p, clamp=None):
        """f(y) - f(p) - (y - p) f'(p); the excess matching loss of p vs y."""
        y_arr = self.activation._check_range(y)
        p_arr = self._interior(p, clamp)
        out = self.f(y_arr) - self.f(p_arr) - (y_arr - p_arr) * self.f_prime(p_arr)
        return out if (np.ndim(y) or np.ndim(p)) else float(out)

    def __repr__(self):
        return f"<FenchelPair {self.tag}>"


# ---------------------------------------------------------------------------
# Boundedness certificates for links
# ---------------------------------------------------------------------------


@dataclass
class BoundednessWitness:
    epsilon: float
    r0: float
    r1: float
    head: float      # max(-u(r0), u(r1))
    tail_lo: float   # sup_{r <= r0} r * (u(r0) - u(r))
    tail_hi: float   # sup_{r >= r1} (1 - r) * (u(r) - u(r1))


@dataclass
class BoundednessCert:
    R: float
    gamma: float
    epsilon_grid: list
    witnesses: list = field(default_factory=list)

    @property
    def ok(self):
        return True


@dataclass
class BoundednessFailure:
    R: float
    gamma: float
    epsilon: float
    violated: str
    detail: str

    @property
    def ok(self):
        return False


def _link_on_unit(pair, r):
    """Link values at the points of r; NaN (no witness) outside the range."""
    act, out = pair.activation, np.full_like(r, np.nan)
    inside = (r >= act.range_lo) & (r <= act.range_hi)
    out[inside] = pair.f_prime(r[inside])
    return out


def _tail_sups(cands, u_cands, grid, u_grid, weight):
    """For each candidate c, the largest finite ``weight * (u(r) - u(c))``
    over the grid points r >= c, or 0 when there is none."""
    vals = weight * (u_grid - u_cands[:, None])
    vals = np.where((grid >= cands[:, None]) & np.isfinite(vals), vals, -np.inf)
    sups = np.max(vals, axis=1)
    return np.where(sups == -np.inf, 0.0, sups)


def check_bounded_link(pair, R, gamma, probes):
    """Search for witnesses that the link is (R, gamma)-bounded on [0, 1].

    For each probe epsilon the certificate needs r0 <= r1 in [0, 1] with

    * ``max(-u(r0), u(r1)) <= R * (1/eps)**gamma``,
    * ``(1 - r) * (u(r) - u(r1)) <= eps`` for all r >= r1, and
    * ``r * (u(r0) - u(r)) <= eps`` for all r <= r0,

    where u is the link extended by its one-sided limits; a point outside
    the activation's range has no link value and is no witness.  The tail
    products use the moving endpoint so that links with a logarithmic
    blow-up (such as the logit) admit witnesses strictly inside the
    interval.  The search runs over 100 log-spaced candidates per side and
    sup-checks the tails on a log-spaced refinement, so it is an
    approximate, deterministic check: a returned certificate records
    measured quantities, a failure names the first inequality that could
    not be satisfied.  The lower side is the upper side of ``r -> -u(-r)``.
    """
    probes = [float(e) for e in probes]
    if any(e <= 0 for e in probes):
        raise InvalidInputError("probes must be positive")
    # endpoint witnesses first (exact for bounded links), then candidates
    # marching from the center outward so heads stay as small as possible
    deltas = np.logspace(0, -13, 99, base=10.0) * 0.5
    fine = np.concatenate((np.logspace(-14, -0.30103, 400), [0.5]))
    r1_cands = np.concatenate(([1.0], 1.0 - deltas))
    r0_cands = np.concatenate(([0.0], deltas))
    u_r1, u_r0 = _link_on_unit(pair, r1_cands), _link_on_unit(pair, r0_cands)
    hi_grid, lo_grid = 1.0 - fine, fine    # dense near 1 and near 0
    u_hi, u_lo = _link_on_unit(pair, hi_grid), _link_on_unit(pair, lo_grid)
    # per side: candidates, their heads, tail sups, violation names, details
    sides = (
        (r1_cands, u_r1,
         _tail_sups(r1_cands, u_r1, hi_grid, u_hi, 1.0 - hi_grid),
         "upper_tail", "no r1 with u(r1)",
         "(1-r)*(u(r)-u(r1)) exceeds eps={:g} for every candidate r1"),
        (r0_cands, -u_r0,
         _tail_sups(-r0_cands, -u_r0, -lo_grid, -u_lo, lo_grid),
         "lower_tail", "no r0 with -u(r0)",
         "r*(u(r0)-u(r)) exceeds eps={:g} for every candidate r0"))

    witnesses = []
    for eps in probes:
        head_cap = R * (1.0 / eps) ** gamma
        found = []
        for cands, heads, sups, tail, no_head, tail_detail in sides:
            head_ok = np.isfinite(heads) & (heads <= head_cap)
            hit = head_ok & (sups <= eps)
            if not hit.any():
                if not head_ok.any():
                    return BoundednessFailure(
                        R, gamma, eps, "head",
                        f"{no_head} <= R*(1/eps)^gamma = {head_cap:g}")
                return BoundednessFailure(R, gamma, eps, tail,
                                          tail_detail.format(eps))
            i = int(np.argmax(hit))
            found.append((float(cands[i]), float(heads[i]), float(sups[i])))
        (r1, head_hi, th), (r0, head_lo, tl) = found
        witnesses.append(BoundednessWitness(
            epsilon=eps, r0=r0, r1=r1,
            head=max(head_lo, head_hi), tail_lo=tl, tail_hi=th))
    return BoundednessCert(R=R, gamma=gamma, epsilon_grid=probes,
                           witnesses=witnesses)


# ---------------------------------------------------------------------------
# Built-in pair registry
# ---------------------------------------------------------------------------

# (R, gamma) defaults used by the omniprediction registration gate, by
# activation kind, and (25, 0.5) for any other kind, perturbations included;
# recorded conventions, not asserted ground truth.
DEFAULT_BOUNDEDNESS = {
    "identity": (1.0, 0.0),
    "identity_clamped": (1.0, 0.0),
    "relu": (1.0, 0.0),
    "leaky_relu": (6.0, 0.0),
    "sigmoid": (4.0, 0.5),
}

DEFAULT_PROBES = (0.1, 0.01)

_BUILTIN_FACTORIES = {
    "identity": identity,
    "identity_clamped": identity_clamped,
    "relu": relu,
    "leaky_relu": leaky_relu,
    "sigmoid": sigmoid,
}


def activation_from_tag(tag):
    """Parse tags like ``sigmoid``, ``leaky_relu(0.1)`` or
    ``perturbed(identity_clamped,0.05)`` into activation objects."""
    tag = tag.strip()
    name, args = tag, []
    if "(" in tag:
        if not tag.endswith(")"):
            raise InvalidInputError(f"malformed activation tag {tag!r}")
        name, inner = tag.split("(", 1)
        inner = inner[:-1]
        args = [a.strip() for a in _split_args(inner)] if inner else []
    name = name.strip()
    if name == "perturbed":
        if len(args) != 2:
            raise InvalidInputError("perturbed(<tag>,<slope>) takes two arguments")
        return perturb_bilipschitz(activation_from_tag(args[0]), float(args[1]))
    if name not in _BUILTIN_FACTORIES:
        raise InvalidInputError(f"unknown activation tag {name!r}")
    return _BUILTIN_FACTORIES[name](*[float(a) for a in args])


def _split_args(inner):
    parts, depth, cur = [], 0, []
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def pair_from_tag(tag):
    return FenchelPair(activation_from_tag(tag))


def default_registered_pairs():
    """Pairs registered for omniprediction evaluation.

    Each entry has passed :func:`check_bounded_link` with its default (R,
    gamma) at the default probes; see :func:`registration_gate`.
    """
    tags = ["identity", "leaky_relu(0.1)", "sigmoid",
            "perturbed(identity_clamped,0.05)", "perturbed(relu,0.05)"]
    return [pair_from_tag(t) for t in tags]


def registration_gate(pair):
    """Run the boundedness check with the pair's default (R, gamma) at the
    default probes."""
    R, gamma = DEFAULT_BOUNDEDNESS.get(pair.activation.kind, (25.0, 0.5))
    return check_bounded_link(pair, R, gamma, list(DEFAULT_PROBES))


# ---------------------------------------------------------------------------
# Distortion sandwich suites (acceptance criterion 1, distortion-check)
# ---------------------------------------------------------------------------


def interior_grid(n):
    """n points strictly inside (0, 1)."""
    return np.arange(1, n + 1, dtype=float) / (n + 1)


def bilipschitz_sandwich_report(pair, grid_n=100):
    """Worst slacks of the Bregman-vs-squared sandwich on an interior grid.

    For an [alpha, beta] bi-Lipschitz pair the divergence B_f(y, p) must lie
    in [ (y-p)^2 / (2 beta), (y-p)^2 / (2 alpha) ], and must coincide with
    the excess matching loss l_g(y, f'(p)) - l_g(y, f'(y)).
    """
    if pair.alpha <= 0:
        raise InvalidInputError("pair is not bi-Lipschitz (alpha == 0)")
    ys = interior_grid(grid_n)
    ps = interior_grid(grid_n)
    Y, P = np.meshgrid(ys, ps, indexing="ij")
    B = pair.bregman(Y, P)
    sq = (Y - P) ** 2
    lower = sq / (2.0 * pair.beta)
    upper = sq / (2.0 * pair.alpha)
    fp = pair.f_prime(P)
    fy = pair.f_prime(Y)
    excess = pair.matching_loss(Y, fp) - pair.matching_loss(Y, fy)
    return {
        "pair": pair.tag,
        "lower_slack": float(np.min(B - lower)),
        "upper_slack": float(np.min(upper - B)),
        "identity_gap": float(np.max(np.abs(excess - B))),
    }


def kl_sandwich_report(grid_n=100):
    """Worst slacks of KL(y||p) in [ (y-p)^2 / 2, 2 (y-p)^2 / min(p, 1-p) ]."""
    pair = FenchelPair(sigmoid())
    ys = interior_grid(grid_n)
    ps = interior_grid(grid_n)
    Y, P = np.meshgrid(ys, ps, indexing="ij")
    B = pair.bregman(Y, P)
    sq = (Y - P) ** 2
    lower = 0.5 * sq
    upper = 2.0 * sq / np.minimum(P, 1.0 - P)
    return {
        "pair": pair.tag,
        "lower_slack": float(np.min(B - lower)),
        "upper_slack": float(np.min(upper - B)),
    }


def crossentropy_absolute_report(grid_n=100):
    """Worst slacks of |y-p| <= CE(y,p) <= 2 |y-p| log(1/(p(1-p))), y binary."""
    ps = interior_grid(grid_n)
    slacks_lo, slacks_hi = [], []
    for y in (0.0, 1.0):
        ce = -(_xlogy(y, ps) + _xlogy(1.0 - y, 1.0 - ps))
        ad = np.abs(y - ps)
        slacks_lo.append(np.min(ce - ad))
        slacks_hi.append(np.min(2.0 * ad * np.log(1.0 / (ps * (1.0 - ps))) - ce))
    return {
        "pair": "sigmoid",
        "lower_slack": float(np.min(slacks_lo)),
        "upper_slack": float(np.min(slacks_hi)),
    }
