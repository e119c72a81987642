"""Convex-duality algebra for monotone activations.

An activation ``a`` is a non-decreasing Lipschitz map from scores to means.
Its running integral ``g(t) = int_0^t a`` is convex; the derivative of the
convex conjugate ``f`` of ``g`` is the link ``f'``, the (pseudo-)inverse of
``a`` on its range.  One :class:`FenchelPair` object is one activation with
all of these.  This module provides:

* built-in pairs (sigmoid, identity, ReLU variants, piecewise linear) with
  closed-form integrals, derivatives, links and conjugates,
* the matching loss ``l_g(y, t) = g(t) - y*t`` and the Bregman divergence
  ``B_f(y, p) = f(y) - f(p) - (y - p) f'(p)``,
* additive bi-Lipschitz perturbation ``a(t) + slope*t``,
* monotone bisection, the link of a perturbed non-piecewise activation,
* a grid-search certificate that a link is polynomially bounded near the
  edges of the unit interval (needed before a pair may be registered for
  omniprediction); a point of [0, 1] outside the range is no witness.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

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


def _float_if_scalar(x):
    """``x`` as a float when it is 0-d, else ``x`` itself."""
    return x if np.ndim(x) else float(x)


# ---------------------------------------------------------------------------
# Pairs
# ---------------------------------------------------------------------------


class FenchelPair:
    """A non-decreasing Lipschitz activation ``a = g'`` with its integral
    ``g``, link ``f'`` and conjugate ``f``.

    Attributes
    ----------
    tag : str
        The tag :func:`pair_from_tag` reads back, such as ``"sigmoid"`` or
        ``"leaky_relu(0.1,0.5)"``.
    alpha : float
        Largest alpha with ``a(t2) - a(t1) >= alpha (t2 - t1)``; 0 when the
        activation has flat pieces.
    beta : float
        Global Lipschitz constant of ``a``.
    range_lo, range_hi : float
        Extended-real bounds of the closure of the range.

    The public maps are ``__call__`` (the mean ``a(t)``), ``g`` (the running
    integral from 0), ``derivative`` (the slope of ``a``, the right slope at
    a kink), ``f_prime`` (the link: the minimal score attaining a mean) and
    ``f``.  They are defined here alone: each converts its argument to a
    float array, ``f_prime`` and ``f`` check it against the range, and each
    returns a float for a scalar.  A subclass defines the array kernels
    ``_a``, ``_g``, ``_da`` and ``_f_prime``, and ``_f`` where the conjugate
    has a closed form; kernels call kernels, never the public maps.  So a
    wrapper put around ``FenchelPair.g`` or ``FenchelPair.f_prime`` (as the
    benchmark's tracer does) sees every call from outside the pair and
    nothing else.
    """

    def __init__(self, tag, alpha, beta, range_lo, range_hi):
        self.tag = tag
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.range_lo = float(range_lo)
        self.range_hi = float(range_hi)

    def _check_range(self, r):
        """``r`` as a float array; raises RangeError outside the range."""
        r = np.asarray(r, dtype=float)
        if np.any(r < self.range_lo) or np.any(r > self.range_hi):
            raise RangeError(
                f"value outside the range [{self.range_lo}, {self.range_hi}] "
                f"of activation {self.tag}")
        return r

    # -- basic maps ---------------------------------------------------------

    def __call__(self, t):
        return _float_if_scalar(self._a(np.asarray(t, dtype=float)))

    def g(self, t):
        return _float_if_scalar(self._g(np.asarray(t, dtype=float)))

    def derivative(self, t):
        return _float_if_scalar(self._da(np.asarray(t, dtype=float)))

    def f_prime(self, r):
        """Link value: minimal score t with g'(t) = r."""
        return _float_if_scalar(self._f_prime(self._check_range(r)))

    def f(self, r):
        return _float_if_scalar(self._f(self._check_range(r)))

    def _f(self, r):
        # f(r) = r t - g(t) at the link value t = f'(r)
        t = self._f_prime(r)
        return r * t - self._g(t)

    # -- losses -------------------------------------------------------------

    def matching_loss(self, y, t):
        """Integral of (g' - y) from 0 to t, i.e. g(t) - y*t."""
        y_arr = np.asarray(y, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t_arr)):
            raise InvalidInputError("score must be finite")
        if not np.all(np.isfinite(y_arr)) or np.any(y_arr < 0) or np.any(y_arr > 1):
            raise InvalidInputError("label must lie in [0, 1]")
        return _float_if_scalar(self.g(t_arr) - y_arr * t_arr)

    def _interior(self, p, clamp):
        """Clamp p into the open part of the range where the link is finite."""
        p_arr = np.asarray(p, dtype=float)
        lo, hi = self.range_lo, self.range_hi
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
        y_arr = self._check_range(y)
        p_arr = self._interior(p, clamp)
        return _float_if_scalar(self.f(y_arr) - self.f(p_arr)
                                - (y_arr - p_arr) * self.f_prime(p_arr))

    def __repr__(self):
        return f"<FenchelPair {self.tag}>"


# a tag writes its numbers as repr does, so it reads back as the same pair
def _perturbed_tag(base, slope):
    return f"perturbed({base.tag},{float(slope)!r})"


class PiecewiseLinearActivation(FenchelPair):
    """Continuous piecewise-linear activation given by finite knot points:
    ``knots_t`` strictly increasing, ``knots_v`` non-decreasing, and
    non-negative slopes ``slope_left``/``slope_right`` beyond them.

    It is held as a table of segments (the left extension, the span after
    each knot but the last, the right extension), each with its anchor (its
    left knot; the first knot for the left extension), the value of ``a``
    and the integral of ``a`` from 0 there, and its slope.  Each map looks up
    the segment of each argument and evaluates one polynomial in the
    distance from the anchor, as exact far beyond a knot as near it.  ``g``
    anchors the segments on either side of score 0 at 0 instead, where ``a``
    is ``a(0)`` and its integral 0: near 0 it then sums small terms, not the
    difference of two large ones.
    """

    def __init__(self, knots_t, knots_v, slope_left, slope_right,
                 tag="piecewise_linear"):
        knots_t = np.asarray(knots_t, dtype=float)
        knots_v = np.asarray(knots_v, dtype=float)
        if knots_t.ndim != 1 or knots_t.shape != knots_v.shape or knots_t.size == 0:
            raise InvalidInputError("knots must be matching non-empty 1-d arrays")
        if not np.all(np.isfinite([*knots_t, *knots_v, slope_left, slope_right])):
            raise InvalidInputError("knots and extension slopes must be finite")
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
        self._seg_t = np.concatenate((knots_t[:1], knots_t))
        self._seg_v = np.concatenate((knots_v[:1], knots_v))
        self._seg_s = np.concatenate(([self.slope_left],
                                      np.diff(knots_v) / np.diff(knots_t),
                                      [self.slope_right]))
        # integral of a from 0 to each knot: trapezoids summed outward from 0
        m = int(np.sum(knots_t <= 0.0))
        pts_t = np.insert(knots_t, m, 0.0)
        pts_v = np.insert(knots_v, m, self._a(np.float64(0.0)))
        traps = np.diff(pts_t) * (pts_v[:-1] + pts_v[1:]) / 2.0
        at_knots = np.concatenate((-np.cumsum(traps[:m][::-1])[::-1],
                                   np.cumsum(traps[m:])))
        self._seg_g = np.concatenate((at_knots[:1], at_knots))
        # g's anchors; a segment anchored at 0 already keeps its entries
        near = np.array([np.sum(knots_t < 0.0), m])
        near = near[self._seg_t[near] != 0.0]
        self._g_t, self._g_v = self._seg_t.copy(), self._seg_v.copy()
        self._g_t[near], self._g_v[near], self._seg_g[near] = 0.0, pts_v[m], 0.0
        lo = -np.inf if self.slope_left > 0 else knots_v[0]
        hi = np.inf if self.slope_right > 0 else knots_v[-1]
        super().__init__(tag, np.min(self._seg_s), np.max(self._seg_s), lo, hi)

    @staticmethod
    def _segment(x, edges, above):
        """Segment of each ``x``: how many ``edges`` it is ``above``
        (``np.greater_equal`` or ``np.greater``), one pass per edge."""
        j = np.zeros(x.shape, dtype=np.intp)
        for e in edges:
            j += above(x, e)
        return j

    def _a(self, t):
        j = self._segment(t, self.knots_t, np.greater_equal)
        return self._seg_v[j] + self._seg_s[j] * (t - self._seg_t[j])

    def _g(self, t):
        j = self._segment(t, self.knots_t, np.greater_equal)
        dt = t - self._g_t[j]
        return self._seg_g[j] + self._g_v[j] * dt + self._seg_s[j] * dt * dt / 2.0

    def _da(self, t):
        # at a knot, the slope to its right
        return self._seg_s[self._segment(t, self.knots_t, np.greater_equal)]

    def _f_prime(self, r):
        # the segment of the minimal preimage counts the knot values below r;
        # only a flat left extension is found with slope 0, at r = its value,
        # where dividing by inf returns its right edge
        j = self._segment(r, self.knots_v, np.greater)
        s = self._seg_s[j]
        return self._seg_t[j] + (r - self._seg_v[j]) / np.where(s > 0, s, np.inf)

    def add_linear(self, slope):
        """Return the activation plus ``slope * t`` (still piecewise linear)."""
        return PiecewiseLinearActivation(
            self.knots_t, self.knots_v + slope * self.knots_t,
            self.slope_left + slope, self.slope_right + slope,
            _perturbed_tag(self, slope))


def _xlogy(x, y):
    """``x * log(y)``, taken as 0 wherever ``x == 0`` (also for ``y == 0``)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


class SigmoidActivation(FenchelPair):
    """Logistic activation 1 / (1 + exp(-t)); link is the logit."""

    def __init__(self):
        super().__init__("sigmoid", 0.0, 0.25, 0.0, 1.0)

    def _a(self, t):
        # exp(-t) overflows to inf for t < -709, where 1/(1+inf) is the 0
        # the sigmoid rounds to
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-t))

    def _g(self, t):
        # softplus(t) - softplus(0); softplus(t) = max(t, 0) + log1p(exp(-|t|))
        # as np.logaddexp(0, t) computes it, but with NumPy's vectorised
        # exp and log1p instead of one scalar libm call per element
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))) - math.log(2.0)

    def _da(self, t):
        a = self._a(t)
        return a * (1.0 - a)

    def _f_prime(self, r):
        # log(r/(1-r)) loses precision near 1/2, where the difference of
        # log1p's keeps it; r = 0 and r = 1 give -inf and inf
        s = 2.0 * (r - 0.5)
        with np.errstate(divide="ignore"):
            return np.where((r < 0.3) | (r > 0.65), np.log(r / (1.0 - r)),
                            np.log1p(s) - np.log1p(-s))

    def _f(self, r):
        # negative binary entropy plus log 2; continuous at 0 and 1
        return _xlogy(r, r) + _xlogy(1.0 - r, 1.0 - r) + math.log(2.0)


class PerturbedActivation(FenchelPair):
    """Base activation plus ``slope * t``; its integral and derivative are
    the base's plus those of the linear term, and its link is found by
    bisection."""

    def __init__(self, base, slope):
        self._base = base
        self._slope = float(slope)
        super().__init__(_perturbed_tag(base, slope), base.alpha + slope,
                         base.beta + slope, -np.inf, np.inf)

    def _a(self, t):
        return self._base._a(t) + self._slope * t

    def _g(self, t):
        return self._base._g(t) + 0.5 * self._slope * t ** 2

    def _da(self, t):
        return self._base._da(t) + self._slope

    def _f_prime(self, r):
        return invert_by_bisection(self, r)


# Built-in constructors -----------------------------------------------------


def identity():
    """g'(t) = t."""
    return PiecewiseLinearActivation([0.0], [0.0], 1.0, 1.0, "identity")


def identity_clamped():
    """Ramp g'(t) = clip(t, 0, 1)."""
    return PiecewiseLinearActivation([0.0, 1.0], [0.0, 1.0], 0.0, 0.0,
                                     "identity_clamped")


def relu():
    """g'(t) = max(t, 0)."""
    return PiecewiseLinearActivation([0.0], [0.0], 0.0, 1.0, "relu")


def leaky_relu(slope, level=0.5):
    """Two-slope activation with kink at score 0 and value ``level``.

    Slope ``slope`` below the kink and 1 above.  The default level 0.5 puts
    the kink in the middle of the unit label interval so the pair is a
    non-trivial [slope, 1] bi-Lipschitz model of means in (0, 1).
    """
    if slope <= 0:
        raise InvalidInputError("leaky_relu slope must be positive")
    slope, level = float(slope), float(level)
    return PiecewiseLinearActivation([0.0], [level], slope, 1.0,
                                     f"leaky_relu({slope!r},{level!r})")


def sigmoid():
    return SigmoidActivation()


def perturb_bilipschitz(pair, slope):
    """Return the activation ``t -> a(t) + slope * t``.

    The result is [max(alpha, slope), beta + slope] bi-Lipschitz, strictly
    increasing with full real range, and tagged ``perturbed(<tag>,<slope>)``.
    """
    if not np.isfinite(slope) or slope <= 0:
        raise InvalidInputError("perturbation slope must be a positive real")
    if isinstance(pair, PiecewiseLinearActivation):
        return pair.add_linear(float(slope))
    return PerturbedActivation(pair, float(slope))


def invert_by_bisection(fn, p):
    """Minimal t with fn(t) >= p, via predicate bisection on expanding brackets.

    ``fn`` must be continuous and strictly increasing; its Lipschitz
    constant ``fn.beta`` turns the value tolerance ``DEFAULT_INVERSION_TOL``
    into a score tolerance.
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
    t_atol = DEFAULT_INVERSION_TOL / max(fn.beta, 1.0)
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
class BoundednessResult:
    """The outcome of :func:`check_bounded_link`: ``ok`` with a witness per
    probe, or not ``ok`` with the witnesses found before the failing probe
    ``epsilon``, the ``violated`` inequality and a ``detail`` message."""
    R: float
    gamma: float
    witnesses: list
    epsilon: float = None
    violated: str = None
    detail: str = ""

    @property
    def ok(self):
        return self.violated is None


def _link_on_unit(pair, r):
    """Link values at the points of r; NaN (no witness) outside the range."""
    out = np.full_like(r, np.nan)
    inside = (r >= pair.range_lo) & (r <= pair.range_hi)
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
    approximate, deterministic check: the :class:`BoundednessResult`
    records the measured witnesses, or names the first inequality that
    could not be satisfied.  The lower side is the upper side of
    ``r -> -u(-r)``.
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
            if not hit.any():    # no head within the cap, or no tail
                failed = ((tail, tail_detail.format(eps)) if head_ok.any()
                          else ("head", f"{no_head} <= R*(1/eps)^gamma = "
                                        f"{head_cap:g}"))
                return BoundednessResult(R, gamma, witnesses, eps, *failed)
            i = int(np.argmax(hit))
            found.append((float(cands[i]), float(heads[i]), float(sups[i])))
        (r1, head_hi, th), (r0, head_lo, tl) = found
        witnesses.append(BoundednessWitness(
            epsilon=eps, r0=r0, r1=r1,
            head=max(head_lo, head_hi), tail_lo=tl, tail_hi=th))
    return BoundednessResult(R, gamma, witnesses)


# ---------------------------------------------------------------------------
# Built-in pair registry
# ---------------------------------------------------------------------------

# Each built-in activation by the name of its tag: its factory, and the
# (R, gamma) at which the omniprediction registration gate checks its link
# ((25, 0.5) for any other name, perturbations included); recorded
# conventions, not asserted ground truth.
BUILTIN_PAIRS = {
    "identity": (identity, 1.0, 0.0),
    "identity_clamped": (identity_clamped, 1.0, 0.0),
    "relu": (relu, 1.0, 0.0),
    "leaky_relu": (leaky_relu, 6.0, 0.0),
    "sigmoid": (sigmoid, 4.0, 0.5),
}

DEFAULT_PROBES = (0.1, 0.01)


def pair_from_tag(tag):
    """Parse tags like ``sigmoid``, ``leaky_relu(0.1)`` or
    ``perturbed(identity_clamped,0.05)`` into pairs; InvalidInputError
    names a malformed tag, an unknown name or a wrong argument."""
    tag = tag.strip()
    name, args = tag, []
    if "(" in tag:
        if not tag.endswith(")"):
            raise InvalidInputError(f"malformed activation tag {tag!r}")
        name, inner = tag.split("(", 1)
        args = [a.strip() for a in split_top_level(inner[:-1])]
    name = name.strip()
    perturbed = name == "perturbed"
    if not perturbed and name not in BUILTIN_PAIRS:
        raise InvalidInputError(f"unknown activation tag {name!r}")
    factory = perturb_bilipschitz if perturbed else BUILTIN_PAIRS[name][0]
    try:
        inspect.signature(factory).bind(*args)
        numbers = [float(a) for a in (args[1:] if perturbed else args)]
    except (TypeError, ValueError):
        raise InvalidInputError(f"activation tag {tag!r} does not match "
                                f"{name}{inspect.signature(factory)}") from None
    if perturbed:
        return perturb_bilipschitz(pair_from_tag(args[0]), *numbers)
    return factory(*numbers)


def split_top_level(text):
    """Split ``text`` on the commas outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if text:
        parts.append("".join(cur))
    return parts


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
    _, R, gamma = BUILTIN_PAIRS.get(pair.tag.split("(")[0], (None, 25.0, 0.5))
    return check_bounded_link(pair, R, gamma, list(DEFAULT_PROBES))


# ---------------------------------------------------------------------------
# Distortion sandwich suites (acceptance criterion 1, distortion-check)
# ---------------------------------------------------------------------------


def interior_grid(n):
    """n points strictly inside (0, 1)."""
    return np.arange(1, n + 1, dtype=float) / (n + 1)


def _worst_slacks(tag, value, lower, upper):
    """The suite row of ``lower <= value <= upper``: the pair's tag and the
    least slack on each side."""
    return {"pair": tag, "lower_slack": float(np.min(value - lower)),
            "upper_slack": float(np.min(upper - value))}


def bilipschitz_sandwich_report(pair, grid_n=100):
    """Worst slacks of the Bregman-vs-squared sandwich on an interior grid.

    For an [alpha, beta] bi-Lipschitz pair the divergence B_f(y, p) must lie
    in [ (y-p)^2 / (2 beta), (y-p)^2 / (2 alpha) ], and must coincide with
    the excess matching loss l_g(y, f'(p)) - l_g(y, f'(y)).
    """
    if pair.alpha <= 0:
        raise InvalidInputError("pair is not bi-Lipschitz (alpha == 0)")
    grid = interior_grid(grid_n)
    Y, P = np.meshgrid(grid, grid, indexing="ij")
    B = pair.bregman(Y, P)
    sq = (Y - P) ** 2
    fp = pair.f_prime(P)
    fy = pair.f_prime(Y)
    excess = pair.matching_loss(Y, fp) - pair.matching_loss(Y, fy)
    return {**_worst_slacks(pair.tag, B, sq / (2.0 * pair.beta),
                            sq / (2.0 * pair.alpha)),
            "identity_gap": float(np.max(np.abs(excess - B)))}


def kl_sandwich_report(grid_n=100):
    """Worst slacks of KL(y||p) in [ (y-p)^2 / 2, 2 (y-p)^2 / min(p, 1-p) ]."""
    pair = sigmoid()
    grid = interior_grid(grid_n)
    Y, P = np.meshgrid(grid, grid, indexing="ij")
    B = pair.bregman(Y, P)
    sq = (Y - P) ** 2
    return _worst_slacks(pair.tag, B, 0.5 * sq,
                         2.0 * sq / np.minimum(P, 1.0 - P))


def crossentropy_absolute_report(grid_n=100):
    """Worst slacks of |y-p| <= CE(y,p) <= 2 |y-p| log(1/(p(1-p))), y binary."""
    y = np.array([[0.0], [1.0]])
    ps = interior_grid(grid_n)
    ce = -(_xlogy(y, ps) + _xlogy(1.0 - y, 1.0 - ps))
    ad = np.abs(y - ps)
    return _worst_slacks("sigmoid", ce, ad,
                         2.0 * ad * np.log(1.0 / (ps * (1.0 - ps))))
