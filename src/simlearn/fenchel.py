"""Convex-duality algebra for monotone activations.

An activation ``a`` is a non-decreasing Lipschitz map from scores to means.
Its running integral ``g(t) = int_0^t a`` is convex; the derivative of the
convex conjugate of ``g`` is the link ``f'``, the (pseudo-)inverse of ``a``
on its range.  This module provides:

* built-in activations (sigmoid, identity, ReLU variants, piecewise linear)
  with closed-form integrals and links where they exist,
* the matching loss ``l_g(y, t) = g(t) - y*t`` and the Bregman divergence
  ``B_f(y, p) = f(y) - f(p) - (y - p) f'(p)``,
* additive bi-Lipschitz perturbation ``a(t) + slope*t``,
* monotone bisection for link values when no closed form is available,
* a grid-search certificate that a link is polynomially bounded near the
  edges of the unit interval (needed before a pair may be registered for
  omniprediction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit, xlogy

from .errors import (
    BoundaryError,
    InvalidInputError,
    NoConvergenceError,
    RangeError,
)

DEFAULT_INVERSION_TOL = 1e-10
DEFAULT_CLAMP_MARGIN = 1e-12
BRACKET_CAP_EXP = 60  # bisection brackets expand up to [-2^60, 2^60]
QUAD_TOL = 1e-10


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
    """

    kind: str = "custom"

    def __init__(self, lipschitz_upper, lipschitz_lower, range_lo, range_hi,
                 params=None, derived_from=None):
        self.lipschitz_upper = float(lipschitz_upper)
        self.lipschitz_lower = float(lipschitz_lower)
        self.range_lo = float(range_lo)
        self.range_hi = float(range_hi)
        self.params = dict(params or {})
        self.derived_from = derived_from

    def __call__(self, t):
        raise NotImplementedError

    # Closed forms, overridden where available. ``None`` means "use numerics".
    def integral(self, t):
        """Running integral from 0, or None when no closed form exists."""
        return None

    def inverse(self, r):
        """Minimal score attaining mean r, or None when no closed form."""
        return None

    def conjugate_value(self, r):
        """Closed-form conjugate f(r) including continuous boundary limits."""
        return None

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
        after = np.concatenate((self._seg_slopes, [self.slope_right]))
        before = np.concatenate(([self.slope_left], self._seg_slopes))
        self._jumps = after - before

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

    def inverse(self, r):
        r = np.asarray(r, dtype=float)
        ts, vs = self.knots_t, self.knots_v
        if np.any(r < self.range_lo) or np.any(r > self.range_hi):
            raise RangeError("value outside activation range")
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


class SigmoidActivation(Activation):
    """Logistic activation 1 / (1 + exp(-t)); link is the logit."""

    kind = "sigmoid"

    def __init__(self):
        super().__init__(0.25, 0.0, 0.0, 1.0)

    def __call__(self, t):
        return expit(np.asarray(t, dtype=float)) if np.ndim(t) else float(expit(t))

    def integral(self, t):
        # softplus(t) - softplus(0); softplus(t) = max(t, 0) + log1p(exp(-|t|))
        # as np.logaddexp(0, t) computes it, but with NumPy's vectorised
        # exp and log1p instead of one scalar libm call per element
        t = np.asarray(t, dtype=float)
        out = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))) - math.log(2.0)
        return out if out.ndim else float(out)

    def inverse(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0) or np.any(r > 1.0):
            raise RangeError("value outside activation range")
        out = logit(r)
        return out if out.ndim else float(out)

    def conjugate_value(self, r):
        # negative binary entropy plus log 2; continuous at 0 and 1
        r = np.asarray(r, dtype=float)
        out = xlogy(r, r) + xlogy(1.0 - r, 1.0 - r) + math.log(2.0)
        return out if out.ndim else float(out)


class FunctionActivation(Activation):
    """Activation wrapping an arbitrary monotone callable.

    Integral and link fall back to adaptive Simpson quadrature and monotone
    bisection inside the owning pair.  The caller is responsible for the
    declared Lipschitz constants, range and (a.e.) differentiability.
    """

    kind = "custom"

    def __init__(self, fn, lipschitz_upper, lipschitz_lower, range_lo, range_hi,
                 kind=None, params=None, derived_from=None):
        self._fn = fn
        if kind is not None:
            self.kind = kind
        super().__init__(lipschitz_upper, lipschitz_lower, range_lo, range_hi,
                         params=params, derived_from=derived_from)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = self._fn(t_arr)
        out = np.asarray(out, dtype=float)
        return out if np.ndim(t) else float(out)


class PerturbedActivation(FunctionActivation):
    """Base activation plus ``slope * t``; inherits a closed-form integral."""

    kind = "perturbed"

    def __init__(self, base, slope):
        self._base = base
        self._slope = float(slope)
        super().__init__(
            lambda t: base(t) + slope * t,
            base.lipschitz_upper + slope, base.lipschitz_lower + slope,
            -np.inf, np.inf,
            params={"slope": slope}, derived_from=(base, slope))

    def integral(self, t):
        base_int = self._base.integral(t)
        if base_int is None:
            return None
        return base_int + 0.5 * self._slope * np.asarray(t, dtype=float) ** 2


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


def _adaptive_simpson(fn, a, b, tol):
    """Adaptive Simpson integral of a scalar function over [a, b]."""

    def simpson(x0, x2, f0, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = fn(x1)
        return x1, f1, (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0

    def recurse(x0, x2, f0, f2, whole, x1, f1, eps, depth):
        lm, flm, left = simpson(x0, x1, f0, f1)
        rm, frm, right = simpson(x1, x2, f1, f2)
        if depth > 50 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, x1, f0, f1, left, lm, flm, eps / 2.0, depth + 1)
                + recurse(x1, x2, f1, f2, right, rm, frm, eps / 2.0, depth + 1))

    if a == b:
        return 0.0
    f0, f2 = fn(a), fn(b)
    x1, f1, whole = simpson(a, b, f0, f2)
    return recurse(a, b, f0, f2, whole, x1, f1, tol, 0)


def invert_by_bisection(fn, p, tol, beta):
    """Minimal t with fn(t) >= p, via predicate bisection on expanding brackets.

    ``fn`` must be non-decreasing and continuous; ``beta`` is its Lipschitz
    constant, used to convert the value tolerance into a score tolerance.
    Values attained only on a flat bottom tail invert to the right edge of
    the tail (the limit of inverses from above).
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))

    def solve(pred):
        lo = np.full(p_arr.shape, -1.0)
        hi = np.full(p_arr.shape, 1.0)
        for k in range(1, BRACKET_CAP_EXP + 1):
            bad_hi = ~pred(hi)
            bad_lo = pred(lo)
            if not bad_hi.any() and not bad_lo.any():
                break
            hi[bad_hi] *= 2.0
            lo[bad_lo] *= 2.0
        else:
            return None
        t_atol = tol / max(beta, 1.0)
        n_iter = int(math.ceil(math.log2(max(2.0 ** (BRACKET_CAP_EXP + 2)
                                             / t_atol, 2.0))))
        for _ in range(n_iter):
            mid = 0.5 * (lo + hi)
            ok = pred(mid)
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid)
            if np.all(hi - lo <= t_atol):
                break
        return hi

    out = solve(lambda t: fn(t) >= p_arr)
    if out is None:
        # Entire flat bottom at value p: take the limit from above instead.
        out = solve(lambda t: fn(t) > p_arr)
        if out is None:
            raise NoConvergenceError(
                "bracket expansion exceeded 2^%d without straddling the value"
                % BRACKET_CAP_EXP)
    return out if np.ndim(p) else float(out[0])


class FenchelPair:
    """An activation together with its integral, conjugate and link.

    Closed forms from the activation are used when available; otherwise the
    integral uses adaptive Simpson quadrature and the link uses monotone
    bisection with tolerance ``DEFAULT_INVERSION_TOL``.
    """

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
    def range_lo(self):
        return self.activation.range_lo

    @property
    def range_hi(self):
        return self.activation.range_hi

    @property
    def tag(self):
        return self.activation.tag

    def g_prime(self, t):
        return self.activation(t)

    def g(self, t):
        closed = self.activation.integral(t)
        if closed is not None:
            return closed
        if np.ndim(t):
            flat = np.asarray(t, dtype=float).ravel()
            vals = np.array([_adaptive_simpson(self.activation, 0.0, x, QUAD_TOL)
                             for x in flat])
            return vals.reshape(np.shape(t))
        return _adaptive_simpson(self.activation, 0.0, float(t), QUAD_TOL)

    def f_prime(self, r):
        """Link value: minimal score t with g'(t) = r."""
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr < self.range_lo) or np.any(r_arr > self.range_hi):
            raise RangeError(
                f"value outside the range [{self.range_lo}, {self.range_hi}] "
                f"of activation {self.tag}")
        closed = self.activation.inverse(r)
        if closed is not None:
            return closed
        return invert_by_bisection(self.activation, r, DEFAULT_INVERSION_TOL,
                                   self.beta)

    def f(self, r):
        closed = self.activation.conjugate_value(r)
        if closed is not None:
            return closed
        t = self.f_prime(r)
        return np.asarray(r, dtype=float) * t - self.g(t) if np.ndim(r) \
            else float(r) * t - self.g(t)

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
        lo, hi = self.range_lo, self.range_hi
        lo_open = not np.isfinite(self._link_limit(lo)) if np.isfinite(lo) else False
        hi_open = not np.isfinite(self._link_limit(hi)) if np.isfinite(hi) else False
        at_lo = np.isfinite(lo) & (p_arr <= lo) & lo_open
        at_hi = np.isfinite(hi) & (p_arr >= hi) & hi_open
        if np.any(at_lo) or np.any(at_hi):
            if clamp is None:
                raise BoundaryError(
                    f"link of {self.tag} diverges at the range boundary; "
                    "pass a clamp margin for clamped evaluation")
            p_arr = np.clip(p_arr, lo + clamp, hi - clamp)
        return p_arr

    def _link_limit(self, r):
        if not np.isfinite(r):
            return np.inf
        try:
            return float(self.f_prime(r))
        except (RangeError, NoConvergenceError):
            return np.inf

    def clamped_link(self, p, clamp=DEFAULT_CLAMP_MARGIN):
        """Link values with p clamped away from diverging range boundaries."""
        return self.f_prime(self._interior(p, clamp))

    def bregman(self, y, p, clamp=None):
        """f(y) - f(p) - (y - p) f'(p); the excess matching loss of p vs y."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr < self.range_lo) or np.any(y_arr > self.range_hi):
            raise RangeError("first argument outside the activation range")
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
    """Link values on (0,1) with +-inf at diverging endpoints."""
    out = np.empty_like(r)
    for i, ri in enumerate(r):
        if ri <= 0.0:
            out[i] = pair._link_limit(0.0) if pair.range_lo >= 0.0 else pair.f_prime(0.0)
        elif ri >= 1.0:
            out[i] = pair._link_limit(1.0) if pair.range_hi <= 1.0 else pair.f_prime(1.0)
        else:
            try:
                out[i] = pair.f_prime(ri)
            except (RangeError, NoConvergenceError):
                out[i] = np.nan
    return out


def check_bounded_link(pair, R, gamma, probes):
    """Search for witnesses that the link is (R, gamma)-bounded on [0, 1].

    For each probe epsilon the certificate needs r0 <= r1 in [0, 1] with

    * ``max(-u(r0), u(r1)) <= R * (1/eps)**gamma``,
    * ``(1 - r) * (u(r) - u(r1)) <= eps`` for all r >= r1, and
    * ``r * (u(r0) - u(r)) <= eps`` for all r <= r0,

    where u is the link extended by its one-sided limits.  The tail products
    use the moving endpoint so that links with a logarithmic blow-up (such as
    the logit) admit witnesses strictly inside the interval.  The search runs
    over 100 log-spaced candidates per side and sup-checks the tails on a
    log-spaced refinement, so it is an approximate, deterministic check: a
    returned certificate records measured quantities, a failure names the
    first inequality that could not be satisfied.
    """
    probes = [float(e) for e in probes]
    if any(e <= 0 for e in probes):
        raise InvalidInputError("probes must be positive")
    # endpoint witnesses first (exact for bounded links), then candidates
    # marching from the center outward so heads stay as small as possible
    deltas = np.logspace(0, -13, 99, base=10.0) * 0.5
    r1_cands = np.concatenate(([1.0], 1.0 - deltas))
    r0_cands = np.concatenate(([0.0], deltas))
    fine = np.concatenate((np.logspace(-14, -0.30103, 400), [0.5]))
    u_hi_grid = 1.0 - fine        # dense near 1
    u_lo_grid = fine              # dense near 0
    u_hi_vals = _link_on_unit(pair, u_hi_grid)
    u_lo_vals = _link_on_unit(pair, u_lo_grid)
    u_r1 = _link_on_unit(pair, r1_cands)
    u_r0 = _link_on_unit(pair, r0_cands)

    witnesses = []
    for eps in probes:
        head_cap = R * (1.0 / eps) ** gamma

        def tail_hi_sup(r1, u1):
            mask = u_hi_grid >= r1
            if not mask.any():
                return 0.0
            vals = (1.0 - u_hi_grid[mask]) * (u_hi_vals[mask] - u1)
            vals = vals[np.isfinite(vals)]
            return float(np.max(vals)) if vals.size else 0.0

        def tail_lo_sup(r0, u0):
            mask = u_lo_grid <= r0
            if not mask.any():
                return 0.0
            vals = u_lo_grid[mask] * (u0 - u_lo_vals[mask])
            vals = vals[np.isfinite(vals)]
            return float(np.max(vals)) if vals.size else 0.0

        best_r1 = None
        head_ok_any = False
        for r1, u1 in zip(r1_cands, u_r1):
            if not np.isfinite(u1) or u1 > head_cap:
                continue
            head_ok_any = True
            th = tail_hi_sup(r1, u1)
            if th <= eps:
                best_r1 = (float(r1), float(u1), th)
                break
        if best_r1 is None:
            if not head_ok_any:
                return BoundednessFailure(
                    R, gamma, eps, "head",
                    f"no r1 with u(r1) <= R*(1/eps)^gamma = {head_cap:g}")
            return BoundednessFailure(
                R, gamma, eps, "upper_tail",
                f"(1-r)*(u(r)-u(r1)) exceeds eps={eps:g} for every candidate r1")

        best_r0 = None
        head_ok_any = False
        for r0, u0 in zip(r0_cands, u_r0):
            if not np.isfinite(u0) or -u0 > head_cap:
                continue
            head_ok_any = True
            tl = tail_lo_sup(r0, u0)
            if tl <= eps:
                best_r0 = (float(r0), float(u0), tl)
                break
        if best_r0 is None:
            if not head_ok_any:
                return BoundednessFailure(
                    R, gamma, eps, "head",
                    f"no r0 with -u(r0) <= R*(1/eps)^gamma = {head_cap:g}")
            return BoundednessFailure(
                R, gamma, eps, "lower_tail",
                f"r*(u(r0)-u(r)) exceeds eps={eps:g} for every candidate r0")

        (r1, u1, th), (r0, u0, tl) = best_r1, best_r0
        witnesses.append(BoundednessWitness(
            epsilon=eps, r0=r0, r1=r1,
            head=max(-u0, u1), tail_lo=tl, tail_hi=th))
    return BoundednessCert(R=R, gamma=gamma, epsilon_grid=probes,
                           witnesses=witnesses)


# ---------------------------------------------------------------------------
# Built-in pair registry
# ---------------------------------------------------------------------------

# (R, gamma) defaults used by the omniprediction registration gate; recorded
# conventions, not asserted ground truth.
DEFAULT_BOUNDEDNESS = {
    "identity": (1.0, 0.0),
    "identity_clamped": (1.0, 0.0),
    "relu": (1.0, 0.0),
    "leaky_relu": (6.0, 0.0),
    "sigmoid": (4.0, 0.5),
    "perturbed": (25.0, 0.5),
    "piecewise_linear": (25.0, 0.5),
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
    base_kind = "perturbed" if pair.activation.derived_from is not None \
        else pair.activation.kind
    R, gamma = DEFAULT_BOUNDEDNESS.get(base_kind, (25.0, 0.5))
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
        ce = -(xlogy(y, ps) + xlogy(1.0 - y, 1.0 - ps))
        ad = np.abs(y - ps)
        slacks_lo.append(np.min(ce - ad))
        slacks_hi.append(np.min(2.0 * ad * np.log(1.0 / (ps * (1.0 - ps))) - ce))
    return {
        "pair": "sigmoid",
        "lower_slack": float(np.min(slacks_lo)),
        "upper_slack": float(np.min(slacks_hi)),
    }
