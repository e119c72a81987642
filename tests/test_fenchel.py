import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit, logit

from simlearn import fenchel as F
from simlearn.errors import (
    BoundaryError,
    InvalidInputError,
    RangeError,
)

SIG = F.pair_from_tag("sigmoid")
IDE = F.pair_from_tag("identity")
RAMP = F.pair_from_tag("identity_clamped")
RELU = F.pair_from_tag("relu")
LEAKY = F.pair_from_tag("leaky_relu(0.1)")
ALL_BUILTINS = [IDE, RAMP, RELU, LEAKY, SIG]


# ---------------------------------------------------------------------------
# matching loss
# ---------------------------------------------------------------------------


def test_matching_loss_zero_score_is_zero():
    assert SIG.matching_loss(0.7, 0.0) == 0.0


def test_matching_loss_identity_closed_form():
    # integral of tau from 0 to 2
    assert IDE.matching_loss(0.0, 2.0) == pytest.approx(2.0)


def test_matching_loss_sigmoid_matches_shifted_crossentropy():
    # at t = link(0.5) = 0 and y = 1 the loss is CE(1, 0.5) - log 2 = 0
    assert SIG.matching_loss(1.0, 0.0) == pytest.approx(0.0)
    # general y, t: loss = CE(y, sigmoid(t)) - log 2
    for y in (0.0, 0.25, 1.0):
        for t in (-3.0, 0.7, 2.5):
            p = 1.0 / (1.0 + math.exp(-t))
            ce = -(y * math.log(p) + (1 - y) * math.log(1 - p))
            got = SIG.matching_loss(y, t)
            assert got == pytest.approx(ce - math.log(2.0), abs=1e-12)


def test_sigmoid_integral_matches_logaddexp():
    # softplus(t) - log 2 agrees with np.logaddexp(0, t) - log 2 to 4 ulp;
    # near t = 0 the result cancels against log 2, so ulps are counted at
    # the larger of |result| and log 2
    rng = np.random.default_rng(11)
    t = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0],
        rng.uniform(-200.0, 200.0, 100_000),
        np.geomspace(1e-300, 700.0, 20_001) * rng.choice([-1.0, 1.0], 20_001),
    ])
    got = SIG.g(t)
    ref = np.logaddexp(0.0, t) - math.log(2.0)
    scale = np.spacing(np.maximum(np.abs(ref), math.log(2.0)))
    assert np.all(np.abs(got - ref) <= 4.0 * scale)
    for t0 in (0.0, -0.0, 1e-300, 800.0, -800.0, 0.3):
        scalar = SIG.g(t0)
        assert type(scalar) is float
        ref0 = float(np.logaddexp(0.0, t0)) - math.log(2.0)
        assert abs(scalar - ref0) <= 4.0 * math.ulp(max(abs(ref0), math.log(2.0)))


def test_matching_loss_subgradient_is_residual():
    h = 1e-6
    for pair in (SIG, IDE, LEAKY):
        for y, t in [(0.3, 0.9), (0.8, -1.2)]:
            num = (pair.matching_loss(y, t + h) - pair.matching_loss(y, t - h)) / (2 * h)
            assert num == pytest.approx(pair(t) - y, abs=1e-5)


def test_matching_loss_input_validation():
    with pytest.raises(InvalidInputError):
        SIG.matching_loss(1.5, 0.0)
    with pytest.raises(InvalidInputError):
        SIG.matching_loss(0.5, math.inf)
    with pytest.raises(InvalidInputError):
        SIG.matching_loss(math.nan, 0.0)


@settings(max_examples=100, deadline=None)
@given(y=st.floats(0.0, 1.0),
       t1=st.floats(-20.0, 20.0), t2=st.floats(-20.0, 20.0))
def test_matching_loss_midpoint_convex(y, t1, t2):
    for pair in ALL_BUILTINS:
        mid = pair.matching_loss(y, 0.5 * (t1 + t2))
        avg = 0.5 * (pair.matching_loss(y, t1) + pair.matching_loss(y, t2))
        assert mid <= avg + 1e-9


# ---------------------------------------------------------------------------
# Bregman divergence
# ---------------------------------------------------------------------------


def test_bregman_zero_on_diagonal():
    assert SIG.bregman(0.3, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_bregman_identity_is_half_squared():
    assert IDE.bregman(1.0, 0.0) == pytest.approx(0.5)


def test_bregman_sigmoid_is_kl():
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert SIG.bregman(0.5, 0.25) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.14384103622589042)


def test_bregman_boundary_needs_clamp():
    with pytest.raises(BoundaryError):
        SIG.bregman(0.5, 0.0)
    val = SIG.bregman(0.5, 0.0, clamp=1e-12)
    assert np.isfinite(val) and val > 0


def test_bregman_nonnegative_grid():
    ys = F.interior_grid(25)
    for pair in ALL_BUILTINS:
        Y, P = np.meshgrid(ys, ys, indexing="ij")
        B = pair.bregman(Y, P, clamp=1e-12)
        assert np.all(B >= -1e-12)
        # zero iff equal (diagonal)
        assert np.all(np.abs(np.diagonal(B)) <= 1e-12)


def test_bregman_equals_excess_matching_loss():
    ys = F.interior_grid(40)
    for pair in (IDE, LEAKY):
        Y, P = np.meshgrid(ys, ys, indexing="ij")
        excess = pair.matching_loss(Y, pair.f_prime(P)) \
            - pair.matching_loss(Y, pair.f_prime(Y))
        assert np.max(np.abs(excess - pair.bregman(Y, P))) \
            <= 10 * F.DEFAULT_INVERSION_TOL


def test_bregman_excess_identity_for_numeric_pair():
    # bisection-based link: same identity within the tolerance amplified by
    # the inverse slope of the perturbed sigmoid
    pair = F.perturb_bilipschitz(F.sigmoid(), 0.05)
    ys = F.interior_grid(15)
    Y, P = np.meshgrid(ys, ys, indexing="ij")
    excess = pair.matching_loss(Y, pair.f_prime(P)) \
        - pair.matching_loss(Y, pair.f_prime(Y))
    gap = np.max(np.abs(excess - pair.bregman(Y, P)))
    assert gap <= 1e-6


# ---------------------------------------------------------------------------
# link inversion
# ---------------------------------------------------------------------------


def test_invert_link_logit_closed_forms():
    assert SIG.f_prime(0.5) == pytest.approx(0.0, abs=1e-12)
    assert SIG.f_prime(0.75) == pytest.approx(math.log(3.0), rel=1e-12)


def test_invert_link_leaky_closed_vs_bisection():
    # shifted two-slope activation: value 0.2 sits on the 0.1-slope branch
    t = LEAKY.f_prime(0.2)
    assert t == pytest.approx((0.2 - 0.5) / 0.1, abs=1e-9)
    numeric = F.invert_by_bisection(LEAKY, 0.2)
    assert abs(LEAKY(numeric) - 0.2) <= F.DEFAULT_INVERSION_TOL


def test_invert_link_range_errors():
    with pytest.raises(RangeError):
        SIG.f_prime(1.5)
    with pytest.raises(RangeError):
        RAMP.f_prime(-0.2)


def test_invert_link_flat_segments_take_minimal_preimage():
    # relu is flat at 0 for t < 0: the inverse at 0 is the right edge
    assert RELU.f_prime(0.0) == pytest.approx(0.0, abs=1e-9)
    assert RAMP.f_prime(0.0) == pytest.approx(0.0, abs=1e-9)
    # interior flat: staircase with a genuinely flat middle segment
    stair = F.PiecewiseLinearActivation(
        [0.0, 1.0, 2.0, 3.0], [0.0, 0.4, 0.4, 1.0], 0.0, 0.0)
    assert stair.f_prime(0.4) == pytest.approx(1.0, abs=1e-9)


def test_duality_grids_all_builtins():
    r = F.interior_grid(500)
    for pair in ALL_BUILTINS:
        t = pair.f_prime(r)
        assert np.max(np.abs(pair(t) - r)) <= 1e-8
    # alpha > 0 pairs also invert the other way
    for pair in (IDE, LEAKY):
        t = np.linspace(-3, 3, 101)
        assert np.max(np.abs(pair.f_prime(pair(t)) - t)) \
            <= F.DEFAULT_INVERSION_TOL / pair.alpha + 1e-9


# ---------------------------------------------------------------------------
# piecewise-linear activations: exact against rational arithmetic
# ---------------------------------------------------------------------------


@st.composite
def piecewise_linear(draw):
    """(knots_t, knots_v, slope_left, slope_right): 1-8 knots in [-10, 10],
    each slope 0 or in [0, 4]."""
    k = draw(st.integers(1, 8))
    knots = sorted(draw(st.sets(st.floats(-10.0, 10.0), min_size=k,
                                max_size=k)))
    slopes = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
                           min_size=k + 1, max_size=k + 1))
    values = [draw(st.floats(-5.0, 5.0))]
    for s, t0, t1 in zip(slopes[1:-1], knots, knots[1:]):
        values.append(values[-1] + s * (t1 - t0))
    return knots, values, slopes[0], slopes[-1]


def _exact_integral(knots, values, slope_left, slope_right, t):
    """int_0^t a in rationals, for the activation through the float knots."""
    ks = [Fraction(k) for k in knots]
    vs = [Fraction(v) for v in values]

    def a(x):
        if x <= ks[0]:
            return vs[0] + Fraction(slope_left) * (x - ks[0])
        if x >= ks[-1]:
            return vs[-1] + Fraction(slope_right) * (x - ks[-1])
        i = max(j for j in range(len(ks)) if ks[j] <= x)
        return vs[i] + (vs[i + 1] - vs[i]) / (ks[i + 1] - ks[i]) * (x - ks[i])

    t = Fraction(t)
    lo, hi = min(t, Fraction(0)), max(t, Fraction(0))
    pts = sorted({lo, hi} | {k for k in ks if lo < k < hi})
    area = sum((q - p) * (a(p) + a(q)) / 2 for p, q in zip(pts, pts[1:]))
    return area if t >= 0 else -area


@settings(max_examples=150, deadline=None)
@given(pl=piecewise_linear(),
       extra=st.lists(st.one_of(st.floats(-20.0, 20.0),
                                st.floats(1e3, 2e3), st.floats(-2e3, -1e3),
                                st.floats(1e8, 2e8), st.floats(-2e8, -1e8)),
                      max_size=4))
@example(pl=([0.0, 1.0], [0.0, 1.0], 0.0, 0.0), extra=[])
@example(pl=([0.0, 1.0], [0.0, 1.05], 0.05, 0.05), extra=[])
def test_piecewise_linear_maps_are_exact(pl, extra):
    knots, values, slope_left, slope_right = pl
    pair = F.PiecewiseLinearActivation(knots, values, slope_left, slope_right)
    # a is the knot value at each knot and the extension's value beyond
    assert [pair(k) for k in knots] == values
    for t in (knots[0] - 1e3, knots[0] - 0.5):
        assert pair(t) == values[0] + slope_left * (t - knots[0])
    for t in (knots[-1] + 0.5, knots[-1] + 1e8):
        assert pair(t) == values[-1] + slope_right * (t - knots[-1])
    # g is the rational integral up to a few ulps of the largest |a| times
    # the span of 0, t and the knots, a bound on the integral of |a| there;
    # far beyond the knots that is about |g| itself
    for t in knots + extra + [0.0, 1e-9, 1e3 + 0.1, -1e3 - 0.1,
                              1e8 + 0.3, -1e8 - 0.3]:
        pts = knots + [0.0, t]
        scale = (max(pts) - min(pts)) * max(abs(pair(p)) for p in pts)
        err = abs(Fraction(pair.g(t))
                  - _exact_integral(knots, values, slope_left, slope_right, t))
        assert err <= 4 * math.ulp(max(1.0, scale)), t
    # the link inverts a inside each strictly increasing segment
    ends = list(zip([-math.inf] + knots, knots + [math.inf],
                    [-math.inf] + values, values + [math.inf]))
    for t0, t1, v0, v1 in ends:
        t = knots[0] - 1.0 if t0 == -math.inf else (
            knots[-1] + 1.0 if t1 == math.inf else (t0 + t1) / 2)
        r = pair(t)
        if t0 < t < t1 and v0 < r < v1:
            s = pair.derivative(t)
            tol = 4 * math.ulp(max(1.0, abs(t))) + 4 * math.ulp(abs(r)) / s
            assert abs(pair.f_prime(r) - t) <= tol, (t, s)


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------


def test_perturb_relu_gives_two_slopes():
    pert = F.perturb_bilipschitz(F.relu(), 0.1)
    ts = np.linspace(-4.0, 4.0, 401)
    quo = np.diff(pert(ts)) / np.diff(ts)
    assert quo.min() == pytest.approx(0.1, abs=1e-9)
    assert quo.max() == pytest.approx(1.1, abs=1e-9)
    assert pert.tag == "perturbed(relu,0.1)"


def test_perturb_identity_scales():
    pert = F.perturb_bilipschitz(F.identity(), 0.25)
    ts = np.linspace(-2, 2, 9)
    assert np.allclose(pert(ts), 1.25 * ts)


def test_perturb_sigmoid_bilipschitz_on_grid():
    pert = F.perturb_bilipschitz(F.sigmoid(), 0.01)
    ts = np.linspace(-30.0, 30.0, 2001)
    quo = np.diff(pert(ts)) / np.diff(ts)
    assert np.all(quo >= 0.01 - 1e-9)
    assert np.all(quo <= 0.26 + 1e-9)
    assert pert.alpha == pytest.approx(0.01)
    assert pert.beta == pytest.approx(0.26)


def test_perturb_validation():
    with pytest.raises(InvalidInputError):
        F.perturb_bilipschitz(F.relu(), 0.0)


@settings(max_examples=50, deadline=None)
@given(slope=st.floats(1e-3, 0.5),
       t1=st.floats(-10, 10), t2=st.floats(-10, 10))
def test_perturbed_increments_within_band(slope, t1, t2):
    if abs(t2 - t1) < 1e-9:
        return
    base = F.identity_clamped()
    pert = F.perturb_bilipschitz(base, slope)
    quo = (pert(t2) - pert(t1)) / (t2 - t1)
    assert slope - 1e-9 <= quo <= 1.0 + slope + 1e-9


# ---------------------------------------------------------------------------
# derivatives and conjugates
# ---------------------------------------------------------------------------

DERIVATIVE_TAGS = ["identity", "identity_clamped", "relu", "leaky_relu(0.1)",
                   "sigmoid", "perturbed(identity_clamped,0.05)",
                   "perturbed(relu,0.05)", "perturbed(sigmoid,0.05)"]


@pytest.mark.parametrize("tag", DERIVATIVE_TAGS)
def test_derivative_matches_central_differences(tag):
    act = F.pair_from_tag(tag)
    # a 0.05 grid shifted off the knots at 0 and 1 by more than h
    t = np.linspace(-6.0, 6.0, 241) + 0.013
    h = 1e-6
    central = (act(t + h) - act(t - h)) / (2.0 * h)
    np.testing.assert_allclose(act.derivative(t), central, rtol=0, atol=1e-8)
    assert isinstance(act.derivative(0.3), float)


def test_derivative_takes_the_right_slope_at_knots():
    assert F.relu().derivative(0.0) == 1.0
    assert F.relu().derivative(-1e-300) == 0.0
    assert F.leaky_relu(0.1).derivative(0.0) == 1.0
    np.testing.assert_array_equal(
        F.identity_clamped().derivative(np.array([0.0, 1.0])), [1.0, 0.0])
    ramp = F.pair_from_tag("perturbed(identity_clamped,0.05)")
    np.testing.assert_array_equal(ramp.derivative(np.array([0.0, 1.0])),
                                  [1.05, 0.05])


def test_conjugate_identity_on_builtin_pairs():
    # f(r) = r f'(r) - g(f'(r)) everywhere the link is finite
    r = F.interior_grid(50)
    for pair in ALL_BUILTINS:
        t = pair.f_prime(r)
        assert np.max(np.abs(pair.f(r) - (r * t - pair.g(t)))) <= 1e-8


def test_sigmoid_conjugate_boundary_limits():
    assert SIG.f(0.0) == SIG.f(1.0) == math.log(2.0)


# ---------------------------------------------------------------------------
# the NumPy sigmoid, logit and entropy conjugate against SciPy's
# ---------------------------------------------------------------------------

T_SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 800.0, -800.0]
R_SPECIAL = [0.0, 0.3, 0.5, 0.65, 1.0, 1e-9, 1.0 - 1e-9,
             np.nextafter(0.3, 0.0), np.nextafter(0.65, 1.0)]
T_GRID = np.concatenate([
    T_SPECIAL, np.linspace(-40.0, 40.0, 1601), np.geomspace(40.0, 745.0, 200),
    -np.geomspace(40.0, 745.0, 200)])
R_GRID = np.concatenate([
    R_SPECIAL, np.linspace(0.0, 1.0, 2001), np.geomspace(1e-300, 0.3, 300),
    1.0 - np.geomspace(1e-16, 0.35, 300)])


def assert_within_ulps(got, want, ulps):
    got, want = np.asarray(got), np.asarray(want)
    with np.errstate(invalid="ignore"):    # inf - inf where both are inf
        close = np.abs(got - want) <= ulps * np.spacing(np.abs(want))
    assert np.all((got == want) | close)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sigmoid_and_logit_within_two_ulps_of_scipy():
    act = F.sigmoid()
    assert_within_ulps(act(T_GRID), expit(T_GRID), 2)
    assert_within_ulps(act.f_prime(R_GRID), logit(R_GRID), 2)
    assert act.f_prime(0.0) == -math.inf and act.f_prime(1.0) == math.inf
    for t in T_SPECIAL:
        assert_within_ulps(act(t), expit(t), 2)
    for r in R_SPECIAL:
        assert_within_ulps(act.f_prime(r), logit(r), 2)


@pytest.mark.parametrize("tag", ["identity", "identity_clamped", "relu",
                                 "leaky_relu(0.1)", "sigmoid",
                                 "perturbed(sigmoid,0.05)"])
def test_public_maps_return_a_float_for_a_scalar(tag):
    # a Python or NumPy scalar gives a float, and an array gives the values
    # its elements give one at a time
    pair = F.pair_from_tag(tag)
    scores = np.array([-3.0, -0.3, 0.0, 0.4, 1.7])
    means = np.array([0.05, 0.25, 0.5, 0.9])
    for fn, xs in ((pair, scores), (pair.g, scores), (pair.derivative, scores),
                   (pair.f_prime, means), (pair.f, means)):
        for x in xs:
            assert type(fn(float(x))) is float and type(fn(x)) is float
        np.testing.assert_array_equal(fn(xs), [fn(float(x)) for x in xs])


def test_sigmoid_forms_raise_no_warning():
    act = F.sigmoid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        act(T_GRID)
        act.f_prime(R_GRID)
        act.f(R_GRID)
        for t in T_SPECIAL:
            act(t)
        for r in R_SPECIAL:
            act.f_prime(r)
            act.f(r)
        F.crossentropy_absolute_report(grid_n=100)


# ---------------------------------------------------------------------------
# boundedness certificates
# ---------------------------------------------------------------------------


def test_bounded_link_identity_endpoint_witnesses():
    cert = F.check_bounded_link(IDE, 1.0, 0.0, [0.1, 0.01, 0.5])
    assert cert.ok
    for w in cert.witnesses:
        assert (w.r0, w.r1) == (0.0, 1.0)
        assert w.head <= 1.0
        assert max(w.tail_lo, w.tail_hi) <= w.epsilon


def test_bounded_link_sigmoid_certificate():
    cert = F.check_bounded_link(SIG, 4.0, 0.5, [0.1, 0.01])
    assert cert.ok
    for w in cert.witnesses:
        assert w.head <= 4.0 * (1.0 / w.epsilon) ** 0.5
        assert max(w.tail_lo, w.tail_hi) <= w.epsilon
        assert 0.0 < w.r0 < w.r1 < 1.0


def test_bounded_link_rejects_fast_blowup():
    # gamma = 0 allows no growth, and the logit grows like log(1/eps)
    res = F.check_bounded_link(SIG, 1.0, 0.0, [0.01])
    assert not res.ok
    assert res.violated == "upper_tail"


def test_bounded_link_result_names_the_failing_probe():
    # eps = 0.5 is met at gamma = 0; the logit's tail then fails at 0.01
    res = F.check_bounded_link(SIG, 1.0, 0.0, [0.5, 0.01])
    assert not res.ok
    assert (res.epsilon, res.violated) == (0.01, "upper_tail")
    assert "eps=0.01" in res.detail
    assert [w.epsilon for w in res.witnesses] == [0.5]
    cert = F.check_bounded_link(SIG, 1.0, 0.0, [0.5])
    assert cert.ok and (cert.epsilon, cert.violated) == (None, None)
    assert cert.witnesses == res.witnesses


def test_bounded_link_fails_on_head():
    # level 0 makes the link u(r) = r on [0, 1]; every candidate r1 is at
    # least 0.5, above the head cap R * (1/eps)^0 = 0.1
    res = F.check_bounded_link(F.pair_from_tag("leaky_relu(0.1,0)"),
                               0.1, 0.0, [0.1])
    assert not res.ok
    assert res.violated == "head"


def test_bounded_link_fails_on_lower_tail():
    # slope 1e-6 below the kink: the link falls like (r - 0.5) * 1e6 near 0
    res = F.check_bounded_link(F.pair_from_tag("leaky_relu(1e-6)"),
                               25.0, 0.5, [0.01])
    assert not res.ok
    assert res.violated == "lower_tail"


def test_bounded_link_range_missing_the_unit_interval_is_a_failure():
    # values in [-1, -0.5]: no point of [0, 1] has a link value, so there is
    # no witness, and the search reports that instead of raising
    pair = F.PiecewiseLinearActivation([0, 1], [-1, -0.5], 0, 0)
    res = F.check_bounded_link(pair, 1.0, 0.0, [0.1])
    assert not res.ok
    assert res.violated == "head"


def _loop_bounded_link(pair):
    """The certificate search, one candidate and one point at a time."""
    def link(r):
        try:
            return float(pair.f_prime(r))
        except RangeError:
            return math.nan

    def sup(vals):
        vals = [v for v in vals if np.isfinite(v)]
        return float(max(vals)) if vals else 0.0

    deltas = np.logspace(0, -13, 99, base=10.0) * 0.5
    fine = np.concatenate((np.logspace(-14, -0.30103, 400), [0.5]))
    hi = [(r, link(r)) for r in 1.0 - fine]
    lo = [(r, link(r)) for r in fine]
    # per side, in search order: (candidate, head, tail sup)
    upper, lower = [], []
    for c in np.concatenate(([1.0], 1.0 - deltas)):
        u = link(c)
        upper.append(
            (c, u, sup([(1.0 - r) * (v - u) for r, v in hi if r >= c])))
    for c in np.concatenate(([0.0], deltas)):
        u = link(c)
        lower.append((c, -u, sup([r * (u - v) for r, v in lo if r <= c])))

    def search(R, gamma, probes):
        witnesses = []
        for eps in probes:
            cap = R * (1.0 / eps) ** gamma
            found = []
            for cands, name in ((upper, "upper_tail"), (lower, "lower_tail")):
                ok = [c for c in cands if np.isfinite(c[1]) and c[1] <= cap]
                if not ok:
                    return "head"
                hits = [c for c in ok if c[2] <= eps]
                if not hits:
                    return name
                found.append(hits[0])
            (r1, h1, th), (r0, h0, tl) = found
            witnesses.append((eps, float(r0), float(r1), max(h0, h1), tl, th))
        return witnesses
    return search


@pytest.mark.parametrize("tag", DERIVATIVE_TAGS)
def test_bounded_link_search_matches_the_loop(tag):
    pair = F.pair_from_tag(tag)
    search = _loop_bounded_link(pair)
    for R, gamma in ((1.0, 0.0), (4.0, 0.5), (25.0, 0.5), (0.5, 0.1)):
        for probes in ([0.5, 0.1, 0.01, 0.001], [0.5], [0.1], [0.01]):
            want = search(R, gamma, probes)
            got = F.check_bounded_link(pair, R, gamma, probes)
            if isinstance(want, str):
                assert not got.ok and got.violated == want
            else:
                assert got.ok and [
                    (w.epsilon, w.r0, w.r1, w.head, w.tail_lo, w.tail_hi)
                    for w in got.witnesses] == want


def test_bounded_link_probe_validation():
    with pytest.raises(InvalidInputError):
        F.check_bounded_link(IDE, 1.0, 0.0, [0.0])


def test_registration_gate_defaults():
    for pair in F.default_registered_pairs():
        assert F.registration_gate(pair).ok


# ---------------------------------------------------------------------------
# sandwich suites
# ---------------------------------------------------------------------------


def test_bilipschitz_sandwich_closed_form_pairs():
    for pair in (IDE, LEAKY):
        rep = F.bilipschitz_sandwich_report(pair, grid_n=100)
        assert rep["lower_slack"] >= -1e-9
        assert rep["upper_slack"] >= -1e-9
        assert rep["identity_gap"] <= 1e-9


def test_bilipschitz_sandwich_requires_alpha():
    with pytest.raises(InvalidInputError):
        F.bilipschitz_sandwich_report(RELU)


def test_kl_and_crossentropy_sandwiches():
    kl = F.kl_sandwich_report(grid_n=100)
    assert kl["lower_slack"] >= -1e-9
    assert kl["upper_slack"] >= -1e-9
    ce = F.crossentropy_absolute_report(grid_n=100)
    assert ce["lower_slack"] >= -1e-9
    assert ce["upper_slack"] >= -1e-9


def test_understated_beta_breaks_sandwich():
    # claim the identity activation is 0.5-Lipschitz: the lower bound of the
    # sandwich doubles and must now fail
    fake = F.PiecewiseLinearActivation([0.0], [0.0], 1.0, 1.0, "identity")
    fake.beta = 0.5
    rep = F.bilipschitz_sandwich_report(fake, grid_n=20)
    assert rep["lower_slack"] < -1e-9


# ---------------------------------------------------------------------------
# activation tags
# ---------------------------------------------------------------------------


def test_tag_round_trips():
    for tag in ("identity", "identity_clamped", "relu", "sigmoid",
                "leaky_relu(0.1,0.5)", "perturbed(identity_clamped,0.05)",
                "perturbed(relu,0.05)"):
        act = F.pair_from_tag(tag)
        again = F.pair_from_tag(act.tag)
        ts = np.linspace(-3, 3, 50)
        assert np.allclose(act(ts), again(ts))


@pytest.mark.parametrize("tag", ["leaky_relu(0.123456789,0.987654321)",
                                 "perturbed(relu,0.123456789)",
                                 "perturbed(leaky_relu(1e-7,0.1),1234567.5)"])
def test_a_tag_with_long_arguments_names_its_pair_exactly(tag):
    act = F.pair_from_tag(tag)
    again = F.pair_from_tag(act.tag)
    assert again.tag == act.tag
    ts = np.linspace(-3, 3, 50)
    assert np.array_equal(act(ts), again(ts))


def test_unknown_tag_raises():
    with pytest.raises(InvalidInputError, match="swish"):
        F.pair_from_tag("swish")
    with pytest.raises(InvalidInputError):
        F.pair_from_tag("leaky_relu(0.1")
    for tag in ("identity(2)", "leaky_relu()", "leaky_relu(0.1,0.5,1)",
                "leaky_relu(0.1,)", "perturbed(relu)", "perturbed(relu,0.05,)",
                "leaky_relu(abc)", "perturbed(relu,x)"):
        with pytest.raises(InvalidInputError, match=re.escape(repr(tag))):
            F.pair_from_tag(tag)
    for tag in ("leaky_relu(nan)", "leaky_relu(inf)", "leaky_relu(0.1,nan)"):
        with pytest.raises(InvalidInputError, match="finite"):
            F.pair_from_tag(tag)
    with pytest.raises(InvalidInputError, match="finite"):
        F.PiecewiseLinearActivation([0.0, math.inf], [0.0, 1.0], 0.0, 0.0)


def test_monotone_and_lipschitz_metadata_on_grid():
    ts = np.linspace(-8.0, 8.0, 801)
    for pair in ALL_BUILTINS:
        vals = pair(ts)
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        quo = diffs / np.diff(ts)
        assert np.all(quo <= pair.beta + 1e-9)
        if pair.alpha > 0:
            assert np.all(quo >= pair.alpha - 1e-9)
