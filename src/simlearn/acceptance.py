"""The acceptance suite: one function per criterion, shared by pytest and
the ``verify`` command.

Each criterion returns a :class:`CriterionResult` with the measured
quantities (as CSV rows with a fixed schema, each with its own verdict) and
its runtime budget.  All randomness is derived from one base seed, so
repeated runs with the same seed are bit-identical; the CSV writer emits
``runtime_ms`` as 0 so the artifact bytes do not depend on the clock.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

import numpy as np

from . import config, fenchel, learners, synth, transfer
from .errors import ConfigError, InvalidInputError, NoConvergenceError

DEFAULT_SEED = 20250
CSV_HEADER = "instance,learner,opt_hat,err2,err1,theorem,rhs,slack,c_report,runtime_ms"


def csv_text(text):
    return text.replace(",", ";")    # a comma would end the CSV field


@dataclass
class Row:
    instance: str
    learner: str
    opt_hat: float
    err2: float
    err1: float
    theorem: str
    rhs: float
    slack: float
    c_report: float
    runtime_ms: int = 0
    # whether the row's gate passed and its learner converged; not written
    passed: bool = field(default=True, compare=False)
    converged: bool = field(default=True, compare=False)

    @property
    def key(self):
        return self.instance, self.learner, self.theorem

    def render(self):
        def num(v):
            return "" if v is None else repr(float(v))

        return ",".join([
            csv_text(self.instance), csv_text(self.learner), num(self.opt_hat),
            num(self.err2), num(self.err1), csv_text(self.theorem),
            num(self.rhs), num(self.slack), num(self.c_report),
            str(self.runtime_ms),
        ])


def run_unit(unit, train, ev):
    """Train the unit's learner on ``train``, predict ``ev`` and evaluate
    once, and run each ``(kind, tags)`` check of ``transfer.CHECKS`` on that
    one report; a check that does not apply becomes a failed
    ``<kind>_inapplicable`` check.  Returns ``([(BoundCheck, Row)],
    train_ms)``, each row keyed by ``transfer.check_key``, with its check's
    verdict and the learner's flag; a premise row leaves out the errors."""
    t0 = time.time()
    pred = config.train_learner(unit.entry, train)
    train_ms = int((time.time() - t0) * 1000)
    p = pred.predict(ev.features)
    report = transfer.evaluate(p, ev)
    out = []
    for kind, tags in unit.checks:
        learner, _ = transfer.check_key(unit.entry["name"], kind, tags)
        try:
            chk = transfer.CHECKS[kind][2](p, report, ev,
                                           unit.entry["norm_bound"], unit.eps,
                                           unit.seed, *tags)
        except (InvalidInputError, NoConvergenceError):
            chk = transfer.BoundCheck(
                f"{kind}_inapplicable", 0.0, 0.0, -1.0, False,
                {"opt_hat": ev.certified_opt_upper_bound})
        errors = ((None, None) if kind == "premise"
                  else (report.err2, report.err1))
        out.append((chk, Row(
            unit.instance, learner,
            chk.params.get("opt_hat", chk.params.get("opt1_hat")), *errors,
            chk.theorem_tag, chk.rhs, chk.slack, chk.extras.get("c_needed"),
            passed=chk.passed, converged=pred.converged)))
    return out, train_ms


def _read_only(a):
    """``a``, no longer writeable: a learner that wrote into data shared by
    several units would raise instead of changing the next unit's data."""
    a.flags.writeable = False
    return a


def _labelled(x, unit, seed):
    """The dataset of the shared features ``x`` under the unit's label
    model; what ``synth.make_dataset`` makes from the same seed."""
    y, opt = synth.generate_labels(x, unit.model, seed)
    return synth.Dataset(x, _read_only(y), unit.model.label_space, int(seed),
                         unit.marginal, unit.model, opt)


def run_units(units, run):
    """``run(unit, train, ev)`` for each unit in order, as a list.

    A unit's training set is drawn from its seed and its evaluation set from
    the seed + 1.  ``synth.sample_marginal`` and ``synth.generate_labels``
    each seed their own stream, so features depend only on (marginal, n,
    seed) and labels only on (features, label model, seed).  Consecutive
    units with the same (marginal, n_train, n_eval, seed) therefore share
    one read-only training and one evaluation feature matrix, and those that
    also share a label model share the labels: every dataset is bit-identical
    to the one ``synth.make_dataset`` draws for the unit alone."""
    out, drawn, model = [], None, None
    for unit in units:
        key = (unit.marginal, unit.n_train, unit.n_eval, unit.seed)
        if key != drawn:
            # release the previous group's arrays before the next draw, so
            # that one train/eval pair is alive at a time
            x_train = x_eval = train = ev = model = None
            drawn = key
            x_train = _read_only(synth.sample_marginal(
                unit.marginal, unit.n_train, unit.seed))
            x_eval = _read_only(synth.sample_marginal(
                unit.marginal, unit.n_eval, unit.seed + 1))
        if unit.model != model:
            model = unit.model
            train = ev = None
            train = _labelled(x_train, unit, unit.seed)
            ev = _labelled(x_eval, unit, unit.seed + 1)
        out.append(run(unit, train, ev))
    return out


def _premise_row(instance, learner, opt_hat, theorem, eps, gap, converged):
    """A premise gap against its allowance ``eps``: slack ``eps - gap`` >= 0."""
    return Row(instance, learner, opt_hat, None, None, theorem, eps,
               eps - gap, gap, passed=eps - gap >= 0.0, converged=converged)


def _run_table(units, gate=lambda chk: True, premise_eps=None):
    """The rows of ``units``, in unit and then check order, a check's row
    passing when the check passed and meets ``gate``; with ``premise_eps``,
    each check that measured an ``eps_hat`` is followed by a
    ``<kind>_premise`` row gating it."""
    rows = []
    for unit, (checked, _) in zip(units, run_units(units, run_unit)):
        for (kind, _), (chk, row) in zip(unit.checks, checked):
            row.passed = row.passed and gate(chk)
            rows.append(row)
            # an inapplicable check measured no premise and has failed already
            if premise_eps is not None and "eps_hat" in chk.params:
                rows.append(_premise_row(
                    row.instance, row.learner, row.opt_hat, f"{kind}_premise",
                    premise_eps, chk.params["eps_hat"], row.converged))
    return rows


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime_s: float
    budget_s: float
    details: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    @classmethod
    def of(cls, number, name, t0, budget_s, rows, details):
        """The result of ``rows``, timed from ``t0``: it passes when every
        row passed.  ``details`` gains the ``failed`` rows' keys, the
        ``nonconverged`` instances, once each, and the ``vacuous`` rows' keys:
        those bounding err2 or err1, both in [0, 1], by an rhs >= 1."""
        details.update(
            failed=[row.key for row in rows if not row.passed],
            nonconverged=list(dict.fromkeys(
                row.instance for row in rows if not row.converged)),
            vacuous=[row.key for row in rows if row.rhs >= 1.0
                     and (row.err2 is not None or row.err1 is not None)])
        return cls(number, name, all(row.passed for row in rows),
                   time.time() - t0, budget_s, details, rows)

    @property
    def ok(self):
        return self.passed and self.runtime_s <= self.budget_s

    def summary(self):
        state = "PASS" if self.ok else "FAIL"
        extra = "" if self.passed else " (criterion failed)"
        if self.passed and not self.ok:
            extra = f" (over budget {self.budget_s:.0f}s)"
        if self.details.get("failed"):
            extra += " failed: " + ", ".join(":".join(key)
                                             for key in self.details["failed"])
        if self.details.get("nonconverged"):
            extra += " nonconverged: " + ", ".join(self.details["nonconverged"])
        return (f"[{state}] {self.number:2d} {self.name} "
                f"({self.runtime_s:.1f}s / budget {self.budget_s:.0f}s){extra}")


def parse_row(line):
    """The Row that :meth:`Row.render` rendered as ``line``.

    Raises ConfigError for a line that is not a rendered row.
    """
    parts = line.split(",")
    try:
        if len(parts) != 10:
            raise ValueError(f"{len(parts)} fields, not 10")
        nums = [None if v == "" else float(v) for v in parts[2:5] + parts[6:9]]
        return Row(parts[0], parts[1], *nums[:3], parts[5], *nums[3:],
                   int(parts[9]))
    except ValueError as exc:
        raise ConfigError(f"malformed CSV row {line!r}: {exc}") from exc


def rows_to_csv(rows):
    return CSV_HEADER + "\n" + "".join(r.render() + "\n" for r in rows)


def results_csv(results):
    rows = []
    for res in results:
        rows.extend(res.rows)
    return rows_to_csv(rows)


# criteria 1-9 by number, filled by @_criterion; criterion 10 takes the
# results of these and is not one of them
CRITERIA = {}


def _criterion(number, name, budget_s):
    """Register a criterion body as ``CRITERIA[number]``.

    The body returns ``(rows, details)``; the registered function times it
    and returns their :meth:`CriterionResult.of`."""
    def register(body):
        @functools.wraps(body)
        def criterion(seed=DEFAULT_SEED, **options):
            t0 = time.time()
            return CriterionResult.of(number, name, t0, budget_s,
                                      *body(seed, **options))
        CRITERIA[number] = criterion
        return criterion
    return register


def _learner(algorithm, B, **options):
    """The learner entry of ``algorithm``, named after it unless
    ``options`` give a ``name``, for :func:`config.train_learner`."""
    return {"name": algorithm, "algorithm": algorithm, "norm_bound": B,
            **options}


# ---------------------------------------------------------------------------
# Criterion 1: distortion sandwiches on closed-form pairs
# ---------------------------------------------------------------------------


@_criterion(1, "distortion sandwiches", 5.0)
def criterion_1(seed, grid_n=100, tags=("identity", "leaky_relu(0.1)")):
    """Bi-Lipschitz sandwiches of the pairs in ``tags``, then the KL and
    cross-entropy sandwiches; a row's rhs, the identity gap of a bi-Lipschitz
    row and 0 for the others, and its worst slack must be within 1e-9 of 0."""
    reports = [(tag, "bilipschitz_sandwich", fenchel.bilipschitz_sandwich_report(
        fenchel.pair_from_tag(tag), grid_n=grid_n)) for tag in tags] + [
        ("sigmoid", "kl_sandwich", fenchel.kl_sandwich_report(grid_n)),
        ("sigmoid", "crossentropy_absolute_sandwich",
         fenchel.crossentropy_absolute_report(grid_n))]
    rows = []
    for tag, suite, rep in reports:
        gap = rep.get("identity_gap", 0.0)
        slack = min(rep["lower_slack"], rep["upper_slack"])
        rows.append(Row(f"grid{grid_n}", tag, None, None, None, suite, gap,
                        slack, None, passed=slack >= -1e-9 and gap <= 1e-9))
    return rows, {}


# ---------------------------------------------------------------------------
# Criterion 2: link duality on every built-in pair
# ---------------------------------------------------------------------------

BUILTIN_TAGS = ("identity", "identity_clamped", "relu", "leaky_relu(0.1)",
                "sigmoid")


@_criterion(2, "link duality", 5.0)
def criterion_2(seed):
    grid_n, tol = 1000, 1e-8
    rows = []
    r = fenchel.interior_grid(grid_n)
    for tag in BUILTIN_TAGS + ("perturbed(identity_clamped,0.05)",
                               "perturbed(relu,0.05)"):
        pair = fenchel.pair_from_tag(tag)
        gap = float(np.max(np.abs(pair(pair.f_prime(r)) - r)))
        rows.append(Row(f"grid{grid_n}", tag, None, None, None,
                        "link_duality", tol, tol - gap, None,
                        passed=gap <= tol))
    return rows, {}


# ---------------------------------------------------------------------------
# Criterion 3: weak learner completeness and soundness over seeded trials
# ---------------------------------------------------------------------------


# E[x clip(x, -1, 1)] for x ~ N(0, 1).  Stein's lemma, E[x h(x)] = E[h'(x)]
# for absolutely continuous h, with clip' the indicator of |x| < 1, makes it
# P(|x| < 1) = erf(1/sqrt 2).  The planted trials of criterion 3 correlate
# z = clip(x_1, -1, 1) with x ~ N(0, I); the other coordinates are
# independent of x_1 with mean 0, so E[z (w.x)] = w_1 * PLANTED_CORRELATION.
PLANTED_CORRELATION = math.erf(1.0 / math.sqrt(2.0))


@_criterion(3, "weak learner trials", 60.0)
def criterion_3(seed):
    """Completeness and soundness over 30 trials, each with a planted arm and
    a null arm.  An accepted ``w`` is sound when its exact population
    correlation E[z (w.x)] is at least eps/4: ``w_1 * PLANTED_CORRELATION``
    on a planted trial, and 0 on a null trial, whose coin is independent of
    x, so every null accept is unsound.

    One Gaussian sample x serves both arms of a trial.  The null arm asks
    whether the learner accepts a coin independent of x.  The coin comes
    from its own seed, so it is as independent of the planted trial's x as
    of a fresh draw: (x, z) keeps its law, and so does each arm's failure
    count.  ``weak_learn`` does not write to x."""
    trials, n, d, eps = 30, 100_000, 10, 0.5
    spec = synth.MarginalSpec("standard_gaussian", d)

    def coin(key):
        rng = np.random.default_rng(np.random.SeedSequence([seed, key]))
        return rng.choice([-1.0, 1.0], size=n)

    comp_fail = sound_fail = null_accepts = 0
    for trial in range(trials):
        x = synth.sample_marginal(spec, n, seed + 1000 + trial)
        res = learners.weak_learn(x, np.clip(x[:, 0], -1.0, 1.0), 1.0, eps)
        if not res.accepted:
            comp_fail += 1
        elif float(res.w[0]) * PLANTED_CORRELATION < eps / 4.0:
            sound_fail += 1
        if learners.weak_learn(x, coin(3000 + trial), 1.0, eps).accepted:
            null_accepts += 1
        del x    # one 8 MB sample alive at a time, not two while drawing
    sound_fail += null_accepts
    rows = [Row(f"planted_x1_n{n}_d{d}", "weak_learner", None, None, None,
                "weak_completeness", 5.0, 5.0 - comp_fail, None,
                passed=comp_fail <= 5),
            Row(f"null_n{n}_d{d}", "weak_learner", None, None, None,
                "weak_soundness", 0.0, -float(sound_fail), None,
                passed=sound_fail == 0)]
    return rows, {"completeness_failures": comp_fail,
                  "null_accepts": null_accepts,
                  "soundness_failures": sound_fail}


# ---------------------------------------------------------------------------
# Criterion 4: realizable recovery (GLMtron and Isotron)
# ---------------------------------------------------------------------------


@_criterion(4, "realizable recovery", 120.0)
def criterion_4(seed):
    spec = synth.MarginalSpec("standard_gaussian", 5)
    w = synth.planted_direction(5, 2.0, seed + 31)
    ds = synth.make_dataset(spec, synth.LabelModel(tuple(w), "sigmoid"),
                            10_000, seed + 32)
    glm = config.train_learner(_learner("glmtron", 2.0, activation="sigmoid"),
                               ds)
    err_glm = learners.squared_error(glm.predict(ds.features), ds.labels)

    spec_r = synth.MarginalSpec("standard_gaussian", 3)
    wr = synth.planted_direction(3, 1.0, seed + 33)
    dsr = synth.make_dataset(spec_r, synth.LabelModel(tuple(wr),
                                                      "identity_clamped"),
                             4_000, seed + 34)
    iso = config.train_learner(_learner("isotron", 1.0, iters=100), dsr)
    err_iso = learners.squared_error(iso.predict(dsr.features), dsr.labels)
    return [Row("realizable_sigmoid_d5", "glmtron", 0.0, err_glm, None,
                "realizable_recovery", 1e-3, 1e-3 - err_glm, None,
                passed=err_glm <= 1e-3, converged=glm.converged),
            Row("realizable_ramp_d3", "isotron", 0.0, err_iso, None,
                "realizable_recovery", 1e-2, 1e-2 - err_iso, None,
                passed=err_iso <= 1e-2, converged=iso.converged)], {}


# ---------------------------------------------------------------------------
# Criterion 5: bi-Lipschitz squared-error transfer on planted instances
# ---------------------------------------------------------------------------


# eps_hat over seeds 1-20, 777, 20250: at most 1.1e-5 trained; at least
# 3.1e-3 for a constant 0.5 and 4.6e-5 for a fit to shuffled labels
PREMISE_EPS_5 = 2e-5


@_criterion(5, "bi-Lipschitz transfer", 300.0)
def criterion_5(seed):
    spec = synth.MarginalSpec("standard_gaussian", 4, scale=0.35,
                              augment_constant=True)
    opts = [("opt0", synth.Corruption("none")),
            ("opt.04", synth.Corruption("constant_override", mass=0.12,
                                        value=0.05))]
    units = []
    for act_tag, cw in [("identity", 0.5), ("leaky_relu(0.1)", 0.0)]:
        w = synth.planted_direction(5, math.sqrt(0.35 ** 2 + cw ** 2),
                                    seed + 41, constant_weight=cw)
        entry = _learner("matching_gd", float(np.linalg.norm(w)) + 0.1,
                         activation=act_tag)
        units += [config.Unit(
            f"{act_tag}_{opt_name}", spec,
            synth.LabelModel(tuple(w), act_tag, corruption=corr), 20_000,
            100_000, seed + 42, entry, [("bilipschitz", (act_tag,))], None)
            for opt_name, corr in opts]
    return _run_table(units, premise_eps=PREMISE_EPS_5), {}


# ---------------------------------------------------------------------------
# Criterion 6: sqrt-opt suite for the omnipredictor
# ---------------------------------------------------------------------------

# 6.4 times the largest opt0-row err2 (7.8e-5) and about a tenth of the least
# per-seed largest corrupted-row err2 (4.9e-3), over seeds 1-20, 777, 20250
SIM_SUITE_EPS = 5e-4


@_criterion(6, "sqrt-opt omnipredictor suite", 900.0)
def criterion_6(seed):
    B = 2.0
    marginals = [("gaussian", synth.MarginalSpec("standard_gaussian", 5,
                                                 augment_constant=True)),
                 ("ball", synth.MarginalSpec("uniform_ball", 5,
                                             augment_constant=True)),
                 ("laplace", synth.MarginalSpec("laplace_product", 5,
                                                scale=2 ** -0.5,
                                                augment_constant=True))]
    opts = [("opt0", synth.Corruption("none")),
            ("opt.01", synth.Corruption("constant_override", mass=0.012,
                                        value=0.0)),
            ("opt.09", synth.Corruption("constant_override", mass=0.11,
                                        value=0.0))]
    w = synth.planted_direction(6, B, seed + 61, constant_weight=0.2)
    return _run_table([config.Unit(
        f"{mname}_{oname}", spec,
        synth.LabelModel(tuple(w), "sigmoid", corruption=corr), 20_000,
        50_000, seed + 62, _learner("omnipredictor", B), [("sim_sqrt", ())],
        SIM_SUITE_EPS)
        for mname, spec in marginals for oname, corr in opts],
        lambda chk: chk.extras["c_needed"] <= transfer.SIM_C), {}


# ---------------------------------------------------------------------------
# Criterion 7: simultaneous matching-loss optimality across registered pairs
# ---------------------------------------------------------------------------

SIMULTANEITY_EPS = 0.05


@_criterion(7, "omnipredictor simultaneity", 300.0)
def criterion_7(seed):
    """One omnipredictor, with a premise check per registered pair."""
    B = 2.0
    w = synth.planted_direction(6, B, seed + 71, constant_weight=0.2)
    return _run_table([config.Unit(
        "realizable_sigmoid",
        synth.MarginalSpec("standard_gaussian", 5, augment_constant=True),
        synth.LabelModel(tuple(w), "sigmoid"), 30_000, 20_000, seed + 72,
        _learner("omnipredictor", B, name="omni"),
        [("premise", (pair.tag,))
         for pair in fenchel.default_registered_pairs()],
        SIMULTANEITY_EPS)]), {}


# ---------------------------------------------------------------------------
# Criterion 8: p-concept disagreement equals absolute error
# ---------------------------------------------------------------------------


@_criterion(8, "p-concept identity", 30.0)
def criterion_8(seed):
    rows = []
    spec = synth.MarginalSpec("laplace_product", 4, scale=2 ** -0.5)
    w = synth.planted_direction(4, 10.0, seed + 81)
    model = synth.LabelModel(tuple(w), "sigmoid", label_space="binary")
    train = synth.make_dataset(spec, model, 20_000, seed + 82)
    ev = synth.make_dataset(spec, model, 100_000, seed + 83)
    pred = config.train_learner(_learner("logistic", 10.0), train)

    gauss = synth.MarginalSpec("standard_gaussian", 3)
    coin = synth.Dataset(
        synth.sample_marginal(gauss, 100_000, seed + 84),
        (np.random.default_rng(np.random.SeedSequence([seed, 85]))
         .random(100_000) < 0.5).astype(float), "binary", seed + 85)
    zeros = synth.Dataset(synth.sample_marginal(gauss, 50_000, seed + 86),
                          np.zeros(50_000), "binary", seed + 86)
    cases = [("planted_sigmoid", pred, ev),
             ("coin_labels", learners.ConstantPredictor(0.5), coin),
             ("all_zero", learners.ConstantPredictor(0.0), zeros)]
    for name, predictor, ds in cases:
        chk = transfer.pconcept_disagreement(predictor.predict(ds.features),
                                             ds, seed=seed + 87)
        rows.append(Row(name, "pconcept", None, None, chk.params["err1"],
                        chk.theorem_tag, chk.rhs, chk.slack, None,
                        passed=chk.passed, converged=predictor.converged))
    return rows, {}


# ---------------------------------------------------------------------------
# Criterion 9: logistic squared/absolute bound formulas
# ---------------------------------------------------------------------------


def _rhs_matches_decimal(chk):
    """Whether a logistic check's ``rhs`` agrees, to 1e-12 relative, with
    its bound formula evaluated independently in 40-digit decimals."""
    squared = chk.theorem_tag == "logistic_squared_transfer"
    opt = chk.params["opt_hat" if squared else "opt1_hat"]
    with localcontext() as ctx:
        ctx.prec = 40
        opt = Decimal(max(opt, transfer.OPT_FLOOR))
        B, C = Decimal(chk.params["B"]), Decimal(chk.params["C"])
        eps = Decimal(chk.params["eps_hat"])
        log_inv = (1 / opt).ln()
        if squared:
            exact = C * opt * (B * B + (B * B * log_inv).sqrt()).exp() + 2 * eps
        else:
            exact = C * B * opt * log_inv + eps
        return abs(Decimal(chk.rhs) - exact) <= Decimal("1e-12") * exact


# eps_hat over seeds 1-20, 777, 20250: at most 2.7e-4 trained; at least
# 1.2e-3 for a constant 0.5 and 9.1e-4 for a fit to shuffled labels
PREMISE_EPS_9 = 8e-4


@_criterion(9, "logistic bound formulas", 300.0)
def criterion_9(seed):
    n_train, n_eval = 20_000, 100_000

    # squared-error side: subgaussian marginal, interval labels
    spec = synth.MarginalSpec("standard_gaussian", 4, scale=2 ** -0.5)
    w = synth.planted_direction(4, 1.0, seed + 91)
    rows = _run_table(
        [config.Unit(f"gauss_{nm}", spec, synth.LabelModel(
            tuple(w), "sigmoid", corruption=synth.Corruption(
                "constant_override", mass=mass, value=0.0)),
            n_train, n_eval, seed + 92, _learner("logistic", 1.0),
            [("logistic_squared", ())], None)
         for mass, nm in [(0.016, "opt.01"), (0.16, "opt.1")]],
        lambda chk: (chk.extras.get("tail_pass", True)
                     and _rhs_matches_decimal(chk)), PREMISE_EPS_9)

    # closed-form Gaussian tail spot check at r=2, B=1
    s_planted = math.sqrt(0.5)  # score std: ||w*|| = 1 on a var-1/2 marginal
    xg = synth.sample_marginal(spec, n_eval, seed + 95)
    sc = xg @ w
    vals = np.exp(np.abs(sc)) * (np.abs(sc) > 2.0)
    mc = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(n_eval)
    oracle = transfer.gaussian_abs_exp_tail(2.0, s_planted ** 2)
    rows.append(Row("gauss_tail_r2", "oracle", None, None, None,
                    "gaussian_tail_oracle", oracle + 3.0 * se,
                    oracle + 3.0 * se - mc, None,
                    passed=mc <= oracle + 3.0 * se))

    # absolute-error side: subexponential marginal, binary labels
    spec2 = synth.MarginalSpec("laplace_product", 4, scale=2 ** -0.5)
    abs_cases = [(10.0, synth.Corruption("none"), "opt.1"),
                 (100.0, synth.Corruption("none"), "opt.01"),
                 (10.0, synth.Corruption("flip_region", mass=0.05), "flip.05")]
    # c_needed <= 20 is a regression guard, not a derived constant
    return rows + _run_table(
        [config.Unit(f"laplace_{nm}", spec2, synth.LabelModel(
            tuple(synth.planted_direction(4, B, seed + 96)), "sigmoid",
            label_space="binary", corruption=corr),
            n_train, n_eval, seed + 97, _learner("logistic", B),
            [("logistic_absolute", ())], None)
         for B, corr, nm in abs_cases],
        lambda chk: (_rhs_matches_decimal(chk)
                     and chk.extras["c_needed"] <= 20.0), PREMISE_EPS_9), {}


# ---------------------------------------------------------------------------
# Criterion 10: determinism of the verify artifact
# ---------------------------------------------------------------------------


def criterion_10(seed, prior_results):
    """Re-run a cheap full-stack probe and compare CSV bytes.

    The full double-run comparison (including a fresh process) lives in the
    test suite; here criteria 1, 2 and 8 are recomputed in-process and their
    rows must reproduce bit-identically the ones in ``prior_results``, and
    the CSV of all of ``prior_results`` must survive a render -> parse ->
    render round trip.
    """
    t0 = time.time()
    prior = {r.number: r for r in prior_results}
    ok = all(rows_to_csv(prior[k].rows) == rows_to_csv(CRITERIA[k](seed).rows)
             for k in (1, 2, 8))
    text = results_csv(prior_results)
    try:
        parsed = [parse_row(line) for line in text.split("\n")[1:-1]]
        ok &= rows_to_csv(parsed) == text
    except ConfigError:
        ok = False
    rows = [Row("probe_1_2_8", "verify", None, None, None,
                "artifact_determinism", 1.0, 1.0 if ok else -1.0, None,
                passed=ok)]
    return CriterionResult.of(10, "artifact determinism", t0, 60.0, rows, {})


def run_all(seed=DEFAULT_SEED):
    """All criteria in order; criterion 10 sees the earlier results."""
    results = [CRITERIA[k](seed) for k in sorted(CRITERIA)]
    results.append(criterion_10(seed, prior_results=results))
    return results
