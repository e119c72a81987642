"""Acceptance gate: every criterion at its stated tolerance and budget.

The suite is computed once per session; each test asserts one criterion and
prints its pass/fail summary line.  The final test re-runs the whole suite
through the installed command-line entry point in a fresh process and
requires a byte-identical CSV artifact.
"""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from simlearn import acceptance, config, fenchel, learners, synth, transfer
from simlearn.errors import InvalidInputError

SEED = acceptance.DEFAULT_SEED
SRC = Path(acceptance.__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def suite():
    results = {}
    for num in sorted(acceptance.CRITERIA):
        results[num] = acceptance.CRITERIA[num](SEED)
    results[10] = acceptance.criterion_10(
        SEED, prior_results=[results[k] for k in sorted(results)])
    return results


def _assert_criterion(res):
    print()
    print(res.summary())
    for row in res.rows:
        print("   ", row.render())
    assert res.passed, res.details
    assert res.runtime_s <= res.budget_s, (
        f"runtime {res.runtime_s:.1f}s over budget {res.budget_s}s")


# number -> (name, budget_s) of each criterion
REGISTERED = {1: ("distortion sandwiches", 5.0), 2: ("link duality", 5.0),
              3: ("weak learner trials", 60.0),
              4: ("realizable recovery", 120.0),
              5: ("bi-Lipschitz transfer", 300.0),
              6: ("sqrt-opt omnipredictor suite", 900.0),
              7: ("omnipredictor simultaneity", 300.0),
              8: ("p-concept identity", 30.0),
              9: ("logistic bound formulas", 300.0),
              10: ("artifact determinism", 60.0)}


def test_every_criterion_is_registered_under_its_number(suite):
    assert sorted(acceptance.CRITERIA) == list(range(1, 10))
    assert {k: (res.number, res.name, res.budget_s)
            for k, res in suite.items()} \
        == {k: (k, *named) for k, named in REGISTERED.items()}


def test_criterion_01_distortion_sandwiches(suite):
    _assert_criterion(suite[1])


def test_criterion_02_link_duality(suite):
    _assert_criterion(suite[2])


def test_criterion_03_weak_learner(suite):
    _assert_criterion(suite[3])


def test_criterion_04_realizable_recovery(suite):
    _assert_criterion(suite[4])


def test_criterion_05_bilipschitz_transfer(suite):
    _assert_criterion(suite[5])


def test_criterion_06_sqrt_opt_suite(suite):
    res = suite[6]
    _assert_criterion(res)
    assert max(row.c_report for row in res.rows) <= transfer.SIM_C


def test_criterion_07_simultaneity(suite):
    res = suite[7]
    _assert_criterion(res)
    assert max(row.c_report for row in res.rows) <= acceptance.SIMULTANEITY_EPS


def test_criterion_07_fails_when_a_comparator_is_uncertified(monkeypatch):
    # a comparator that misses its certificate proves no premise gap
    fit = learners.train_matching_gd
    uncertified = "perturbed(identity_clamped,0.05)"

    def unconverged(dataset, pair, B):
        pred = fit(dataset, pair, B)
        pred.converged &= pair.tag != uncertified
        return pred

    monkeypatch.setattr(learners, "train_matching_gd", unconverged)
    res = acceptance.criterion_7(SEED)
    assert not res.passed
    slacks = {row.learner: row.slack for row in res.rows}
    assert slacks.pop(f"omni/{uncertified}") == -math.inf
    assert all(0.0 <= slack < math.inf for slack in slacks.values())


def test_criterion_07_fails_on_a_failed_registration_gate(monkeypatch):
    # the bounded-link premise of a pair gates that pair's row only
    gate = fenchel.registration_gate

    def failing(pair):
        res = gate(pair)
        return dataclasses.replace(res, violated="upper") \
            if pair.tag == "sigmoid" else res

    monkeypatch.setattr(fenchel, "registration_gate", failing)
    res = acceptance.criterion_7(SEED)
    assert not res.passed
    assert res.details["failed"] == [
        ("realizable_sigmoid", "omni/sigmoid", "omni_simultaneity")]
    assert "(criterion failed) failed: " \
        "realizable_sigmoid:omni/sigmoid:omni_simultaneity" in res.summary()


def _dynamic_openblas():
    """Whether NumPy's BLAS is an OpenBLAS that picks its kernels at run
    time, so that ``OPENBLAS_CORETYPE`` can force one."""
    try:    # mode="dicts" is NumPy 1.26 and later
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:
        return False
    blas = deps.get("blas", {})
    return "openblas" in blas.get("name", "") \
        and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_has(flag):
    try:
        with open("/proc/cpuinfo") as fh:
            return flag in fh.read().split()
    except OSError:
        return False


@pytest.mark.parametrize("kernel, flag", [("Haswell", "avx2"),
                                          ("Sandybridge", "avx")],
                         ids=["Haswell", "Sandybridge"])
def test_criteria_07_and_09_pass_on_an_older_kernel(kernel, flag):
    # OpenBLAS's older kernels round the matching losses differently from
    # others; under Haswell's, the ball minimisers of criterion 7 at seed
    # 20250 and criterion 9 at seed 1 used to halve their steps to the
    # Newton cap. Criterion 7's ramp comparator must halve none
    if not (_cpu_has(flag) and _dynamic_openblas()):
        pytest.skip(f"needs a DYNAMIC_ARCH OpenBLAS and a CPU with {flag}")
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        from simlearn import acceptance, learners
        fits, fit = {{}}, learners.train_matching_gd

        def recording(dataset, pair, B):
            fits[pair.tag] = fit(dataset, pair, B)
            return fits[pair.tag]

        learners.train_matching_gd = recording
        passed_7 = acceptance.criterion_7(20250).passed
        ramp = fits["perturbed(identity_clamped,0.05)"]
        print(passed_7, acceptance.criterion_9(1).passed,
              all(step["step"] == 1.0 for step in ramp.trace[1:]))
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600,
                          env=dict(os.environ, OPENBLAS_CORETYPE=kernel))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]


def test_criterion_07_ramp_comparator_takes_full_newton_steps(monkeypatch):
    # near its minimiser a full Newton step lowers the ramp's loss by less
    # than its rounding; an integral g that rounds upward there failed the
    # Armijo test and halved 11 of its 16 steps
    fits = {}
    fit = learners.train_matching_gd

    def recording(dataset, pair, B):
        fits[pair.tag] = fit(dataset, pair, B)
        return fits[pair.tag]

    monkeypatch.setattr(learners, "train_matching_gd", recording)
    assert acceptance.criterion_7(SEED).passed
    ramp = fits["perturbed(identity_clamped,0.05)"]
    assert ramp.converged and len(ramp.trace) - 1 <= 6
    assert all(step["step"] == 1.0 for step in ramp.trace[1:])


def test_criterion_08_pconcept(suite):
    _assert_criterion(suite[8])


def test_criterion_08_fails_when_disagreement_leaves_err1(monkeypatch):
    # shift one side of the identity by 0.05, far beyond three standard
    # errors (about 0.003 at 100,000 draws)
    disagreement = transfer.pconcept_disagreement

    def shifted(*args, **kwargs):
        chk = disagreement(*args, **kwargs)
        gap = abs(chk.params["disagreement"] + 0.05 - chk.params["err1"])
        return dataclasses.replace(chk, lhs=gap, slack=chk.rhs - gap,
                                   passed=gap <= chk.rhs)

    monkeypatch.setattr(transfer, "pconcept_disagreement", shifted)
    res = acceptance.criterion_8(SEED)
    assert not res.passed
    assert all(row.slack < 0.0 for row in res.rows)


def test_criterion_09_logistic_formulas(suite):
    res = suite[9]
    _assert_criterion(res)
    assert max(row.c_report for row in res.rows
               if row.theorem == "logistic_absolute_transfer") <= 20.0


def test_criterion_09_fails_when_the_tail_check_fails(monkeypatch):
    # transfer.CHECKS looks the check up at call time
    check = transfer.check_logistic_squared

    def tail_fails(*args, **kwargs):
        chk = check(*args, **kwargs)
        chk.extras["tail_pass"] = False
        return chk

    monkeypatch.setattr(transfer, "check_logistic_squared", tail_fails)
    res = acceptance.criterion_9(SEED)
    assert not res.passed
    assert res.details["failed"] == [
        (f"gauss_{name}", "logistic", "logistic_squared_transfer")
        for name in ("opt.01", "opt.1")]


def test_vacuous_rows_are_named(suite):
    # err2 and err1 lie in [0, 1], so a row that bounds one of them by an
    # rhs of at least 1 cannot fail; the CSV does not mark them
    vacuous = {number: res.details["vacuous"]
               for number, res in suite.items() if res.details["vacuous"]}
    assert vacuous == {
        6: [(f"{marginal}_{opt}", "omnipredictor", "sim_sqrt_transfer")
            for marginal in ("gaussian", "ball", "laplace")
            for opt in ("opt.01", "opt.09")],
        9: [("gauss_opt.1", "logistic", "logistic_squared_transfer")]
        + [(f"laplace_{name}", "logistic", "logistic_absolute_transfer")
           for name in ("opt.1", "opt.01", "flip.05")]}


def _assert_verdict_is_rows(res):
    assert res.passed == all(row.passed for row in res.rows)
    assert res.details["failed"] == [(row.instance, row.learner, row.theorem)
                                     for row in res.rows if not row.passed]


def test_a_criterion_passes_when_its_rows_pass(suite):
    for res in suite.values():
        _assert_verdict_is_rows(res)


def test_seed_override_changes_draws_not_outcomes():
    # a different base seed permutes every Monte-Carlo draw; outcomes hold
    other = SEED + 9091
    for num in (3, 4, 8):
        res = acceptance.CRITERIA[num](other)
        assert res.passed, (num, res.details)


def test_planted_correlation_is_the_gaussian_integral():
    # E[x clip(x, -1, 1)] for x ~ N(0, 1), by quadrature
    value, _ = quad(lambda x: x * np.clip(x, -1.0, 1.0)
                    * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
                    -math.inf, math.inf)
    assert abs(acceptance.PLANTED_CORRELATION - value) <= 1e-12


def test_criterion_03_fails_when_the_weak_learner_accepts_anything(
        monkeypatch):
    # a fixed direction orthogonal to the planted feature: every accepted
    # vector has population correlation 0 and fails soundness
    w = np.eye(10)[1]
    monkeypatch.setattr(learners, "weak_learn", lambda *_, **__:
                        learners.LinearWeakLearnerResult(True, w, 1.0))
    res = acceptance.criterion_3(SEED)
    assert not res.passed
    assert res.details["soundness_failures"] == 60


def test_criterion_03_fails_when_the_weak_learner_negates_its_output(
        monkeypatch):
    # every planted trial accepts, and -w has correlation -w_1 * 0.68 < 0;
    # the null trials reject, as unfaulted
    weak_learn = learners.weak_learn

    def negated(*args, **kwargs):
        res = weak_learn(*args, **kwargs)
        if res.accepted:
            res.w = -res.w
        return res

    monkeypatch.setattr(learners, "weak_learn", negated)
    res = acceptance.criterion_3(SEED)
    assert not res.passed
    assert res.details["completeness_failures"] == 0
    assert res.details["null_accepts"] == 0
    assert res.details["soundness_failures"] == 30


def test_criterion_03_draws_one_sample_per_trial_for_both_arms(monkeypatch):
    sample_marginal, weak_learn = synth.sample_marginal, learners.weak_learn
    seeds, samples, features = [], [], []

    def sample(spec, n, seed):
        seeds.append(seed)
        samples.append(sample_marginal(spec, n, seed))
        return samples[-1]

    def learn(x, *args, **kwargs):
        features.append(x)
        return weak_learn(x, *args, **kwargs)

    monkeypatch.setattr(synth, "sample_marginal", sample)
    monkeypatch.setattr(learners, "weak_learn", learn)
    assert acceptance.criterion_3(SEED).passed
    assert seeds == [SEED + 1000 + trial for trial in range(30)]
    assert len(features) == 60
    for x in samples:
        assert sum(f is x for f in features) == 2


def test_criterion_03_fails_when_the_weak_learner_accepts_every_coin(
        monkeypatch):
    # the null arm's coins are +-1 everywhere, the planted clip(x_1) is not:
    # only the null arm is faulted, and each of its accepts is unsound
    weak_learn = learners.weak_learn

    def accepts_coins(x, z, *args, **kwargs):
        res = weak_learn(x, z, *args, **kwargs)
        if np.all(np.abs(z) == 1.0):
            res.accepted = True
        return res

    monkeypatch.setattr(learners, "weak_learn", accepts_coins)
    res = acceptance.criterion_3(SEED)
    assert not res.passed
    assert res.details["completeness_failures"] == 0
    assert res.details["null_accepts"] == 30
    assert res.details["soundness_failures"] == 30


def test_criterion_04_fails_with_a_constant_activation_fit(monkeypatch):
    monkeypatch.setattr(learners, "lipschitz_isotonic_fit",
                        lambda t, y: np.full(len(y), np.mean(y)))
    res = acceptance.criterion_4(SEED)
    assert not res.passed
    assert {row.learner: row.err2 for row in res.rows}["isotron"] > 1e-2


@pytest.mark.parametrize("number", [5, 6])
def test_transfer_criteria_fail_when_opt_hat_drops_the_corruption(
        monkeypatch, number):
    generate = synth.generate_labels
    monkeypatch.setattr(synth, "generate_labels",
                        lambda *args: (generate(*args)[0], 0.0))
    assert not acceptance.CRITERIA[number](SEED).passed


def test_criterion_05_writes_an_inapplicable_row(monkeypatch):
    def inapplicable(*_, **__):
        raise InvalidInputError("not applicable here")

    monkeypatch.setattr(transfer, "check_bilipschitz_transfer", inapplicable)
    res = acceptance.criterion_5(SEED)
    assert not res.passed
    assert {row.theorem for row in res.rows} == {"bilipschitz_inapplicable"}
    assert all(row.slack == -1.0 and row.err2 is not None for row in res.rows)


@pytest.mark.parametrize("number", [5, 8, 9])
def test_matching_loss_fits_are_certified(suite, number):
    # every train_matching_gd/train_logistic fit of these criteria meets
    # the Frank-Wolfe gap certificate, so none is named (reported, not
    # gated)
    assert suite[number].details["nonconverged"] == []


@pytest.mark.parametrize("number", [6, 7])
def test_omnipredictor_fits_converge(suite, number):
    # with the ladder step search every omnipredictor fit of these criteria
    # ends by the weak learner's rejection at the default seed
    assert suite[number].details["nonconverged"] == []


def test_criterion_05_names_nonconverged_learners(suite, monkeypatch):
    # the learner only: learners.train_matching_gd also fits the comparator
    # of every premise
    train = config.train_learner

    def unconverged(*args):
        pred = train(*args)
        pred.converged = False
        return pred

    monkeypatch.setattr(config, "train_learner", unconverged)
    res = acceptance.criterion_5(SEED)
    assert suite[5].details["nonconverged"] == []
    assert res.details["nonconverged"] == [
        row.instance for row in res.rows
        if row.theorem == "bilipschitz_transfer"]
    assert "nonconverged: identity_opt0, identity_opt.04" in res.summary()
    # the flag is reported, not gated, and the rows keep their bytes
    assert res.passed == suite[5].passed
    assert acceptance.rows_to_csv(res.rows) \
        == acceptance.rows_to_csv(suite[5].rows)


def test_transfer_criteria_train_once_per_unit(monkeypatch):
    # criteria 4-9 train every learner through config.train_learner: 5, 6
    # and 9 once per unit, 4 its GLMtron and its Isotron, 7 and 8 one each
    calls = []
    train = config.train_learner
    monkeypatch.setattr(config, "train_learner",
                        lambda *args: calls.append(args[0]) or train(*args))
    counts = {}
    for number in (4, 5, 6, 7, 8, 9):
        calls.clear()
        acceptance.CRITERIA[number](SEED)
        counts[number] = len(calls)
    assert counts == {4: 2, 5: 4, 6: 9, 7: 1, 8: 1, 9: 5}


def _alone(unit):
    """The unit's rows from its own draw, as ``synth.make_dataset`` makes it."""
    checked, _ = acceptance.run_unit(
        unit, synth.make_dataset(unit.marginal, unit.model, unit.n_train,
                                 unit.seed),
        synth.make_dataset(unit.marginal, unit.model, unit.n_eval,
                           unit.seed + 1))
    return [row.render() for _, row in checked]


def test_transfer_tables_share_draws_and_keep_their_rows(monkeypatch):
    # criterion 5's four units share one draw and criterion 6's nine share
    # three; every row is the one the unit's own draw gives
    tables, draws = [], []
    run_units, sample = acceptance.run_units, synth.sample_marginal

    def record(units, run):
        results = run_units(units, run)
        tables.append((units, [[row.render() for _, row in checked]
                               for checked, _ in results]))
        return results

    monkeypatch.setattr(acceptance, "run_units", record)
    monkeypatch.setattr(synth, "sample_marginal", lambda *args: (
        draws.append(args) or sample(*args)))
    counts = {}
    for number in (5, 6):
        draws.clear()
        acceptance.CRITERIA[number](SEED)
        counts[number] = len(draws)
    assert counts == {5: 2, 6: 6}
    for units, shared in tables:
        assert shared == [_alone(unit) for unit in units]


def test_criterion_07_is_one_table_unit(monkeypatch):
    # one omnipredictor, one premise check per registered pair, drawn by
    # run_units: one train and one eval sample, no dataset of its own
    tables, draws = [], []
    run_units, sample = acceptance.run_units, synth.sample_marginal

    def record(units, run):
        results = run_units(units, run)
        tables.append((units, [row.render() for checked, _ in results
                               for _, row in checked]))
        return results

    monkeypatch.setattr(acceptance, "run_units", record)
    monkeypatch.setattr(synth, "sample_marginal", lambda *args: (
        draws.append(args) or sample(*args)))
    monkeypatch.setattr(synth, "make_dataset", _never)
    res = acceptance.criterion_7(SEED)
    assert res.passed
    ((units, rows),) = tables
    (unit,) = units
    assert unit.checks == [("premise", (pair.tag,))
                           for pair in fenchel.default_registered_pairs()]
    assert (unit.n_train, unit.n_eval, unit.seed, unit.eps) == (
        30_000, 20_000, SEED + 72, acceptance.SIMULTANEITY_EPS)
    assert [args[2] for args in draws] == [SEED + 72, SEED + 73]
    assert rows == [row.render() for row in res.rows]
    assert all(row.opt_hat == 0.0 and row.err2 is None and row.err1 is None
               for row in res.rows)


def _never(*args, **kwargs):
    raise AssertionError("not called")


def test_a_table_unit_runs_several_checks_in_order():
    # each check's row, in check order, with its <kind>_premise row right
    # after it; a premise check measures no eps_hat, so none follows it
    spec = synth.MarginalSpec("standard_gaussian", 3, scale=2 ** -0.5)
    unit = config.Unit(
        "probe", spec, synth.LabelModel((0.5, 0.0, 0.0), "sigmoid"), 1000,
        1000, 1, acceptance._learner("logistic", 1.0),
        [("logistic_squared", ()), ("premise", ("sigmoid",)),
         ("bilipschitz", ("identity",))], 0.05)
    rows = acceptance._run_table([unit], premise_eps=1.0)
    assert [(row.learner, row.theorem) for row in rows] == [
        ("logistic", "logistic_squared_transfer"),
        ("logistic", "logistic_squared_premise"),
        ("logistic/sigmoid", "omni_simultaneity"),
        ("logistic", "bilipschitz_transfer"),
        ("logistic", "bilipschitz_premise")]
    premise = rows[2]
    assert premise.err2 is None and premise.rhs == 0.05
    assert premise.slack == 0.05 - premise.c_report
    # noiseless sigmoid labels: the planted direction minimises the sigmoid
    # loss on every sample, and the fit and the comparator both recover it
    assert abs(premise.c_report) <= 1e-9 and premise.passed


def test_criterion_03_holds_one_sample_at_a_time():
    # each trial's 8 MB sample is released before the next one is drawn
    tracemalloc.start()
    try:
        assert acceptance.criterion_3(SEED).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_shared_data_is_read_only():
    unit = config.Unit(
        "probe", synth.MarginalSpec("standard_gaussian", 3),
        synth.LabelModel((0.5, 0.0, 0.0), "sigmoid"), 200, 300, 1,
        {"name": "logistic", "algorithm": "logistic", "norm_bound": 1.0},
        [("sim_sqrt", ())], 0.05)
    (datasets,) = acceptance.run_units([unit], lambda u, *data: data)
    for ds in datasets:
        for array in (ds.features, ds.labels):
            with pytest.raises(ValueError):
                array[0, ...] = 0.5


def _squared_without_sqrt_term(opt_hat, B, C, eps_hat):
    return C * opt_hat * math.exp(B ** 2) + 2.0 * eps_hat


def _squared_without_eps(opt_hat, B, C, eps_hat):
    return C * opt_hat * math.exp(
        B ** 2 + math.sqrt(B ** 2 * math.log(1.0 / opt_hat)))


def _absolute_without_eps(opt_hat, B, C, eps_hat):
    return C * B * opt_hat * math.log(1.0 / opt_hat)


@pytest.mark.parametrize("name, broken", [
    ("logistic_squared_rhs", _squared_without_sqrt_term),
    ("logistic_squared_rhs", _squared_without_eps),
    ("logistic_absolute_rhs", _absolute_without_eps),
])
def test_criterion_09_fails_on_a_broken_bound_formula(monkeypatch, name,
                                                      broken):
    # the checks compute rhs through the module function; criterion 9
    # re-evaluates the stated formula in decimal arithmetic
    monkeypatch.setattr(transfer, name, broken)
    assert not acceptance.criterion_9(SEED).passed


def _constant_learner(train):
    return lambda *_, **__: learners.ConstantPredictor(0.5)


def _shuffled_labels(train):
    # one fixed permutation of the training labels: the learner sees the
    # right marginal and label distribution, but no link between them
    def fit(entry, dataset):
        perm = np.random.default_rng(0).permutation(dataset.n)
        return train(entry, dataclasses.replace(
            dataset, labels=dataset.labels[perm]))
    return fit


# (fault, criterion) pairs that fail at the default seed.  A pair enters
# once it fails and never leaves.
FAULTS = {"constant": _constant_learner, "shuffled": _shuffled_labels}
FAULT_PAIRS = [("constant", 4), ("constant", 5), ("constant", 6),
               ("constant", 7), ("constant", 9), ("shuffled", 4),
               ("shuffled", 5), ("shuffled", 6), ("shuffled", 7),
               ("shuffled", 9)]


@pytest.mark.parametrize("fault, number", FAULT_PAIRS,
                         ids=[f"{f}-{n}" for f, n in FAULT_PAIRS])
def test_a_faulty_learner_fails_the_criterion(monkeypatch, fault, number):
    # every learner under test trains through config.train_learner
    monkeypatch.setattr(config, "train_learner",
                        FAULTS[fault](config.train_learner))
    res = acceptance.CRITERIA[number](SEED)
    assert not res.passed
    _assert_verdict_is_rows(res)
    assert res.details["failed"]


def test_criterion_10_fails_on_a_broken_row_renderer(monkeypatch):
    prior = [acceptance.CRITERIA[k](SEED) for k in (1, 2, 8)]
    assert acceptance.criterion_10(SEED, prior_results=prior).passed
    render = acceptance.Row.render
    # a renderer that drops the last column: the CSV no longer parses back
    monkeypatch.setattr(acceptance.Row, "render",
                        lambda row: render(row).rsplit(",", 1)[0])
    assert not acceptance.criterion_10(SEED, prior_results=prior).passed


def test_criterion_10_needs_prior_results():
    # without earlier rows there is nothing to compare, so no pass
    with pytest.raises(TypeError):
        acceptance.criterion_10(SEED)


def test_criterion_10_determinism(suite, tmp_path):
    _assert_criterion(suite[10])
    # a fresh process over the CLI must reproduce the artifact byte for byte
    in_process = acceptance.results_csv([suite[k] for k in sorted(suite)])
    out = tmp_path / "verify.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "simlearn", "verify", "--seed", str(SEED),
         "--out", str(out)],
        capture_output=True, text=True, timeout=1800)
    print(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert out.read_text() == in_process
