"""Acceptance gate: every criterion at its stated tolerance and budget.

The suite is computed once per session; each test asserts one criterion and
prints its pass/fail summary line.  The final test re-runs the whole suite
through the installed command-line entry point in a fresh process and
requires a byte-identical CSV artifact.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from simlearn import acceptance, learners, synth, transfer
from simlearn.errors import InvalidInputError

SEED = acceptance.DEFAULT_SEED


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
    assert res.details["c_report"] <= transfer.SIM_C


def test_criterion_07_simultaneity(suite):
    res = suite[7]
    _assert_criterion(res)
    assert res.details["max_eps_report"] <= acceptance.SIMULTANEITY_EPS


def test_criterion_08_pconcept(suite):
    _assert_criterion(suite[8])


def test_criterion_08_fails_when_disagreement_leaves_err1(monkeypatch):
    # shift one side of the identity by 0.05, far beyond three standard
    # errors (about 0.003 at 100,000 draws)
    disagreement = transfer.pconcept_disagreement

    def shifted(*args, **kwargs):
        rep = disagreement(*args, **kwargs)
        rep.disagreement += 0.05
        return rep

    monkeypatch.setattr(transfer, "pconcept_disagreement", shifted)
    res = acceptance.criterion_8(SEED)
    assert not res.passed
    assert all(row.slack < 0.0 for row in res.rows)


def test_criterion_09_logistic_formulas(suite):
    res = suite[9]
    _assert_criterion(res)
    assert res.details["c_report_absolute"] <= 20.0


def test_seed_override_changes_draws_not_outcomes():
    # a different base seed permutes every Monte-Carlo draw; outcomes hold
    other = SEED + 9091
    for num in (3, 4, 8):
        res = acceptance.CRITERIA[num](other)
        assert res.passed, (num, res.details)


def test_criterion_07_fails_for_a_constant_predictor(monkeypatch):
    # predicting 0.5 everywhere is far from optimal for every pair
    monkeypatch.setattr(learners, "train_omnipredictor",
                        lambda *_, **__: learners.ConstantPredictor(0.5))
    res = acceptance.criterion_7(SEED)
    assert not res.passed
    assert res.details["max_eps_report"] > acceptance.SIMULTANEITY_EPS


def test_criterion_03_fails_when_the_weak_learner_accepts_anything(
        monkeypatch):
    # a fixed direction orthogonal to the planted feature: every accepted
    # vector fails the fresh-sample soundness test
    w = np.eye(10)[1]
    monkeypatch.setattr(learners, "weak_learn", lambda *_, **__:
                        learners.LinearWeakLearnerResult(True, w, 1.0))
    res = acceptance.criterion_3(SEED)
    assert not res.passed
    assert res.details["soundness_failures"] == 60


def test_criterion_04_fails_with_a_constant_activation_fit(monkeypatch):
    monkeypatch.setattr(learners, "lipschitz_isotonic_fit",
                        lambda t, y: np.full(len(y), np.mean(y)))
    res = acceptance.criterion_4(SEED)
    assert not res.passed
    assert res.details["isotron_err2"] > 1e-2


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


def test_criterion_05_names_nonconverged_learners(suite, monkeypatch):
    train = learners.train_matching_gd

    def unconverged(*args, **kwargs):
        pred = train(*args, **kwargs)
        pred.converged = False
        return pred

    monkeypatch.setattr(learners, "train_matching_gd", unconverged)
    res = acceptance.criterion_5(SEED)
    assert suite[5].details["nonconverged"] == []
    assert res.details["nonconverged"] == [row.instance for row in res.rows]
    assert "nonconverged: identity_opt0, identity_opt.04" in res.summary()
    # the flag is reported, not gated, and the rows keep their bytes
    assert res.passed == suite[5].passed
    assert acceptance.rows_to_csv(res.rows) \
        == acceptance.rows_to_csv(suite[5].rows)


def _squared_without_sqrt_term(opt_hat, B, C, eps_hat):
    return C * opt_hat * math.exp(B ** 2) + 2.0 * eps_hat


def _absolute_without_eps(opt_hat, B, C, eps_hat):
    return C * B * opt_hat * math.log(1.0 / opt_hat)


@pytest.mark.parametrize("name, broken", [
    ("logistic_squared_rhs", _squared_without_sqrt_term),
    ("logistic_absolute_rhs", _absolute_without_eps),
])
def test_criterion_09_fails_on_a_broken_bound_formula(monkeypatch, name,
                                                      broken):
    # the checks compute rhs through the module function; criterion 9
    # re-evaluates the stated formula in decimal arithmetic
    monkeypatch.setattr(transfer, name, broken)
    assert not acceptance.criterion_9(SEED).passed


def test_criterion_10_fails_on_a_broken_row_renderer(monkeypatch):
    prior = [acceptance.CRITERIA[k](SEED) for k in (1, 2, 8)]
    assert acceptance.criterion_10(SEED, prior_results=prior).passed
    render = acceptance.Row.render
    # a renderer that drops the last column: the CSV no longer parses back
    monkeypatch.setattr(acceptance.Row, "render",
                        lambda row: render(row).rsplit(",", 1)[0])
    assert not acceptance.criterion_10(SEED, prior_results=prior).passed


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
