"""Self-tests of the benchmark: the tracer, its counters and the checks.

    python3 -m pytest perfbench/tests -q

The exact-count test runs criteria 4 and 7 traced (about a minute).  Its
counts describe the program at the commit that defined the benchmark; a
change that removes the work they count (the premise scan, the Dykstra
isotonic fit) changes them on purpose.
"""

import dataclasses
import json

import pytest

import run
import tracer as tracing
import workloads
from simlearn import acceptance

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = dict(n_train=3_000, n_eval=3_000, n_seeds=1)


def traced(fn):
    t = tracing.Tracer()
    tracing.install_simlearn(t)
    root = t.begin("workload.test")
    try:
        out = fn()
    finally:
        t.end(root)
        t.uninstall()
    return t, root, out


def small_sweep(tmp_path, seed=5):
    cfg = workloads.sweep_config(seed, **SMALL)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cfg, lambda: workloads.run_sweep(cfg, path, tmp_path / "out.csv")


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(tracing.PER_LAYER.items())
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END.items())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


def test_tracer_restores_every_wrapped_attribute():
    t = tracing.Tracer()
    tracing.install_simlearn(t)
    patched = list(t._patched)
    assert len(patched) > 30
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is not original
    t.uninstall()
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original


def test_tracer_restores_attributes_when_the_pass_raises():
    from simlearn import learners

    original = vars(learners)["train_glmtron"]
    with pytest.raises(ZeroDivisionError):
        traced(lambda: 1 / 0)
    assert vars(learners)["train_glmtron"] is original


def test_self_times_account_for_the_traced_wall_time(tmp_path):
    _, run_sweep = small_sweep(tmp_path)
    t, root, _ = traced(run_sweep)
    totals = t.totals()
    wall = totals["workload.test"][1]
    assert sum(own for _, _, own in totals.values()) == pytest.approx(wall)
    metrics = tracing.span_metrics(t, root)
    assert metrics["trace.unattributed_s"] < 0.05 * wall
    # every span of a unit carries that unit's span as its run identifier
    units = [i for i, s in enumerate(t.spans) if s[0] == "cli.unit"]
    assert len(units) == metrics["cli.units"] == 9
    for name, _, _, parent, run_id in t.spans:
        if parent >= 0 and t.spans[parent][0] != "workload.test":
            assert run_id in units


def test_two_traced_runs_give_identical_counters(tmp_path):
    _, run_sweep = small_sweep(tmp_path)
    first, _, out1 = traced(run_sweep)
    second, _, out2 = traced(run_sweep)
    assert first.counters == second.counters
    calls = {n: c for n, (c, _, _) in first.totals().items()}
    assert calls == {n: c for n, (c, _, _) in second.totals().items()}
    assert out1["digest"] == out2["digest"] and out1["failures"] == []
    assert first.counters["synth.sample_marginal.rows"] == 9 * 2 * 3_000


def test_tracing_leaves_the_bytes_unchanged(tmp_path):
    _, run_sweep = small_sweep(tmp_path)
    _, _, out = traced(run_sweep)
    assert run_sweep()["digest"] == out["digest"]


def test_exact_counts_at_the_default_seed():
    t4, _, res4 = traced(lambda: acceptance.criterion_4(20250))
    assert res4.passed
    assert t4.totals()["learners.isotonic_regression"][0] == 308_344
    t7, root, res7 = traced(lambda: acceptance.criterion_7(20250))
    assert res7.passed
    assert t7.counters["fenchel.g.elements"] == pytest.approx(1.0e9, rel=0.01)
    metrics = tracing.span_metrics(t7, root)
    assert metrics["transfer.measure_premise.calls"] == 5
    assert metrics["transfer.premise.random_win_ratio"] == pytest.approx(0.8)


def test_injected_csv_byte_change_raises_fail_ratio(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SEEN_DIGESTS", tmp_path / "seen.json")
    cfg, run_sweep = small_sweep(tmp_path)
    clean = run_sweep()
    assert run.tally("sweep", 1, [clean, clean]) == (20, 0)
    text = (tmp_path / "out.csv").read_text()
    i = text.index("\n") + text[text.index("\n"):].index(",0.") + 3
    changed = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    assert workloads.sweep_failures(changed, cfg) == []
    altered = dict(clean, digest=workloads.digest(changed))
    assert run.tally("sweep", 1, [altered]) == (10, 1)


def test_changed_sources_may_change_the_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SEEN_DIGESTS", tmp_path / "seen.json")
    monkeypatch.setattr(run, "source_key", lambda: "a" * 64)
    first = {"units": 1, "failures": [], "digest": "d1"}
    other = dict(first, digest="d2")
    assert run.tally("verify", 1, [first]) == (2, 0)
    # the same sources giving other bytes fail; other sources may
    assert run.tally("verify", 1, [other]) == (2, 1)
    monkeypatch.setattr(run, "source_key", lambda: "b" * 64)
    assert run.tally("verify", 1, [other]) == (2, 0)
    assert run.tally("verify", 1, [first]) == (2, 1)


def test_source_key_follows_the_sources(tmp_path, monkeypatch):
    key = run.source_key()
    src = tmp_path / "src" / "simlearn"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    before = run.source_key()
    (src / "a.py").write_text("x = 2\n")
    assert run.source_key() not in (before, key)


def test_failed_criterion_raises_fail_ratio(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SEEN_DIGESTS", tmp_path / "seen.json")
    res = acceptance.criterion_1(20250)
    assert workloads.verify_failures([res]) == []
    broken = dataclasses.replace(res, passed=False)
    failures = workloads.verify_failures([res, broken])
    assert len(failures) == 1
    p = {"units": 2, "failures": failures, "digest": "d"}
    attempted, failed = run.tally("verify", 1, [p])
    assert failed / attempted == pytest.approx(1 / 3)


def _inapplicable(row):
    return row.replace("sim_sqrt_transfer", "sim_sqrt_inapplicable")


def _non_finite(row):
    parts = row.split(",")
    return ",".join(parts[:3] + ["inf"] + parts[4:])


@pytest.mark.parametrize("edit, reason", [
    (lambda row: None, "rows"),
    (_inapplicable, "inapplicable"),
    (_non_finite, "non-finite"),
])
def test_sweep_checks_fail_a_broken_unit(tmp_path, edit, reason):
    cfg, run_sweep = small_sweep(tmp_path)
    run_sweep()
    header, *rows = (tmp_path / "out.csv").read_text().rstrip("\n").split("\n")
    i = next(i for i, row in enumerate(rows) if "sim_sqrt_transfer" in row)
    rows[i] = edit(rows[i])
    broken = "\n".join([header] + [r for r in rows if r is not None]) + "\n"
    failures = workloads.sweep_failures(broken, cfg)
    assert len(failures) == 1 and reason in failures[0]
