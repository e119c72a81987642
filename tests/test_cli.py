import json
import time
from pathlib import Path

import numpy as np
import pytest

from simlearn import acceptance, cli, config, synth, transfer
from simlearn.learners import GlmPredictor, read_predictor, write_predictor


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "data": {
            "marginal": {"kind": "standard_gaussian", "dim": 4},
            "label_model": {"activation": "sigmoid", "norm": 2.0,
                            "direction_seed": 3},
            "n_train": 2000,
            "n_eval": 3000,
        },
        "learners": [
            {"name": "glmtron", "algorithm": "glmtron",
             "activation": "sigmoid", "norm_bound": 2.0, "iters": 80},
        ],
        "pairs": ["identity", "sigmoid"],
        "checks": ["sim_sqrt"],
        "eps": 0.05,
        "seeds": [1],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = str(tmp_path / "data.txt")
    assert cli.main(["gen-data", "--config", cfg_path, "--out", out]) == 0
    ds = synth.load_dataset(out)
    assert ds.n == 2000 and ds.d == 4
    assert ds.label_model is not None


def test_gen_data_bad_config(tmp_path, capsys):
    cfg = base_config()
    cfg["data"]["label_model"]["activation"] = "swish"
    cfg_path = write_config(tmp_path, cfg)
    code = cli.main(["gen-data", "--config", cfg_path,
                     "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "swish" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_predictor_and_report(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    pred_file = out / "glmtron.predictor.txt"
    rep_file = out / "glmtron.report.json"
    assert pred_file.exists() and rep_file.exists()
    report = json.loads(rep_file.read_text())
    assert "err2" in report and 0.0 <= report["err2"] <= 1.0
    pred = read_predictor(pred_file.read_text(), GlmPredictor)
    assert pred.activation_tag == "sigmoid"


def test_train_deterministic_bytes(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["train", "--config", cfg_path, "--out", str(out1), "--seed", "5"])
    cli.main(["train", "--config", cfg_path, "--out", str(out2), "--seed", "5"])
    assert (out1 / "glmtron.predictor.txt").read_bytes() \
        == (out2 / "glmtron.predictor.txt").read_bytes()
    assert (out1 / "glmtron.report.json").read_bytes() \
        == (out2 / "glmtron.report.json").read_bytes()


def test_train_writes_the_canonical_tag_of_a_glmtron_activation(tmp_path):
    # the config's spelling has a space, which the predictor header cannot hold
    cfg = base_config()
    cfg["learners"][0]["activation"] = "leaky_relu(0.1, 0.5)"
    out = tmp_path / "run"
    assert cli.main(["train", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
    text = (out / "glmtron.predictor.txt").read_text()
    pred = read_predictor(text, GlmPredictor)
    assert pred.activation_tag == "leaky_relu(0.1,0.5)"
    assert write_predictor(pred) == text


def test_a_glmtron_predictor_file_keeps_long_activation_arguments(tmp_path):
    # a tag rounded to six digits would read back as another activation
    tag = "leaky_relu(0.123456789, 0.987654321)"
    cfg = base_config()
    cfg["learners"][0]["activation"] = tag
    out = tmp_path / "run"
    assert cli.main(["train", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
    pred = read_predictor((out / "glmtron.predictor.txt").read_text(),
                          GlmPredictor)
    assert pred.activation_tag == "leaky_relu(0.123456789,0.987654321)"
    x = np.random.default_rng(0).normal(size=(200, 4))
    assert np.array_equal(pred.predict(x), GlmPredictor(pred.w, tag).predict(x))


def test_train_unknown_learner_activation(tmp_path, capsys):
    cfg = base_config()
    cfg["learners"][0]["activation"] = "mish(3)"
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "r")]) == 2
    assert "mish" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# distortion-check
# ---------------------------------------------------------------------------


def test_distortion_check_passes(capsys):
    assert cli.main(["distortion-check", "--grid-density", "60"]) == 0
    out = capsys.readouterr().out
    assert "bilipschitz_sandwich" in out
    assert "kl_sandwich" in out
    assert "VIOLATED" not in out


def test_distortion_check_low_density_warns(capsys):
    assert cli.main(["distortion-check", "--grid-density", "2"]) == 0
    assert "too low" in capsys.readouterr().err


@pytest.mark.parametrize("density", ["0", "-3"])
def test_distortion_check_rejects_a_grid_of_no_points(capsys, density):
    assert cli.main(["distortion-check", "--grid-density", density]) == 2
    assert "--grid-density must be at least 1" in capsys.readouterr().err


def test_distortion_check_reads_tags_with_commas(capsys):
    tags = ["identity", "leaky_relu(0.1,0.5)", "perturbed(relu,0.05)"]
    assert cli.main(["distortion-check", "--pairs", ",".join(tags)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("bilipschitz_sandwich")]
    assert [row[1] for row in rows] == tags
    assert not any("VIOLATED" in row for row in rows)


@pytest.mark.parametrize("tag", ["identity(2)", "leaky_relu(abc)",
                                 "leaky_relu(nan)", "leaky_relu(inf)"])
def test_distortion_check_rejects_a_malformed_tag(capsys, tag):
    assert cli.main(["distortion-check", "--pairs", tag]) == 2
    assert "error:" in capsys.readouterr().err


def test_distortion_check_fault_injection(monkeypatch, capsys):
    # a pair whose claimed upper Lipschitz constant is understated must make
    # the run fail and name the violated sandwich
    def fake_report(pair, grid_n=100):
        return {"pair": pair.tag, "lower_slack": -1e-3, "upper_slack": 0.0,
                "identity_gap": 0.0}

    monkeypatch.setattr(cli.fenchel, "bilipschitz_sandwich_report", fake_report)
    assert cli.main(["distortion-check", "--pairs", "identity"]) == 1
    out = capsys.readouterr().out
    assert "bilipschitz_sandwich" in out and "VIOLATED" in out


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def sweep_config():
    cfg = base_config()
    cfg["learners"] = [
        {"name": "omni", "algorithm": "omnipredictor", "norm_bound": 2.0,
         "round_cap": 300},
    ]
    cfg["data"]["n_train"] = 4000
    cfg["data"]["n_eval"] = 6000
    cfg["seeds"] = [1, 2]
    cfg["instances"] = [
        {"name": "opt0", "corruption": {"kind": "none"}},
        {"name": "opt.01", "corruption": {"kind": "constant_override",
                                          "mass": 0.012, "value": 0.0}},
        {"name": "opt.04", "corruption": {"kind": "constant_override",
                                          "mass": 0.05, "value": 0.0}},
        {"name": "opt.09", "corruption": {"kind": "constant_override",
                                          "mass": 0.11, "value": 0.0}},
    ]
    return cfg


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_experiment_rows_and_monotone_err2(tmp_path):
    cfg_path = write_config(tmp_path, sweep_config())
    out = tmp_path / "sweep.csv"
    assert cli.main(["experiment", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 4 * 2  # instances x seeds x learners x checks
    # median err2 over seeds is non-decreasing in the measured optimum
    by_inst = {}
    for row in rows:
        inst = row[0].rsplit("_s", 1)[0]
        by_inst.setdefault(inst, []).append(
            (float(row[2]), float(row[3])))
    med = sorted((np.median([o for o, _ in v]), np.median([e for _, e in v]))
                 for v in by_inst.values())
    errs = [e for _, e in med]
    assert all(b >= a - 1e-6 for a, b in zip(errs, errs[1:]))


def test_experiment_deterministic_and_resume(tmp_path):
    cfg_path = write_config(tmp_path, sweep_config())
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cli.main(["experiment", "--config", cfg_path, "--out", str(out1)])
    cli.main(["experiment", "--config", cfg_path, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    # drop some rows, resume fills only the gap and reproduces the bytes
    lines = out1.read_text().strip().split("\n")
    partial = "\n".join(lines[:4]) + "\n"
    out3 = tmp_path / "c.csv"
    out3.write_text(partial)
    cli.main(["experiment", "--config", cfg_path, "--out", str(out3),
              "--resume"])
    assert out3.read_bytes() == out1.read_bytes()


def test_experiment_resume_matches_names_with_commas(tmp_path, monkeypatch):
    # a row writes "," as ";"; resume must still find the unit's rows
    cfg = base_config(seeds=[1, 2],
                      instances=[{"name": "a,b", "corruption": None}])
    cfg["learners"][0]["name"] = "glm,tron"
    cfg_path = write_config(tmp_path, cfg)
    full = tmp_path / "full.csv"
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(full)]) == 0
    lines = full.read_text().splitlines(keepends=True)
    assert [line.split(",")[:2] for line in lines[1:]] == \
        [["a;b_s1", "glm;tron"], ["a;b_s2", "glm;tron"]]
    run_seed, ran = cli._run_seed, []
    monkeypatch.setattr(cli, "_run_seed",
                        lambda units: ran.append(len(units)) or run_seed(units))
    out = tmp_path / "out.csv"
    out.write_text("".join(lines[:2]))
    assert cli.main(["experiment", "--config", cfg_path, "--out", str(out),
                     "--resume"]) == 0
    assert ran == [1]
    assert out.read_bytes() == full.read_bytes()
    assert cli.main(["experiment", "--config", cfg_path, "--out", str(out),
                     "--resume"]) == 0
    assert ran == [1]
    assert out.read_bytes() == full.read_bytes()


def test_experiment_resume_of_a_foreign_csv_leaves_it_alone(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sweep_config())
    out = tmp_path / "other.csv"
    out.write_text("a,b,c\n1,2,3\n")
    assert cli.main(["experiment", "--config", cfg_path, "--out", str(out),
                     "--resume"]) == 2
    assert "foreign header" in capsys.readouterr().err
    assert out.read_text() == "a,b,c\n1,2,3\n"


def test_experiment_resume_malformed_row(tmp_path, capsys):
    cfg_path = write_config(tmp_path, sweep_config())
    out = tmp_path / "bad.csv"
    out.write_text(cli.CSV_HEADER + "\ngarbage\n")
    assert cli.main(["experiment", "--config", cfg_path, "--out", str(out),
                     "--resume"]) == 2
    assert "line 2" in capsys.readouterr().err


GAUSS = {"kind": "standard_gaussian", "dim": 3}
SUBGAUSS = {"kind": "standard_gaussian", "dim": 3, "scale": 2 ** -0.5}
LAPLACE = {"kind": "laplace_product", "dim": 3, "scale": 2 ** -0.5}


@pytest.mark.parametrize("check, marginal, label_space", [
    ("sim_sqrt", GAUSS, "interval"),
    ("bilipschitz:identity", GAUSS, "interval"),
    ("general:identity_clamped:perturbed(identity_clamped,0.05)", GAUSS,
     "interval"),
    ("logistic_squared", SUBGAUSS, "interval"),
    ("logistic_absolute", LAPLACE, "binary"),
    ("pconcept", GAUSS, "binary"),
])
def test_unit_rows_carry_the_check_table_tag(check, marginal, label_space):
    # the tag the table holds is the resume key of the row the unit writes
    cfg = base_config(checks=[check])
    cfg["data"].update(marginal=marginal, n_train=1000, n_eval=1000)
    cfg["data"]["label_model"]["label_space"] = label_space
    cfg["learners"][0]["iters"] = 20
    (unit,) = config.parse_config(cfg).units()
    ((row,),) = acceptance.run_units([unit], cli._run_instance)
    assert row.theorem == transfer.CHECKS[check.split(":")[0]][0]
    assert set(transfer.CHECKS) == {"sim_sqrt", "bilipschitz", "general",
                                    "logistic_squared", "logistic_absolute",
                                    "pconcept"}


@pytest.mark.parametrize("algorithm", sorted(config.ALGORITHMS))
def test_every_algorithm_trains_through_the_table(algorithm):
    # an entry holds only the keys its algorithm takes; count options
    # (iteration and round caps) are set to 5, which bounds the trace
    needs_activation, options, _ = config.ALGORITHMS[algorithm]
    entry = {"name": algorithm, "algorithm": algorithm, "norm_bound": 2.0}
    if needs_activation:
        entry["activation"] = "sigmoid"
    caps = {key: 5 for key, kind in options.items()
            if kind in (config.COUNT, config.CAP)}
    assert bool(caps) == (algorithm in ("glmtron", "isotron", "omnipredictor"))
    entry.update(caps)
    cfg = config.parse_config(base_config(learners=[entry]))
    ds = synth.make_dataset(cfg.marginal, cfg.label_model, 500, 1)
    predictor = config.train_learner(cfg.learners[0], ds, 1)
    p = predictor.predict(ds.features)
    assert p.shape == (500,) and np.all((p >= 0.0) & (p <= 1.0))
    if caps:
        assert len(predictor.trace) <= 5


def test_experiment_empty_learners(tmp_path, capsys):
    cfg = sweep_config()
    cfg["learners"] = []
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "'learners' in config must be a non-empty list" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_an_empty_learner_list_exits_2(tmp_path, capsys, command):
    # train used to exit 0 and write nothing
    out = tmp_path / "out"
    assert cli.main([command, "--config",
                     write_config(tmp_path, base_config(learners=[])),
                     "--out", str(out)]) == 2
    assert "'learners' in config must be a non-empty list" \
        in capsys.readouterr().err
    assert not out.exists()


def test_experiment_workers_match_serial(tmp_path):
    cfg = sweep_config()
    cfg["instances"] = cfg["instances"][:2]
    # one task per seed: with two seeds, --workers 2 runs through the pool
    cfg["seeds"] = [1, 2]
    cfg_path = write_config(tmp_path, cfg)
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    cli.main(["experiment", "--config", cfg_path, "--out", str(a)])
    cli.main(["experiment", "--config", cfg_path, "--out", str(b),
              "--workers", "2"])
    assert a.read_bytes() == b.read_bytes()


def test_experiment_units_of_a_seed_share_one_draw(tmp_path, monkeypatch):
    cfg = base_config(seeds=[1, 2], instances=[
        instance("none"), instance("flip_region", mass=0.1)])
    cfg["learners"].append({"name": "logistic", "algorithm": "logistic",
                            "norm_bound": 2.0})
    cfg["data"].update(n_train=1000, n_eval=1500)
    draws, sample = [], synth.sample_marginal
    monkeypatch.setattr(synth, "sample_marginal", lambda spec, n, seed: (
        draws.append((n, seed)) or sample(spec, n, seed)))
    out = tmp_path / "shared.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
    # one training and one evaluation draw per seed, for its 2 x 2 units
    assert sorted(draws) == [(1000, 1), (1000, 2), (1500, 2), (1500, 3)]
    rows = {}
    for unit in config.parse_config(cfg).units():
        for row in cli._run_instance(
                unit, synth.make_dataset(unit.marginal, unit.model,
                                         unit.n_train, unit.seed),
                synth.make_dataset(unit.marginal, unit.model, unit.n_eval,
                                   unit.seed + 1)):
            row.runtime_ms = 0
            rows[cli._row_key(row)] = row
    assert len(rows) == 8
    assert out.read_text() == acceptance.rows_to_csv(
        [rows[key] for key in sorted(rows)])


def test_experiment_pool_is_no_larger_than_the_units(tmp_path, monkeypatch):
    # a recorder in place of the pool: it maps serially, so no process starts
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    cfg = base_config(seeds=[1, 2])
    cfg["data"].update(n_train=500, n_eval=500)
    cfg_path = write_config(tmp_path, cfg)
    for workers, expected in (("8", [2]), ("2", [2]), ("1", [])):
        sizes.clear()
        assert cli.main(["experiment", "--config", cfg_path, "--out",
                         str(tmp_path / "x.csv"), "--workers", workers]) == 0
        assert sizes == expected


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_experiment_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config",
                     write_config(tmp_path, base_config()), "--out", str(out),
                     "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "gen-data", "train"])
def test_a_negative_seed_exits_2(tmp_path, capsys, command):
    # NumPy's generators take no negative seed, from a config or a flag
    out = tmp_path / "out"
    files = [] if command == "verify" else [
        "--config", write_config(tmp_path, base_config()), "--out", str(out)]
    assert cli.main([command, "--seed", "-1", *files]) == 2
    assert "--seed must be a non-negative integer, not -1" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mutate, needle", [
    (lambda c: c.update(learners=[
        {"algorithm": "glmtron", "activation": "sigmoid", "norm_bound": 2.0},
        {"algorithm": "glmtron", "activation": "identity_clamped",
         "norm_bound": 2.0}]), "duplicate learner name 'glmtron'"),
    (lambda c: c.update(seeds=[1, 1]), "duplicate seed 1"),
    (lambda c: c.update(instances=[instance("none"), instance("none")]),
     "duplicate instance name 'none'"),
    # a row writes "," as ";", so these names would write the same rows
    (lambda c: c.update(learners=[
        {"name": "a,b", "algorithm": "logistic", "norm_bound": 1.0},
        {"name": "a;b", "algorithm": "logistic", "norm_bound": 2.0}]),
     "duplicate learner name 'a;b'"),
    (lambda c: c.update(instances=[
        {"name": "x,y", "corruption": {"kind": "none"}},
        {"name": "x;y", "corruption": {"kind": "none"}}]),
     "duplicate instance name 'x;y'"),
], ids=["learner", "seed", "instance", "learner_separator",
        "instance_separator"])
def test_experiment_rejects_duplicate_unit_keys(tmp_path, capsys, mutate,
                                                needle):
    # rows are keyed by instance, seed and learner name: a repeat would
    # overwrite an earlier unit's rows
    cfg = base_config()
    mutate(cfg)
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mutate, key", [
    (lambda c: c["learners"][0].update(name=5), "'name' in learners[0]"),
    (lambda c: c.update(instances=[instance("none"), {
        "name": 5, "corruption": {"kind": "none"}}]),
     "'name' in instances[1]"),
], ids=["learner", "instance"])
def test_experiment_rejects_names_that_are_not_strings(tmp_path, capsys,
                                                       mutate, key):
    cfg = base_config()
    mutate(cfg)
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert f"{key} must be a string" in capsys.readouterr().err
    assert not out.exists()


def test_units_run_in_instance_seed_learner_order():
    cfg = base_config(seeds=[3, 1], learners=[
        {"name": "a", "algorithm": "logistic", "norm_bound": 1.0},
        {"name": "b", "algorithm": "logistic", "norm_bound": 2.0}])
    assert [(u.instance, u.entry["name"], u.seed)
            for u in config.parse_config(cfg).units()] == [
        ("base_s3", "a", 3), ("base_s3", "b", 3),
        ("base_s1", "a", 1), ("base_s1", "b", 1)]
    cfg["instances"] = [instance("none"),
                        instance("flip_region", mass=0.1)]
    units = config.parse_config(cfg).units()
    assert [(u.instance, u.entry["name"]) for u in units] == [
        (f"{inst}_s{seed}", name) for inst in ("none", "flip_region")
        for seed in (3, 1) for name in ("a", "b")]
    assert [u.model.corruption.kind for u in units[::4]] == [
        "none", "flip_region"]


def test_experiment_timing_writes_one_training_time_per_unit(tmp_path,
                                                             monkeypatch):
    # a training step of at least 5 ms, so every recorded time is non-zero
    train = config.train_learner

    def slow(*args):
        time.sleep(0.005)
        return train(*args)

    monkeypatch.setattr(config, "train_learner", slow)
    cfg = base_config(checks=["sim_sqrt", "pconcept"], seeds=[1, 2])
    cfg["data"].update(n_train=500, n_eval=500)
    cfg_path = write_config(tmp_path, cfg)
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(plain)]) == 0
    assert cli.main(["experiment", "--config", cfg_path, "--out", str(timed),
                     "--timing"]) == 0
    rows = read_rows(timed)
    assert [r[:-1] + ["0"] for r in rows] == read_rows(plain)
    per_unit = {}
    for r in rows:
        per_unit.setdefault((r[0], r[1]), set()).add(int(r[-1]))
    assert len(per_unit) == 2 and len(rows) == 4
    assert all(len(ms) == 1 and min(ms) >= 5 for ms in per_unit.values())


def test_experiment_unknown_check(tmp_path):
    cfg = sweep_config()
    cfg["checks"] = ["frobnicate"]
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("checks, needle", [
    (["bilipschitz"], "needs 1 activation tag"),
    (["bilipschitz:identity:relu"], "needs 1 activation tag"),
    (["sim_sqrt:identity"], "needs 0 activation tag"),
    (["general:identity_clamped"], "needs 2 activation tag"),
    (["bilipschitz:nonsense"], "unknown activation tag 'nonsense'"),
    (["bilipschitz:identity", "bilipschitz:leaky_relu(0.1)",
      "logistic_squared"], "only one 'bilipschitz' check"),
])
def test_experiment_rejects_malformed_checks(tmp_path, capsys, checks,
                                             needle):
    cfg_path = write_config(tmp_path, base_config(checks=checks))
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def omni_entry(**options):
    return {"algorithm": "omnipredictor", "norm_bound": 2.0, **options}


def instance(kind, **params):
    return {"name": kind, "corruption": {"kind": kind, **params}}


def planted(**keys):
    return {"activation": "sigmoid", "planted_w": [0.5] * 4, **keys}


@pytest.mark.parametrize("mutate, key", [
    (lambda c: c["data"].update(n_train="many"), "'n_train' in data"),
    (lambda c: c.update(eps="small"), "'eps' in config"),
    (lambda c: c.update(seeds=[1, "two"]), "'seeds[1]' in config"),
    (lambda c: c["data"]["label_model"].update(norm="unit"),
     "'norm' in label_model"),
    (lambda c: c.update(instances=[{"name": "flip", "corruption": {
        "kind": "flip_region", "mass": "some"}}]), "'mass' in corruption"),
    (lambda c: c["learners"][0].update(norm_bound="two"),
     "'norm_bound' in learners[0]"),
    (lambda c: c["learners"][0].update(iters="80x"), "'iters' in learners[0]"),
    # a number must be a JSON number, not a string that reads as one
    (lambda c: c["data"].update(n_train="3000"), "'n_train' in data"),
    (lambda c: c.update(eps="0.05"), "'eps' in config"),
    (lambda c: c["data"]["label_model"].update(
        planted_w=["0.5", 0.5, 0.5, 0.5]), "'planted_w' in label_model"),
    # an integer key takes only integral values, and no boolean
    (lambda c: c["data"].update(n_train=2500.7), "'n_train' in data"),
    (lambda c: c["data"]["marginal"].update(dim=3.9), "'dim' in marginal"),
    (lambda c: c.update(seeds=[True, 2]), "'seeds[0]' in config"),
    (lambda c: c.update(seeds=[1, 2.5]), "'seeds[1]' in config"),
    # seeds feed NumPy's generators, which take no negative seed
    (lambda c: c.update(seeds=[-1]), "'seeds[0]' in config"),
    (lambda c: c["data"]["label_model"].update(direction_seed=-3),
     "'direction_seed' in label_model"),
    # learner options outside the domain their trainer runs on
    (lambda c: c.update(learners=[omni_entry(round_cap=0)]),
     "'round_cap' in learners[0]"),
    (lambda c: c.update(learners=[{"algorithm": "isotron", "norm_bound": 2.0,
                                   "iters": 0}]), "'iters' in learners[0]"),
    (lambda c: c.update(learners=[omni_entry(bucket_width=0)]),
     "'bucket_width' in learners[0]"),
    (lambda c: c.update(learners=[omni_entry(bucket_width=1.5)]),
     "'bucket_width' in learners[0]"),
    (lambda c: c.update(learners=[omni_entry(norm_bound=0)]),
     "'norm_bound' in learners[0]"),
    (lambda c: c["learners"][0].update(norm_bound=-1.0),
     "'norm_bound' in learners[0]"),
    # corruption parameters outside their domain
    (lambda c: c.update(instances=[instance("flip_region", mass=1.5)]),
     "'mass' in corruption"),
    (lambda c: c.update(instances=[instance("flip_region", mass=-0.2)]),
     "'mass' in corruption"),
    (lambda c: c.update(instances=[instance("bounded_noise", level=-0.3)]),
     "'level' in corruption"),
    (lambda c: c.update(instances=[instance("constant_override", mass=0.1,
                                            value=2.0)]),
     "'value' in corruption"),
    # numbers outside the domain the bound checks and learners run on
    (lambda c: c.update(eps=-1.0), "'eps' in config"),
    (lambda c: c.update(learners=[omni_entry(eps_ma=-1.0)]),
     "'eps_ma' in learners[0]"),
    # the omnipredictor's threshold is eps_ma / 4 and its flag the weak
    # learner's rejection: no other value configures them
    (lambda c: c.update(learners=[omni_entry(eps_cal=-1.0)]),
     "unknown key 'eps_cal' in learners[0]"),
    (lambda c: c.update(learners=[omni_entry(eps_weak=0.0)]),
     "unknown key 'eps_weak' in learners[0]"),
    (lambda c: c.update(learners=[omni_entry(bucket_width=0.3)]),
     "'bucket_width' in learners[0]"),
    (lambda c: c["learners"][0].update(tol=-1.0), "'tol' in learners[0]"),
    # sizes no sampler can draw
    (lambda c: c["data"].update(n_eval=0), "'n_eval' in data"),
    (lambda c: c["data"]["marginal"].update(dim=0), "'dim' in marginal"),
], ids=["n_train", "eps", "seed", "norm", "mass", "norm_bound", "iters",
        "n_train_string", "eps_string", "planted_w_string",
        "n_train_fraction", "dim_fraction", "seed_bool", "seed_fraction",
        "seed_negative", "direction_seed_negative", "round_cap_zero",
        "isotron_iters_zero", "bucket_width_zero", "bucket_width_above_one",
        "omni_norm_bound_zero", "glmtron_norm_bound_negative",
        "mass_above_one", "mass_negative", "level_negative", "value_above_one",
        "eps_negative", "eps_ma_negative", "eps_cal_negative", "eps_weak_zero",
        "bucket_width_not_dividing_one", "glmtron_tol_negative", "n_eval_zero",
        "dim_zero"])
def test_experiment_rejects_malformed_numbers(tmp_path, capsys, mutate, key):
    cfg = base_config()
    mutate(cfg)
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("width", [1.0, 0.1, 1 / 3, 0.02])
def test_bucket_widths_that_tile_the_unit_interval_are_taken(width):
    cfg = base_config(learners=[omni_entry(bucket_width=width)])
    assert config.parse_config(cfg).learners[0]["bucket_width"] == width


def test_bucket_width_is_bounded_by_what_the_sample_fills(tmp_path, capsys):
    # 40,000 buckets for 2,000 training samples
    cfg = base_config(learners=[omni_entry(bucket_width=1 / 40_000)])
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert "'bucket_width' in learners[0]" in capsys.readouterr().err
    assert not out.exists()
    cfg["learners"] = [omni_entry(bucket_width=1 / 2000)]
    assert config.parse_config(cfg).learners[0]["bucket_width"] == 1 / 2000


@pytest.mark.parametrize("where, key, parsed", [
    (lambda c: c["data"]["marginal"], "augment_constant",
     lambda cfg: cfg.marginal.augment_constant),
    (lambda c: c["data"]["label_model"], "clip",
     lambda cfg: cfg.label_model.clip),
    (lambda c: c["learners"][0], "bernoulli_reduction",
     lambda cfg: cfg.learners[0]["bernoulli_reduction"]),
], ids=["augment_constant", "clip", "bernoulli_reduction"])
@pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
def test_experiment_takes_only_json_booleans_as_flags(tmp_path, capsys, where,
                                                      key, parsed, value):
    cfg = base_config(learners=[{"algorithm": "omnipredictor",
                                 "norm_bound": 2.0, "round_cap": 5}])
    where(cfg)[key] = value
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert f"{key!r} in" in (err := capsys.readouterr().err)
    assert "must be true or false" in err
    assert not out.exists()
    for flag in (True, False):
        where(cfg)[key] = flag
        assert parsed(config.parse_config(cfg)) is flag


@pytest.mark.parametrize("entry, key", [
    ({"algorithm": "logistic", "iter": 5}, "iter"),
    ({"algorithm": "logistic", "iters": 5}, "iters"),
    ({"algorithm": "matching_gd", "activation": "sigmoid", "step": 1.0},
     "step"),
    ({"algorithm": "logistic", "activation": "sigmoid"}, "activation"),
    ({"algorithm": "omnipredictor", "tol": 1e-8}, "tol"),
    # the step is searched over a fixed ladder, not configured
    ({"algorithm": "omnipredictor", "step": 0.01}, "step"),
])
def test_experiment_rejects_unknown_learner_keys(tmp_path, capsys, entry,
                                                 key):
    cfg = base_config(learners=[dict(entry, norm_bound=2.0)])
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert f"unknown key {key!r} in learners[0]" in capsys.readouterr().err
    assert not out.exists()


def test_planted_w_alone_is_the_label_models_direction():
    cfg = base_config()
    cfg["data"]["label_model"] = planted()
    assert config.parse_config(cfg).label_model.planted_w == (0.5,) * 4


@pytest.mark.parametrize("mutate, needle", [
    # a misspelt key used to run with its default
    (lambda c: c.update(chekcs=["pconcept"]), "unknown key 'chekcs' in config"),
    (lambda c: c["data"].update(n_trian=500), "unknown key 'n_trian' in data"),
    (lambda c: c["data"]["marginal"].update(scael=2.0),
     "unknown key 'scael' in marginal"),
    (lambda c: c["data"]["label_model"].update(corruptoin={
        "kind": "flip_region", "mass": 0.1}),
     "unknown key 'corruptoin' in label_model"),
    (lambda c: c.update(instances=[{"name": "flip", "corruptoin": {
        "kind": "flip_region", "mass": 0.1}}]),
     "unknown key 'corruptoin' in instances[0]"),
    # values of the wrong type used to raise AttributeError
    (lambda c: c.update(checks=[5]), "'checks[0]' in config"),
    (lambda c: c.update(pairs=[5]), "'pairs[0]' in config"),
    (lambda c: c.update(instances=[{"name": "flip",
                                    "corruption": "flip_region"}]),
     "'corruption' in instances[0]"),
    # a scale outside (0, inf) used to raise in NumPy or in training
    (lambda c: c["data"]["marginal"].update(kind="laplace_product",
                                            scale=-1.0),
     "'scale' in marginal"),
    (lambda c: (c["data"]["marginal"].update(scale=0.0),
                c.update(learners=[omni_entry()])), "'scale' in marginal"),
    # negative values used to run: a flipped direction, a mirrored ball
    (lambda c: c["data"]["label_model"].update(norm=-2.0),
     "'norm' in label_model"),
    (lambda c: c["data"]["marginal"].update(kind="uniform_ball", scale=-1.0),
     "'scale' in marginal"),
    # choices and budgets the synth dataclasses used to check
    (lambda c: c["data"]["marginal"].update(kind="cauchy"),
     "'kind' in marginal must be one of standard_gaussian, uniform_ball, "
     "laplace_product, student_t, not 'cauchy'"),
    (lambda c: c.update(instances=[instance("flip")]),
     "'kind' in corruption must be one of none, flip_region, bounded_noise, "
     "constant_override, not 'flip'"),
    (lambda c: c["data"]["label_model"].update(corruption={"kind": 3}),
     "'kind' in corruption must be one of"),
    (lambda c: c["data"]["label_model"].update(label_space="bool"),
     "'label_space' in label_model must be one of interval, binary, "
     "not 'bool'"),
    (lambda c: c["data"]["label_model"].update(constant_weight=-2.5),
     "'constant_weight' in label_model must be at most 'norm' = 2.0"),
    # a Student-t marginal with dof <= 2 has no bounded second moments
    (lambda c: c["data"]["marginal"].update(kind="student_t", dof=2),
     "'dof' in marginal must be an integer greater than 2, not 2"),
    # only a Student-t marginal reads dof; elsewhere it used to be dropped
    (lambda c: c["data"]["marginal"].update(dof=7),
     "'dof' in marginal must be left out when 'kind' is "
     "'standard_gaussian', not 7"),
    # planted_w fixes the direction, so a key that draws one is an error,
    # even at its default value
    (lambda c: c["data"]["label_model"].update(planted_w=[0.5] * 4),
     "'norm' in label_model must be left out when 'planted_w' is given, "
     "not 2.0"),
    (lambda c: c["data"].update(label_model=planted(direction_seed=0)),
     "'direction_seed' in label_model must be left out when 'planted_w' "
     "is given, not 0"),
    (lambda c: c["data"].update(label_model=planted(constant_weight=None)),
     "'constant_weight' in label_model must be left out when 'planted_w' "
     "is given, not None"),
    # a required key, a direction that is neither given nor drawable, and a
    # direction of the wrong dimension
    (lambda c: c.pop("learners"), "missing key 'learners' in config"),
    (lambda c: c["data"]["label_model"].pop("norm"),
     "missing key 'norm' in label_model"),
    (lambda c: c["data"].update(label_model=planted(planted_w=[0.5] * 3)),
     "planted_w has dimension 3, expected 4"),
    # train writes <name>.predictor.txt, so a name with "/" escaped --out
    (lambda c: c["learners"][0].update(name="../escaped"),
     "'name' in learners[0] must be a string without '/' or a line break, "
     "not '../escaped'"),
    # a CSV row holds a unit's names; a line break would split it in two
    (lambda c: c["learners"][0].update(name="glm\ntron"),
     "'name' in learners[0] must be a string without '/' or a line break, "
     "not 'glm\\ntron'"),
    (lambda c: c["learners"][0].update(name="glm\rtron"),
     "'name' in learners[0] must be a string without '/' or a line break, "
     "not 'glm\\rtron'"),
    (lambda c: c.update(instances=[{"name": "base\n", "corruption": None}]),
     "'name' in instances[0] must be a string without a line break, "
     "not 'base\\n'"),
    (lambda c: c.update(instances=[{"name": "\rbase", "corruption": None}]),
     "'name' in instances[0] must be a string without a line break, "
     "not '\\rbase'"),
], ids=["misspelt_checks", "misspelt_n_train", "misspelt_scale",
        "misspelt_corruption", "misspelt_instance_corruption",
        "check_not_a_string", "pair_not_a_string",
        "instance_corruption_not_an_object", "laplace_scale_negative",
        "gaussian_scale_zero", "norm_negative", "ball_scale_negative",
        "marginal_kind", "corruption_kind", "corruption_kind_not_a_string",
        "label_space", "constant_weight_above_norm", "student_t_dof_two",
        "gaussian_with_dof",
        "planted_w_with_norm", "planted_w_with_default_direction_seed",
        "planted_w_with_null_constant_weight", "learners_missing",
        "no_planted_w_and_no_norm", "planted_w_wrong_dimension",
        "learner_name_a_path", "learner_name_a_line_feed",
        "learner_name_a_carriage_return", "instance_name_a_line_feed",
        "instance_name_a_carriage_return"])
def test_experiment_rejects_malformed_configs(tmp_path, capsys, mutate,
                                              needle):
    cfg = base_config()
    mutate(cfg)
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_experiment_rejects_a_config_root_that_is_not_an_object(tmp_path,
                                                                capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config",
                     write_config(tmp_path, [base_config()]),
                     "--out", str(out)]) == 2
    assert "config root must be an object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "experiment"])
def test_means_outside_the_unit_interval_without_clipping_exit_2(
        tmp_path, capsys, command):
    # a RangeError is malformed input, not a numeric failure
    cfg = base_config()
    cfg["data"]["label_model"].update(activation="identity", clip=False)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert "enable clipping" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("ran before --out was checked")


@pytest.mark.parametrize("command", ["gen-data", "experiment", "verify"])
def test_an_out_in_a_missing_directory_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch, command):
    for module, name in ((acceptance, "run_all"), (acceptance, "run_units"),
                         (synth, "make_dataset")):
        monkeypatch.setattr(module, name, _never)
    out = tmp_path / "missing" / "out.csv"
    files = [] if command == "verify" else [
        "--config", write_config(tmp_path, base_config())]
    assert cli.main([command, *files, "--out", str(out)]) == 2
    assert f"error: --out {out} is not a file in an existing directory" \
        in capsys.readouterr().err


def test_a_train_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert cli.main(["train", "--config", write_config(tmp_path, base_config()),
                     "--out", str(out)]) == 2
    assert f"error: --out {out} is a file, not a directory" \
        in capsys.readouterr().err
    assert out.read_text() == ""


def test_verify_exits_1_on_a_failed_or_over_budget_criterion(
        tmp_path, capsys, monkeypatch):
    def result(number, passed, runtime_s):
        row = acceptance.Row("grid", f"c{number}", None, None, None, "t",
                             0.0, 1.0, None)
        return acceptance.CriterionResult(number, f"criterion {number}",
                                          passed, runtime_s, 5.0, rows=[row])
    results = [result(1, True, 1.0), result(2, False, 1.0),
               result(3, True, 9.0)]
    monkeypatch.setattr(acceptance, "run_all", lambda seed: results)
    out = tmp_path / "verify.csv"
    assert cli.main(["verify", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "[FAIL]  2 criterion 2 (1.0s / budget 5s) (criterion failed)" \
        in printed
    assert "[FAIL]  3 criterion 3 (9.0s / budget 5s) (over budget 5s)" \
        in printed
    assert "verify: FAILURES PRESENT (1/3)" in printed
    assert out.read_text() == acceptance.results_csv(results)


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = config.parse_config(json.loads(example))
    assert len(cfg.units()) == 2 * 3 * 2


def test_resume_of_a_complete_csv_runs_no_unit(tmp_path, monkeypatch):
    # logistic_squared is inapplicable on a plain-Gaussian marginal, so the
    # unit writes one theorem row and one <kind>_inapplicable row
    cfg = base_config(checks=["sim_sqrt", "logistic_squared"])
    cfg["data"].update(n_train=1000, n_eval=1000)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep.csv"
    assert cli.main(["experiment", "--config", cfg_path, "--out", str(out)]) == 0
    assert "logistic_squared_inapplicable" in out.read_text()
    before = out.read_bytes()
    calls = []
    run_instance = cli._run_instance
    monkeypatch.setattr(cli, "_run_instance",
                        lambda unit, *data: calls.append(unit)
                        or run_instance(unit, *data))
    assert cli.main(["experiment", "--config", cfg_path, "--out", str(out),
                     "--resume"]) == 0
    assert calls == []
    assert out.read_bytes() == before
