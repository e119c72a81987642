import json

import numpy as np
import pytest

from simlearn import cli, config, synth, transfer
from simlearn.learners import GlmPredictor, read_predictor


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
    parsed = config.parse_config(cfg)
    (row,) = cli._run_instance((parsed, "base", parsed.label_model, 1,
                                parsed.learners[0]))
    assert row.theorem == transfer.CHECKS[check.split(":")[0]][0]
    assert set(transfer.CHECKS) == {"sim_sqrt", "bilipschitz", "general",
                                    "logistic_squared", "logistic_absolute",
                                    "pconcept"}


@pytest.mark.parametrize("algorithm", sorted(config.ALGORITHMS))
def test_every_algorithm_trains_through_the_table(algorithm):
    # an entry holds only the keys its algorithm takes; integer options
    # (iteration and round caps) are set to 5
    needs_activation, options, _ = config.ALGORITHMS[algorithm]
    entry = {"name": algorithm, "algorithm": algorithm, "norm_bound": 2.0}
    if needs_activation:
        entry["activation"] = "sigmoid"
    entry.update({key: 5 for key, kind in options.items() if kind is int})
    cfg = config.parse_config(base_config(learners=[entry]))
    ds = synth.make_dataset(cfg.marginal, cfg.label_model, 500, 1)
    predictor = config.train_learner(cfg.learners[0], ds, 1)
    p = predictor.predict(ds.features)
    assert p.shape == (500,) and np.all((p >= 0.0) & (p <= 1.0))


def test_experiment_empty_learners(tmp_path, capsys):
    cfg = sweep_config()
    cfg["learners"] = []
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["experiment", "--config", cfg_path,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "empty learner list" in capsys.readouterr().err


def test_experiment_workers_match_serial(tmp_path):
    cfg = sweep_config()
    cfg["instances"] = cfg["instances"][:2]
    cfg["seeds"] = [1]
    cfg_path = write_config(tmp_path, cfg)
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    cli.main(["experiment", "--config", cfg_path, "--out", str(a)])
    cli.main(["experiment", "--config", cfg_path, "--out", str(b),
              "--workers", "2"])
    assert a.read_bytes() == b.read_bytes()


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
], ids=["n_train", "eps", "seed", "norm", "mass", "norm_bound", "iters",
        "n_train_string", "eps_string", "planted_w_string",
        "n_train_fraction", "dim_fraction", "seed_bool", "seed_fraction",
        "seed_negative", "direction_seed_negative"])
def test_experiment_rejects_malformed_numbers(tmp_path, capsys, mutate, key):
    cfg = base_config()
    mutate(cfg)
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


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
])
def test_experiment_rejects_unknown_learner_keys(tmp_path, capsys, entry,
                                                 key):
    cfg = base_config(learners=[dict(entry, norm_bound=2.0)])
    out = tmp_path / "x.csv"
    assert cli.main(["experiment", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    assert f"unknown key {key!r} in learners[0]" in capsys.readouterr().err
    assert not out.exists()


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
                        lambda unit: calls.append(unit) or run_instance(unit))
    assert cli.main(["experiment", "--config", cfg_path, "--out", str(out),
                     "--resume"]) == 0
    assert calls == []
    assert out.read_bytes() == before
