"""The benchmark's tracer (``perfbench/tracer.py``) wraps simlearn functions
by name, so deleting or renaming a wrapped name breaks the benchmark.  This
test installs and uninstalls it, so such a change fails here too.  The
benchmark's workloads (``perfbench/workloads.py``) count and check the units
of its sweep; a small sweep is run and checked the same way here."""

import importlib.util
import json
from pathlib import Path

from simlearn import acceptance, cli, config, fenchel, synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_hook_and_restores_it():
    tracing = load("tracer")
    tracer = tracing.Tracer()
    try:
        tracing.install_simlearn(tracer)
        patched = list(tracer._patched)
        # the check table and config.train_learner look their functions up
        # at call time, so a check or a trainer run through them is seen by
        # its wrapper
        acceptance.run_units([config.Unit(
            "probe", synth.MarginalSpec("standard_gaussian", 3),
            synth.LabelModel((0.5, 0.0, 0.0), "sigmoid"), 200, 200, 1,
            entry, [("sim_sqrt", ()), ("bilipschitz", ("identity",))], 0.05)
            for entry in (
                {"name": "logistic", "algorithm": "logistic",
                 "norm_bound": 1.0},
                {"name": "glmtron", "algorithm": "glmtron", "norm_bound": 1.0,
                 "activation": "sigmoid", "iters": 5})],
            acceptance.run_unit)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["transfer.check_sim_bound"][0] == 2
    assert totals["config.train_learner"][0] == 2
    assert totals["learners.train_glmtron"][0] == 1
    # the premise hook reads the PremiseEstimate of a matching-loss check
    assert totals["transfer.measure_premise"][0] == 2
    assert totals["learners.train_matching_gd"][0] >= 1
    # the pair's maps are wrapped on the base class, which every pair shares
    assert totals["fenchel.g"][0] >= 1
    assert totals["fenchel.f_prime"][0] >= 1
    assert all(vars(owner)[name] is original
               for owner, name, original in patched)


def test_no_pair_class_defines_a_wrapped_map():
    # the tracer wraps FenchelPair.g and FenchelPair.f_prime; a subclass
    # that defined either would bypass those wrappers without any error
    classes, stack = [], [fenchel.FenchelPair]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    assert len(classes) > 1
    assert [cls for cls in classes[1:]
            if {"g", "f_prime"} & set(vars(cls))] == []


def test_sweep_units_are_the_config_units(tmp_path):
    workloads = load("workloads")
    cfg = workloads.sweep_config(5, n_train=2000, n_eval=2000, n_seeds=1)
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert workloads.sweep_failures(out.read_text(), cfg) == []
    assert len(config.parse_config(cfg).units()) == workloads.sweep_units(cfg)
