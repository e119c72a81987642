"""The benchmark's tracer (``perfbench/tracer.py``) wraps simlearn functions
by name, so deleting or renaming a wrapped name breaks the benchmark.  This
test installs and uninstalls it, so such a change fails here too."""

import importlib.util
from pathlib import Path

import numpy as np

from simlearn import acceptance, synth

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_hook_and_restores_it():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install_simlearn(tracer)
        patched = list(tracer._patched)
        # the check table looks its runners up at call time, so a check
        # run through it is seen by its wrapper
        spec = synth.MarginalSpec("standard_gaussian", 3)
        ds = synth.make_dataset(
            spec, synth.LabelModel((0.5, 0.0, 0.0), "sigmoid"), 200, 1)
        acceptance.check_rows("probe", "constant", [("sim_sqrt", ())],
                              np.full(200, 0.5), ds, 1.0, eps=0.05)
    finally:
        tracer.uninstall()
    assert tracer.totals()["transfer.check_sim_bound"][0] == 1
    assert all(vars(owner)[name] is original
               for owner, name, original in patched)
