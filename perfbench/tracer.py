"""Spans and counters recorded around simlearn's public functions.

The tracer replaces functions by timing wrappers as attributes of their
module or class.  Every call inside simlearn goes through a module global or
a method lookup, so the wrappers see the program's own calls without any
change to the program.  ``uninstall`` puts every original object back.

Spans live in memory as ``[name, start, end, parent, run]`` lists: ``parent``
is the index of the enclosing span (-1 for none) and ``run`` the index of the
enclosing request span (an acceptance criterion or an experiment unit), so
the spans of one request share an identifier.
"""

from __future__ import annotations

import collections
import functools
import gzip
import time

import numpy as np

# spans that start a request of their own: every span below one of these
# carries its index as the run identifier
REQUEST_SPANS = ("acceptance.criterion_", "cli.unit")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self._open = []
        self._patched = []
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        if name.startswith(REQUEST_SPANS):
            run = idx
        else:
            run = self.spans[parent][4] if parent >= 0 else -1
        self.spans.append([name, time.perf_counter(), None, parent, run])
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attribute, name, on_return=None):
        """Replace ``owner.attribute`` by a wrapper that records a span.

        ``on_return(counters, args, kwargs, result)`` runs after the span
        closes, so counting costs no span time.
        """
        original = vars(owner)[attribute]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- results -------------------------------------------------------------

    def totals(self):
        """``{name: (calls, total_s, self_s)}`` over the closed spans.

        Self time is a span's duration minus the durations of its direct
        children; spans run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start),
                         own + (end - start) - child[i])
        return out

    def write(self, path):
        """All spans as gzip CSV, times in seconds since the tracer began."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,run\n")
            for name, start, end, parent, run in self.spans:
                fh.write(f"{name},{start - self._t0:.9f},{end - self._t0:.9f},"
                         f"{parent},{run}\n")


# ---------------------------------------------------------------------------
# What is wrapped in simlearn, and what each wrapper counts
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _elements(key, pos, name):
    def hook(counters, args, kwargs, result):
        counters[key] += int(np.size(_arg(args, kwargs, pos, name)))
    return hook


def _rows(key, pos, name):
    def hook(counters, args, kwargs, result):
        counters[key] += int(np.shape(_arg(args, kwargs, pos, name))[0])
    return hook


def _trained(iters_key, offset=0):
    """Iterations from the returned predictor's trace, and its flag."""
    def hook(counters, args, kwargs, result):
        counters[iters_key] += len(result.trace) - offset
        counters["learners.nonconverged"] += not result.converged
    return hook


def _sample_rows(counters, args, kwargs, result):
    counters["synth.sample_marginal.rows"] += int(_arg(args, kwargs, 1, "n"))


def _candidate_rows(counters, args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    counters["transfer.candidate_rows"] += dataset.n * int(np.size(result))


def _premise(counters, args, kwargs, result):
    counters["transfer.premise.random_wins"] += \
        result.best_source.startswith("random")


def install_simlearn(tracer):
    """Wrap the public entry points of every simlearn layer in ``tracer``."""
    from simlearn import acceptance, cli, config, fenchel, learners, synth, \
        transfer

    for fn in ("make_dataset", "generate_labels"):
        tracer.wrap(synth, fn, f"synth.{fn}")
    tracer.wrap(synth, "sample_marginal", "synth.sample_marginal",
                _sample_rows)

    tracer.wrap(learners, "isotonic_regression",
                "learners.isotonic_regression")
    for fn in ("lipschitz_isotonic_fit", "weak_learn"):
        tracer.wrap(learners, fn, f"learners.{fn}")
    tracer.wrap(learners, "train_omnipredictor",
                "learners.train_omnipredictor", _trained("learners.omni.rounds"))
    tracer.wrap(learners, "train_glmtron", "learners.train_glmtron",
                _trained("learners.glmtron.iters"))
    tracer.wrap(learners, "train_isotron", "learners.train_isotron",
                _trained("learners.isotron.iters"))
    # the trace of matching-loss GD starts with the iteration-0 loss
    tracer.wrap(learners, "train_matching_gd", "learners.train_matching_gd",
                _trained("learners.matching_gd.iters", offset=1))
    for cls in (learners.OmniPredictor, learners.GlmPredictor,
                learners.SimPredictor, learners.ConstantPredictor):
        tracer.wrap(cls, "predict", "learners.predict",
                    _rows("learners.predict.rows", 1, "features"))

    tracer.wrap(fenchel.FenchelPair, "g", "fenchel.g",
                _elements("fenchel.g.elements", 1, "t"))
    tracer.wrap(fenchel.FenchelPair, "f_prime", "fenchel.f_prime",
                _elements("fenchel.f_prime.elements", 1, "r"))
    for fn in ("invert_by_bisection", "registration_gate"):
        tracer.wrap(fenchel, fn, f"fenchel.{fn}")

    tracer.wrap(transfer, "measure_premise", "transfer.measure_premise",
                _premise)
    tracer.wrap(transfer, "linear_matching_losses",
                "transfer.linear_matching_losses", _candidate_rows)
    for fn in ("evaluate", "pconcept_disagreement", "check_bilipschitz_transfer",
               "check_general_activation_transfer", "check_sim_bound",
               "check_logistic_squared", "check_logistic_absolute"):
        tracer.wrap(transfer, fn, f"transfer.{fn}")

    for k in range(1, 9):
        tracer.wrap(acceptance, f"criterion_{k}", f"acceptance.criterion_{k}")

    tracer.wrap(config, "train_learner", "config.train_learner")
    tracer.wrap(cli, "cmd_experiment", "cli.experiment")
    # the per-unit pass of `experiment` (train once, run every check)
    tracer.wrap(cli, "_run_instance", "cli.unit")


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced pass
# ---------------------------------------------------------------------------

_CALLS = ("transfer.measure_premise", "transfer.evaluate",
          "fenchel.invert_by_bisection", "learners.lipschitz_isotonic_fit",
          "learners.isotonic_regression", "learners.weak_learn",
          "learners.predict", "synth.make_dataset", "config.train_learner")
_SELF = ("transfer.measure_premise", "transfer.linear_matching_losses",
         "transfer.evaluate", "transfer.pconcept_disagreement", "fenchel.g",
         "fenchel.f_prime", "fenchel.registration_gate",
         "learners.lipschitz_isotonic_fit", "learners.isotonic_regression",
         "learners.train_isotron",
         "learners.train_omnipredictor", "learners.weak_learn",
         "learners.train_glmtron", "learners.train_matching_gd",
         "learners.predict", "synth.sample_marginal", "synth.generate_labels",
         "cli.unit", "cli.experiment")
_COUNTERS = ("transfer.candidate_rows", "fenchel.g.elements",
             "fenchel.f_prime.elements", "learners.isotron.iters",
             "learners.omni.rounds", "learners.glmtron.iters",
             "learners.matching_gd.iters", "learners.predict.rows",
             "learners.nonconverged", "synth.sample_marginal.rows")
CRITERIA = range(1, 9)    # the criteria the verify workload runs

# every per-layer metric with its unit, in BENCHMARK.json order
PER_LAYER = dict(
    [(f"{n}.calls", "count") for n in _CALLS]
    + [(f"{n}.self_s", "s") for n in _SELF]
    + [(n, "count") for n in _COUNTERS]
    + [("transfer.check.calls", "count"),
       ("transfer.premise.random_win_ratio", "ratio"),
       ("cli.units", "count")]
    + [(f"acceptance.criterion_{k}.wall_s", "s") for k in CRITERIA]
    + [("process.cpu_s", "s"), ("trace.wall_s", "s"),
       ("trace.unattributed_s", "s"), ("trace.spans", "count")])


def span_metrics(tracer, root):
    """Every per-layer metric but ``process.cpu_s``, from spans and counters.

    ``root`` is the index of the span around the whole pass; its self time
    is the part of the traced wall time that no wrapped function covers.
    """
    totals = tracer.totals()

    def stat(name, i):
        return totals.get(name, (0, 0.0, 0.0))[i]

    out = {f"{n}.calls": stat(n, 0) for n in _CALLS}
    out.update({f"{n}.self_s": stat(n, 2) for n in _SELF})
    out.update({n: tracer.counters[n] for n in _COUNTERS})
    out["transfer.check.calls"] = sum(
        calls for name, (calls, _, _) in totals.items()
        if name.startswith("transfer.check_"))
    premises = stat("transfer.measure_premise", 0)
    out["transfer.premise.random_win_ratio"] = (
        tracer.counters["transfer.premise.random_wins"] / premises
        if premises else 0.0)
    out["cli.units"] = stat("cli.unit", 0)
    out.update({f"acceptance.criterion_{k}.wall_s":
                stat(f"acceptance.criterion_{k}", 1) for k in CRITERIA})
    root_name = tracer.spans[root][0]
    out["trace.wall_s"] = stat(root_name, 1)
    out["trace.unattributed_s"] = stat(root_name, 2)
    out["trace.spans"] = len(tracer.spans)
    return out
