"""The benchmark's workloads and the checks on their outputs.

* ``verify``: acceptance criteria 1 to 8, in order.  Criteria 5 and 7 are
  the random-candidate premise scan (criterion 7: the scan wins; criterion
  5: it never wins); criterion 4 holds the Dykstra isotonic fits.
* ``sweep``: ``simlearn experiment`` on a generated config, many small
  units with cheap checks.

Criterion 9 repeats criterion 5's premise path at twice the cost, and
criterion 10 re-runs criteria 1, 2 and 8, so neither is included.

simlearn is imported inside the functions, so that the harness process can
name the workloads without loading the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
import time

# One workload, not a premise half and a fit half: criterion 4's cost follows
# the seed, and only the steady premise criteria beside it keep the spread of
# a ten-seed set within its bound (NOTES.md).
VERIFY_CRITERIA = {"verify": (1, 2, 3, 4, 5, 6, 7, 8)}
NAMES = ("verify", "sweep")

SWEEP_INSTANCES = (("opt0", {"kind": "none"}),
                   ("flip.01", {"kind": "flip_region", "mass": 0.01}),
                   ("flip.1", {"kind": "flip_region", "mass": 0.1}))
SWEEP_LEARNERS = ({"name": "omni", "algorithm": "omnipredictor",
                   "norm_bound": 2.0},
                  {"name": "glmtron", "algorithm": "glmtron",
                   "activation": "sigmoid", "norm_bound": 2.0},
                  {"name": "logistic", "algorithm": "logistic",
                   "norm_bound": 2.0})
SWEEP_CHECKS = ("sim_sqrt", "pconcept")
SWEEP_SEEDS = 4
SWEEP_DIRECTION_SEED = 8
NUMERIC_COLUMNS = (2, 3, 4, 6, 7, 8)   # opt_hat err2 err1 rhs slack c_report


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------


def verify_failures(results):
    """One failure line per criterion whose ``passed`` is false."""
    return [f"criterion {r.number} ({r.name}) failed"
            for r in results if not r.passed]


def run_verify(criteria, seed):
    from simlearn import acceptance

    results, wall = [], {}
    for k in criteria:
        t0 = time.perf_counter()
        # looked up on the module at call time, so a tracer sees it
        results.append(getattr(acceptance, f"criterion_{k}")(seed))
        wall[k] = time.perf_counter() - t0
    rows = [row for res in results for row in res.rows]
    return {"units": len(results), "failures": verify_failures(results),
            "digest": digest(acceptance.rows_to_csv(rows)),
            "criteria_wall_s": wall}


# ---------------------------------------------------------------------------
# sweep workload
# ---------------------------------------------------------------------------


def sweep_config(seed, n_train=20_000, n_eval=50_000, n_seeds=SWEEP_SEEDS):
    """The experiment config of the sweep; its seeds derive from ``seed``.

    The planted direction is fixed: every unit of a pass shares it, and the
    GLMtron iteration count depends on it, so a direction drawn from the
    seed would move the whole pass with the seed.  The samples vary.
    """
    import numpy as np

    seeds = np.random.SeedSequence([int(seed), 0x5EE9]).generate_state(n_seeds)
    return {
        "schema_version": 1,
        "data": {
            "marginal": {"kind": "standard_gaussian", "dim": 5,
                         "augment_constant": True},
            "label_model": {"activation": "sigmoid", "norm": 2.0,
                            "direction_seed": SWEEP_DIRECTION_SEED,
                            "constant_weight": 0.2, "label_space": "binary"},
            "n_train": n_train, "n_eval": n_eval},
        "learners": [dict(e) for e in SWEEP_LEARNERS],
        "checks": list(SWEEP_CHECKS),
        "seeds": [int(s) for s in seeds],
        "instances": [{"name": name, "corruption": dict(corr)}
                      for name, corr in SWEEP_INSTANCES],
    }


def sweep_units(cfg):
    return len(cfg["instances"]) * len(cfg["seeds"]) * len(cfg["learners"])


def sweep_failures(csv_text, cfg):
    """Failure lines for the sweep CSV; at most one per experiment unit.

    A unit fails when its rows are missing, a value is not finite, or a
    check wrote an ``_inapplicable`` row.  A wrong header fails every unit.
    """
    from simlearn import acceptance

    units = {(f"{inst['name']}_s{s}", e["name"]): 0
             for inst in cfg["instances"] for s in cfg["seeds"]
             for e in cfg["learners"]}
    lines = csv_text.split("\n")
    if lines[0] != acceptance.CSV_HEADER or lines[-1] != "":
        return ["sweep CSV has a foreign header or no final newline"] * len(units)
    bad = {}
    for line in lines[1:-1]:
        parts = line.split(",")
        key = (parts[0], parts[1])
        if key not in units or len(parts) != 10:
            return [f"sweep CSV has a foreign row: {line}"] * len(units)
        units[key] += 1
        if parts[5].endswith("_inapplicable"):
            bad[key] = f"unit {key} wrote {parts[5]}"
        elif not all(parts[i] == "" or math.isfinite(float(parts[i]))
                     for i in NUMERIC_COLUMNS):
            bad[key] = f"unit {key} wrote a non-finite value: {line}"
    for key, n_rows in units.items():
        if n_rows != len(cfg["checks"]):
            bad.setdefault(key, f"unit {key} wrote {n_rows} rows")
    return sorted(bad.values())


def run_sweep(cfg, config_path, out_path):
    from simlearn import cli

    # experiment reports on stdout, which carries the worker's result
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["experiment", "--config", str(config_path),
                         "--out", str(out_path), "--workers", "1"])
    units = sweep_units(cfg)
    if code != 0:
        return {"units": units, "digest": "",
                "failures": [f"experiment exited with {code}"] * units}
    with open(out_path) as fh:
        text = fh.read()
    return {"units": units, "failures": sweep_failures(text, cfg),
            "digest": digest(text)}


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def prepare(name, seed, workdir):
    """Build the inputs of a workload; returns the pass as a callable."""
    if name in VERIFY_CRITERIA:
        criteria = VERIFY_CRITERIA[name]
        return lambda: run_verify(criteria, seed)
    if name == "sweep":
        cfg = sweep_config(seed)
        config_path = workdir / f"sweep_{seed}.json"
        out_path = workdir / f"sweep_{seed}.csv"
        config_path.write_text(json.dumps(cfg, indent=1) + "\n")
        return lambda: run_sweep(cfg, config_path, out_path)
    raise ValueError(f"unknown workload {name!r}")
