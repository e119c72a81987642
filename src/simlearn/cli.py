"""Command-line harness.

Subcommands:
  gen-data          sample a dataset from a config and write it to disk
  train             train the configured learners, write predictors + reports
  distortion-check  run the divergence/loss sandwich suites on a grid
  experiment        sweep instances x seeds x learners x checks into a CSV
  verify            run the acceptance suite; exit 0 iff everything passes

Exit codes: 0 success, 2 configuration error, 3 numeric failure (training
divergence or non-convergence).  CSV artifacts are byte-stable for a fixed
config and seed; the runtime_ms column is written as 0 unless --timing is
given, so timing noise never touches the bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import acceptance, config as config_mod, fenchel, learners, synth, \
    transfer
from .errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    NoConvergenceError,
    SimlearnError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CSV_HEADER = acceptance.CSV_HEADER


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args):
    cfg = config_mod.load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    ds = synth.make_dataset(cfg.marginal, cfg.label_model, cfg.n_train, seed)
    synth.save_dataset(ds, args.out)
    print(f"wrote {ds.n} x {ds.d} dataset to {args.out} "
          f"(certified opt bound {ds.certified_opt_upper_bound:.6g})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args):
    cfg = config_mod.load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    train_ds = synth.make_dataset(cfg.marginal, cfg.label_model,
                                  cfg.n_train, seed)
    eval_ds = synth.make_dataset(cfg.marginal, cfg.label_model,
                                 cfg.n_eval, seed + 1)
    pairs = [fenchel.pair_from_tag(t) for t in cfg.pairs]
    for entry in cfg.learners:
        predictor = config_mod.train_learner(entry, train_ds, seed)
        name = entry["name"]
        pred_path = os.path.join(out_dir, f"{name}.predictor.txt")
        with open(pred_path, "w") as fh:
            fh.write(learners.write_predictor(predictor))
        report = transfer.evaluate(predictor.predict(eval_ds.features),
                                   eval_ds, pairs=pairs)
        rep_path = os.path.join(out_dir, f"{name}.report.json")
        with open(rep_path, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"{name}: err2={report.err2:.6g} err1={report.err1:.6g} "
              f"-> {pred_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# distortion-check
# ---------------------------------------------------------------------------


def cmd_distortion_check(args):
    """Print the rows of acceptance criterion 1 for the requested pairs."""
    grid_n = args.grid_density
    if grid_n < 4:
        print(f"warning: grid density {grid_n} is too low to be informative",
              file=sys.stderr)
    tags = [t.strip() for t in args.pairs.split(",")] if args.pairs \
        else ["identity", "leaky_relu(0.1)"]
    res = acceptance.criterion_1(grid_n=grid_n, tags=tags)
    violations = res.details["violations"]
    print(f"{'suite':34s} {'pair':22s} {'worst slack':>14s}")
    for row in res.rows:
        print(f"{row.theorem:34s} {row.learner:22s} {row.slack:14.3e}"
              + ("  VIOLATED" if (row.theorem, row.learner) in violations
                 else ""))
    if violations:
        print("violations: " + ", ".join(f"{s} ({p})" for s, p in violations))
        return 1
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def _row_key(row):
    return (row.instance, row.learner, row.theorem)


def _run_instance(payload):
    """One (instance, seed, learner) unit: train and predict once, then run
    every configured check on the predictions."""
    cfg, inst_name, model, seed, entry = payload
    train_ds = synth.make_dataset(cfg.marginal, model, cfg.n_train, seed)
    eval_ds = synth.make_dataset(cfg.marginal, model, cfg.n_eval, seed + 1)
    t0 = time.time()
    predictor = config_mod.train_learner(entry, train_ds, seed)
    train_ms = int((time.time() - t0) * 1000)
    extra = [predictor.w] if hasattr(predictor, "w") else []
    return [row for _, row in acceptance.check_rows(
        f"{inst_name}_s{seed}", entry["name"], cfg.checks,
        predictor.predict(eval_ds.features), eval_ds, entry["norm_bound"],
        extra, cfg.eps, seed, train_ms)]


def cmd_experiment(args):
    cfg = config_mod.load_config(args.config)
    if not cfg.learners:
        raise ConfigError("empty learner list")
    existing = {}
    if args.resume and os.path.exists(args.out):
        with open(args.out) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ConfigError(f"cannot resume: {args.out} has a foreign header")
            for lineno, line in enumerate(fh, start=2):
                try:
                    row = acceptance.parse_row(line.rstrip("\n"))
                except ConfigError as exc:
                    raise ConfigError(
                        f"cannot resume: {args.out} line {lineno}: {exc}") \
                        from exc
                existing[_row_key(row)] = row

    units = []
    for inst_name, model in cfg.instance_models():
        for seed in cfg.seeds:
            for entry in cfg.learners:
                units.append((cfg, inst_name, model, seed, entry))
    needed = []
    for unit in units:
        key_prefix = (f"{unit[1]}_s{unit[3]}", unit[4]["name"])
        # a check's row carries its theorem tag, or <kind>_inapplicable
        missing = any(all((*key_prefix, theorem) not in existing
                          for theorem in (transfer.CHECKS[kind][0],
                                          f"{kind}_inapplicable"))
                      for kind, _ in cfg.checks)
        if missing or not existing:
            needed.append(unit)

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            produced = list(pool.map(_run_instance, needed))
    else:
        produced = [_run_instance(u) for u in needed]

    rows = dict(existing)
    for batch in produced:
        for row in batch:
            if not args.timing:
                row.runtime_ms = 0
            rows[_row_key(row)] = row
    with open(args.out, "w") as fh:
        fh.write(acceptance.rows_to_csv([rows[key] for key in sorted(rows)]))
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args):
    seed = args.seed if args.seed is not None else acceptance.DEFAULT_SEED
    results = acceptance.run_all(seed)
    for res in results:
        print(res.summary())
    csv_text = acceptance.results_csv(results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"artifact: {args.out}")
    all_ok = all(r.ok for r in results)
    print(f"verify: {'ALL PASS' if all_ok else 'FAILURES PRESENT'} "
          f"({sum(r.ok for r in results)}/{len(results)})")
    return EXIT_OK if all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simlearn",
        description="Matching-loss learners for single-index models, with "
                    "executable error-transfer checks on planted instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="sample a dataset from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train configured learners")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("distortion-check",
                       help="verify the loss/divergence sandwiches on a grid")
    p.add_argument("--grid-density", type=int, default=100)
    p.add_argument("--pairs", default=None,
                   help="comma-separated activation tags")
    p.set_defaults(func=cmd_distortion_check)

    p = sub.add_parser("experiment", help="run a sweep into a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true",
                   help="compute only rows missing from the output CSV")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timing", action="store_true",
                   help="record real runtimes (makes the CSV non-reproducible)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write the CSV artifact here")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except (DivergenceError, NoConvergenceError) as exc:
        return _fail(EXIT_NUMERIC, str(exc))
    except InvalidInputError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except SimlearnError as exc:
        return _fail(EXIT_NUMERIC, str(exc))


if __name__ == "__main__":
    sys.exit(main())
