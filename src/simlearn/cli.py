"""Command-line harness.

Subcommands:
  gen-data          sample a dataset from a config and write it to disk
  train             train the configured learners, write predictors + reports
  distortion-check  run the divergence/loss sandwich suites on a grid
  experiment        sweep instances x seeds x learners x checks into a CSV
  verify            run the acceptance suite; exit 0 iff everything passes

Exit codes: 0 success, 2 malformed input (a library error that is a
ValueError: a bad config, dataset or argument, an --out that cannot be
written), 3 numeric failure (one that is a RuntimeError: a line search that
drives its step to zero, non-finite iterates, a link bisection that cannot
bracket its value).  `verify` exits 1 when a criterion fails.  CSV artifacts
are byte-stable for a fixed config and seed; the runtime_ms column is
written as 0 unless --timing is given, so timing noise never touches the
bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import acceptance, config as config_mod, fenchel, learners, synth, \
    transfer
from .errors import ConfigError, SimlearnError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CSV_HEADER = acceptance.CSV_HEADER


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _seed(args, default):
    """``--seed``, or ``default`` when it is not given; NumPy's generators
    take no negative seed."""
    if args.seed is None:
        return default
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, "
                          f"not {args.seed}")
    return args.seed


def _check_out_file(path):
    """Raise a ConfigError unless ``--out`` names a file in an existing
    directory; called before any work, so a bad ``--out`` never fails a
    finished run."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(parent):
        raise ConfigError(f"--out {path} is not a file in an existing "
                          f"directory")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args):
    cfg = config_mod.load_config(args.config)
    seed = _seed(args, cfg.seeds[0])
    _check_out_file(args.out)
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
    seed = _seed(args, cfg.seeds[0])
    out_dir = args.out
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ConfigError(f"--out {out_dir} is a file, not a directory")
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
    if grid_n < 1:
        raise ConfigError(f"--grid-density must be at least 1, not {grid_n}")
    if grid_n < 4:
        print(f"warning: grid density {grid_n} is too low to be informative",
              file=sys.stderr)
    tags = [t.strip() for t in fenchel.split_top_level(args.pairs)] \
        if args.pairs else ["identity", "leaky_relu(0.1)"]
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
    return tuple(map(acceptance.csv_text,
                     (row.instance, row.learner, row.theorem)))


def _run_instance(unit, train, ev):
    """The rows of one experiment unit, each carrying its training time."""
    _, checked, train_ms = acceptance.run_unit(unit, train, ev)
    for _, row in checked:
        row.runtime_ms = train_ms
    return [row for _, row in checked]


def _run_seed(units):
    """The rows of the units of one seed, which share their feature draws."""
    return [row for rows in acceptance.run_units(units, _run_instance)
            for row in rows]


def cmd_experiment(args):
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, not {args.workers}")
    cfg = config_mod.load_config(args.config)
    _check_out_file(args.out)
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

    needed = []
    for unit in cfg.units():
        key_prefix = tuple(map(acceptance.csv_text,
                               (unit.instance, unit.entry["name"])))
        # a check's row carries its theorem tag, or <kind>_inapplicable
        missing = any(all((*key_prefix, theorem) not in existing
                          for theorem in (transfer.CHECKS[kind][0],
                                          f"{kind}_inapplicable"))
                      for kind, _ in cfg.checks)
        if missing or not existing:
            needed.append(unit)

    # one task per seed, whose units share their draws; the pool starts all
    # its processes at once: no more than the tasks.  It and the
    # multiprocessing modules under it load only here, when a pool runs.
    by_seed = [list(units) for _, units in itertools.groupby(
        sorted(needed, key=lambda unit: unit.seed), lambda unit: unit.seed)]
    workers = min(args.workers, len(by_seed))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            produced = list(pool.map(_run_seed, by_seed))
    else:
        produced = list(map(_run_seed, by_seed))

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
    seed = _seed(args, acceptance.DEFAULT_SEED)
    if args.out:
        _check_out_file(args.out)
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
    except SimlearnError as exc:
        return _fail(EXIT_CONFIG if isinstance(exc, ValueError)
                     else EXIT_NUMERIC, str(exc))


if __name__ == "__main__":
    sys.exit(main())
