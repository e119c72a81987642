"""Benchmark harness for simlearn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is ``verify`` or ``sweep`` (see workloads.py).
Each pass of a workload runs in a fresh interpreter (perfbench/worker.py),
one process, with OpenBLAS at its default thread count.  A run first starts
set-up-only interpreters, then runs passes until the next one would end
after ``--seconds``; there is always at least one pass.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
Each metric is the median over the run's passes (set-up: over all of its
interpreters).  ``attempted`` counts criteria or experiment units plus one
byte-identity check per pass; ``failed`` counts the failed ones, so
``fail_ratio = failed / attempted``.

``--workload all`` runs every workload untraced and traced and prints the
end-to-end table with ``fail_ratio``, the tracing overhead, the per-layer
metrics and the per-criterion wall times of criteria 1-8.

Scratch files (sweep configs and CSVs, span files, the digest of the first
pass of each workload, seed and version of simlearn's sources) go to
``.perfbench_tmp`` in the checkout.  The default seed is the one
``platform.json`` records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_tmp"
SEEN_DIGESTS = WORKDIR / "digests_seen.json"
RECORDED_DIGESTS = HERE / "digests.json"
PLATFORM = HERE / "platform.json"

DEFAULT_SECONDS = 20
SETUP_ONLY = 2               # each pass's interpreter adds one more sample
RUN_LIMIT_S = 170.0          # every run must end within 180 s
END_TO_END = {"wall_s": "s", "units_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def spawn(args, deadline):
    """Run the worker; returns (set-up seconds, last stdout line).

    Set-up runs from the start of the interpreter to its ``ready`` line.  A
    worker still running at ``deadline`` is killed.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().strip().split("\n")
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first != "ready\n":
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    return setup_s, rest[-1]


def load_json(path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def source_key():
    """sha256 over the names and contents of simlearn's Python sources."""
    h = hashlib.sha256()
    src = ROOT / "src" / "simlearn"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def check_digests(name, seed, passes):
    """Failure lines for passes whose bytes differ from the first pass.

    The first pass of a workload and seed with the same simlearn sources is
    remembered in SEEN_DIGESTS, so only the same code giving other bytes
    fails.  digests.json holds digests recorded when the benchmark was
    written; a difference from those is reported, not failed, because a
    change may alter the bytes on purpose.
    """
    key = f"{name}/{seed}"
    seen_key = f"{key}/{source_key()[:16]}"
    seen = load_json(SEEN_DIGESTS)
    failures = []
    for i, p in enumerate(passes):
        if not p["digest"]:
            failures.append(f"pass {i} wrote no CSV")
            continue
        first = seen.setdefault(seen_key, p["digest"])
        if p["digest"] != first:
            failures.append(f"pass {i}: CSV digest {p['digest'][:16]} differs "
                            f"from the first run's {first[:16]}")
    SEEN_DIGESTS.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    recorded = load_json(RECORDED_DIGESTS).get(key)
    if recorded is not None and recorded != passes[0]["digest"]:
        log(f"note: {key} CSV digest {passes[0]['digest'][:16]} differs from "
            f"the recorded {recorded[:16]} in {RECORDED_DIGESTS.name}")
    return failures


def tally(name, seed, passes):
    """(attempted, failed): units and one byte-identity check per pass."""
    digest_failures = check_digests(name, seed, passes)
    for failure in digest_failures:
        log(f"FAILED: {failure}")
    attempted = sum(p["units"] for p in passes) + len(passes)
    failed = sum(len(p["failures"]) for p in passes) + len(digest_failures)
    return attempted, failed


def run_workload(name, seed, seconds, trace):
    """Set-up samples and passes of one workload.

    Returns the result object and the passes' own measurements.
    """
    if name not in workloads.NAMES:
        raise BenchError(f"unknown workload {name!r}")
    if not (ROOT / "src" / "simlearn" / "__init__.py").is_file():
        raise BenchError(f"no simlearn sources under {ROOT / 'src'}")
    WORKDIR.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    args = ["--workload", name, "--seed", str(seed), "--trace", str(trace),
            "--workdir", str(WORKDIR)]
    # set-up-only interpreters first: they also warm the file cache
    setup = [spawn(args + ["--setup-only"], deadline)[0]
             for _ in range(SETUP_ONLY)]
    passes, durations = [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup_s, line = spawn(args, deadline)
        durations.append(time.perf_counter() - t0)
        setup.append(setup_s)
        passes.append(json.loads(line))
        log(f"{name} seed {seed} pass {len(passes)}: "
            f"wall {passes[-1]['wall_s']:.3f} s, set-up {setup_s:.3f} s, "
            f"digest {passes[-1]['digest'][:16]}")
        for failure in passes[-1]["failures"]:
            log(f"FAILED: {failure}")
        now, typical = time.perf_counter(), statistics.median(durations)
        if now + typical - begin > seconds or now + 1.5 * typical > deadline:
            break

    attempted, failed = tally(name, seed, passes)
    median = statistics.median
    if trace:
        values = {n: median([p["layers"][n] for p in passes])
                  for n in tracer.PER_LAYER}
        units = tracer.PER_LAYER
    else:
        values = {
            "wall_s": median([p["wall_s"] for p in passes]),
            "units_per_s": median([p["units"] / p["wall_s"] for p in passes]),
            "setup_s": median(setup),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        }
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": units[n]}
                          for n in units}}
    return result, passes


# ---------------------------------------------------------------------------
# --workload all: the summary table
# ---------------------------------------------------------------------------


def summary(seed, seconds):
    block = json.loads(subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--platform"], cwd=ROOT,
        check=True, capture_output=True, text=True,
        timeout=RUN_LIMIT_S).stdout)
    print("platform: " + json.dumps(block))
    recorded = load_json(PLATFORM)
    for key, value in block.items():
        if recorded.get(key) != value:
            print(f"note: platform {key} is {value!r}; {PLATFORM.name} "
                  f"records {recorded.get(key)!r}")
    plain, traced, walls = {}, {}, {}
    for name in workloads.NAMES:
        plain[name], passes = run_workload(name, seed, seconds, 0)
        traced[name], _ = run_workload(name, seed, seconds, 1)
        walls.update(passes[0].get("criteria_wall_s", {}))

    print(f"\nend-to-end metrics, seed {seed} (tracing off)")
    print(f"{'workload':16s} {'metric':14s} {'value':>14s}  unit")
    for name, res in plain.items():
        for metric, m in res["metrics"].items():
            print(f"{name:16s} {metric:14s} {m['value']:14.4f}  {m['unit']}")
        ratio = res["failed"] / res["attempted"]
        print(f"{name:16s} {'fail_ratio':14s} {ratio:14.4f}  "
              f"ratio ({res['failed']}/{res['attempted']})")
        overhead = (traced[name]["metrics"]["trace.wall_s"]["value"]
                    / res["metrics"]["wall_s"]["value"])
        print(f"{name:16s} {'trace_overhead':14s} {overhead:14.4f}  "
              "traced wall_s / untraced wall_s")

    for name, res in traced.items():
        print(f"\nper-layer metrics, {name} (traced)")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:16.6g}  {m['unit']}")

    print(f"\nper-criterion wall time (s), seed {seed}, tracing off\n")
    print("| " + " | ".join(str(k) for k in tracer.CRITERIA) + " |")
    print("|" + "---|" * len(tracer.CRITERIA))
    print("| " + " | ".join(f"{walls[str(k)]:.2f}" for k in tracer.CRITERIA)
          + " |")
    return 0 if all(r["correct"] for r in plain.values()) else 1


def main():
    parser = argparse.ArgumentParser(
        description="simlearn benchmark: one workload, or all of them")
    parser.add_argument("--workload", required=True,
                        help=", ".join(workloads.NAMES) + " or all")
    parser.add_argument("--seed", type=int,
                        default=load_json(PLATFORM)["default_seed"])
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload == "all":
            return summary(args.seed, args.seconds)
        result, _ = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
