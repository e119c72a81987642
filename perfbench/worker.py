"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1 --workdir D
    python3 perfbench/worker.py --setup-only ...   # stop once set up
    python3 perfbench/worker.py --platform         # print the platform block

The worker imports simlearn from the checkout's ``src``, builds the inputs
and prints ``ready``; the harness times set-up up to that line.  It then runs
the pass and prints one JSON line with the pass's measurements.  Messages
from the program go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_simlearn():
    sys.path.insert(0, str(SRC))
    import simlearn
    from simlearn import acceptance, cli  # noqa: F401  (not loaded by the package)

    if Path(simlearn.__file__).resolve().parent != SRC / "simlearn":
        raise ImportError(f"simlearn imported from {simlearn.__file__}, "
                          f"not from {SRC}")


def cpu_seconds():
    t = os.times()
    return t.user + t.system


def run_pass(run, name, seed, trace, workdir):
    """Time ``run()``, traced or not, and add the pass's measurements."""
    import tracer as tracing

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install_simlearn(tracer)
        root = tracer.begin(f"workload.{name}")
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        out = run()
    finally:
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = cpu_seconds() - cpu0
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracing.span_metrics(tracer, root)
        out["layers"]["process.cpu_s"] = out["cpu_s"]
        tracer.write(workdir / f"trace_{name}_{seed}.csv.gz")
    return out


def blas_threads():
    """OpenBLAS's thread count, read from the library NumPy loaded."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def platform_block():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": blas_threads()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--platform", action="store_true")
    args = parser.parse_args()

    import_simlearn()
    if args.platform:
        print(json.dumps(platform_block()))
        return 0
    import workloads

    run = workloads.prepare(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if not args.setup_only:
        print(json.dumps(run_pass(run, args.workload, args.seed, args.trace,
                                  args.workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
