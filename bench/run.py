"""ffdist benchmark: one workload, measured end to end or per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): certify, embed, search_graph and
search_clique.  The program is imported from ``src/`` of the checkout; nothing needs
building.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters, half before and half after the worker, of importing
``ffdist.cli`` and building its parser), ``wall_rel`` (median over passes
of one pass's time as a multiple of a fixed reference kernel's time
measured around each operation, see worker.py) and ``peak_rss_mb``
(peak memory of the worker process).  The raw median pass time
``wall_s`` and the reference time ``ref_s`` are printed with them.  ``--trace 1``
reports the per-layer metrics of layertrace.py.  Every operation is
checked against pinned references; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it repeat every metric by name and unit.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEADLINE_SECS = 175
SETUP_PROBES = 12  # before the worker, and as many after it
PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ffdist.cli
ffdist.cli.build_parser()
print(time.perf_counter() - t0)
"""

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


class BenchError(Exception):
    pass


def _python(*args, timeout):
    """Run an isolated interpreter (no user site, no PYTHON* variables)."""
    try:
        proc = subprocess.run([sys.executable, "-I", *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %.0f s" % (args[0], timeout))
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s"
                         % (args[0], proc.returncode, proc.stderr.strip()[-2000:]))
    return proc.stdout


def setup_samples(deadline, count):
    """Import-and-ready times of ``count`` fresh interpreters."""
    return [float(_python("-c", PROBE, SRC, timeout=deadline - time.monotonic()))
            for _ in range(count)]


def run_worker(workload, seed, seconds, traced, deadline):
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % workload, dir=WORK)
    try:
        out = _python(os.path.join(HERE, "worker.py"), ROOT, workdir, workload,
                      str(seed), str(seconds), "1" if traced else "0",
                      timeout=deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("worker printed no result: %r" % out[-2000:])


def bench(workload, seed, seconds, traced):
    deadline = time.monotonic() + DEADLINE_SECS
    # the first probe may compile bytecode, so it is not counted
    setup = [] if traced else setup_samples(deadline, SETUP_PROBES + 1)[1:]
    result = run_worker(workload, seed, seconds, traced, deadline)
    metrics = result["metrics"]
    if not traced:
        setup += setup_samples(deadline, SETUP_PROBES)
        metrics["setup_s"] = statistics.median(setup)
    print("machine: nproc=%d %s python=%s" % (
        os.cpu_count() or 0, platform.machine(), platform.python_version()))
    print("workload %s, seed %d, closed loop, one client; %d passes (s): %s"
          % (workload, seed, len(result["passes"]),
             " ".join("%.3f" % t for t in result["passes"])))
    for name, value in sorted(metrics.items()) + sorted(result["info"].items()):
        print("  %-32s %.6g %s" % (name, value, UNITS.get(name, "")))
    for failure in result["failures"]:
        print("  FAILED %s" % failure)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in sorted(metrics.items())},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = bench(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
