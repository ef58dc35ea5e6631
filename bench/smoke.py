"""Smoke check of the benchmark itself (about three minutes).

    python3 bench/smoke.py

- Runs every workload of workloads.py once, shortened to one pass, untraced and then
  traced with two seeds, through ``run.py`` as the benchmark command
  would.  Asserts that each run is correct and reports exactly the
  metrics BENCHMARK.json names, each with its unit.
- Asserts that the counts of the two traced runs (calls, nodes, bytes)
  are identical, although the seeds pick different scales.
- Asserts that every metric of the layer table in layers.json exists.
- Runs one pass of ``embed`` in-process against a deliberately wrong
  reference digest and asserts the failure is counted.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
import worker  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def _load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload, seed, traced):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(int(traced))],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s"
                             % (workload, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, wanted, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: result keys %s" % (label, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError("%s: not correct: %s" % (label, result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise AssertionError("%s: metrics %s, expected %s" % (label, got, wanted))


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def check_wrong_digest():
    """A wrong pinned digest must be counted as a failed operation."""
    saved = dict(workloads.EMBED_DIGESTS)
    workloads.EMBED_DIGESTS.update((b, "0" * 64) for b in saved)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(ROOT, ".bench_work"))
    cwd = os.getcwd()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            worker.main([ROOT, workdir, "embed", "1", "0", "0"])
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        workloads.EMBED_DIGESTS.update(saved)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if result["failed"] != 1 or result["info"]["fail_frac"] != 0.5:
        raise AssertionError("wrong digest not counted: %s" % result)
    print("wrong digest counted: failed=%d of %d, fail_frac=%g"
          % (result["failed"], result["attempted"], result["info"]["fail_frac"]))


def main():
    spec = _load("BENCHMARK.json")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    table = _load("bench/layers.json")
    for row in table["layers"]:
        for name in row["metrics"] + row["moves"]:
            if name not in per_layer and name not in end_to_end:
                raise AssertionError("layers.json names unknown metric %s" % name)
        for name in row["workloads"]:
            if name not in workloads.WORKLOADS:
                raise AssertionError("layers.json names unknown workload %s" % name)
    for name in workloads.WORKLOADS:
        check_result(run(name, 1, False), end_to_end, name + " untraced")
        first, second = run(name, 1, True), run(name, 2, True)
        check_result(first, per_layer, name + " traced")
        check_result(second, per_layer, name + " traced")
        if counts(first) != counts(second):
            raise AssertionError("%s: counts differ between traced runs: %s / %s"
                                 % (name, counts(first), counts(second)))
        print("%s: ok, %d counts repeat exactly" % (name, len(counts(first))))
    check_wrong_digest()
    print("smoke check passed")


if __name__ == "__main__":
    main()
