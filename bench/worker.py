"""Run one workload in this process and print its measurements.

Started by ``run.py`` as a fresh, single-threaded interpreter per
workload, so peak memory is the workload's own.  Operations run one at a
time through ``ffdist.cli.main(argv)`` (a closed loop with one client).
Each operation is timed alone; its exit code, output files and printed
search result are checked after the timer stops.

Before each operation and after the last one of a pass the worker times
a fixed pure-Python reference kernel (``reference_seconds``, no ffdist
code).  An operation's relative time is its time divided by the mean of
the two reference times around it, and a pass's relative time
(``wall_rel``) is the sum over its operations.  On a shared host the
interpreter's speed drifts by tens of percent for minutes at a time;
the reference kernel slows down with it, so the ratio follows the
program's own work and not the host's load.

With ``--trace 0`` the worker runs passes until the next one would not
fit in ``--seconds``.  With ``--trace 1`` it runs each pass twice, first
untraced and then under the tracer, and reports per-layer metrics.

Usage: python3 -I bench/worker.py ROOT WORKDIR WORKLOAD SEED SECONDS TRACE
"""

import contextlib
import fractions
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layertrace  # noqa: E402
import workloads  # noqa: E402

COMMANDS = ("construct", "verify", "search")
_SEARCH_LINE = re.compile(r": (\d+) \((exhausted|budget hit)\)$")


def _sha256(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def check(op, rc, stdout):
    """Problems with one finished operation (empty when it is correct)."""
    problems = []
    if rc != 0:
        problems.append("exit code %d" % rc)
    for name, want in op.files.items():
        got = _sha256(name)
        if got != want:
            problems.append("%s has sha256 %s, expected %s" % (name, got, want))
    if op.search is not None:
        match = _SEARCH_LINE.search(stdout.strip())
        got = match and (int(match.group(1)), match.group(2) == "exhausted")
        if got != op.search:
            problems.append("search printed %r, expected max_size/exhausted %r"
                            % (stdout.strip(), op.search))
    return problems


def _reference_kernel():
    table = {}
    acc = 0
    for i in range(20000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + (i * i) % 101
        acc += table[key]
    x = fractions.Fraction(1)
    for i in range(1, 400):
        x = x * fractions.Fraction(i + 1, i) - fractions.Fraction(1, i * i + 1)
    return acc, x


def reference_seconds():
    """Best of three timings of a fixed kernel of the kinds of work ffdist
    does (dict and tuple traffic, small-int and Fraction arithmetic)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Pass:
    """Timings and failures of one pass over a workload's operations."""

    def __init__(self):
        self.by_command = dict.fromkeys(COMMANDS, 0.0)
        self.rel = 0.0
        self.refs = []
        self.attempted = 0
        self.failures = []

    @property
    def wall(self):
        return sum(self.by_command.values())


def run_pass(cli, ops):
    p = Pass()
    times = []
    for op in ops:
        for name in op.files:
            if os.path.exists(name):
                os.remove(name)
        p.refs.append(reference_seconds())
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(list(op.argv))
            dt = time.perf_counter() - t0
        p.by_command[op.argv[0]] += dt
        times.append(dt)
        p.attempted += 1
        problems = check(op, rc, out.getvalue())
        if problems:
            p.failures.append("%s: %s" % (" ".join(op.argv), "; ".join(problems)))
    p.refs.append(reference_seconds())
    p.rel = sum(dt * 2.0 / (before + after)
                for dt, before, after in zip(times, p.refs, p.refs[1:]))
    return p


def measure(cli, workload, seed, seconds, traced):
    """Run passes for about ``seconds``; returns (untraced passes,
    traced passes, per-layer metric dicts of the traced passes)."""
    stream = workloads.passes(workload, seed)
    plain, under_trace, layers = [], [], []
    tracer = layertrace.Tracer()
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        ops = next(stream)
        plain.append(run_pass(cli, ops))
        if traced:
            tracer.install()
            try:
                tracer.reset()
                under_trace.append(run_pass(cli, ops))
            finally:
                tracer.remove()
            layers.append(layertrace.layer_metrics(tracer.stats, tracer.counters))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - start + longest > seconds:
            return plain, under_trace, layers


def _median(passes, key):
    return statistics.median(key(p) for p in passes)


def main(argv):
    root, workdir, workload, seed, seconds, traced = argv
    seed, seconds, traced = int(seed), float(seconds), traced == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    from ffdist import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src", "")):
        raise SystemExit("ffdist was not imported from %s/src" % root)
    os.chdir(workdir)
    plain, under_trace, layers = measure(cli, workload, seed, seconds, traced)
    everything = plain + under_trace
    attempted = sum(p.attempted for p in everything)
    failures = [f for p in everything for f in p.failures]
    by_command = {"%s_s" % c: _median(plain, lambda p: p.by_command[c])
                  for c in COMMANDS}
    by_command["wall_s"] = _median(plain, lambda p: p.wall)
    by_command["ref_s"] = statistics.median(r for p in plain for r in p.refs)
    if traced:
        metrics = layertrace.median_metrics(layers)
        metrics.update(by_command)
        metrics["fail_frac"] = len(failures) / attempted
        metrics["trace.overhead_frac"] = (
            _median(under_trace, lambda p: p.wall)
            / _median(plain, lambda p: p.wall) - 1.0)
        info = {}
    else:
        metrics = {
            "wall_rel": _median(plain, lambda p: p.rel),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info = dict(by_command, fail_frac=len(failures) / attempted)
    print(json.dumps({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "passes": [p.wall for p in plain],
        "metrics": metrics,
        "info": info,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
