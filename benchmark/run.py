"""Benchmark runner for substochastic (standard library only).

    python3 benchmark/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/``; the
CLI workload starts ``python -m substochastic.cli`` with ``PYTHONPATH=src``.
With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it is the per-layer result of a fixed number of rounds, run
once untraced and once traced.  Lines before it are a readable table.
Artifacts (spans, per-item latencies, CLI input files) go to ``.bench_out/``.
See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS threads before anything imports numpy.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import compileall  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3
HARD_STOP_S = 120  # no new item starts after this, whatever the round
TAIL_BEYOND = 10  # samples that must lie above the tail percentile
TRACE_GLUE_MAX = 0.05  # share of item wall time the top-level spans may miss
IMPORT_REPEATS = 5
PROBE_REPS = 3
PROBE_NOMINAL_S = 1.2e-3  # the probe's time at the reference speed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def probe_s() -> float:
    """Fastest of PROBE_REPS runs of a fixed pure-Python kernel (small ints, Fractions).

    On a shared 2-vCPU machine the speed drifts by up to 1.6x, in phases
    from a fraction of a second to minutes; the probe tracks it.  The fastest
    repetition discards one that was preempted.
    """
    best = math.inf
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        f = Fraction(1, 3)
        for i in range(1, 100):
            f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
        best = min(best, time.perf_counter() - t0)
    return best


class ScaledClock:
    """Times calls and scales each to the reference speed.

    A call's scaled time is its wall time times PROBE_NOMINAL_S over the mean
    of the probes just before and just after it (the after-probe of one call
    is the before-probe of the next).
    """

    def __init__(self):
        self.before = probe_s()

    def scale(self, wall_s: float) -> float:
        after = probe_s()
        scaled = wall_s * 2 * PROBE_NOMINAL_S / (self.before + after)
        self.before = after
        return scaled

    def time(self, fn) -> tuple[float, float]:
        """(wall seconds, scaled seconds) of fn()."""
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        return wall, self.scale(wall)


def run_rounds(wl, seconds) -> tuple[list, float, float]:
    """(records, wall seconds, peak MB) of a closed loop over whole rounds.

    Rounds run in blocks of ``wl.round_block``.  After the workload's
    min_rounds, a block starts only if, at the mean round time so far, it ends
    within ``seconds``.  Each item starts on a collected heap, so a garbage
    collection that one item left pending does not land in another.

    The peak memory is read once min_rounds rounds have run: the allocator's
    high-water mark creeps with every round, and the number of rounds that
    fit in ``seconds`` changes with the machine's speed.
    """
    records = []
    clock = ScaledClock()
    start = time.perf_counter()
    r = 0
    peak = None
    while r < wl.min_rounds or (time.perf_counter() - start) * (r + wl.round_block) / r <= seconds:
        for _ in range(wl.round_block):
            for item in wl.round(r):
                if time.perf_counter() - start > HARD_STOP_S:
                    return records, time.perf_counter() - start, peak or peak_rss_mb(wl.name)
                rec = run_item(item)
                gc.collect()
                rec[4] = clock.scale(rec[3])
                records.append(rec)
            r += 1
            if r == wl.min_rounds:
                peak = peak_rss_mb(wl.name)
    return records, time.perf_counter() - start, peak


def run_item(item) -> list:
    """[item, output, exception, wall seconds, scaled seconds (wall until scaled)]."""
    t0 = time.perf_counter()
    try:
        out, err = item.run(), None
    except Exception as exc:  # a failed item is counted, not fatal
        out, err = None, exc
    wall = time.perf_counter() - t0
    return [item, out, err, wall, wall]


def check_records(records) -> tuple[int, int, list]:
    """(failed, exact, messages) over the records of one pass."""
    failed = exact = 0
    messages = []
    for rec in records:
        item, out, err = rec[:3]
        if err is not None:
            ok, is_exact, msg = False, False, f"raised {err!r}"
        else:
            try:
                ok, is_exact, msg = item.check(out)
            except Exception as exc:  # a broken output shape is a wrong answer
                ok, is_exact, msg = False, False, f"check raised {exc!r}"
        rec.append(ok)
        failed += not ok
        exact += bool(is_exact)
        if not ok:
            messages.append(f"{item.key}: {msg}")
    return failed, exact, messages


def tail(latencies, q) -> tuple[float, float, int]:
    """(value, percentile, samples above) of the tail latency.

    The workload's quantile ``q`` is used while at least TAIL_BEYOND samples
    lie above it; a shorter run falls back to the sample with exactly
    TAIL_BEYOND above it.  A fixed quantile keeps the value steady when the
    number of whole rounds in a run changes.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    pos = q * (n - 1)
    if n - 1 - math.floor(pos) < TAIL_BEYOND:
        pos = max(0, n - 1 - TAIL_BEYOND)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, 100.0 * pos / max(1, n - 1), n - 1 - lo


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(args, ss, wl_cls, ref):
    """Timings are scaled to the reference speed (ScaledClock); wall figures go to the notes."""
    clock = ScaledClock()
    imports = fresh_imports(clock)
    setups = []
    for _ in range(SETUP_REPEATS):
        wl = wl_cls(ss, ref, args.seed, ROOT, OUT_DIR)
        setups.append(clock.time(wl.setup))
    gc.collect()
    records, wall, peak_mb = run_rounds(wl, args.seconds)
    failed, exact, messages = check_records(records)
    n = len(records)
    lat = [rec[4] for rec in records]
    tail_s, tail_pct, beyond = tail(lat, wl.tail_q)
    wall_lat = [rec[3] for rec in records]
    metrics = {
        "items_per_s": (n / sum(lat), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "ok_frac": ((n - failed) / n, "ratio"),
        "exact_frac": (exact / n, "ratio"),
        "setup_s": (statistics.median(s for _, s in imports)
                    + statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {
        "items": n,
        "failed_frac": failed / n,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "slowdown_vs_reference": statistics.median(w / s for w, s in zip(wall_lat, lat)),
        "wall": {
            "timed_s": wall,
            "items_per_s": n / wall,
            "item_p50_ms": statistics.median(wall_lat) * 1e3,
            "item_tail_ms": tail(wall_lat, wl.tail_q)[0] * 1e3,
            "setup_s": statistics.median(w for w, _ in imports)
            + statistics.median(w for w, _ in setups),
        },
        "import_s": imports,
        "setup_repeats_s": setups,
    }
    detail = [{"key": rec[0].key, "kind": rec[0].kind, "ms": rec[3] * 1e3,
               "scaled_ms": rec[4] * 1e3, "ok": rec[5]} for rec in records]
    return metrics, notes, n, failed, messages, detail


def fresh_imports(clock) -> list:
    """(wall, scaled) seconds of ``import substochastic``, timed inside fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import substochastic; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        child_s = float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                       check=True, capture_output=True, text=True).stdout)
        times.append((child_s, clock.scale(child_s)))
    return times


def import_cost_ms() -> tuple[float, float]:
    """Medians of a fresh ``import substochastic`` and of a bare interpreter, in ms."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def median_ms(code):
        times = []
        for _ in range(IMPORT_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    bare = median_ms("pass")
    return median_ms("import substochastic") - bare, bare


def per_layer(args, ss, wl_cls, ref):
    """Each item of wl.trace_rounds rounds runs untraced, then traced (on its own inputs)."""
    import tracing

    plain_wl, traced_wl = (wl_cls(ss, ref, args.seed, ROOT, OUT_DIR) for _ in range(2))
    plain_wl.setup()
    traced_wl.setup()  # own families: memos warm up alike in both passes
    tracer = tracing.Tracer()
    traced_wl.tracer = tracer
    gc.collect()
    plain, traced = [], []
    for r in range(traced_wl.trace_rounds):
        for a, b in zip(plain_wl.round(r), traced_wl.round(r)):
            plain.append(run_item(a))
            tracer.item = len(traced)
            restore = tracing.install(tracer)
            try:
                traced.append(run_item(b))
            finally:
                restore()
    tracer.item = None

    failed_plain, _, messages = check_records(plain)
    failed, _, more = check_records(traced)
    messages += more
    n = len(traced)

    totals = tracing.layer_totals(tracer.spans)
    for rec in traced:  # spans the CLI children wrote
        out = rec[1]
        if args.workload == "cli" and out is not None and out[3] and os.path.exists(out[3]):
            with open(out[3]) as fh:
                tracing.merge_totals(totals, tracing.layer_totals(
                    [json.loads(line) for line in fh]))

    metrics = {}
    for name in tracing.SPAN_NAMES:
        calls, total_s, self_s, _ = totals.get(name, (0, 0.0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_ms"] = (total_s * 1e3, "ms")
        metrics[f"{name}.self_ms"] = (self_s * 1e3, "ms")
        metrics[f"{name}.calls_per_item"] = (calls / n, "count/item")
    fvs = totals.get("cycles.min_cycle_transversal", (0, 0.0, 0.0, 0))
    metrics["cycles.min_cycle_transversal.exact_ratio"] = (fvs[3] / fvs[0] if fvs[0] else 0.0,
                                                           "ratio")
    import_ms, bare_ms = import_cost_ms()
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.bare_python_ms"] = (bare_ms, "ms")
    wall_plain = sum(rec[3] for rec in plain)
    wall_traced = sum(rec[3] for rec in traced)
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1, "ratio")
    covered = tracing.top_level_seconds(tracer.spans)
    uncovered = 1 - sum(covered.values()) / wall_traced
    metrics["trace.uncovered_frac"] = (uncovered, "ratio")
    if uncovered > TRACE_GLUE_MAX:
        messages.append(f"top-level spans miss {uncovered:.1%} of item time "
                        f"(allowed {TRACE_GLUE_MAX:.0%})")
        failed += 1
    late = sum(1 for i, rec in enumerate(traced)
               if rec[3] - covered.get(i, 0.0) > max(TRACE_GLUE_MAX * rec[3], 2e-3))
    notes = {"items": n, "rounds": traced_wl.trace_rounds, "untraced_failures": failed_plain,
             "items_over_glue_allowance": late}
    tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    detail = [{"key": rec[0].key, "kind": rec[0].kind, "ms": rec[3] * 1e3, "ok": rec[5]}
              for rec in traced]
    return metrics, notes, len(plain) + n, failed + failed_plain, messages, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "substochastic", "__init__.py")):
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)  # the first run would pay byte-compilation
    sys.path.insert(0, SRC)

    import substochastic as ss

    env = environment()
    wl_cls = WORKLOADS[args.workload]
    if args.trace:
        metrics, notes, n, failed, messages, detail = per_layer(args, ss, wl_cls, ref)
    else:
        metrics, notes, n, failed, messages, detail = end_to_end(args, ss, wl_cls, ref)

    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<52} {value:>14.6g} {unit}")
    for msg in messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "env": env, "notes": notes, "items": detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
