"""gforge benchmark: seeded checker workloads with known answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of action-laws, roundtrip, paradox-census, cli-battery, or
``all`` to run each in its own process.  The loop is closed, single
process and single thread: one caller issues the next verdict only after
the previous one returned.  Whole passes over the seeded item list repeat
until S seconds have gone and at least 100 verdicts were made.

Every time is reported at a nominal machine speed: a reference chunk of
fixed pure-Python work (calibrate.py) is timed every half second of
verdicts, and each verdict's time is scaled by it.  With --trace 0 the
run reports the end-to-end metrics; with --trace 1 it
first times one untraced pass, then traces every pass after it and reports
calls and self time per layer per pass, plus traced over untraced pass
time.  The traced run writes the spans of its first traced pass and the
verdict table, each verdict tagged with its input size, to perfbench/out/.
The last line of stdout is one JSON object; the lines before it, run
metadata included, are for people.  gforge is imported from src/ of the
checkout, and the run refuses to start while GFORGE_BOUND_OVERRIDE is set.
"""
from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
MIN_VERDICTS = 100
SEGMENT_NS = 500_000_000   # verdict time between reference chunks
RAISED = "raised"

E2E_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------------ metadata

def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gforge").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_meta(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --------------------------------------------------------------------- setup

def setup_once(workload, seed):
    """Import gforge afresh, then build the graphs and the item list."""
    for name in [m for m in sys.modules
                 if m == "gforge" or m.startswith("gforge.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("gforge")
    gf = workloads.Gf()
    items = workloads.WORKLOADS[workload](gf, seed)
    return time.perf_counter() - t0, items


def setup(workload, seed):
    """Median set-up time over several fresh imports, each at the nominal
    machine speed of the reference chunks around it; the last one is used.
    Returns that median and the median of the raw times."""
    times, raw = [], []
    before = calibrate.chunk_seconds()
    for _ in range(SETUP_REPEATS):
        dt, items = setup_once(workload, seed)
        after = calibrate.chunk_seconds()
        times.append(dt * calibrate.factor(before, after))
        raw.append(dt)
        before = after
    gforge_file = Path(sys.modules["gforge"].__file__).resolve()
    if SRC not in gforge_file.parents:
        die(f"imported gforge from {gforge_file}, not from {SRC}")
    return statistics.median(times), statistics.median(raw), items


# ------------------------------------------------------------------- measure

class Tally:
    """Verdict times and outcomes over every pass of one mode.

    A reference chunk (calibrate.py) is timed every SEGMENT_NS of verdicts
    and at the end of each pass; each verdict's time is kept raw in `ns`
    and, scaled by the chunks around its segment, in `scaled_ns`."""

    def __init__(self):
        self.ns = []
        self.scaled_ns = []
        self.outcomes = collections.Counter()
        self.status = {}          # verdict id -> outcome in the last pass
        self.errors = []
        self.before = None        # the last reference chunk's time

    def run_pass(self, items, tracer=None):
        clock = time.perf_counter_ns
        if self.before is None:
            self.before = calibrate.chunk_seconds()
        seg, seg_t0 = [], clock()
        last = len(items) - 1
        for vid, item in enumerate(items):
            if tracer is not None:
                tracer.verdict = vid
            t0 = clock()
            try:
                status = item.check()
            except Exception:
                status = RAISED
                if len(self.errors) < 3:
                    self.errors.append((vid, item.kind, traceback.format_exc()))
            t1 = clock()
            seg.append(t1 - t0)
            self.outcomes[status] += 1
            self.status[vid] = status
            if t1 - seg_t0 >= SEGMENT_NS or vid == last:
                after = calibrate.chunk_seconds()
                f = calibrate.factor(self.before, after)
                self.ns += seg
                self.scaled_ns += [t * f for t in seg]
                self.before = after
                seg, seg_t0 = [], clock()

    def pass_seconds(self, n, scaled=True):
        """Summed verdict time of each whole pass of n verdicts."""
        ns = self.scaled_ns if scaled else self.ns
        return [sum(ns[i:i + n]) / 1e9 for i in range(0, len(ns), n)]

    @property
    def failed(self) -> int:
        return sum(n for s, n in self.outcomes.items() if s != workloads.PASS)

    @property
    def correct(self) -> bool:
        return not (self.outcomes[workloads.WRONG] or self.outcomes[RAISED])


def measure(items, seconds, tally, tracer=None):
    """Whole passes until `seconds` have gone and enough verdicts exist.

    Garbage left by set-up is collected and the surviving objects frozen
    first, so collections during the passes scan only what they create."""
    gc.collect()
    gc.freeze()
    passes = 0
    t0 = time.perf_counter()
    while True:
        tally.run_pass(items, tracer)
        if tracer is not None:
            tracer.recording = False      # spans of the first pass suffice
        passes += 1
        wall = time.perf_counter() - t0
        if wall >= seconds and len(tally.ns) >= MIN_VERDICTS:
            return passes, wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(args, items, setup_s):
    """End-to-end metrics at the nominal machine speed (see calibrate.py),
    each a median so that one slow moment of the shared machine moves none
    of them: throughput is over the median pass, and the quantiles are
    taken over each verdict's median time across the passes."""
    tally = Tally()
    passes, wall = measure(items, args.seconds, tally)
    n = len(items)
    ms = sorted(statistics.median(tally.scaled_ns[vid::n]) / 1e6
                for vid in range(n))
    metrics = {
        "verdicts_per_s": n / statistics.median(tally.pass_seconds(n)),
        "verdict_ms_p50": statistics.median(ms),
        "verdict_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = tally.pass_seconds(n, scaled=False)
    print(f"verdicts          {len(tally.ns)} in {passes} passes of {n}, "
          f"{wall:.3f} s with reference chunks")
    print("pass seconds      " + " ".join(f"{w:.3f}" for w in raw))
    print(f"raw throughput    {n / statistics.median(raw):.6g} 1/s at the "
          f"machine's own speed, {sum(tally.ns) / sum(tally.scaled_ns):.3f} "
          f"times the nominal")
    print(f"p90 samples       {n} verdict medians, "
          f"{sum(1 for t in ms if t > metrics['verdict_ms_p90'])} beyond p90")
    return tally, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def traced(args, items, meta):
    base = Tally()
    base.run_pass(items)
    untraced_pass = base.pass_seconds(len(items))[0]

    tracer_ = tracer.Tracer()
    tracer_.install()
    tally = Tally()
    try:
        passes, wall = measure(items, args.seconds, tally, tracer_)
    finally:
        tracer_.uninstall()
    speed = sum(tally.scaled_ns) / sum(tally.ns)
    overhead = statistics.median(tally.pass_seconds(len(items))) / untraced_pass
    values = tracer_.layer_metrics(passes)
    for layer in tracer_.names:
        values[f"{layer}.self_s"] *= speed
    values["trace.overhead"] = overhead
    units = tracer.metric_names()
    metrics = {k: (values[k], units[k]) for k in units}

    OUT.mkdir(exist_ok=True)
    stem = OUT / args.workload
    verdicts = [{"id": vid, "kind": item.kind, "tags": item.tags,
                 "outcome": tally.status[vid],
                 "traced_ms": tally.ns[vid] / 1e6}
                for vid, item in enumerate(items)]
    tracer_.write(str(stem), {
        "meta": meta, "passes": passes, "untraced_pass_s": untraced_pass,
        "traced_wall_s": wall,
        "per_layer": {k: v for k, (v, _) in metrics.items()},
        "verdicts": verdicts,
    })
    print(f"traced            {len(tally.ns)} verdicts in {passes} passes, "
          f"{wall:.3f} s; untraced pass {untraced_pass:.3f} s; "
          f"overhead x{overhead:.2f}")
    print(f"spans             {len(tracer_.columns['start_ns'])} of the first "
          f"traced pass written to {stem.relative_to(ROOT)}-spans.bin, "
          f"verdicts and meta to {stem.relative_to(ROOT)}-trace.json")
    self_s = {layer: values[f"{layer}.self_s"] for layer in tracer_.names}
    total = sum(self_s.values())
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
    print("top self time     " + ", ".join(
        f"{layer} {s / total:.1%}" for layer, s in top if s))
    return tally, metrics


def report(tally, metrics):
    attempted = len(tally.ns)
    o = tally.outcomes
    print(f"failed_share      {tally.failed / attempted:.6f} share "
          f"({tally.failed} of {attempted}: wrong {o[workloads.WRONG]}, "
          f"raised {o[RAISED]}, vacuous {o[workloads.VACUOUS]}, "
          f"known disagreement {o[workloads.KNOWN]})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    for vid, kind, tb in tally.errors:
        print(f"verdict {vid} ({kind}) raised:\n{tb}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
        print()
    print(json.dumps(merged))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if "GFORGE_BOUND_OVERRIDE" in os.environ:
        die("GFORGE_BOUND_OVERRIDE is set; it silently rewrites every CLI "
            "bound, so results would not match the known answers")
    if not (SRC / "gforge" / "__init__.py").is_file():
        die(f"no gforge sources at {SRC}")
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; "
            f"have {', '.join(workloads.WORKLOADS)} or all")
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        run_all(args)
        return
    sys.path.insert(0, str(SRC))
    meta = run_meta(args)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    setup_s, raw_setup_s, items = setup(args.workload, args.seed)
    print(f"setup             {len(items)} items, median {setup_s:.4f} s "
          f"at nominal speed ({raw_setup_s:.4f} s raw) of {SETUP_REPEATS} "
          f"fresh imports")
    if args.trace:
        tally, metrics = traced(args, items, meta)
    else:
        tally, metrics = untraced(args, items, setup_s)
    report(tally, metrics)


if __name__ == "__main__":
    main()
