"""Reasoner benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload dept_wide --seed 1 --seconds 35 --trace 0

Run from the repository root.  The program is imported from ``src/`` and
the flat corpus from ``tests/corpus.py``; without them the run exits 1
before measuring anything.

``--trace 0`` runs whole passes over the workload's family for about
``--seconds``, a single client in a closed loop, and reports
the end-to-end metrics.  ``--trace 1`` runs two untraced and two traced
passes over the same inputs and reports the per-layer metrics of one
traced pass; spans are written to ``bench/out/``.  Either way every
verdict is checked against its reference after the timed part, and the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

KINDS = ("sat", "entail", "models")
VERDICT_CAP_S = 30.0  # a verdict cut here counts as failed
RUN_DEADLINE_S = 150.0  # verdicts due after this are cut too
SETUP_PROBES = 3  # before each pass and after the last
SETUP_PROBE = ("import time; t = time.perf_counter(); import dkblite.cli; "
               "print(time.perf_counter() - t)")


class WallCap(Exception):
    """A verdict ran past its wall-time cap."""


def _on_alarm(signum, frame):
    raise WallCap("wall-time cap reached")


class Recorder:
    """Times each verdict and keeps its decoded answer for the check.

    Each distinct answer is kept once per key, with a count, so memory does
    not grow with the number of passes and peak RSS stays the program's."""

    def __init__(self, deadline: float, tracer=None) -> None:
        self.deadline = deadline
        self.tracer = tracer
        self.latency = {k: [] for k in KINDS}
        self.answers: dict = {}  # key -> [[answer, times seen], ...]
        self.failures: list[str] = []
        self.attempted = 0

    def __call__(self, kind, key, call, decode) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.verdict = self.attempted
        left = self.deadline - time.perf_counter()
        if left <= 0:
            self.failures.append(f"{key}: cut, run deadline passed")
            return
        signal.setitimer(signal.ITIMER_REAL, min(VERDICT_CAP_S, left))
        start = time.perf_counter()
        try:
            result = call()
            elapsed = time.perf_counter() - start
        except Exception as e:  # every failing verdict is counted, not fatal
            self.failures.append(f"{key}: {type(e).__name__}: {e}")
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            answer = decode(result)
        except (ValueError, KeyError, TypeError) as e:
            self.failures.append(f"{key}: undecodable output: {e}")
            return
        self.latency[kind].append(elapsed)
        seen = self.answers.setdefault(key, [])
        for entry in seen:
            if entry[0] == answer:
                entry[1] += 1
                break
        else:
            seen.append([answer, 1])

    def check(self, workload) -> None:
        for key, seen in self.answers.items():
            want = workload.expected(key)
            for answer, times in seen:
                if answer != want:
                    self.failures += [
                        f"{key}: got {answer!r}, want {want!r}"] * times


def _import_program():
    sys.path[1:1] = [str(SRC), str(ROOT / "tests")]
    try:
        import dkblite
        import tracer
        import workloads
    except ImportError as e:
        sys.exit(f"bench: cannot import the program and its corpus: {e}")
    if not pathlib.Path(dkblite.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: dkblite imported from {dkblite.__file__},"
                 f" not from {SRC}")
    return tracer, workloads


def _metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure_setup(repeats: int) -> list[float]:
    """Wall times for a fresh interpreter to import dkblite.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)
        times.append(float(done.stdout))
    return times


def _p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def timed_run(wl, seconds: int, deadline: float) -> tuple[Recorder, dict]:
    """Whole passes while the next one is expected to end within
    `seconds`.  The machine's speed drifts over seconds, so the set-up
    probes are spread between the passes rather than bunched."""
    wl.run_pass(Recorder(deadline), warmup=True)
    rec = Recorder(deadline)
    setup = []
    busy = last = 0.0
    passes = 0
    while not passes or busy + last <= seconds:
        setup += measure_setup(SETUP_PROBES)
        start = time.perf_counter()
        wl.run_pass(rec)
        last = time.perf_counter() - start
        busy += last
        passes += 1
    setup += measure_setup(SETUP_PROBES)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec.check(wl)
    everything = [t for k in KINDS for t in rec.latency[k]]
    print(f"{passes} passes, {rec.attempted} verdicts in {busy:.2f} s;"
          + "".join(f" {k}: n={len(rec.latency[k])}" for k in KINDS)
          + f"; p90 over n={len(everything)}; setup over n={len(setup)}")
    ms = lambda xs: 1000 * statistics.median(xs)
    return rec, {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": (rec.attempted - len(rec.failures)) / busy,
        "sat_p50_ms": ms(rec.latency["sat"]),
        "entail_p50_ms": ms(rec.latency["entail"]),
        "models_p50_ms": ms(rec.latency["models"]),
        "latency_p90_ms": 1000 * _p90(everything),
        "peak_rss_mb": peak_mb,
    }


def traced_run(tracer_mod, wl, name: str, seed: int,
               deadline: float) -> tuple[list[Recorder], dict]:
    """Two untraced and two traced passes, in the order plain, traced,
    traced, plain so that a steady drift in machine speed cancels out of
    the overhead ratio.  Figures are per traced pass."""
    wl.run_pass(Recorder(deadline), warmup=True)
    tr = tracer_mod.Tracer()
    plain, traced = Recorder(deadline), Recorder(deadline, tracer=tr)
    wall = {False: 0.0, True: 0.0}
    for tracing in (False, True, True, False):
        start = time.perf_counter()
        with tr.installed() if tracing else contextlib.nullcontext():
            wl.run_pass(traced if tracing else plain)
        wall[tracing] += time.perf_counter() - start
    for rec in (plain, traced):
        rec.check(wl)

    (OUT / f"trace-{name}-seed{seed}.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "verdict"],
                    "spans": tr.spans}), encoding="utf-8")

    metrics: dict[str, float] = {}
    for layer, (calls, self_s) in tr.layer_totals().items():
        metrics[f"{layer}.calls"] = calls // 2
        metrics[f"{layer}.self_s"] = self_s / 2
    sizes = {k: v // 2 for k, v in tr.sizes.items()}
    live = sizes.pop("engine.ground.live_rules")
    metrics.update(sizes)
    metrics["engine.ground.live_ratio"] = live / sizes["engine.ground.rules"]
    metrics["trace.overhead_ratio"] = wall[True] / wall[False]
    return [plain, traced], metrics


def main() -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    tracer_mod, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r};"
                 f" choose from {sorted(workloads.WORKLOADS)}")
    e2e_units, layer_units = _metric_units()
    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = started + RUN_DEADLINE_S

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if args.trace:
        recs, values = traced_run(tracer_mod, wl, args.workload, args.seed,
                                  deadline)
        units = layer_units
    else:
        rec, values = timed_run(wl, args.seconds, deadline)
        recs, units = [rec], e2e_units
    self_check = wl.self_check()

    failures = [f for rec in recs for f in rec.failures]
    attempted = sum(rec.attempted for rec in recs)
    for msg in self_check + failures[:20]:
        print(f"bench: {msg}", file=sys.stderr)
    missing = set(units) - set(values)
    if missing:
        sys.exit(f"bench: no value for {sorted(missing)}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not self_check and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
