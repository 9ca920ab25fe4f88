#!/usr/bin/env python3
"""Benchmark of the translate engine.

Run from the repository root:

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

``--workload`` is one of flagship, small_blocks, resumable_refresh, knn,
or ``all`` (each workload in its own process, one after the other). Each
workload is a batch job driven by one closed-loop client: passes run back
to back for ``--seconds``, and each pass is checked against a reference
the benchmark computes itself before the next one starts.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` is a separate run that reports the per-layer metrics. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps the
host and lists every pass. Metrics that do not apply to a workload read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

# Outside a checkout of the engine this import fails, and the run exits
# non-zero without printing a result.
import logstash_filter_translate_ray  # noqa: E402,F401

from perfbench import host  # noqa: E402
from perfbench.spans import (PassTimeout, Tracer, call_with_timeout,  # noqa: E402
                             median)
from perfbench.workloads import WORKLOADS, Context  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")
# Ray session files; kept short because socket paths are limited
RAY_TEMP = os.path.join(ROOT, ".rt")
SETUPS = 3                  # set-ups per untraced run; setup_s is the median
OVERHEAD_PASSES = 2         # untraced and traced passes each, traced run
PASS_TIMEOUT_S = 90.0
DEADLINE_S = 165.0          # from process start; the run must end by 180 s


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Run:
    """One benchmark process: set-ups, the timed window, the result."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.num_cpus = host.affinity_cpus()
        self.passes: list[dict] = []
        self.errors: list[str] = []
        self.wedged = False
        self.ctx = Context(WORK, seed, self.num_cpus, self.call)
        self.wl = WORKLOADS[workload](self.ctx)
        self.rss = host.RssSampler()
        self.cluster: host.RayCluster | None = None
        self.timeline: list[tuple[str, float]] = []  # (event, process age)

    def call(self, fn):
        """Run ``fn`` under the hard timeout (never past the deadline)."""
        left = DEADLINE_S - host.process_age_s()
        return call_with_timeout(fn, min(PASS_TIMEOUT_S, left))

    def start(self, num_cpus: int) -> None:
        """Start a cluster of ``num_cpus`` CPUs and connect to it."""
        self.stop()
        self.cluster = host.RayCluster(ROOT, RAY_TEMP, num_cpus)
        self.call(self.cluster.connect)

    def stop(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None

    def setups(self, n: int, prepare_s: float) -> float:
        """Set up ``n`` times and return the median. The first set-up is
        timed from process start (minus input preparation) and includes
        starting the cluster; each later one is a new Ray job on it:
        disconnect, connect, and the workload's set-up on fresh workers."""
        times = []
        for i in range(n):
            t0 = time.perf_counter()
            self.timeline.append((f"setup{i}", host.process_age_s()))
            if i == 0:
                self.start(self.num_cpus)
            else:
                self.cluster.disconnect()
                self.call(self.cluster.connect)
            self.wl.setup()
            times.append(host.process_age_s() - prepare_s if i == 0
                         else time.perf_counter() - t0)
        return median(times)

    def one_pass(self, wl, traced: bool = False) -> float | None:
        """Run, time and check one pass of ``wl``; returns its seconds, or
        None when it failed. A timeout marks the session wedged."""
        rec: dict = {"workload": wl.name, "traced": traced}
        try:
            with self.rss.active():
                t0 = time.perf_counter()
                out = self.call(wl.run_traced_pass if traced
                                else wl.run_pass)
                rec["seconds"] = time.perf_counter() - t0
            bad = wl.verify(out)
        except PassTimeout as e:
            self.wedged = True
            bad = [str(e)]
        except Exception as e:  # noqa: BLE001 — a failed pass is a result
            bad = [f"{type(e).__name__}: {e}"]
            traceback.print_exc()
        rec["ok"] = not bad
        if bad:
            rec["errors"] = bad
            self.errors.extend(bad)
        self.passes.append(rec)
        return rec["seconds"] if rec["ok"] else None

    def window(self) -> list[float]:
        """Passes back to back until ``seconds`` have elapsed."""
        times = []
        self.timeline.append(("window", host.process_age_s()))
        end = time.perf_counter() + self.seconds
        while not self.wedged:
            dt = self.one_pass(self.wl)
            if dt is not None:
                times.append(dt)
            if time.perf_counter() >= end:
                break
        return times

    def end_to_end(self, prepare_s: float) -> dict:
        setup_s = self.setups(SETUPS, prepare_s)
        times = self.window()
        if not times:
            return {}
        wall = median(times)
        return {"wall_s": wall, "rows_per_s": self.wl.rows / wall,
                "setup_s": setup_s, "peak_rss_mb": self.rss.peak_mb}

    def traced_layers(self, wl, pairs: int) -> tuple[dict, float]:
        """``pairs`` untraced and traced passes of ``wl`` in the current
        session, then its per-layer metrics. Returns (metrics, untraced
        wall_s)."""
        plain, traced = [], []
        tracer = Tracer()
        for i in range(2 * pairs):
            if i % 4 in (0, 3):      # untraced, traced, traced, untraced, ...
                plain.append(self.one_pass(wl))
                continue
            wl.wrap(tracer)
            try:
                traced.append(self.one_pass(wl, traced=True))
            finally:
                tracer.restore()
        if None in plain or None in traced:
            raise RuntimeError(f"a traced-run pass of {wl.name} failed")
        wall = median(plain)
        m = wl.layers(tracer, wall)
        m["trace.overhead_ratio"] = median(traced) / wall
        return m, wall

    def per_layer(self) -> dict:
        self.setups(1, 0.0)
        m, wall = self.traced_layers(self.wl, OVERHEAD_PASSES)
        for name in self.wl.traced_with:
            # layers only another workload runs, measured in this run so
            # that they are covered by a workload BENCHMARK.json lists
            other = WORKLOADS[name](self.ctx)
            try:
                other.prepare()
                other.setup()
                for k, v in self.traced_layers(other, 1)[0].items():
                    m.setdefault(k, v)
            finally:
                other.close()
        if self.wl.name == "flagship":
            self.start(1)
            self.wl.setup()
            one = self.one_pass(self.wl)
            if one is None:
                raise RuntimeError("the num_cpus=1 pass failed")
            m["ray.scaling_eff_1to4"] = (one / wall) / self.num_cpus
        failed = sum(1 for p in self.passes if not p["ok"])
        m["failed_ratio"] = failed / len(self.passes)
        return m

    def execute(self) -> dict:
        load_before = host.load_1min()
        t0 = time.perf_counter()
        self.wl.prepare()
        prepare_s = time.perf_counter() - t0
        try:
            metrics = self.per_layer() if self.trace \
                else self.end_to_end(prepare_s)
        except PassTimeout as e:
            self.wedged = True
            self.errors.append(str(e))
            metrics = {}
        except Exception as e:  # noqa: BLE001 — reported as incorrect
            traceback.print_exc()
            self.errors.append(f"{type(e).__name__}: {e}")
            metrics = {}
        finally:
            self.timeline.append(("stop", host.process_age_s()))
            self.wl.close()
            self.stop()
            self.rss.close()
            self.timeline.append(("end", host.process_age_s()))
        return self.result(metrics, load_before, prepare_s)

    def result(self, metrics: dict, load_before: float,
               prepare_s: float) -> dict:
        declared = spec()["per_layer" if self.trace else "end_to_end"]
        unknown = set(metrics) - {d["name"] for d in declared}
        if unknown:
            raise KeyError(f"metrics not declared in BENCHMARK.json: "
                           f"{sorted(unknown)}")
        attempted = max(1, len(self.passes))
        failed = sum(1 for p in self.passes if not p["ok"])
        if not self.passes:
            failed = 1
        detail = {"workload": self.wl.name,
                  "host": host.host_stamp(ROOT, self.ctx.seed, self.num_cpus),
                  "load_1min": [load_before, host.load_1min()],
                  "prepare_s": prepare_s, "passes": self.passes,
                  "timeline_s": {k: round(v, 2) for k, v in self.timeline},
                  "errors": self.errors[:20]}
        print(json.dumps(detail))
        return {"correct": not self.errors and failed == 0,
                "attempted": attempted, "failed": failed,
                "metrics": {d["name"]: {"value": float(metrics.get(d["name"],
                                                                   0.0)),
                                        "unit": d["unit"]}
                            for d in declared}}


def run_all(args) -> dict:
    """Every workload in its own process; metrics are prefixed by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=240)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            raise RuntimeError(f"workload {name} exited {out.returncode}")
        res = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    return merged


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = Run(args.workload, args.seed, args.seconds,
                     bool(args.trace)).execute()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
