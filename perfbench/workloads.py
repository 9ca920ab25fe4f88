"""The four workloads. Each is a batch job run by one closed-loop client:
a pass starts only after the previous pass has finished and been checked
against the reference the benchmark computed itself.

A workload prepares its inputs (no Ray), sets up inside a fresh Ray
session (what a user builds before the first job, then a checked warm
pass over part of the real input), runs timed passes, and in the traced run
reports its per-layer metrics. Engine functions are always called through
their module attribute so that the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import os
import shutil
import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pyarrow.parquet as pq

from logstash_filter_translate_ray import checkpoint
from logstash_filter_translate_ray.functions import similarity
from logstash_filter_translate_ray.pipelines import transcripts as T
from logstash_filter_translate_ray.stages import aggregate, route

from . import inputs, ledger
from .spans import Tracer, median, timed

LEDGER_ROUNDS = 2


@dataclass
class Context:
    work: str
    seed: int
    num_cpus: int
    run: Callable[[Callable[[], Any]], Any]    # applies the hard timeout


def _dir_mb(path: str) -> float:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs) / 1e6


def _parquet_files(path: str) -> list[str]:
    return sorted(os.path.join(path, f) for f in os.listdir(path)
                  if f.endswith(".parquet"))


def _written_counts(glob: str) -> tuple[int, int, int]:
    """(rows, status_matched, tool_matched) of written parquet, by DuckDB."""
    import duckdb
    con = duckdb.connect()
    try:
        return con.execute(
            "SELECT count(*), count_if(status_matched), count_if(tool_matched)"
            f" FROM read_parquet('{glob}', hive_partitioning = true)"
        ).fetchone()
    finally:
        con.close()


class Workload:
    name = ""
    rows = 0             # input rows (turns or vectors) of one pass
    # workloads whose per-layer metrics this one's traced run also reports
    traced_with: tuple[str, ...] = ()

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.dir = os.path.join(ctx.work, self.name)
        os.makedirs(self.dir, exist_ok=True)
        self.output_mb = 0.0

    def prepare(self) -> None:
        """Generate (or find cached) inputs and references."""

    def setup(self) -> None:
        """In a new Ray job: build what the job needs and run a checked
        warm pass. By default the warm pass is a whole pass over the real
        input: a first pass is slower by up to half, from effects that a
        warm pass over part of the input does not remove."""
        self._check(self.ctx.run(self.run_pass))

    def run_pass(self) -> Any:
        """One timed pass over the real input; returns what verify needs."""

    def run_traced_pass(self) -> Any:
        """A pass of the traced run (the wrappers are installed)."""
        return self.run_pass()

    def verify(self, out: Any) -> list[str]:
        """Mismatches against the reference; also frees the pass output."""
        return []

    def wrap(self, tracer: Tracer) -> None:
        """Wrap the engine functions this workload's pass calls."""

    def layers(self, tracer: Tracer, wall_s: float) -> dict:
        """Per-layer metrics, after the traced passes recorded spans."""
        return {}

    def close(self) -> None:
        pass

    def _check(self, out: Any) -> None:
        bad = self.verify(out)
        if bad:
            raise RuntimeError("; ".join(bad))


# ---------------------------------------------------------------------------
# Transcript chain: flagship and small blocks
# ---------------------------------------------------------------------------

class _TranscriptChain(Workload):
    files = 0            # one block per file
    writes = False       # the pass ends in the fan-out write

    def prepare(self) -> None:
        c = self.ctx
        self.path = inputs.transcripts(c.work, self.name, self.rows,
                                       self.files, c.seed)
        self.ref = inputs.transcript_reference(self.path)

    def _chain(self, path: str, n_blocks: int):
        return T.build_enriched_dataset(
            T.read_transcripts(path, override_num_blocks=n_blocks))

    def run_pass(self) -> Any:
        return self._job(self.path, self.files), self.ref

    def layers(self, tracer: Tracer, wall_s: float) -> dict:
        med, info, frame = ledger.prefix_ledger(
            self.path, self.files, self.rows, self.dir, LEDGER_ROUNDS,
            self.ctx.run, self.writes)
        bad = inputs.check_transcript_counts(
            self.ref, *ledger.sink_counts_summary(frame))
        if bad:
            raise RuntimeError("ledger chain: " + "; ".join(bad))
        m = ledger.ledger_metrics(med, self.writes)
        m.update(ledger.block_metrics(_parquet_files(self.path)[0],
                                      self.rows // self.files))
        single_s = m.pop("single_thread_row_s") * self.rows
        m["ray.blocks"] = info["blocks"]
        m["ray.parallel_efficiency"] = single_s / (wall_s * self.ctx.num_cpus)
        layer_sum = med["write"] if self.writes else med["sink"]
        m["trace.accounted_ratio"] = layer_sum / wall_s
        m["output_mb"] = self.output_mb
        return m


class Flagship(_TranscriptChain):
    """The headline DAG: read 16 blocks → parse → five translates → route
    → one fan-out parquet write → rows per sink from the file footers."""
    name = "flagship"
    rows, files = 512_000, 16
    writes = True
    traced_with = ("resumable_refresh",)

    def _job(self, path: str, n_blocks: int):
        out_dir = os.path.join(self.dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        route.write_routed(self._chain(path, n_blocks), out_dir)
        counts: dict[str, int] = {}
        for sink in os.listdir(out_dir):
            name = sink.split("=", 1)[-1]
            for f in _parquet_files(os.path.join(out_dir, sink)):
                counts[name] = counts.get(name, 0) + \
                    pq.read_metadata(f).num_rows
        return out_dir, counts

    def verify(self, out) -> list[str]:
        (out_dir, counts), ref = out
        rows, status, tool = _written_counts(f"{out_dir}/*/*.parquet")
        bad = inputs.check_transcript_counts(ref, rows, counts, status, tool)
        self.output_mb = _dir_mb(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return bad

    def wrap(self, tracer: Tracer) -> None:
        tracer.wrap(T, "read_transcripts", "read_transcripts")
        tracer.wrap(T, "build_enriched_dataset", "build_enriched_dataset")
        tracer.wrap(route, "write_routed", "write_routed")


class SmallBlocks(_TranscriptChain):
    """The same chain over 24 blocks of 16k rows, ending in the per-sink
    aggregate: the per-block fixed costs dominate."""
    name = "small_blocks"
    rows, files = 384_000, 24

    def _job(self, path: str, n_blocks: int):
        return aggregate.sink_counts(self._chain(path, n_blocks),
                                     by=["status_matched", "tool_matched"])

    def verify(self, out) -> list[str]:
        frame, ref = out
        return inputs.check_transcript_counts(
            ref, *ledger.sink_counts_summary(frame))

    def wrap(self, tracer: Tracer) -> None:
        tracer.wrap(T, "read_transcripts", "read_transcripts")
        tracer.wrap(T, "build_enriched_dataset", "build_enriched_dataset")
        tracer.wrap(aggregate, "sink_counts", "sink_counts")


# ---------------------------------------------------------------------------
# Resumable run with a refreshing file-backed dictionary
# ---------------------------------------------------------------------------

TOOL_LABELS = (dict(T.TOOL_DICT),
               {k: v + " (v2)" for k, v in T.TOOL_DICT.items()})


class _DictionaryRewriter:
    """Rewrites the tool dictionary file every ``interval_s``, same keys,
    values alternating between the two label sets, atomically."""

    def __init__(self, path: str, interval_s: float = 0.5):
        self.path = path
        self.interval_s = interval_s
        self.writes = 0
        self._write()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _write(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", newline="") as f:
            csv.writer(f).writerows(TOOL_LABELS[self.writes % 2].items())
        os.replace(tmp, self.path)
        self.writes += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._write()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


class _ReadParquetProxy:
    """Stands in for the ``ray.data`` module inside the pipelines module
    so that its ``read_parquet`` calls are traced."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def read_parquet(self, *args, **kw):
        return self._tracer.call("read_parquet", self._module.read_parquet,
                                 *args, **kw)

    def __getattr__(self, name):
        return getattr(self._module, name)


class ResumableRefresh(Workload):
    """run_resumable over 2 single-file shards with a file-backed tool
    dictionary refreshed every second while a thread rewrites it."""
    name = "resumable_refresh"
    rows, files = 80_000, 2

    def prepare(self) -> None:
        c = self.ctx
        self.path = inputs.transcripts(c.work, self.name, self.rows,
                                       self.files, c.seed)
        self.ref = inputs.transcript_reference(self.path)
        self.warm_ref = inputs.transcript_reference(self.path, 1)
        self.cfg = T.TranscriptPipelineConfig(
            tool_dict_path=os.path.join(self.dir, "tool_dict.csv"),
            refresh_interval=1)
        self.rewriter = _DictionaryRewriter(self.cfg.tool_dict_path)
        self.polls: list[float] = []
        self.reloads: list[int] = []

    def _job(self, path: str):
        out_dir = os.path.join(self.dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        res = T.run_resumable(path, out_dir, self.cfg, shard_files=1)
        return path, out_dir, res

    def setup(self) -> None:
        """Warm pass: the first shard of the real input."""
        warm = _parquet_files(self.path)[:1]
        self._check(self.ctx.run(lambda: (self._job(warm), self.warm_ref)))

    def run_pass(self) -> Any:
        return self._job(self.path), self.ref

    def verify(self, out) -> list[str]:
        (path, out_dir, res), ref = out
        bad = []
        shards = len(path) if isinstance(path, list) \
            else len(_parquet_files(path))
        if res["shards_run"] != shards:
            bad.append(f"ran {res['shards_run']} shards, not {shards}")
        again = T.run_resumable(path, out_dir, self.cfg, shard_files=1)
        if again["shards_run"] != 0 or again["shards_skipped"] != shards:
            bad.append(f"re-run did not skip every shard: {again}")
        for k in ("rows_out", "route_counts", "matched_counts"):
            if again[k] != res[k]:
                bad.append(f"re-run {k} {again[k]} != {res[k]}")
        rows, status, tool = _written_counts(f"{out_dir}/shard=*/*/*.parquet")
        bad += inputs.check_transcript_counts(
            ref, res["rows_out"], res["route_counts"],
            res["matched_counts"].get("True", 0), tool)
        if (rows, status) != (res["rows_out"],
                              res["matched_counts"].get("True", 0)):
            bad.append(f"written rows/status_matched {(rows, status)} differ "
                       "from the manifests")
        self.output_mb = _dir_mb(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return bad

    def _service(self):
        import ray
        found = [a for a in ray.util.list_named_actors(all_namespaces=True)
                 if a["namespace"] == "lftr-dictionaries"]
        if len(found) != 1:
            raise RuntimeError(f"expected one dictionary service, {found}")
        return ray.get_actor(found[0]["name"], namespace="lftr-dictionaries")

    def wrap(self, tracer: Tracer) -> None:
        import ray.data
        tracer.wrap(T, "read_transcripts", "read_transcripts")
        tracer.wrap(T, "build_enriched_dataset", "build_enriched_dataset")
        tracer.wrap(T, "write_routed", "write_routed")
        tracer.wrap(aggregate, "grouped_counts", "grouped_counts")
        tracer.wrap(checkpoint.CheckpointStore, "finish_shard", "finish_shard")
        tracer.wrap(checkpoint.CheckpointStore, "commit", "commit")
        tracer.patch(T, "rd", _ReadParquetProxy(ray.data, tracer))
        if not hasattr(self, "_poller"):
            self._start_poller()

    def _start_poller(self) -> None:
        """Time version polls of the dictionary service from this process
        every 50 ms while the traced passes run."""
        import ray
        svc = self._service()
        self._svc = svc
        self._poll_stop = threading.Event()

        def loop():
            known = ray.get(svc.version.remote())
            while not self._poll_stop.wait(0.05):
                newer, dt = timed(lambda: ray.get(
                    svc.version_if_newer.remote(known)))
                self.polls.append(dt * 1e3)
                known = newer if newer is not None else known

        self._poller = threading.Thread(target=loop, daemon=True)
        self._poller.start()

    def run_traced_pass(self):
        import ray
        before = ray.get(self._svc.version.remote())
        out = self.run_pass()
        self.reloads.append(ray.get(self._svc.version.remote()) - before)
        return out

    def layers(self, tracer: Tracer, wall_s: float) -> dict:
        import ray
        self._poll_stop.set()
        self._poller.join(timeout=5)
        n_passes = max(1, len(tracer.durations("write_routed")) // self.files)
        shard = tracer.total("read_transcripts", "build_enriched_dataset",
                             "write_routed") / n_passes
        reread = tracer.total("read_parquet", "grouped_counts") / n_passes
        commits = tracer.total("finish_shard", "commit") / (
            n_passes * self.files)
        snaps = [timed(lambda: ray.get(self._svc.get_snapshot.remote()))[1]
                 for _ in range(5)]
        m = {"pipelines.transcripts.shard_s": shard,
             "pipelines.transcripts.reread_s": reread,
             "checkpoint.commit_ms": commits * 1e3,
             "state.dictionary_service.poll_ms_p50":
                 float(np.percentile(self.polls, 50)),
             "state.dictionary_service.poll_ms_p99":
                 float(np.percentile(self.polls, 99)),
             "state.dictionary_service.get_snapshot_ms": median(snaps) * 1e3,
             "state.dictionary_service.refresh_loaded": median(self.reloads),
             "trace.accounted_ratio": (shard + reread + commits) / wall_s,
             "output_mb": self.output_mb}
        blocks = sum(self.ctx.run(lambda: ledger.consume(T.read_transcripts(
            [f])))[1] for f in _parquet_files(self.path))
        b = ledger.block_metrics(_parquet_files(self.path)[0],
                                 self.rows // self.files)
        single_s = b.pop("single_thread_row_s") * self.rows
        m.update(b)
        m["ray.blocks"] = blocks
        m["ray.parallel_efficiency"] = single_s / (wall_s * self.ctx.num_cpus)
        return m

    def close(self) -> None:
        self.rewriter.close()


# ---------------------------------------------------------------------------
# Exact and IVF kNN joins
# ---------------------------------------------------------------------------

class Knn(Workload):
    """Exact knn_join and knn_join_ivf (k=5) over 4096 unit vectors of
    64 dimensions with planted near-duplicates."""
    name = "knn"
    rows, files, dim, k = 4_096, 8, 64, 5
    # about one IVF group task per 4k routed rows
    n_cells, n_probe, num_groups = 32, 8, 8
    n_queries = 256

    def prepare(self) -> None:
        c = self.ctx
        self.path, self.n_dups = inputs.embeddings(
            c.work, self.rows, self.dim, self.files, c.seed)
        self.m = inputs.load_unit_matrix(self.path)
        self.queries = np.linspace(0, self.rows - 1, self.n_queries,
                                   dtype=np.int64)
        self.truth = inputs.brute_force_top1(self.m, self.queries)
        self.recall = 0.0

    def run_pass(self) -> Any:
        import ray.data as rd
        exact = similarity.knn_join(rd.read_parquet(self.path), k=self.k,
                                    target_block_rows=self.rows // self.files)
        ivf = similarity.knn_join_ivf(rd.read_parquet(self.path), k=self.k,
                                      n_cells=self.n_cells,
                                      n_probe=self.n_probe,
                                      num_groups=self.num_groups)
        return exact, ivf

    def verify(self, out) -> list[str]:
        exact, ivf = out
        bad = []
        if len(exact) != self.rows * self.k:
            bad.append(f"exact join rows {len(exact)} != {self.rows * self.k}")
        top1 = exact[exact["nn_rank"] == 1].set_index("vec_id")["neighbor_id"]
        got = top1.reindex(self.queries).to_numpy()
        miss = got != self.truth
        if miss.any():
            # a different id at an identical cosine is still rank 1
            q = self.queries[miss]
            gap = np.abs(np.einsum("ij,ij->i", self.m[q], self.m[got[miss]])
                         - np.einsum("ij,ij->i", self.m[q],
                                     self.m[self.truth[miss]]))
            if (gap > 1e-12).any():
                bad.append(f"exact rank-1 differs from brute force for "
                           f"{int((gap > 1e-12).sum())} of {len(q)} queries")
        planted = np.arange(self.rows - self.n_dups, self.rows)
        nb = top1.reindex(planted).to_numpy()
        cos = np.einsum("ij,ij->i", self.m[planted], self.m[nb])
        if (cos < 0.98).any():
            bad.append(f"{int((cos < 0.98).sum())} of {self.n_dups} planted "
                       "near-duplicates not found at rank 1")
        itop1 = ivf[ivf["nn_rank"] == 1].set_index("vec_id")["neighbor_id"]
        if len(ivf) > len(exact) or not len(itop1):
            bad.append(f"IVF join returned {len(ivf)} rows")
        self.recall = float((itop1.reindex(top1.index).to_numpy()
                             == top1.to_numpy()).mean())
        return bad

    def wrap(self, tracer: Tracer) -> None:
        tracer.wrap(similarity, "knn_join", "knn_join")
        tracer.wrap(similarity, "knn_join_ivf", "knn_join_ivf")

    def layers(self, tracer: Tracer, wall_s: float) -> dict:
        import ray.data as rd
        n_passes = max(1, len(tracer.durations("knn_join")))
        exact_s = tracer.total("knn_join") / n_passes
        ivf_s = tracer.total("knn_join_ivf") / n_passes
        cent = similarity.build_ivf_centroids(
            rd.read_parquet(self.path), n_cells=self.n_cells)
        cells = np.bincount(np.argmax(self.m @ cent.T, axis=1))
        _, single_s = timed(lambda: inputs.brute_force_top1(
            self.m, np.arange(self.rows)))
        _, blocks = self.ctx.run(lambda: ledger.consume(
            rd.read_parquet(self.path)))
        return {"functions.similarity.knn_join_s": exact_s,
                "functions.similarity.knn_join_ivf_s": ivf_s,
                "functions.similarity.ivf_max_cell_rows": int(cells.max()),
                "knn_recall_at_1": self.recall,
                "ray.blocks": blocks,
                "ray.parallel_efficiency":
                    single_s / (wall_s * self.ctx.num_cpus),
                "trace.accounted_ratio": (exact_s + ivf_s) / wall_s}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Flagship, SmallBlocks, ResumableRefresh, Knn)}
