"""Per-layer ledger of the transcript chain.

Ray fuses read → parse → five translates → route into one operator, so
the cost of one layer is measured as the difference between two runs of
the chain: the prefix that ends with the layer and the prefix that ends
just before it. Every prefix is consumed by a per-block row count, which
reads and transforms every row (a bare ``count()`` of a parquet read only
reads metadata). Prefixes run in interleaved rounds and each keeps its
median.

Block-level self times call the same public functions on one block in the
benchmark process. Their sum over the chain is the single-threaded baseline that
``ray.parallel_efficiency`` divides by.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import shutil
import time
from typing import Callable, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from logstash_filter_translate_ray.config import TranslateConfig
from logstash_filter_translate_ray.kernel import DictSnapshot
from logstash_filter_translate_ray.pipelines import transcripts as T
from logstash_filter_translate_ray.stages import aggregate, parse, route
from logstash_filter_translate_ray.stages import translate_stage as ts

from .spans import median, timed

LAYERS = ("read", "parse", "tool", "status_regex", "word", "conv100k",
          "redact_union", "route")
TRANSLATES = LAYERS[2:7]


def translate_configs(cfg: T.TranscriptPipelineConfig
                      ) -> list[tuple[str, TranslateConfig, Optional[str]]]:
    """The five translate stages of ``build_enriched_dataset`` with the
    same settings, in order, for an in-memory tool dictionary. The sink
    check of every ledger run pins this copy to the real chain."""
    return [
        ("tool", TranslateConfig(
            source="tool_norm", target="tool_label",
            dictionary=dict(cfg.tool_dict), fallback=cfg.tool_fallback,
            override=True), "tool_matched"),
        ("status_regex", TranslateConfig(
            source="status", target="status_class", exact=True, regex=True,
            dictionary=dict(cfg.status_regex_dict),
            fallback=cfg.status_fallback, override=True), "status_matched"),
        ("word", TranslateConfig(
            source="word", target="word_norm", dictionary=dict(cfg.word_dict),
            override=True), "word_matched"),
        ("conv100k", TranslateConfig(
            source="conv_id", target="conv_segment",
            dictionary=T.make_conv_segment_dict(cfg.conv_dict_size),
            fallback="anon", override=True), None),
        ("redact_union", TranslateConfig(
            source="text", target="text_redacted", exact=False,
            dictionary=dict(cfg.redact_dict)), None),
    ]


def chain_prefix(path: str, n_blocks: int, upto: str):
    """The transcript chain from the read up to and including ``upto``."""
    cfg = T.TranscriptPipelineConfig()
    ds = T.read_transcripts(path, override_num_blocks=n_blocks)
    if upto == "read":
        return ds
    ds = parse.parse_dataset(ds, cfg.parse, batch_size=cfg.batch_size)
    if upto == "parse":
        return ds
    for name, tcfg, matched in translate_configs(cfg):
        ds = ts.translate_dataset(ds, tcfg, matched_col=matched,
                                  batch_size=cfg.batch_size)
        if upto == name:
            return ds
    return route.route_dataset(ds, cfg.routes, key="role",
                               default_route=cfg.default_route)


def _block_rows(t: pa.Table) -> pa.Table:
    return pa.table({"n": pa.array([t.num_rows], type=pa.int64())})


def consume(ds) -> tuple[int, int]:
    """(rows, blocks) of ``ds``, after every block has been produced."""
    counts = ds.map_batches(_block_rows, batch_format="pyarrow",
                            batch_size=None).take_all()
    return sum(r["n"] for r in counts), len(counts)


def sink_counts_summary(df) -> tuple[int, dict, int, int]:
    """(rows, rows per route, status_matched, tool_matched) of a
    ``sink_counts(..., by=["status_matched", "tool_matched"])`` frame."""
    routes = {str(r): int(n) for r, n in
              df.groupby("route")["n"].sum().items()}
    status = int(df.loc[df["status_matched"] == True, "n"].sum())  # noqa: E712
    tool = int(df.loc[df["tool_matched"] == True, "n"].sum())  # noqa: E712
    return int(df["n"].sum()), routes, status, tool


def sink_counts(ds):
    return aggregate.sink_counts(ds, by=["status_matched", "tool_matched"])


def prefix_ledger(path: str, n_blocks: int, rows: int, work: str,
                  rounds: int, run: Callable, with_write: bool
                  ) -> tuple[dict, dict, object]:
    """Median seconds per prefix, plus ``"sink"`` (the full chain ending in
    the per-sink aggregate) and, when ``with_write``, ``"write"`` (the
    full chain ending in the fan-out parquet write). ``run`` applies the
    benchmark's hard timeout to each execution. Returns (medians,
    {"blocks": n}, the last sink frame for the caller to verify)."""
    out_dir = os.path.join(work, "ledger_write")
    steps = list(LAYERS) + ["sink"] + (["write"] if with_write else [])
    times: dict[str, list[float]] = {s: [] for s in steps}
    info: dict[str, int] = {}
    frame = None
    for _ in range(rounds):
        for step in steps:
            if step == "sink":
                frame, dt = run(lambda: timed(
                    lambda: sink_counts(chain_prefix(path, n_blocks, "route"))))
            elif step == "write":
                shutil.rmtree(out_dir, ignore_errors=True)
                _, dt = run(lambda: timed(lambda: route.write_routed(
                    chain_prefix(path, n_blocks, "route"), out_dir)))
                shutil.rmtree(out_dir, ignore_errors=True)
            else:
                (got, blocks), dt = run(lambda: timed(
                    lambda: consume(chain_prefix(path, n_blocks, step))))
                if got != rows:
                    raise RuntimeError(
                        f"prefix {step!r} produced {got} rows, not {rows}")
                info["blocks"] = blocks
            times[step].append(dt)
    return {s: median(v) for s, v in times.items()}, info, frame


def ledger_metrics(med: dict, with_write: bool) -> dict:
    """Added seconds per layer from the prefix medians."""
    out = {"sources.read.added_s": med["read"],
           "stages.parse.added_s": med["parse"] - med["read"],
           "stages.route.added_s": med["route"] - med["redact_union"],
           "stages.aggregate.sink_counts_s": med["sink"] - med["route"]}
    prev = "parse"
    for name in TRANSLATES:
        out[f"stages.translate_stage.{name}.added_s"] = med[name] - med[prev]
        prev = name
    if with_write:
        out["stages.route.write_s"] = med["write"] - med["route"]
    return out


# ---------------------------------------------------------------------------
# Block-level self times in the benchmark process
# ---------------------------------------------------------------------------

def _ms(fn: Callable[[], object], reps: int = 3) -> tuple[object, float]:
    out, times = None, []
    for _ in range(reps):
        out, dt = timed(fn)
        times.append(dt)
    return out, median(times) * 1e3


def block_metrics(block_file: str, rows_per_block: int) -> dict:
    """Self time of each layer on one block, matched ratios, and the 100k
    snapshot's size and unpickle time. Needs a Ray session (translate
    functions read their snapshot through ``ray.get``, as on a worker)."""
    import ray

    cfg = T.TranscriptPipelineConfig()
    m: dict[str, float] = {}
    tbl, read_ms = _ms(lambda: pq.read_table(block_file,
                                             columns=T.TRANSCRIPT_COLUMNS))
    if tbl.num_rows != rows_per_block:
        raise RuntimeError(f"{block_file} holds {tbl.num_rows} rows, "
                           f"not {rows_per_block}")
    plan = parse._compile_plan(cfg.parse)
    tbl, m["stages.parse.block_ms"] = _ms(lambda: parse.parse_batch(tbl, plan))
    m["stages.parse.status_hit_ratio"] = \
        1 - tbl["status"].null_count / tbl.num_rows
    chain_ms = read_ms + m["stages.parse.block_ms"]
    for name, tcfg, matched in translate_configs(cfg):
        snap = DictSnapshot(tcfg.dictionary)
        slim = dataclasses.replace(tcfg, dictionary={}, field=None,
                                   destination=None)
        colds = []
        for _ in range(3):
            fn = ts.make_translate_batch_fn(slim, ray.put(snap), matched)
            t0 = time.perf_counter()
            fn(tbl)
            colds.append((time.perf_counter() - t0) * 1e3)
        out, warm = _ms(lambda: fn(tbl))
        if name in ("conv100k", "status_regex"):
            m[f"stages.translate_stage.{name}.cold_block_ms"] = median(colds)
            m[f"stages.translate_stage.{name}.warm_block_ms"] = warm
        if matched:
            m[f"stages.translate_stage.{name}.matched_ratio"] = \
                (pc.sum(out[matched]).as_py() or 0) / out.num_rows
        if name == "conv100k":
            blob = pickle.dumps(snap)
            m["kernel.snapshot.conv100k.bytes"] = len(blob)
            _, m["kernel.snapshot.conv100k.loads_ms"] = _ms(
                lambda: pickle.loads(blob), reps=5)
        chain_ms += warm
        tbl = out
    rcfg = TranslateConfig(source="role", target="route",
                           dictionary=dict(cfg.routes),
                           fallback=cfg.default_route, override=True)
    rfn = ts.make_translate_batch_fn(
        dataclasses.replace(rcfg, dictionary={}),
        ray.put(DictSnapshot(rcfg.dictionary)), matched_col=None)
    rfn(tbl)
    _, route_ms = _ms(lambda: rfn(tbl))
    # per row, so that it scales to however Ray splits the input
    m["single_thread_row_s"] = (chain_ms + route_ms) / 1e3 / tbl.num_rows
    return m
