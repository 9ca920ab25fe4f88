"""Pipeline-level tests: end-to-end DAG on deterministic transcripts,
routed-row equality + per-sink counts vs a single-process Python oracle,
the per-turn text-equality invariant, hot dictionary reload mid-pipeline
(scheduling_spec.rb analogue), and checkpoint/resume."""

import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from logstash_filter_translate_ray import TranslateConfig, DictSnapshot, translate_row
from logstash_filter_translate_ray.pipelines import (TranscriptPipelineConfig,
                                                     build_enriched_dataset,
                                                     run_pipeline,
                                                     run_resumable)
from logstash_filter_translate_ray.pipelines.transcripts import (
    REDACT_DICT, ROLE_ROUTES, STATUS_REGEX_DICT, TOOL_DICT, WORD_DICT,
    make_conv_segment_dict, read_transcripts)
from logstash_filter_translate_ray.sources import (make_transcripts,
                                                   transcripts_parquet_path)
from logstash_filter_translate_ray.stages.translate_stage import (
    translate_block_fn, translate_dataset)

N_TURNS = 5_000


@pytest.fixture(scope="module")
def transcripts_path(ray_session):
    return transcripts_parquet_path(N_TURNS, seed=42,
                                    cache_dir="/tmp/lftr_test_transcripts")


def python_oracle(tbl: pa.Table) -> list[dict]:
    """Single-process reference: parse + 3 enriches + route via the ROW
    oracle (§2.5 semantics), matching build_enriched_dataset."""
    import re
    status_re = re.compile(r"\b([1-5][0-9]{2})\b")
    word_re = re.compile(r"\b(merci|thanks|error|retry|ok)\b")
    tool_re = re.compile(r"^\s*([a-z_]+)")

    tool_cfg = TranslateConfig(source="tool_norm", target="tool_label",
                               dictionary=TOOL_DICT, fallback="no tool",
                               override=True)
    status_cfg = TranslateConfig(source="status", target="status_class",
                                 regex=True, dictionary=STATUS_REGEX_DICT,
                                 fallback="unknown status %{status}",
                                 override=True)
    word_cfg = TranslateConfig(source="word", target="word_norm",
                               dictionary=WORD_DICT, override=True)
    seg_dict = make_conv_segment_dict()
    seg_cfg = TranslateConfig(source="conv_id", target="conv_segment",
                              dictionary=seg_dict, fallback="anon",
                              override=True)
    redact_cfg = TranslateConfig(source="text", target="text_redacted",
                                 exact=False, dictionary=REDACT_DICT)
    route_cfg = TranslateConfig(source="role", target="route",
                                dictionary=ROLE_ROUTES, fallback="other",
                                override=True)
    t_snap, s_snap = DictSnapshot(TOOL_DICT), DictSnapshot(STATUS_REGEX_DICT)
    w_snap, r_snap = DictSnapshot(WORD_DICT), DictSnapshot(ROLE_ROUTES)
    g_snap, d_snap = DictSnapshot(seg_dict), DictSnapshot(REDACT_DICT)

    rows = []
    for r in tbl.to_pylist():
        m = status_re.search(r["text"] or "")
        r["status"] = m.group(1) if m else None
        m = word_re.search(r["text"] or "")
        r["word"] = m.group(1) if m else None
        m = tool_re.match(r["tool"] or "")
        r["tool_norm"] = m.group(1) if m else None
        r["tool_matched"] = translate_row(r, tool_cfg, t_snap)
        r.setdefault("tool_label", None)
        r["status_matched"] = translate_row(r, status_cfg, s_snap)
        r.setdefault("status_class", None)
        r["word_matched"] = translate_row(r, word_cfg, w_snap)
        r.setdefault("word_norm", None)
        translate_row(r, seg_cfg, g_snap)
        translate_row(r, redact_cfg, d_snap)
        r.setdefault("text_redacted", None)
        translate_row(r, route_cfg, r_snap)
        rows.append(r)
    return rows


def test_routed_rows_equal_oracle(ray_session, transcripts_path):
    ds = build_enriched_dataset(read_transcripts(transcripts_path))
    got = ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    tbl = pq.read_table(transcripts_path)
    want = python_oracle(tbl)
    want.sort(key=lambda r: (r["conv_id"], r["turn_idx"]))

    assert len(got) == len(want) == N_TURNS
    for col in ["conv_id", "turn_idx", "role", "text", "tool", "status",
                "word", "tool_label", "status_class", "word_norm",
                "conv_segment", "text_redacted", "route",
                "tool_matched", "status_matched", "word_matched"]:
        got_vals = got[col].tolist()
        want_vals = [w[col] for w in want]
        got_vals = [None if (isinstance(v, float) and v != v) else v
                    for v in got_vals]
        assert got_vals == want_vals, f"column {col} differs"


def test_enriched_rows_independent_of_block_layout(ray_session):
    """The translate chain gives byte-identical rows whether the same
    transcripts arrive as one block, as one block per file
    (read_transcripts) or as Ray's 10k-row read batches: per-block
    choices (the per-distinct gate, the smaller-side hash, chunk
    handling) must never show in the output."""
    import ray
    import ray.data as rd
    from logstash_filter_translate_ray.pipelines.transcripts import (
        TRANSCRIPT_COLUMNS)
    path = transcripts_parquet_path(30_000, seed=7, n_files=2,
                                    cache_dir="/tmp/lftr_test_transcripts")
    layouts = {
        "one_block": rd.from_arrow(pq.read_table(path,
                                                 columns=TRANSCRIPT_COLUMNS)),
        # one read task per file, as the flagship pins it (Ray would
        # otherwise split a read task's output to fill the cluster)
        "whole_files": read_transcripts(path, override_num_blocks=2),
        "10k_batches": rd.read_parquet(path, columns=TRANSCRIPT_COLUMNS,
                                       batch_size=10_000,
                                       override_num_blocks=2),
    }
    got, batches = {}, {}
    for name, ds in layouts.items():
        # the batches a whole-block map_batches stage (parse) is handed
        batches[name] = sorted(r["n"] for r in ds.map_batches(
            lambda t: pa.table({"n": [len(t)]}), batch_format="pyarrow",
            batch_size=None).take_all())
        refs = build_enriched_dataset(ds).to_arrow_refs()
        got[name] = pa.concat_tables(ray.get(refs)).sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert batches == {"one_block": [30_000],
                       "whole_files": [15_000, 15_000],
                       "10k_batches": [5_000, 5_000, 10_000, 10_000]}
    want = got["one_block"].combine_chunks()
    assert len(want) == 30_000
    for name in ("whole_files", "10k_batches"):
        assert got[name].combine_chunks().equals(want), name


def test_conv_segment_snapshot_built_once(ray_session, monkeypatch):
    """Every build shares the one process-wide conv-segment snapshot
    (the reference builds its dictionary once, at register)."""
    import ray.data as rd
    from logstash_filter_translate_ray.pipelines import transcripts as T
    seen = []

    def spy(cfg, **kw):
        if cfg.target == "conv_segment":
            seen.append(cfg.dictionary)
        return translate_block_fn(cfg, **kw)

    monkeypatch.setattr(T, "translate_block_fn", spy)
    ds = rd.from_items([{c: None for c in T.TRANSCRIPT_COLUMNS}])
    build_enriched_dataset(ds)
    build_enriched_dataset(ds)
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0] is T.conv_segment_snapshot(100_000)
    assert isinstance(seen[0], DictSnapshot) and len(seen[0]) == 100_000


def test_enriched_rows_same_with_snapshot_or_dict(ray_session, monkeypatch,
                                                  transcripts_path):
    """The shared snapshot gives byte-identical rows to a chain whose
    segment config gets the freshly built dict."""
    import ray
    from logstash_filter_translate_ray.pipelines import transcripts as T

    def rows():
        refs = build_enriched_dataset(
            read_transcripts(transcripts_path)).to_arrow_refs()
        return pa.concat_tables(ray.get(refs)).sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")]
        ).combine_chunks()

    got = rows()
    monkeypatch.setattr(T, "conv_segment_snapshot", make_conv_segment_dict)
    want = rows()
    assert len(want) == N_TURNS
    assert len(set(want["conv_segment"].to_pylist())) > 1
    assert got.equals(want)


def test_text_equality_invariant(ray_session, transcripts_path):
    # input_hint per-row invariant: per-turn text equality under stable
    # (conv_id, turn_idx) ordering
    ds = build_enriched_dataset(read_transcripts(transcripts_path))
    out = ds.to_pandas().sort_values(["conv_id", "turn_idx"])
    src = pq.read_table(transcripts_path).to_pandas() \
        .sort_values(["conv_id", "turn_idx"])
    assert out["text"].tolist() == src["text"].tolist()
    assert out["ts"].tolist() == src["ts"].tolist()


def test_sink_counts_match_oracle(ray_session, transcripts_path):
    res = run_pipeline(transcripts_path)
    tbl = pq.read_table(transcripts_path)
    want_rows = python_oracle(tbl)
    from collections import Counter
    want = Counter((r["route"], r["tool_label"] or "(null)") for r in want_rows)
    got = {(r.route, r.tool_label): int(r.n)
           for r in res["sink_counts"].itertuples()}
    assert got == dict(want)
    want_m = Counter(r["status_matched"] for r in want_rows)
    got_m = {bool(r.status_matched): int(r.n)
             for r in res["status_matched_counts"].itertuples()}
    assert got_m == dict(want_m)


def test_fanout_write_and_partitions(ray_session, transcripts_path, tmp_path):
    out = str(tmp_path / "routed")
    res = run_pipeline(transcripts_path, out_dir=out)
    parts = sorted(p for p in os.listdir(out) if p.startswith("route="))
    assert parts == ["route=assistant_turns", "route=control",
                     "route=tool_calls", "route=user_turns"]
    total = sum(int(n) for n in res["sink_counts"]["n"])
    assert total == N_TURNS


def test_actor_pool_file_dict_hot_reload(ray_session, tmp_path):
    """scheduling_spec.rb:45-106 analogue: modify the CSV on disk, force the
    DictionaryService refresh, assert new translations flow."""
    import ray
    import ray.data as rd
    from logstash_filter_translate_ray.state import get_or_create_dictionary_service

    dict_path = str(tmp_path / "tool.csv")
    with open(dict_path, "w") as f:
        f.write("search,Old Search\ncode,Old Code\n")

    cfg = TranslateConfig(source="tool", target="tool_label",
                          dictionary_path=dict_path, refresh_interval=1,
                          fallback="none", override=True)
    ds = rd.from_arrow(pa.table({"tool": ["search", "code", "zzz"]}))
    out1 = translate_dataset(ds, cfg, service_name="test-hot-reload",
                             concurrency=1).to_pandas()
    assert out1["tool_label"].tolist() == ["Old Search", "Old Code", "none"]

    with open(dict_path, "w") as f:
        f.write("search,New Search\ncode,New Code\n")
    os.utime(dict_path, (os.path.getmtime(dict_path) + 10,) * 2)
    svc = get_or_create_dictionary_service("test-hot-reload")
    ray.get(svc.refresh.remote(force=True))

    out2 = translate_dataset(ds, cfg, service_name="test-hot-reload",
                             concurrency=1).to_pandas()
    assert out2["tool_label"].tolist() == ["New Search", "New Code", "none"]


def test_resumable_checkpoint(ray_session, transcripts_path, tmp_path):
    out = str(tmp_path / "ckpt")
    r1 = run_resumable(transcripts_path, out, shard_files=1)
    assert r1["shards_skipped"] == 0 and r1["rows_out"] == N_TURNS
    r2 = run_resumable(transcripts_path, out, shard_files=1)
    assert r2["shards_run"] == 0 and r2["shards_skipped"] == r1["shards_run"]
    assert r2["rows_out"] == N_TURNS
    assert r2["route_counts"] == r1["route_counts"]


def test_resume_after_partial_failure(ray_session, transcripts_path, tmp_path):
    """Kill-mid-run simulation: complete shard 0 only, then resume; totals
    equal a clean full run (idempotent, no double counting)."""
    out = str(tmp_path / "ckpt2")
    full = run_resumable(transcripts_path, str(tmp_path / "full"), shard_files=1)
    r1 = run_resumable(transcripts_path, out, shard_files=1)
    # wipe one shard's manifest + output → simulates unfinished shard
    store_dir = os.path.join(out, "_manifests")
    manifests = sorted(os.listdir(store_dir))
    os.unlink(os.path.join(store_dir, manifests[0]))
    shard_dir = os.path.join(out, "shard=" + manifests[0].split(".")[0])
    shutil.rmtree(shard_dir)
    r2 = run_resumable(transcripts_path, out, shard_files=1)
    assert r2["shards_run"] == 1
    assert r2["route_counts"] == full["route_counts"]
    assert r2["rows_out"] == N_TURNS


def test_grok_rule_multi_capture(ray_session):
    import ray.data as rd
    from logstash_filter_translate_ray.stages import (GrokRule, ParseConfig,
                                                      parse_dataset)
    tbl = pa.table({"line": ["GET /api 200 12ms", "POST /x 500 3ms", "junk"]})
    cfg = ParseConfig(rules=(
        GrokRule(source="line",
                 pattern=r"(?P<verb>[A-Z]+) (?P<path>\S+) (?P<code>\d{3})",
                 casts=(("code", "int64"),)),))
    out = parse_dataset(rd.from_arrow(tbl), cfg).to_pandas()
    assert out["verb"].tolist() == ["GET", "POST", None]
    assert out["path"].tolist() == ["/api", "/x", None]
    assert [None if c != c else int(c) for c in out["code"]] == [200, 500, None]


def test_conv_turn_counts_skew_safe(ray_session, transcripts_path):
    """Distributed (salted-partials) conv aggregate equals a pandas oracle
    on Zipf-skewed data with a hot conversation."""
    from logstash_filter_translate_ray.stages.aggregate import conv_turn_counts
    from logstash_filter_translate_ray.pipelines.transcripts import read_transcripts
    got = conv_turn_counts(read_transcripts(transcripts_path)) \
        .to_pandas().set_index("conv_id")["turns"].to_dict()
    want = pq.read_table(transcripts_path).to_pandas() \
        .groupby("conv_id").size().to_dict()
    assert got == want
    assert max(want.values()) > 20 * (sum(want.values()) / len(want))  # real skew


def test_actor_pool_iterate_on(ray_session, tmp_path):
    """iterate_on shape through the file-backed translate stage."""
    import ray.data as rd
    dict_path = str(tmp_path / "d.csv")
    with open(dict_path, "w") as f:
        f.write("200,OK\n300,Redirect\n")
    cfg = TranslateConfig(iterate_on="codes", source="codes", target="labels",
                          dictionary_path=dict_path, refresh_interval=-1,
                          fallback="?")
    ds = rd.from_arrow(pa.table({
        "codes": pa.array([["200", "300"], ["200", "zzz"], None],
                          type=pa.list_(pa.string()))}))
    rows = translate_dataset(ds, cfg, service_name="test-iter-actor",
                             concurrency=1).take_all()
    got = [r["labels"] for r in rows]
    got = [None if v is None else list(v) for v in got]
    assert got == [["OK", "Redirect"], ["OK", "?"], None]


def test_ecs_v8_in_place(ray_session):
    """ecs_compatibility v8 behaves like v1: in-place default target."""
    cfg = TranslateConfig(source="msg", dictionary={"a": "b"},
                          ecs_compatibility="v8")
    assert cfg.target == "msg" and cfg.override
    snap = DictSnapshot(cfg.dictionary)
    out = translate_row({"msg": "a"}, cfg, snap)
    assert out is True


def test_resume_rejects_changed_inputs(ray_session, tmp_path):
    # needs a multi-file input so regrouping actually changes shard contents
    src = transcripts_parquet_path(20_000, seed=42)
    out = str(tmp_path / "guard")
    run_resumable(src, out, shard_files=1)
    # either guard is correct: the fail-fast shrank check (shard count
    # changed) or the per-shard input-files mismatch
    with pytest.raises(RuntimeError,
                       match="checkpoint mismatch|input shrank"):
        run_resumable(src, out, shard_files=2)


def test_flagship_with_file_backed_tool_dict(ray_session, transcripts_path, tmp_path):
    """The flagship DAG with the tool dictionary file-backed (served by a
    DictionaryService) instead of inline — same results as inline."""
    dict_path = str(tmp_path / "tools.csv")
    with open(dict_path, "w") as f:
        for k, v in TOOL_DICT.items():
            f.write(f"{k},{v}\n")
    cfg = TranscriptPipelineConfig(tool_dict_path=dict_path,
                                   refresh_interval=-1)
    ds = build_enriched_dataset(read_transcripts(transcripts_path), cfg)
    got = ds.to_pandas().sort_values(["conv_id", "turn_idx"])
    inline = build_enriched_dataset(read_transcripts(transcripts_path)) \
        .to_pandas().sort_values(["conv_id", "turn_idx"])
    assert got["tool_label"].tolist() == inline["tool_label"].tolist()
    assert got["route"].tolist() == inline["route"].tolist()


def test_declarative_spec_pipeline(ray_session, transcripts_path, tmp_path):
    """Logstash-migration path: a YAML spec builds + runs the same DAG."""
    import os
    import yaml
    from logstash_filter_translate_ray.pipelines.spec import (build_from_spec,
                                                              run_spec)
    src_file = sorted(os.listdir(transcripts_path))[0]
    spec = {
        "input": {"path": transcripts_path, "format": "parquet",
                  "columns": ["conv_id", "turn_idx", "role", "text", "tool", "ts"]},
        "filters": [
            {"grok": {"source": "text",
                      "pattern": r"(?P<status>\b[1-5][0-9]{2}\b)"}},
            {"translate": {"source": "status", "target": "status_class",
                           "regex": True, "dictionary": STATUS_REGEX_DICT,
                           "fallback": "unknown", "override": True}},
            {"translate": {"source": "tool", "target": "tool_label",
                           "dictionary": TOOL_DICT, "fallback": "no tool",
                           "override": True}},
        ],
        "route": {"key": "role", "routes": ROLE_ROUTES, "default": "other"},
        "output": {"path": str(tmp_path / "out"), "format": "parquet"},
    }
    # YAML round-trip to prove file-based specs work
    spec_path = str(tmp_path / "pipeline.yml")
    with open(spec_path, "w") as f:
        yaml.safe_dump(spec, f)

    ds = build_from_spec(spec_path)
    got = ds.to_pandas()
    assert len(got) == N_TURNS
    assert {"status_class", "tool_label", "route"} <= set(got.columns)

    run_spec(spec_path)
    parts = sorted(p for p in os.listdir(str(tmp_path / "out"))
                   if p.startswith("route="))
    assert len(parts) == 4

    # config validation errors surface with plugin semantics
    bad = dict(spec)
    bad["filters"] = [{"translate": {"dictionary": {"a": "b"}}}]
    with pytest.raises(Exception, match="source"):
        build_from_spec(bad)


def test_regex_route_dataset(ray_session):
    import ray.data as rd
    from logstash_filter_translate_ray.stages.route import route_dataset
    ds = rd.from_arrow(pa.table({"path": ["/api/v1/users", "/static/app.js",
                                          "/healthz", "/other"]}))
    out = route_dataset(ds, {"^/api/": "api", r"\.js$": "assets",
                             "^/health": "ops"},
                        key="path", default_route="web",
                        regex=True).to_pandas()
    assert out["route"].tolist() == ["api", "assets", "ops", "web"]


def test_grouped_counts_skewed_hot_key(ray_session):
    """north_rule skew clause: one key holding 50% of all rows must not
    break (or mis-count through) the distributed-merge path — the per-batch
    combiner partials ARE the salt (a hot key contributes one row per
    block to the shuffle, not one per event)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import grouped_counts

    n = 200_000
    rng = np.random.RandomState(3)
    keys = np.where(rng.rand(n) < 0.5, 0, rng.randint(1, 1000, n))
    ds = rd.from_arrow(pa.table({"user_id": pa.array(keys, type=pa.int64())}))
    ds = ds.repartition(16)
    out = grouped_counts(ds, ["user_id"], driver_merge=False).to_pandas()
    want = {k: c for k, c in zip(*np.unique(keys, return_counts=True))}
    got = dict(zip(out["user_id"], out["n"]))
    assert got == want
    assert got[0] > n * 0.45          # the hot key really is hot


def test_window_ops_ns_timestamp_unit(ray_session):
    """ADVICE regression: gaps must be µs even when the ts column is stored
    as timestamp[ns] (a bare int64 view would be 1000× off)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from logstash_filter_translate_ray.stages.window import prev_event_gap

    base = np.datetime64("2026-01-01T00:00:00", "ns")
    ts = pa.array([base, base + np.timedelta64(5, "s"),
                   base + np.timedelta64(65, "s")],
                  type=pa.timestamp("ns"))
    tbl = pa.table({"user_id": ["u", "u", "u"],
                    "event_id": pa.array([1, 2, 3], type=pa.int64()),
                    "ts": ts})
    out = prev_event_gap(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("event_id")
    gaps = out["gap_us"].tolist()
    assert np.isnan(gaps[0])
    assert gaps[1] == 5_000_000.0 and gaps[2] == 60_000_000.0


def test_spec_window_and_aggregate_clauses(ray_session, tmp_path):
    """Declarative spec: dedup/window/aggregate clauses build the same
    results as the library calls."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from logstash_filter_translate_ray.pipelines.spec import build_from_spec

    n = 2000
    rng = np.random.RandomState(5)
    base = np.datetime64("2026-01-01T00:00:00", "us")
    tbl = pa.table({
        "user_id": pa.array([f"u{i}" for i in rng.randint(0, 50, n)]),
        "event_id": pa.array(np.arange(n), type=pa.int64()),
        "event_type": pa.array(np.array(["a", "b", "c"])[rng.randint(0, 3, n)]),
        "ts": pa.array(base + rng.randint(0, 10**9, n).astype("timedelta64[us]"),
                       type=pa.timestamp("us")),
    })
    p = str(tmp_path / "ev.parquet")
    pq.write_table(tbl, p)

    agg = build_from_spec({
        "input": {"path": p},
        "aggregate": {"group_by": ["event_type"], "driver_merge": True},
    }).to_pandas().sort_values("event_type").reset_index(drop=True)
    want = {k: int(c) for k, c in
            zip(*np.unique(tbl["event_type"].to_pylist(), return_counts=True))}
    assert dict(zip(agg["event_type"], agg["n"])) == want

    sess = build_from_spec({
        "input": {"path": p},
        "window": {"kind": "sessions", "key": "user_id", "gap": "30min"},
    }).to_pandas()
    assert len(sess) == 50 and (sess["n_sessions"] >= 1).all()

    paths = build_from_spec({
        "input": {"path": p},
        "window": {"kind": "paths", "key": "user_id",
                   "val_col": "event_type"},
    }).to_pandas()
    assert len(paths) == 50 and paths["path"].str.contains(">").all()

    ded = build_from_spec({
        "input": {"path": p},
        "dedup": {"kind": "exact", "col": "event_type",
                  "id_col": "event_id"},
    }).to_pandas()
    assert len(ded) == 3      # one survivor per distinct event_type


def test_cli_run_resumable_and_spec(ray_session, tmp_path, capsys):
    """`python -m logstash_filter_translate_ray` CLI: resumable run twice
    (second is a no-op with identical totals) + a spec run."""
    import json
    import yaml
    from logstash_filter_translate_ray.__main__ import main
    from logstash_filter_translate_ray.sources import transcripts_parquet_path

    src = transcripts_parquet_path(20_000)
    out = str(tmp_path / "cli_out")
    assert main(["run", "--input", src, "--out", out,
                 "--shard-files", "1"]) == 0
    r1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["run", "--input", src, "--out", out,
                 "--shard-files", "1"]) == 0
    r2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r2["shards_run"] == 0 and r2["rows_out"] == r1["rows_out"]
    assert r2["route_counts"] == r1["route_counts"]

    spec_path = str(tmp_path / "p.yaml")
    files = sorted(__import__("os").listdir(src))
    with open(spec_path, "w") as f:
        yaml.safe_dump({
            "input": {"path": src},
            "aggregate": {"group_by": ["role"], "driver_merge": True},
        }, f)
    assert main(["spec", "--spec", spec_path]) == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2["rows"] >= 2


def test_run_pipeline_conv_counts_stay_lazy(ray_session, transcripts_path):
    """VERDICT r2 #3: conv_turn_counts is whole-input cardinality (one row
    per conversation) — run_pipeline must hand it back as a lazy Dataset,
    not a driver pandas frame."""
    import ray.data as rd
    res = run_pipeline(transcripts_path)
    convs = res["conv_turn_counts"]
    assert isinstance(convs, rd.Dataset)
    df = convs.to_pandas()          # tiny at test scale
    assert int(df["turns"].sum()) == N_TURNS


def test_spec_curation_chain_matches_programmatic(ray_session, sf_dir):
    """The declarative text-analysis + keep + dedup spec reproduces the
    programmatic curation pipeline (q_curation_pipeline) row for row."""
    import sys
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as em
    from logstash_filter_translate_ray.pipelines.spec import build_from_spec

    spec = {
        "input": {"path": f"{sf_dir}/documents.parquet",
                  "columns": ["doc_id", "text"]},
        "filters": [
            {"quality": {}},
            {"keep": {"column": "quality_score", "op": ">=", "value": 0.5}},
            {"langid": {}},
            {"keep": {"column": "lang_pred", "op": "==", "value": "en"}},
        ],
        "dedup": {"kind": "exact"},
    }
    from logstash_filter_translate_ray.functions.text import token_count_batch
    got = build_from_spec(spec).map_batches(
        lambda t: token_count_batch(t).drop_columns(
            ["text", "punct_ratio", "stop_ratio"]),
        batch_format="pyarrow", batch_size=None).to_pandas()
    want = em.q_curation_pipeline(sf_dir).to_pandas()
    cols = sorted(want.columns)
    g = got[cols].sort_values("doc_id").reset_index(drop=True)
    w = want[cols].sort_values("doc_id").reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


# --------------------------------------------------------------------------
# VERDICT r4 #8: spec DSL covers the LLM-operator stages — the curation
# flagship and the kNN joins are declarative now
# --------------------------------------------------------------------------

def test_spec_curation_flagship(ray_session):
    """The whole curation flagship (quality → keep ≥0.5 → langid → keep en
    → exact dedup → tokens → select) expressed as a SPEC must equal the
    Python-API flagship query bit-for-bit."""
    import __ray_entry__ as m
    from logstash_filter_translate_ray.pipelines.spec import build_from_spec

    sf = "/root/testdata/sf0.001"
    spec = {
        "input": {"path": os.path.join(sf, "documents.parquet"),
                  "columns": ["doc_id", "text"]},
        "filters": [
            {"quality": {}},
            {"keep": {"column": "quality_score", "op": ">=", "value": 0.5}},
            {"langid": {}},
            {"keep": {"column": "lang_pred", "op": "==", "value": "en"}},
        ],
        "dedup": {"kind": "exact"},
        "post_filters": [
            {"tokens": {}},
            {"select": {"columns": ["doc_id", "quality_score", "lang_pred",
                                    "n_tokens_ws", "n_tokens_bpe"]}},
        ],
    }
    got = build_from_spec(spec).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = m.queries()["curation_pipeline"](sf).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)


def test_spec_keep_ops(ray_session, sf_dir):
    from logstash_filter_translate_ray.pipelines.spec import build_from_spec
    from logstash_filter_translate_ray.errors import ConfigurationError
    base = {"input": {"path": f"{sf_dir}/documents.parquet",
                      "columns": ["doc_id", "text"]}}
    n_all = build_from_spec(base).count()
    half = build_from_spec({**base, "filters": [
        {"keep": {"column": "doc_id", "op": "<", "value": 50}}]}).count()
    assert half == 50 and n_all > half
    isin = build_from_spec({**base, "filters": [
        {"keep": {"column": "doc_id", "op": "in", "value": [1, 2, 3]}}]}).count()
    assert isin == 3
    import pytest as _pytest
    with _pytest.raises(ConfigurationError):
        build_from_spec({**base, "filters": [
            {"keep": {"column": "doc_id", "op": "~", "value": 1}}]})


def test_typed_fallback_block_invariant_through_ray(ray_session, tmp_path):
    """ADVICE r3 end-to-end: a multi-block Dataset with a typed dict +
    string fallback must concat/write cleanly regardless of which blocks
    happen to be all-hit — the target type is block-invariant (string)."""
    import pyarrow as pa
    import ray.data as rd
    from logstash_filter_translate_ray import TranslateConfig
    from logstash_filter_translate_ray.stages import translate_dataset
    cfg = TranslateConfig(source="s", target="t",
                          dictionary={"a": 100, "b": 200}, fallback="fb")
    # block 0: all hits; block 1: contains a miss
    ds = rd.from_arrow([pa.table({"s": ["a", "b", "a"]}),
                        pa.table({"s": ["a", "zz", "b"]})])
    out = translate_dataset(ds, cfg, matched_col=None)
    df = out.to_pandas()                       # concat across blocks
    assert df["t"].tolist() == ["100", "200", "100", "100", "fb", "200"]
    out_dir = str(tmp_path / "ti")
    translate_dataset(ds, cfg, matched_col=None).write_parquet(out_dir)
    import pyarrow.parquet as pq
    assert pq.read_table(out_dir)["t"].type == pa.string()


def test_spec_incremental_dedup_clause(ray_session, sf_dir, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    from logstash_filter_translate_ray.pipelines.spec import build_from_spec
    seen_path = str(tmp_path / "seen.parquet")
    new_path = str(tmp_path / "new.parquet")
    pq.write_table(pa.table({"doc_id": [1], "text": ["alpha"]}), seen_path)
    pq.write_table(pa.table({"doc_id": [10, 11],
                             "text": ["alpha", "beta"]}), new_path)
    out = build_from_spec({
        "input": {"path": new_path},
        "dedup": {"kind": "incremental", "seen_path": seen_path},
    }).to_pandas()
    assert out["doc_id"].tolist() == [11]


def test_spec_sample_and_split_kinds(ray_session, sf_dir):
    from logstash_filter_translate_ray.pipelines.spec import build_from_spec
    base = {"input": {"path": f"{sf_dir}/documents.parquet",
                      "columns": ["doc_id"]}}
    n = build_from_spec(base).count()
    sampled = build_from_spec({**base, "filters": [
        {"sample": {"col": "doc_id", "fraction": 0.2}}]}).count()
    assert 0 < sampled < n
    df = build_from_spec({**base, "filters": [
        {"split": {"col": "doc_id"}}]}).to_pandas()
    assert set(df["split"]) <= {"train", "val", "test"} and len(df) == n


def test_run_spec_resumable(ray_session, tmp_path):
    """Declarative resume: kill-between-shards semantics — a second run
    skips completed shards; totals equal an uninterrupted run; the global
    aggregate clause runs over the union of shard outputs."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from logstash_filter_translate_ray.pipelines.spec import (
        build_from_spec, run_spec_resumable)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(4):
        pq.write_table(pa.table({
            "doc_id": list(range(i * 100, (i + 1) * 100)),
            "role": (["user", "assistant"] * 50),
            "text": [f"doc {j} text" for j in range(i * 100, (i + 1) * 100)],
        }), str(src / f"part-{i}.parquet"))
    spec = {
        "input": {"path": str(src)},
        "filters": [{"keep": {"column": "doc_id", "op": "<", "value": 350}}],
        "route": {"key": "role", "routes": {"user": "u", "assistant": "a"}},
        "aggregate": {"group_by": ["route"], "driver_merge": True},
    }
    out = str(tmp_path / "out")
    r1 = run_spec_resumable(spec, out, shard_files=1)
    assert r1["shards_run"] == 4 and r1["shards_skipped"] == 0
    assert r1["rows_out"] == 350
    res1 = r1["result"]
    res1 = res1.to_pandas() if hasattr(res1, "to_pandas") else res1
    agg1 = res1.sort_values("route").reset_index(drop=True)
    # resume: everything skips, totals unchanged
    r2 = run_spec_resumable(spec, out, shard_files=1)
    assert r2["shards_run"] == 0 and r2["shards_skipped"] == 4
    assert r2["rows_out"] == 350
    res2 = r2["result"]
    res2 = res2.to_pandas() if hasattr(res2, "to_pandas") else res2
    agg2 = res2.sort_values("route").reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(agg1, agg2)
    # semantics == the non-sharded run
    whole = build_from_spec(spec)
    whole = whole if hasattr(whole, "to_pandas") else whole
    w = (whole.to_pandas() if hasattr(whole, "to_pandas") else whole) \
        .sort_values("route").reset_index(drop=True)
    pd.testing.assert_frame_equal(agg1.astype(str), w.astype(str))
    # partial failure: delete one manifest + its shard dir → only it re-runs
    import os
    import shutil
    os.remove(os.path.join(out, "_manifests", "00002.json"))
    shutil.rmtree(os.path.join(out, "shard=00002"))
    r3 = run_spec_resumable(spec, out, shard_files=1)
    assert r3["shards_run"] == 1 and r3["shards_skipped"] == 3
    assert r3["rows_out"] == 350


def test_grouped_quantiles_matches_sorted_reference(ray_session, sf_dir):
    """Histogram-partial quantiles == quantile over the fully sorted
    per-key arrays (ceil(q·n)−1 discrete rule)."""
    import math
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        _cents, grouped_quantiles)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    got = grouped_quantiles(ds).set_index("event_type")
    t = pq.read_table(f"{sf_dir}/events.parquet",
                      columns=["event_type", "value"])
    cents = _cents(t["value"]).to_numpy(zero_copy_only=False)
    types = t["event_type"].to_numpy(zero_copy_only=False)
    for k in got.index:
        vals = np.sort(cents[types == k])
        for q in (0.5, 0.95, 0.99):
            want = int(vals[max(math.ceil(q * len(vals)), 1) - 1])
            assert got.loc[k, f"p{int(q * 100)}"] == want, (k, q)


def test_spec_quantiles_aggregate_and_example_yaml(ray_session, tmp_path):
    from logstash_filter_translate_ray.pipelines.spec import (
        build_from_spec, load_spec, run_spec)
    res = build_from_spec({
        "input": {"path": "/root/testdata/sf0.001/events.parquet",
                  "columns": ["event_type", "value"]},
        "aggregate": {"kind": "quantiles", "key": "event_type",
                      "val": "value", "qs": [0.5, 0.9]},
    }).to_pandas()
    assert {"event_type", "p50", "p90"} <= set(res.columns)
    # the shipped example spec parses and runs end-to-end
    spec = load_spec("/root/repo/docs/examples/curation.yaml")
    spec["output"]["path"] = str(tmp_path / "curated")
    assert run_spec(spec) is None
    import os
    assert any(f.endswith(".parquet")
               for f in os.listdir(str(tmp_path / "curated")))


def test_cli_spec_resumable(ray_session, tmp_path, capsys):
    import json
    import pyarrow as pa
    import pyarrow.parquet as pq
    from logstash_filter_translate_ray.__main__ import main
    src = tmp_path / "src"
    src.mkdir()
    for i in range(2):
        pq.write_table(pa.table({"doc_id": [i * 10, i * 10 + 1],
                                 "text": ["a b", "c d"]}),
                       str(src / f"p{i}.parquet"))
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"input": {"path": str(src)}}))
    out = str(tmp_path / "out")
    assert main(["spec", "--spec", str(spec), "--out", out,
                 "--shard-files", "1"]) == 0
    r1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r1["shards_run"] == 2 and r1["rows_out"] == 4
    assert main(["spec", "--spec", str(spec), "--out", out,
                 "--shard-files", "1"]) == 0
    r2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert r2["shards_run"] == 0 and r2["shards_skipped"] == 2


def test_run_spec_resumable_output_and_stale_manifests(ray_session, tmp_path):
    """(review r3) the spec's output.path receives the POST-CLAUSE result,
    and a shrunken input at the same out_dir is a hard error instead of a
    silent union of stale shard outputs."""
    import json
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq
    from logstash_filter_translate_ray.pipelines.spec import (
        run_spec_resumable)
    src = tmp_path / "src"
    src.mkdir()
    for i in range(2):
        pq.write_table(pa.table({"doc_id": [i * 10, i * 10 + 1],
                                 "text": ["same", f"uniq{i}"]}),
                       str(src / f"p{i}.parquet"))
    sink = str(tmp_path / "final")
    spec = {"input": {"path": str(src)},
            "dedup": {"kind": "exact"},
            "output": {"path": sink}}
    out = str(tmp_path / "out")
    res = run_spec_resumable(spec, out, shard_files=1)
    assert res["output_path"] == sink
    written = pq.read_table(sink).to_pandas()
    # dedup applied ACROSS shards before the sink: one 'same' survives
    assert sorted(written["text"]) == ["same", "uniq0", "uniq1"]
    assert res["rows_out"] == 4          # routed (pre-dedup) shard rows
    # re-submitting (the advertised resume flow) must NOT duplicate sink
    # rows: the final write is tmp+swap, not append (ADVICE r4)
    res_again = run_spec_resumable(spec, out, shard_files=1)
    assert res_again["shards_run"] == 0
    rewritten = pq.read_table(sink).to_pandas()
    assert sorted(rewritten["text"]) == ["same", "uniq0", "uniq1"]
    # shrink the input → rerun must refuse the stale manifest
    os.remove(str(src / "p1.parquet"))
    import pytest as _pytest
    with _pytest.raises(RuntimeError, match="input shrank"):
        run_spec_resumable(spec, out, shard_files=1)


def test_run_resumable_rejects_shrunken_input(ray_session, tmp_path):
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq
    from logstash_filter_translate_ray.pipelines import run_resumable
    from logstash_filter_translate_ray.sources.transcripts import (
        make_transcripts)
    src = tmp_path / "t"
    src.mkdir()
    tbl = make_transcripts(2000, seed=1)
    half = len(tbl) // 2
    pq.write_table(tbl.slice(0, half), str(src / "a.parquet"))
    pq.write_table(tbl.slice(half), str(src / "b.parquet"))
    out = str(tmp_path / "o")
    r1 = run_resumable(str(src), out, shard_files=1)
    assert r1["shards_run"] == 2
    os.remove(str(src / "b.parquet"))
    import pytest as _pytest
    with _pytest.raises(RuntimeError, match="input shrank"):
        run_resumable(str(src), out, shard_files=1)


def test_grouped_counts_keeps_null_nonstring_keys(ray_session):
    """Review r3: a null timestamp bucket (non-string key — NULL_LABEL fill
    doesn't apply) must not vanish from the driver-merged counts."""
    import pyarrow as pa
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import grouped_counts
    tbl = pa.table({"bucket": pa.array([None, None, 1, 1, 2],
                                       type=pa.timestamp("us"))})
    out = grouped_counts(rd.from_arrow(tbl), ["bucket"], driver_merge=True)
    assert int(out["n"].sum()) == 5
    assert out["bucket"].isna().any()
    null_n = int(out.loc[out["bucket"].isna(), "n"].iloc[0])
    assert null_n == 2


def test_spec_resumable_rejects_remote_uri(tmp_path):
    from logstash_filter_translate_ray.errors import ConfigurationError
    from logstash_filter_translate_ray.pipelines.spec import (
        run_spec_resumable)
    spec = {"input": {"path": str(tmp_path / "missing.parquet")},
            "steps": [],
            "output": {"path": "s3://bucket/out"}}
    with pytest.raises(ConfigurationError, match="local paths only"):
        run_spec_resumable(spec, str(tmp_path / "ckpt"))


def test_spec_resumable_knn_only_post_clause(ray_session, tmp_path):
    import ray.data as rd
    from logstash_filter_translate_ray.functions.similarity import knn_join
    from logstash_filter_translate_ray.pipelines.spec import (
        POST_CLAUSE_KEYS, _apply_post_clauses, run_spec_resumable)

    # the trigger tuple and the clause applier can never drift apart again
    import inspect
    applier_src = inspect.getsource(_apply_post_clauses)
    for key in POST_CLAUSE_KEYS:
        assert f'"{key}" in s' in applier_src

    sf = "/root/testdata/sf0.001"
    emb = os.path.join(sf, "embeddings.parquet")
    sink = str(tmp_path / "knn_sink")
    spec = {"input": {"path": emb},
            "knn": {"kind": "exact", "k": 3},
            "output": {"path": sink}}
    res = run_spec_resumable(spec, str(tmp_path / "ckpt"), shard_files=1)
    assert res["result"] is not None
    got = rd.read_parquet(sink).to_pandas() \
        .sort_values(["vec_id", "nn_rank"]).reset_index(drop=True)
    want = knn_join(rd.read_parquet(emb), k=3)
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)


def test_spec_resumable_post_filters_only(ray_session, tmp_path):
    import ray.data as rd
    from logstash_filter_translate_ray.pipelines.spec import (
        run_spec_resumable)

    sf = "/root/testdata/sf0.001"
    docs = os.path.join(sf, "documents.parquet")
    sink = str(tmp_path / "pf_sink")
    spec = {"input": {"path": docs, "columns": ["doc_id", "text"]},
            "post_filters": [{"tokens": {}},
                             {"select": {"columns": ["doc_id",
                                                     "n_tokens_ws"]}}],
            "output": {"path": sink}}
    run_spec_resumable(spec, str(tmp_path / "ckpt"), shard_files=1)
    got = rd.read_parquet(sink).to_pandas()
    # the select post clause must have been applied, not skipped
    assert sorted(got.columns) == ["doc_id", "n_tokens_ws"]
    assert len(got) == rd.read_parquet(docs).count()


def test_spec_knn_clause(ray_session):
    import ray.data as rd
    from logstash_filter_translate_ray.functions.similarity import (
        knn_join, knn_join_ivf)
    from logstash_filter_translate_ray.pipelines.spec import (
        build_from_spec, load_spec, run_spec)
    from logstash_filter_translate_ray.errors import ConfigurationError

    sf = "/root/testdata/sf0.001"
    emb = os.path.join(sf, "embeddings.parquet")

    def _via_spec(knn_opts):
        return build_from_spec({"input": {"path": emb}, "knn": knn_opts}) \
            .to_pandas().sort_values(["vec_id", "nn_rank"]) \
            .reset_index(drop=True)

    want = knn_join(rd.read_parquet(emb), k=3)
    pd.testing.assert_frame_equal(_via_spec({"kind": "exact", "k": 3}), want)

    want_ivf = knn_join_ivf(rd.read_parquet(emb), k=3, n_cells=8, n_probe=3)
    pd.testing.assert_frame_equal(
        _via_spec({"kind": "ivf", "k": 3, "n_cells": 8, "n_probe": 3}),
        want_ivf)

    with pytest.raises(ConfigurationError, match="knn.kind"):
        _via_spec({"kind": "bogus"})
    with pytest.raises(ConfigurationError, match="select requires"):
        build_from_spec({"input": {"path": emb},
                         "filters": [{"select": {}}]})


def test_spec_post_filters_keep_schema_on_empty(ray_session, tmp_path):
    """A keep/select post_filter over an all-empty dataset must re-anchor
    the statically-derived schema (found by the spec fuzz: dedup +
    post_filters + distributed counts returned schema() None)."""
    import pyarrow.parquet as pq

    from logstash_filter_translate_ray.pipelines.spec import build_from_spec

    tbl = pa.table({
        "event_id": pa.array([2], type=pa.int64()),
        "user_id": pa.array([None], type=pa.int64()),
        "event_type": pa.array(["view"], type=pa.string()),
        "props": pa.array([None], type=pa.string()),
    })
    path = str(tmp_path / "events.parquet")
    pq.write_table(tbl, path)
    spec = {"input": {"path": path},
            "filters": [{"keep": {"column": "event_type", "op": "in",
                                  "value": ["click"]}}],
            "dedup": {"kind": "exact", "col": "props",
                      "id_col": "event_id"},
            "post_filters": [
                {"keep": {"column": "event_id", "op": "<", "value": 12}},
                {"select": {"columns": ["event_id", "user_id"]}},
            ]}
    ds = build_from_spec(spec)
    sch = ds.schema()
    assert sch is not None and sch.names == ["event_id", "user_id"]
    spec["aggregate"] = {"kind": "counts", "group_by": ["user_id"],
                         "driver_merge": False}
    agg = build_from_spec(spec)
    sch2 = agg.schema()
    assert sch2 is not None and sch2.names == ["user_id", "n"]


# --------------------------------------------------------------------------
# Multi-node-shaped smoke: a tiny object store + 1 MB blocks force the
# streaming executor through backpressure; outputs stay oracle-exact
# (minhash_pairs runs both verify joins). Subprocess: it needs its own
# (small) Ray session.
# --------------------------------------------------------------------------

def test_spill_pressure_smoke(sf_dir):
    import json
    import subprocess
    import sys
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(repo, "scripts", "spill_smoke.py"),
         sf_dir],
        capture_output=True, text=True, timeout=600, cwd=repo)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["ok"] is True
    assert all(q["match"] for q in out["queries"].values()), out
