"""CheckpointStore unit behavior (manifest round-trip, atomic rename,
leftover-tmp cleanup and ownership) and the resumable runner's manifests:
counts read from the committed files, pinned against DuckDB over the
inputs, and exactly-once under a Ray task retry (on Ray Data and on the
file runner)."""

import json
import os
import time

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from logstash_filter_translate_ray.checkpoint import CheckpointStore, ShardManifest


def test_manifest_roundtrip(tmp_path):
    store = CheckpointStore(str(tmp_path / "ck"))
    out = str(tmp_path / "ck" / "shard=00003")
    import os
    os.makedirs(out)
    # is_done requires the certified output dir to EXIST for rows_out > 0
    m = ShardManifest(shard_id="00003", input_files=["a.parquet"],
                      output_dir=out, rows_in=10, rows_out=10,
                      route_counts={"r": 10}, matched_counts={"True": 4})
    assert not store.is_done("00003")
    store.commit(m)
    assert store.is_done("00003")
    back = store.load("00003")
    assert back == m
    assert store.load_all() == [m]
    assert store.load("99999") is None


def test_atomic_shard_promotion(tmp_path):
    store = CheckpointStore(str(tmp_path / "ck"))
    tmp = store.begin_shard("00001")
    assert tmp.endswith(".tmp") and os.path.isdir(tmp)
    with open(os.path.join(tmp, "data.bin"), "w") as f:
        f.write("x")
    final = store.finish_shard("00001")
    assert os.path.exists(os.path.join(final, "data.bin"))
    assert not os.path.exists(tmp)


def test_begin_shard_clears_stale_tmp(tmp_path):
    store = CheckpointStore(str(tmp_path / "ck"))
    tmp = store.begin_shard("00002")
    with open(os.path.join(tmp, "stale.bin"), "w") as f:
        f.write("leftover from a crash")
    tmp2 = store.begin_shard("00002")   # crash-restart path
    assert tmp2 == tmp
    assert os.listdir(tmp2) == []


def test_manifest_write_is_atomic(tmp_path):
    store = CheckpointStore(str(tmp_path / "ck"))
    m = ShardManifest(shard_id="00004", input_files=[], output_dir="/y",
                      rows_in=0, rows_out=0)
    store.commit(m)
    # no .tmp residue, file is valid JSON
    files = os.listdir(store.manifest_dir)
    assert files == ["00004.json"]
    with open(os.path.join(store.manifest_dir, files[0])) as f:
        json.load(f)


def test_shard_inputs_recurses_and_refuses_empty(tmp_path):
    import pyarrow.parquet as pq
    from logstash_filter_translate_ray.checkpoint import (
        _shard_inputs)
    sub = tmp_path / "route=a"
    sub.mkdir()
    pq.write_table(pa.table({"x": [1]}), str(sub / "f.parquet"))
    shards = _shard_inputs(str(tmp_path), 4)
    assert shards == [[str(sub / "f.parquet")]]
    empty = tmp_path / "nothing"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match="0-shard"):
        _shard_inputs(str(empty), 4)


def test_checkpoint_corrupt_manifest_reruns(tmp_path):
    """A truncated/corrupt manifest (power loss) counts as NOT done — the
    shard re-runs instead of being skipped forever or wedging load_all."""
    from logstash_filter_translate_ray.checkpoint import (CheckpointStore,
                                                          ShardManifest)
    store = CheckpointStore(str(tmp_path))
    out_dir = tmp_path / "shard=s0"             # is_done requires the
    out_dir.mkdir()                             # certified output to exist
    store.commit(ShardManifest("s0", ["a.parquet"], str(out_dir), 10, 10))
    assert store.is_done("s0")
    # corrupt it the way delayed allocation does: renamed but empty
    with open(store._path("s0"), "w"):
        pass
    assert not store.is_done("s0")
    assert store.load("s0") is None
    assert store.load_all() == []               # no crash, no ghost rows
    # a fresh commit repairs it
    store.commit(ShardManifest("s0", ["a.parquet"], str(out_dir), 10, 10))
    assert store.is_done("s0") and len(store.load_all()) == 1
    # and the output-existence guard itself: deleting the certified
    # output dir flips is_done back to False (shard re-runs)
    out_dir.rmdir()
    assert not store.is_done("s0")


def test_checkpoint_tmp_ownership(tmp_path):
    from logstash_filter_translate_ray.checkpoint import (
        CheckpointStore, _local_host, _owner_alive, _proc_start, _tmp_owner,
        _tmp_suffix)

    sfx = _tmp_suffix()
    host, pid, start = _tmp_owner("base" + sfx)
    assert host == _local_host() and pid == os.getpid()
    assert start == (_proc_start(os.getpid()) or 0)
    # legacy suffix forms still parse (and are treated as same-host)
    assert _tmp_owner("base.1234.tmp") == (None, 1234, None)
    assert _tmp_owner("base.tmp") == (None, None, None)

    store = CheckpointStore(str(tmp_path))
    # our own live tmp is reclaimed, not a spurious 'live process' error
    t1 = store.begin_shard("s1")
    assert store.begin_shard("s1") == t1

    # a FRESH foreign-host tmp is presumed live -> loud failure
    foreign = tmp_path / "shard=s2.otherhost.99-1.tmp"
    foreign.mkdir()
    with pytest.raises(RuntimeError, match="live process"):
        store.begin_shard("s2")
    # ... but past the lease it is crash litter and is reclaimed
    short = CheckpointStore(str(tmp_path), foreign_lease_s=0.0)
    time.sleep(0.01)
    short.begin_shard("s2")
    assert not foreign.exists()

    # dead same-host pid -> stale
    dead = tmp_path / f"shard=s3.{_local_host()}.999999-1.tmp"
    dead.mkdir()
    store.begin_shard("s3")
    assert not dead.exists()

    # recycled PID: pid 1 is alive but its start time differs -> stale
    rec = tmp_path / f"shard=s4.{_local_host()}.1-123456789.tmp"
    rec.mkdir()
    store.begin_shard("s4")
    assert not rec.exists()

    # manifest-tmp litter in load_all: foreign-fresh kept, dead removed
    (tmp_path / "_manifests" / "m.otherhost.99-1.tmp").write_text("x")
    (tmp_path / "_manifests" / f"m.{_local_host()}.999999-1.tmp") \
        .write_text("x")
    assert store.load_all() == []
    assert (tmp_path / "_manifests" / "m.otherhost.99-1.tmp").exists()
    assert not (tmp_path / "_manifests"
                / f"m.{_local_host()}.999999-1.tmp").exists()


# --------------------------------------------------------------------------
# Resumable runner: manifest counts come from the committed files. The
# expected values below are computed with DuckDB over the INPUT files, and
# the route labels are the literal directory names of the fan-out sink
# (percent-encoded; a null route is hive's default partition).
# --------------------------------------------------------------------------

ROUTES = {"user": "user turns", "assistant": "a=b", "tool": "t/u"}
ENCODED = {"user turns": "user%20turns", "a=b": "a%3Db", "t/u": "t%2Fu",
           "other": "other", None: "__HIVE_DEFAULT_PARTITION__"}
ROLES = ["user", "assistant", "tool", "system", None]
# status parses as \b[1-5][0-9]{2}\b, and a parsed status counts as
# matched whether a STATUS_REGEX_DICT key or the fallback filled it (150)
TEXTS = ["ok 200", "the 404 page", "no status", None, "code 150", "503"]


def _write_turns(path, n, roles=ROLES, texts=TEXTS):
    pq.write_table(pa.table({
        "conv_id": pa.array([f"conv-{i % 7:08d}" for i in range(n)]),
        "turn_idx": pa.array(range(n), type=pa.int32()),
        "role": pa.array([roles[i % len(roles)] for i in range(n)],
                         type=pa.string()),
        "text": pa.array([texts[i % len(texts)] for i in range(n)],
                         type=pa.string()),
        "tool": pa.array(["search" if i % 3 else None for i in range(n)],
                         type=pa.string()),
        "ts": pa.array([i for i in range(n)], type=pa.timestamp("us")),
    }), str(path))
    return str(path)


def _expected_counts(path):
    con = duckdb.connect()
    roles = con.execute(f"SELECT role, count(*) FROM read_parquet('{path}') "
                        "GROUP BY role").fetchall()
    routes = {}
    for role, n in roles:
        label = ENCODED[ROUTES.get(role, "other") if role is not None
                        else None]
        routes[label] = routes.get(label, 0) + n
    matched = dict(con.execute(
        "SELECT coalesce(regexp_matches(text, '\\b[1-5][0-9]{2}\\b'), "
        f"false)::VARCHAR, count(*) FROM read_parquet('{path}') "
        "GROUP BY 1").fetchall())
    matched = {k.capitalize(): v for k, v in matched.items()}
    return routes, matched


def _cfg():
    from logstash_filter_translate_ray.pipelines import (
        TranscriptPipelineConfig)
    return TranscriptPipelineConfig(routes=dict(ROUTES), conv_dict_size=0)


def test_manifest_counts_pinned_to_input(ray_session, tmp_path):
    """Null roles, route names with a space, '=' and '/', a 0-row input
    file, and an all-matched shard: every manifest's counts equal DuckDB's
    over that shard's input."""
    from logstash_filter_translate_ray.pipelines import run_resumable
    src = tmp_path / "in"
    src.mkdir()
    mixed = _write_turns(src / "a_mixed.parquet", 301)
    empty = _write_turns(src / "b_empty.parquet", 0)
    hits = _write_turns(src / "c_hits.parquet", 40, texts=["got 200"])
    res = run_resumable(str(src), str(tmp_path / "out"), _cfg(),
                        shard_files=1)
    by_input = {m.input_files[0]: m
                for m in CheckpointStore(str(tmp_path / "out")).load_all()}

    routes, matched = _expected_counts(mixed)
    assert "__HIVE_DEFAULT_PARTITION__" in routes
    assert {"user%20turns", "a%3Db", "t%2Fu", "other"} <= set(routes)
    m = by_input[mixed]
    assert (m.rows_in, m.rows_out) == (301, 301)
    assert m.route_counts == routes
    assert m.matched_counts == matched
    assert set(matched) == {"True", "False"}

    m = by_input[empty]
    assert (m.rows_in, m.rows_out) == (0, 0)
    assert m.route_counts == {} and m.matched_counts == {}

    routes, matched = _expected_counts(hits)
    m = by_input[hits]
    assert m.route_counts == routes
    assert m.matched_counts == {"True": 40} == matched

    routes, matched = _expected_counts(f"{src}/*.parquet")
    assert res["rows_out"] == 341
    assert res["route_counts"] == routes
    assert res["matched_counts"] == matched


def test_spec_manifests_have_no_route_or_matched_counts(ray_session,
                                                        tmp_path):
    from logstash_filter_translate_ray.pipelines.spec import (
        run_spec_resumable)
    src = _write_turns(tmp_path / "in.parquet", 50)
    spec = {"input": {"path": src},
            "route": {"key": "role", "routes": dict(ROUTES)}}
    res = run_spec_resumable(spec, str(tmp_path / "ckpt"))
    (m,) = CheckpointStore(str(tmp_path / "ckpt")).load_all()
    assert (m.rows_in, m.rows_out, res["rows_out"]) == (50, 50, 50)
    assert m.route_counts == {} and m.matched_counts == {}


def _footer_route_rows(out_dir):
    rows = {}
    for root, _dirs, files in os.walk(out_dir):
        for f in files:
            if f.endswith(".parquet"):
                label = os.path.basename(root)
                rows[label] = rows.get(label, 0) + pq.read_metadata(
                    os.path.join(root, f)).num_rows
    return rows


def _manifest_fields(out_dir):
    return [(m.shard_id, m.input_files, m.rows_in, m.rows_out,
             m.route_counts, m.matched_counts, m.extra)
            for m in CheckpointStore(out_dir).load_all()]


def test_run_resumable_exactly_once_under_task_retry(ray_session, tmp_path,
                                                     monkeypatch):
    """One block's worker dies mid-stage on its first attempt; Ray retries
    the fused task, and the manifests, the return dict and the per-route
    output rows equal those of a no-fault run."""
    from logstash_filter_translate_ray.pipelines import run_resumable
    from logstash_filter_translate_ray.pipelines import transcripts as T
    src = tmp_path / "in"
    src.mkdir()
    for i in range(4):
        _write_turns(src / f"part{i}.parquet", 200 + 37 * i)
    clean = run_resumable(str(src), str(tmp_path / "clean"), _cfg(),
                          shard_files=2)

    marker = str(tmp_path / "died_once")
    build = T.build_enriched_dataset

    def die_once(batch):
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return batch
        os.close(fd)
        os._exit(1)

    def faulty_build(ds, cfg=None):
        return build(ds, cfg).map_batches(die_once, batch_format="pyarrow",
                                          batch_size=None)

    monkeypatch.setattr(T, "build_enriched_dataset", faulty_build)
    retried = run_resumable(str(src), str(tmp_path / "retried"), _cfg(),
                            shard_files=2)
    assert os.path.exists(marker)               # the fault did fire
    assert retried == clean
    assert _manifest_fields(str(tmp_path / "retried")) \
        == _manifest_fields(str(tmp_path / "clean"))
    assert _footer_route_rows(str(tmp_path / "retried")) \
        == _footer_route_rows(str(tmp_path / "clean"))


def test_run_resumable_exactly_once_under_runner_task_retry(
        ray_session, tmp_path, monkeypatch):
    """The same fault inside a file runner task: the route stage of the
    composed chain kills its worker once; Ray retries the task, which
    rewrites its files under the same names, and the manifests, the
    return dict and the per-route output rows equal a no-fault run's."""
    import ray.data as rd
    from logstash_filter_translate_ray.pipelines import run_resumable
    from logstash_filter_translate_ray.pipelines import transcripts as T
    src = tmp_path / "in"
    src.mkdir()
    for i in range(4):
        _write_turns(src / f"part{i}.parquet", 200 + 37 * i)
    clean = run_resumable(str(src), str(tmp_path / "clean"), _cfg(),
                          shard_files=2)

    marker = str(tmp_path / "died_once")
    route_block_fn = T.route_block_fn

    def faulty_route_block_fn(*args, **kwargs):
        fn = route_block_fn(*args, **kwargs)

        def die_once(batch):
            out = fn(batch)
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return out
            os.close(fd)
            os._exit(1)
        return die_once

    def no_ray_data_write(*args, **kwargs):
        raise AssertionError("write went through Ray Data's parquet sink")

    monkeypatch.setattr(T, "route_block_fn", faulty_route_block_fn)
    monkeypatch.setattr(rd.Dataset, "write_parquet", no_ray_data_write)
    retried = run_resumable(str(src), str(tmp_path / "retried"), _cfg(),
                            shard_files=2)
    assert os.path.exists(marker)               # the fault did fire
    assert retried == clean
    assert _manifest_fields(str(tmp_path / "retried")) \
        == _manifest_fields(str(tmp_path / "clean"))
    assert _footer_route_rows(str(tmp_path / "retried")) \
        == _footer_route_rows(str(tmp_path / "clean"))
