"""The routed fan-out sink (stages/route.py): the file runner, which
writes a transcript chain as one plain Ray task per input file, against
Ray Data's parquet sink of the same chain; and the JSON sink."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from logstash_filter_translate_ray.sources.transcripts import make_transcripts
from logstash_filter_translate_ray.stages.route import MAX_BATCH_ROWS

ROUTES = {"user": "user turns", "assistant": "a=b", "tool": "t/u"}


def _write_inputs(src, sizes):
    """Consecutive slices of one transcript table, ``sizes`` rows each,
    one file per slice; every 11th role is null (a null route)."""
    tbl = make_transcripts(sum(sizes), seed=5)
    null_role = pa.array([i % 11 == 0 for i in range(len(tbl))])
    tbl = tbl.set_column(tbl.column_names.index("role"), "role",
                         pc.if_else(null_role, pa.scalar(None, pa.string()),
                                    tbl["role"]))
    os.makedirs(src)
    start = 0
    for i, n in enumerate(sizes):
        pq.write_table(tbl.slice(start, n),
                       os.path.join(src, f"part{i}.parquet"))
        start += n


def _routed_tables(out_dir):
    """{route directory: its rows, sorted by (conv_id, turn_idx)}."""
    return {d: pads.dataset(os.path.join(out_dir, d), format="parquet")
            .to_table().sort_by([("conv_id", "ascending"),
                                 ("turn_idx", "ascending")])
            for d in sorted(os.listdir(out_dir))}


def _no_ray_data_write(*args, **kwargs):
    raise AssertionError("write went through Ray Data's parquet sink")


def test_file_runner_matches_ray_data_sink(ray_session, tmp_path,
                                           monkeypatch):
    """write_routed(build_enriched_dataset(read_transcripts(files))) runs
    one plain task per file and writes what Ray Data's sink writes for
    the same chain (reached through a derived Dataset): the same route=
    directories (percent-encoded labels, hive's null directory), schemas
    and rows. The input has a 0-row file and a file over the 128k-row
    batch."""
    import ray.data as rd
    from logstash_filter_translate_ray.pipelines import transcripts as T
    from logstash_filter_translate_ray.stages.route import write_routed

    src = str(tmp_path / "in")
    _write_inputs(src, [0, 1_000, 2_000, MAX_BATCH_ROWS + 10])
    cfg = T.TranscriptPipelineConfig(routes=dict(ROUTES))

    def chain():
        return T.build_enriched_dataset(T.read_transcripts(src), cfg)

    runner, ray_data = str(tmp_path / "runner"), str(tmp_path / "ray_data")
    with monkeypatch.context() as m:
        m.setattr(rd.Dataset, "write_parquet", _no_ray_data_write)
        write_routed(chain(), runner)
    write_routed(chain().map_batches(lambda t: t, batch_format="pyarrow",
                                     batch_size=None), ray_data)

    got, want = _routed_tables(runner), _routed_tables(ray_data)
    assert list(want) == ["route=__HIVE_DEFAULT_PARTITION__", "route=a%3Db",
                          "route=other", "route=t%2Fu", "route=user%20turns"]
    assert list(got) == list(want)
    assert sum(len(t) for t in want.values()) == 3_010 + MAX_BATCH_ROWS
    for d in want:
        assert got[d].schema.equals(want[d].schema, check_metadata=True), d
        assert got[d].equals(want[d]), d
    # two small files, and the big one in two batches
    assert len(glob.glob(f"{runner}/route=a%3Db/*.parquet")) == 4


def test_file_runner_task_error_propagates(ray_session, tmp_path,
                                           monkeypatch):
    """An exception inside the chain fails the write loudly."""
    from logstash_filter_translate_ray.pipelines import transcripts as T
    from logstash_filter_translate_ray.stages.route import write_routed

    src = str(tmp_path / "in")
    _write_inputs(src, [100, 100])

    def broken_route_block_fn(*args, **kwargs):
        def fn(batch):
            raise ValueError("broken route stage")
        return fn

    monkeypatch.setattr(T, "route_block_fn", broken_route_block_fn)
    ds = T.build_enriched_dataset(T.read_transcripts(src))
    with pytest.raises(ValueError, match="broken route stage"):
        write_routed(ds, str(tmp_path / "out"))


def test_write_routed_json_null_routes_and_identical_blocks(
        ray_session, tmp_path):
    """Null-route rows must land in the hive null partition (they were
    silently written NOWHERE: pc.equal(col, None) is an all-null mask that
    filter drops) and two blocks with byte-identical payloads must yield
    two files (content-hash-only names collapsed them → row loss)."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.route import (NULL_ROUTE_DIR,
                                                            write_routed)
    blk = pa.table({"route": pa.array(["a", None]),
                    "v": pa.array([1, 2], type=pa.int64())})
    ds = rd.from_arrow([blk, blk])        # two identical blocks
    out = str(tmp_path / "sink")
    write_routed(ds, out, file_format="json")
    rows = []
    for f in glob.glob(f"{out}/route=*/*.jsonl"):
        with open(f) as fh:
            rows += [json.loads(l) for l in fh if l.strip()]
    assert len(rows) == 4                  # nothing dropped
    null_rows = [r for r in rows if r["route"] is None]
    assert len(null_rows) == 2
    assert len(glob.glob(f"{out}/route={NULL_ROUTE_DIR}/*.jsonl")) == 2
