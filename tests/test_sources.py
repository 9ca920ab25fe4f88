"""The engine's parquet source (sources/readers.ParquetFiles), which
``read_transcripts`` reads through: the files, rows, schema and blocks of
``rd.read_parquet``, built with no Ray task, and the transcript pipelines
running with no Ray parquet datasource at all."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from logstash_filter_translate_ray import rayutil
from logstash_filter_translate_ray.pipelines import transcripts as T
from logstash_filter_translate_ray.sources.readers import ParquetFiles
from logstash_filter_translate_ray.sources.transcripts import make_transcripts
from logstash_filter_translate_ray.stages.route import MAX_BATCH_ROWS


def _write_files(root, sizes, subdirs=()):
    """Consecutive slices of one transcript table, one file per size,
    round-robin over ``root`` and its ``subdirs``; returns the table."""
    tbl = make_transcripts(sum(sizes), seed=3)
    dirs = [root] + [os.path.join(root, d) for d in subdirs]
    for d in dirs:
        os.makedirs(d, exist_ok=True)
    start = 0
    for i, n in enumerate(sizes):
        pq.write_table(tbl.slice(start, n),
                       os.path.join(dirs[i % len(dirs)], f"f{i:03}.parquet"),
                       row_group_size=20_000)
        start += n
    return tbl


def _ray_read(path, **kw):
    import ray.data as rd
    return rd.read_parquet(path, columns=T.TRANSCRIPT_COLUMNS,
                           batch_size=None, **kw)


def _sorted_rows(ds):
    import ray
    return pa.concat_tables(t for t in ray.get(ds.to_arrow_refs())
                            if t.num_rows).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    ).combine_chunks()


def _block_rows(ds):
    return sorted(m.num_rows for b in ds.iter_internal_ref_bundles()
                  for _, m in b.blocks)


def _no_tasks(monkeypatch):
    """Make any Ray task the driver submits raise."""
    from ray.remote_function import RemoteFunction

    def boom(*args, **kwargs):
        raise AssertionError("a Ray task was submitted")
    monkeypatch.setattr(RemoteFunction, "_remote", boom)


def test_files_listed_like_ray_read(ray_session, tmp_path):
    """The source lists what Ray's parquet reader lists: recursive, with
    ``_``/``.`` files skipped and a 0-row file kept, sorted."""
    src = str(tmp_path / "in")
    _write_files(src, [0, 50, 50, 50], subdirs=["nested", "nested/deeper"])
    for name in ("_SUCCESS", ".hidden"):
        (tmp_path / "in" / name).write_text("")
    files = ParquetFiles(src, T.TRANSCRIPT_COLUMNS).files
    assert len(files) == 4 and files == sorted(files)
    plain = rayutil.plain_parquet_read
    assert files == plain(_ray_read(src)._logical_plan.dag)[0]
    read = T.read_transcripts(src)
    assert plain(read._logical_plan.dag) == (files, T.TRANSCRIPT_COLUMNS)


def test_rows_and_schema_equal_ray_read(ray_session, tmp_path):
    """0-row files, a file over MAX_BATCH_ROWS in several row groups and
    small ones read to the rows, schema and blocks of Ray's reader."""
    src = str(tmp_path / "in")
    _write_files(src, [0, 1_000, MAX_BATCH_ROWS + 10, 0, 3_000])
    for kw in ({}, {"override_num_blocks": 5}):
        ours, ray_read = T.read_transcripts(src, **kw), _ray_read(src, **kw)
        assert ours.schema().base_schema.equals(
            ray_read.schema().base_schema, check_metadata=True)
        got = _sorted_rows(ours)
        assert got.num_rows == 4_010 + MAX_BATCH_ROWS
        assert got.equals(_sorted_rows(ray_read))
    # one task per file: a file's slices are one block, as in Ray's read
    assert _block_rows(ours) == _block_rows(ray_read) \
        == [0, 0, 1_000, 3_000, MAX_BATCH_ROWS + 10]


def test_build_and_schema_run_no_task(ray_session, tmp_path, monkeypatch):
    """Building the read and asking its schema submit no Ray task: only
    the first file's schema is read, on the driver."""
    src = str(tmp_path / "in")
    _write_files(src, [100, 100, 100])
    _no_tasks(monkeypatch)
    ds = T.build_enriched_dataset(T.read_transcripts(src))
    schema = T.read_transcripts(src).schema().base_schema
    assert schema.names == T.TRANSCRIPT_COLUMNS
    assert ds is not None


@pytest.mark.parametrize("n_files,n_blocks", [(64, 16), (4, 8)])
def test_block_counts_like_ray_read(ray_session, tmp_path, n_files,
                                    n_blocks):
    """override_num_blocks below the file count groups files into read
    tasks (bench.py runs 16 over 64 files); above it, Ray splits each
    task's output. Either way the block count is Ray reader's."""
    src = str(tmp_path / "in")
    _write_files(src, [40] * n_files)
    ours = T.read_transcripts(src, override_num_blocks=n_blocks)
    assert ours.materialize().num_blocks() == n_blocks
    assert _ray_read(src, override_num_blocks=n_blocks) \
        .materialize().num_blocks() == n_blocks
    assert _sorted_rows(ours).num_rows == 40 * n_files


def test_empty_directory_raises_file_not_found(tmp_path):
    """A directory with no parquet file fails loudly at build time, naming
    the path (Ray's reader raised a KeyError on the missing column)."""
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "_SUCCESS").write_text("")
    with pytest.raises(FileNotFoundError, match="no parquet files under"):
        T.read_transcripts(str(empty))


def test_hive_paths_fall_back_to_ray_read(ray_session, tmp_path):
    """Files under hive k=v directories, whose keys Ray's reader adds as
    columns, are read by rd.read_parquet as before."""
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource)
    src = str(tmp_path / "in")
    _write_files(src, [30, 30], subdirs=["day=1"])
    ds = T.read_transcripts(src)
    assert type(ds._logical_plan.dag._datasource) is ParquetDatasource
    assert _sorted_rows(ds).num_rows == 60


def test_transcript_pipelines_build_no_ray_parquet_datasource(
        ray_session, tmp_path, monkeypatch):
    """run_pipeline, run_resumable and the routed write of the chain never
    construct Ray's ParquetDatasource (footer prefetch, sampling tasks)."""
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource)
    from logstash_filter_translate_ray.stages.route import write_routed

    src = str(tmp_path / "in")
    _write_files(src, [0, 500, 700])

    def boom(*args, **kwargs):
        raise AssertionError("Ray's ParquetDatasource was built")
    monkeypatch.setattr(ParquetDatasource, "__init__", boom)
    res = T.run_pipeline(src, str(tmp_path / "out"))
    assert int(res["sink_counts"]["n"].sum()) == 1_200
    assert int(res["conv_turn_counts"].to_pandas()["turns"].sum()) == 1_200
    resumed = T.run_resumable(src, str(tmp_path / "ckpt"), shard_files=2)
    assert resumed["rows_out"] == 1_200
    write_routed(T.build_enriched_dataset(T.read_transcripts(src)),
                 str(tmp_path / "routed"))
    assert sum(pq.read_metadata(os.path.join(r, f)).num_rows
               for r, _, fs in os.walk(tmp_path / "routed")
               for f in fs) == 1_200
