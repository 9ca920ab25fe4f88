"""The routed fan-out sink (stages/route.py): the file runner, which
writes a transcript chain as one plain Ray task per input file, and the
block path, which writes any other Dataset as one task per block, both
against Ray Data's own parquet sink; and the JSON sink on both paths. The
one block writer under both is pinned file for file against Arrow's hive
``write_dataset``, which it replaced, and its route labels against
Arrow's for every route type, JSON sink included."""

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
# the route= directories of ROUTES over _write_inputs' rows
ROUTE_DIRS = ["route=__HIVE_DEFAULT_PARTITION__", "route=a%3Db",
              "route=other", "route=t%2Fu", "route=user%20turns"]


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


def _json_rows(out_dir):
    """{route directory: its JSON rows, sorted by (conv_id, turn_idx)}."""
    got = {}
    for d in sorted(os.listdir(out_dir)):
        rows = []
        for f in glob.glob(os.path.join(out_dir, d, "*.jsonl")):
            with open(f) as fh:
                rows += [json.loads(line) for line in fh if line.strip()]
        got[d] = sorted(rows, key=lambda r: (r["conv_id"] or "",
                                             r["turn_idx"]))
    return got


def _no_ray_data_write(*args, **kwargs):
    raise AssertionError("write went through Ray Data's parquet sink")


def _no_block_path(*args, **kwargs):
    raise AssertionError("write went through the Dataset's blocks")


def _chain_inputs(tmp_path):
    """A transcript chain builder over inputs with a 0-row file and a
    file over the 128k-row batch."""
    from logstash_filter_translate_ray.pipelines import transcripts as T

    src = str(tmp_path / "in")
    _write_inputs(src, [0, 1_000, 2_000, MAX_BATCH_ROWS + 10])
    cfg = T.TranscriptPipelineConfig(routes=dict(ROUTES))
    return lambda: T.build_enriched_dataset(T.read_transcripts(src), cfg)


def _derived(ds):
    """``ds`` as a plan the file runner refuses (its blocks as data), so
    ``write_routed`` takes the block path."""
    return ds.materialize()


def test_file_runner_matches_ray_data_sink(ray_session, tmp_path,
                                           monkeypatch):
    """write_routed(build_enriched_dataset(read_transcripts(files))) runs
    one plain task per file, and write_routed of a Dataset derived from
    it one task per block. Both write what Ray Data's parquet sink writes
    for the derived Dataset: the same route= directories (percent-encoded
    labels, hive's null directory), schemas with metadata, and rows."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.route import write_routed

    chain = _chain_inputs(tmp_path)
    ref = str(tmp_path / "ray_data")
    _derived(chain()).write_parquet(ref, partition_cols=["route"])
    runner, blocks = str(tmp_path / "runner"), str(tmp_path / "blocks")
    with monkeypatch.context() as m:
        m.setattr(rd.Dataset, "write_parquet", _no_ray_data_write)
        write_routed(chain(), runner)
        write_routed(_derived(chain()), blocks)

    want = _routed_tables(ref)
    assert list(want) == ROUTE_DIRS
    assert sum(len(t) for t in want.values()) == 3_010 + MAX_BATCH_ROWS
    for out in (runner, blocks):
        got = _routed_tables(out)
        assert list(got) == list(want), out
        for d in want:
            assert got[d].schema.equals(want[d].schema,
                                        check_metadata=True), (out, d)
            assert got[d].equals(want[d]), (out, d)
    # two small files, and the big one in two batches
    assert len(glob.glob(f"{runner}/route=a%3Db/*.parquet")) == 4


def test_runner_path_builds_no_dataset(ray_session, tmp_path,
                                       monkeypatch):
    """The transcript chain is a plan value (``sources.readers
    .ParquetPlan``): writing it through ``build_enriched_dataset`` or the
    stage wrappers, and ``run_resumable``, build no Ray Data Dataset, the
    first of which would start Ray Data's stats actor; ``run_pipeline``
    builds two, the input and the result of its ``conv_turn_counts``
    exchange. The plan's Dataset form is a
    file chain of the plan's own files and columns."""
    import ray.data as rd

    from logstash_filter_translate_ray import TranslateConfig, rayutil
    from logstash_filter_translate_ray.pipelines import transcripts as T
    from logstash_filter_translate_ray.stages import (
        parse_dataset, route_dataset, translate_dataset)
    from logstash_filter_translate_ray.stages.route import write_routed

    src = str(tmp_path / "in")
    _write_inputs(src, [0, 1_000, 2_000])
    cfg = T.TranscriptPipelineConfig(routes=dict(ROUTES))
    tool = TranslateConfig(source="tool_norm", target="tool_label",
                           dictionary=dict(T.TOOL_DICT), fallback="none")
    built = []
    init = rd.Dataset.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "__init__", counted)
    write_routed(T.build_enriched_dataset(T.read_transcripts(src), cfg),
                 str(tmp_path / "enriched"))
    write_routed(route_dataset(translate_dataset(
        parse_dataset(T.read_transcripts(src)), tool), ROUTES),
        str(tmp_path / "stages"))
    T.run_resumable(src, str(tmp_path / "resumable"), cfg)
    assert built == []
    T.run_pipeline(src, cfg=cfg)
    assert built == ["MaterializedDataset"] * 2, built

    plan = T.build_enriched_dataset(T.read_transcripts(src), cfg)
    files, columns, _ = rayutil.file_chain(plan.dataset())
    assert (files, columns) == (plan.source.files, plan.source.columns)


def test_json_runner_matches_block_path(ray_session, tmp_path,
                                        monkeypatch):
    """A JSON write_routed of the transcript chain runs on the file
    runner (the Dataset's blocks are never asked for) and writes the same
    route= directories and rows as the block path's JSON of a Dataset
    derived from the chain."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.route import write_routed

    chain = _chain_inputs(tmp_path)
    runner, blocks = str(tmp_path / "runner"), str(tmp_path / "blocks")
    with monkeypatch.context() as m:
        m.setattr(rd.Dataset, "iter_internal_ref_bundles", _no_block_path)
        write_routed(chain(), runner, file_format="json")
    write_routed(_derived(chain()), blocks, file_format="json")

    want = _json_rows(blocks)
    assert list(want) == ROUTE_DIRS
    assert sum(len(rows) for rows in want.values()) \
        == 3_010 + MAX_BATCH_ROWS
    assert _json_rows(runner) == want


def test_file_runner_all_empty_inputs(ray_session, tmp_path):
    """A file chain whose input files are all empty writes no file but
    leaves the sink directory, and run_pipeline over it gives empty
    counts."""
    from logstash_filter_translate_ray.pipelines.transcripts import (
        run_pipeline)

    src, out = str(tmp_path / "in"), str(tmp_path / "out")
    _write_inputs(src, [0, 0])
    res = run_pipeline(src, out)
    assert os.listdir(out) == []
    assert len(res["sink_counts"]) == 0


@pytest.mark.parametrize("sink", [False, True])
def test_run_pipeline_empty_input_conv_schema(ray_session, tmp_path, sink):
    """Over a single 0-row input file, conv_turn_counts is empty but keeps
    its columns: the runner runs the chain over the file's 0-row table,
    so the conv_id partial carries the chain's schema."""
    from logstash_filter_translate_ray.pipelines.transcripts import (
        run_pipeline)

    src = str(tmp_path / "in")
    _write_inputs(src, [0])
    convs = run_pipeline(src, str(tmp_path / "out") if sink else None
                         )["conv_turn_counts"]
    assert convs.count() == 0
    schema = convs.schema()
    assert schema is not None
    assert list(zip(schema.names, schema.types)) == [
        ("conv_id", pa.string()), ("turns", pa.int64())]


def test_run_pipeline_empty_input_conv_schema_batched(ray_session,
                                                     tmp_path):
    """With a batch_size the chain is still a file chain: the runner runs
    it over the 0-row file's one 0-row slice, so the conv_id partial
    carries the chain's columns."""
    from logstash_filter_translate_ray.pipelines.transcripts import (
        TranscriptPipelineConfig, run_pipeline)

    src = str(tmp_path / "in")
    _write_inputs(src, [0])
    res = run_pipeline(src, cfg=TranscriptPipelineConfig(batch_size=4096))
    convs = res["conv_turn_counts"]
    assert convs.count() == 0 and len(res["sink_counts"]) == 0
    schema = convs.schema()
    assert schema is not None
    assert list(zip(schema.names, schema.types)) == [
        ("conv_id", pa.string()), ("turns", pa.int64())]


@pytest.mark.parametrize("sink", [False, True])
def test_run_pipeline_runs_chain_once(ray_session, tmp_path, monkeypatch,
                                      sink):
    """run_pipeline is one pass: the composed chain runs once per input
    file (each under 128k rows: one batch), the input is listed once, by
    the engine's parquet source, and the written output is never read
    back."""
    import ray.data as rd
    from logstash_filter_translate_ray.pipelines import transcripts as T

    src, out = str(tmp_path / "in"), str(tmp_path / "out")
    _write_inputs(src, [0, 300, 500])
    calls = str(tmp_path / "chain_calls")
    route_block_fn = T.route_block_fn

    def counted_route_block_fn(*args, **kwargs):
        fn = route_block_fn(*args, **kwargs)

        def counted(batch):
            with open(calls, "a") as f:
                f.write(f"{batch.num_rows}\n")
            return fn(batch)
        return counted

    parquet_source, reads = T.parquet_source, []

    def recorded_parquet_source(paths, *args, **kwargs):
        reads.append(paths)
        return parquet_source(paths, *args, **kwargs)

    def no_read_parquet(*args, **kwargs):
        raise AssertionError("rd.read_parquet was called")

    monkeypatch.setattr(T, "route_block_fn", counted_route_block_fn)
    monkeypatch.setattr(T, "parquet_source", recorded_parquet_source)
    monkeypatch.setattr(rd, "read_parquet", no_read_parquet)
    res = T.run_pipeline(src, out if sink else None)
    assert reads == [src]
    with open(calls) as f:
        assert sorted(int(n) for n in f) == [0, 300, 500]
    assert int(res["sink_counts"]["n"].sum()) == 800
    assert int(res["conv_turn_counts"].to_pandas()["turns"].sum()) == 800


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
    two files (content-hash-only names collapsed them → row loss). Route
    labels are percent-encoded into the same directories as the parquet
    sink's."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages.route import (NULL_ROUTE_DIR,
                                                            write_routed)
    labels = ["a", None, *ROUTES.values()]
    blk = pa.table({"route": pa.array(labels),
                    "v": pa.array(range(len(labels)), type=pa.int64())})
    ds = rd.from_arrow([blk, blk])        # two identical blocks
    out, parquet_out = str(tmp_path / "sink"), str(tmp_path / "parquet")
    write_routed(ds, out, file_format="json")
    write_routed(ds, parquet_out)
    assert sorted(os.listdir(out)) == sorted(os.listdir(parquet_out))
    assert "route=t%2Fu" in os.listdir(out)
    rows = []
    for f in glob.glob(f"{out}/route=*/*.jsonl"):
        with open(f) as fh:
            rows += [json.loads(l) for l in fh if l.strip()]
    assert len(rows) == 2 * len(labels)   # nothing dropped
    null_rows = [r for r in rows if r["route"] is None]
    assert len(null_rows) == 2
    assert len(glob.glob(f"{out}/route={NULL_ROUTE_DIR}/*.jsonl")) == 2


def _arrow_dataset_write(table, out_dir, name):
    """The reference writer: Arrow's hive-partitioned dataset writer, as
    the routed sink called it before it wrote on the task's thread."""
    pads.write_dataset(table, out_dir, format="parquet",
                       partitioning=["route"], partitioning_flavor="hive",
                       basename_template=f"{name}-{{i}}.parquet",
                       existing_data_behavior="overwrite_or_ignore")


def _file_bytes(out_dir):
    """{route directory/file name: the file's bytes}."""
    got = {}
    for path in glob.glob(os.path.join(out_dir, "*", "*")):
        with open(path, "rb") as f:
            got[os.path.relpath(path, out_dir)] = f.read()
    return got


def _labelled_table(values, type_=None):
    """A table routed by ``values`` (in four copies), with columns of
    several types and schema metadata."""
    route = pa.array(values * 4, type=type_)
    n = len(route)
    return pa.table({
        "route": route,
        "v": pa.array(range(n), type=pa.int64()),
        "s": pa.array([None if i % 7 == 0 else f"s{i}" for i in range(n)]),
        "f": pa.array([i / 3 for i in range(n)]),
        "ts": pa.array([i * 1_000_003 for i in range(n)],
                       type=pa.timestamp("us")),
        "tags": pa.array([[f"t{i % 3}"] * (i % 3) for i in range(n)]),
    }).replace_schema_metadata({"origin": "test"})


@pytest.mark.parametrize("rows", [None, 0])
def test_write_routes_bytes_match_arrow_dataset_writer(tmp_path, rows):
    """The block writer (one sort by route, ``pq.write_table`` per route
    on the task's thread) writes the same files, byte for byte and under
    the same names, as Arrow's hive ``write_dataset``: several routes, a
    null route, percent-encoded labels; a 0-row table writes nothing."""
    from logstash_filter_translate_ray.stages.route import _write_routes

    tbl = _labelled_table(["user", None, "a=b", "t/u", "user turns", "é",
                           "user", "50%"])
    if rows is not None:
        tbl = tbl.slice(0, rows)
    ours, ref = str(tmp_path / "ours"), str(tmp_path / "ref")
    _write_routes(tbl, ours, "route", "parquet", "block")
    _arrow_dataset_write(tbl, ref, "block")
    want = _file_bytes(ref)
    assert _file_bytes(ours) == want
    assert len(want) == (0 if rows == 0 else 7)


ROUTE_TYPES = {
    "str": (["a", "", "%", "/", "=", "é", "~", " ", None], None),
    "int": ([1, -3, 0, None], pa.int64()),
    "bool": ([True, False, None], pa.bool_()),
    "float": ([1.0, 2.5, -0.0, 1e20, None], pa.float64()),
    "timestamp": ([1_704_164_645_000_000, 1_704_164_645_000_006, None],
                  pa.timestamp("us")),
    "null": ([None], pa.null()),
}


@pytest.mark.parametrize("kind", sorted(ROUTE_TYPES))
def test_route_labels_one_rule_for_every_sink(tmp_path, kind):
    """One label rule for every route type: the route value cast to string
    by Arrow, URI-escaped, null as hive's default partition. The parquet
    and JSON sinks write the directories of Arrow's hive ``write_dataset``
    (a bool is ``true``, a float 1.0 is ``1``, a timestamp keeps its
    microseconds), ``route_labels`` (the manifests' labels) gives them,
    and each JSON directory holds the parquet directory's rows."""
    from logstash_filter_translate_ray.stages.route import (_write_routes,
                                                            route_labels)

    values, type_ = ROUTE_TYPES[kind]
    tbl = _labelled_table(values, type_)
    parquet, js = str(tmp_path / "parquet"), str(tmp_path / "json")
    ref = str(tmp_path / "ref")
    _write_routes(tbl, parquet, "route", "parquet", "block")
    _write_routes(tbl, js, "route", "json", "block")
    _arrow_dataset_write(tbl, ref, "block")
    dirs = sorted(os.listdir(ref))
    assert sorted(os.listdir(parquet)) == sorted(os.listdir(js)) == dirs
    assert sorted(f"route={label}" for label
                  in set(route_labels(tbl["route"]))) == dirs
    for d in dirs:
        with open(os.path.join(js, d, "block.jsonl")) as f:
            got = [json.loads(line)["v"] for line in f]
        want = pq.read_table(os.path.join(parquet, d))["v"].to_pylist()
        assert got == want, d
