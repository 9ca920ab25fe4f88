"""Source readers for the transcript schema: Parquet (primary), CSV, and
JSON-lines — all producing the identical `TRANSCRIPT_SCHEMA` Dataset so the
whole DAG is source-agnostic (the reference has no sources of its own;
Logstash inputs are host-provided, SURVEY §2.3).

The parquet source is the engine's own, :class:`ParquetFiles`: local
files and a column list, which the file runner (stages/route.py) reads
as they are, one plain task per file. Its Ray Data form builds with no
task: Ray's ``ParquetDatasource`` prefetches every footer and blocks the
driver on two sampling tasks, which in a new Ray job also boot two
workers before any file task is submitted (docs/SCALE.md, "Executor
fixed costs").

A read of it, and the block functions mapped over that read, are a
:class:`ParquetPlan`: a value that holds no Ray Data object. The file
runner runs it as it is (``rayutil.file_chain``); its Dataset form is
built only when a caller uses a Dataset attribute. Building any Ray Data
Dataset starts Ray Data's stats actor, a ~169 MB process that lives for
the rest of the session (docs/SCALE.md, "The stats actor")."""

from __future__ import annotations

import functools
import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.csv as pacsv
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource.partitioning import (Partitioning,
                                              PathPartitionParser)

from ..rayutil import map_blocks
from ..stages.route import file_batches
from .transcripts import TRANSCRIPT_SCHEMA

# Ray's fallback estimate of in-memory over on-disk parquet bytes, which
# sizes the blocks of a read without override_num_blocks
_ENCODING_RATIO = 5


def _paths(path) -> list[str]:
    """A path argument of the parquet readers (one path or a list) as a
    list of strings."""
    if isinstance(path, (str, os.PathLike)):
        path = [path]
    return [os.fspath(p) for p in path]


def _read_files(files: list[str], columns: list[str]):
    """One read task: each file's ``columns`` in the batches a file task
    hands its chain (a 0-row file: none, as Ray's parquet read drops it)."""
    for f in files:
        yield from (b for b in file_batches(f, columns) if b.num_rows)


class ParquetFiles(rd.Datasource):
    """Local parquet files and a column list. ``files`` are listed as
    Ray's parquet reader lists them (``pq.ParquetDataset``: recursive,
    ``_``/``.`` files skipped), sorted; only the first file's schema is
    read, so ``ds.schema()`` runs no task. A read task covers one file,
    or a contiguous group when fewer blocks than files are asked for, and
    yields each file's ``rayutil.read_parquet_file(file, columns)`` in
    the file runner's slices (``route.file_batches``)."""

    def __init__(self, path: "str | list[str]", columns: list[str]):
        paths = _paths(path)
        listing = pq.ParquetDataset(paths[0] if len(paths) == 1 else paths,
                                    partitioning=None)
        self.files = sorted(listing.files)
        if not self.files:
            raise FileNotFoundError(f"no parquet files under {path!r}")
        self.columns = list(columns)
        schema = listing.schema
        # a missing column raises Ray's KeyError, from the same call
        self._schema = pa.schema([schema.field(c) for c in self.columns],
                                 schema.metadata)
        self._sizes = [os.path.getsize(f) * _ENCODING_RATIO
                       for f in self.files]

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._sizes)

    def get_read_tasks(self, parallelism: int) -> list[rd.ReadTask]:
        tasks = []
        for group in np.array_split(np.arange(len(self.files)), parallelism):
            if len(group):
                files = [self.files[i] for i in group]
                meta = BlockMetadata(
                    num_rows=None, input_files=files, exec_stats=None,
                    size_bytes=sum(self._sizes[i] for i in group))
                tasks.append(rd.ReadTask(
                    functools.partial(_read_files, files, self.columns),
                    meta, schema=self._schema))
        return tasks

    def get_name(self) -> str:
        return "ParquetFiles"


class ParquetPlan:
    """A read of a :class:`ParquetFiles` source (``read_kw``: Ray's
    ``read_datasource`` keywords, i.e. ``override_num_blocks``) and the
    whole-block Arrow functions mapped over it, in order: ``steps`` of
    ``(fn, batch_size, record_schema)``. Building or extending one
    creates no Ray Data object; the file runner takes its files, columns
    and functions as they are (``rayutil.file_chain``).

    :meth:`dataset` is its Ray Data form, built once: the read, then each
    step as one ``map_batches`` (with ``record_schema``, as
    ``rayutil.map_blocks`` builds it, its schema recorded). Every other
    attribute is the Dataset's, so a plan is used where a Dataset is."""

    __slots__ = ("source", "read_kw", "steps", "_ds")

    def __init__(self, source: ParquetFiles, read_kw: dict,
                 steps: tuple = ()):
        self.source, self.read_kw, self.steps = source, read_kw, steps
        self._ds = None

    def then(self, fn, batch_size: Optional[int] = None,
             record_schema: bool = False) -> "ParquetPlan":
        """This plan with ``fn`` mapped over its batches of at most
        ``batch_size`` rows (None: whole blocks)."""
        return ParquetPlan(self.source, self.read_kw,
                           (*self.steps, (fn, batch_size, record_schema)))

    def dataset(self) -> "rd.Dataset":
        if self._ds is None:
            ds = rd.read_datasource(self.source, **self.read_kw)
            for fn, batch_size, record_schema in self.steps:
                ds = (map_blocks(ds, fn, batch_size=batch_size)
                      if record_schema else
                      ds.map_batches(fn, batch_format="pyarrow",
                                     batch_size=batch_size))
            self._ds = ds
        return self._ds

    def __getattr__(self, name: str):
        # dunders stay the plan's own, so pickle and copy see a plain
        # object; a slot read before it is set must not build a Dataset
        if name.startswith("__") or name in ParquetPlan.__slots__:
            raise AttributeError(name)
        return getattr(self.dataset(), name)


def parquet_source(path: "str | list[str]",
                   columns: list[str]) -> Optional[ParquetFiles]:
    """A :class:`ParquetFiles` source of ``path``, or None where its rows
    would differ from ``rd.read_parquet(path, columns=columns)``'s: a
    path with a URI scheme (a non-local filesystem), or a file under a
    hive ``k=v`` directory, whose keys Ray's reader adds as columns."""
    if any("://" in p for p in _paths(path)):
        return None
    source = ParquetFiles(path, columns)
    hive = PathPartitionParser(Partitioning("hive"))
    if any(hive(f) for f in source.files):
        return None
    return source


# The null rule of every CSV input (these sources and the spec DSL's
# ``format: csv``), as pyarrow ``ConvertOptions`` keywords.
CSV_NULL_OPTIONS = dict(
    # review r3: without this, null string cells round-trip as "" and the
    # engine's null ⇔ absent convention diverges between CSV and parquet
    # sources (a null tool became "" → dict miss → fallback written).
    # review r4: but "" is ALSO a legal, lookupable tool value (the
    # nil_is_present shape) — conflating it with null inverts the same
    # divergence. Postgres-style split: an UNQUOTED empty cell is null,
    # a QUOTED "" survives as the empty string.
    strings_can_be_null=True,
    quoted_strings_can_be_null=False,
    # ONLY the empty cell means null: pyarrow's default null_values list
    # would also nullify literal 'NA'/'NULL'/'null'/'NaN'/'n/a' strings —
    # legitimate, lookupable dict keys via the parquet/JSON sources —
    # breaking source-agnosticism (r4 review)
    null_values=[""])

_CONVERT = pacsv.ConvertOptions(
    column_types={f.name: f.type for f in TRANSCRIPT_SCHEMA},
    **CSV_NULL_OPTIONS)


def read_transcripts_csv(paths: "str | list[str]") -> "rd.Dataset":
    """CSV transcript source with the fixed schema enforced at parse time
    (timestamps as ISO8601 strings in the ``ts`` column)."""
    ds = rd.read_csv(paths, convert_options=_CONVERT)
    return map_blocks(ds, _conform)


def read_transcripts_json(paths: "str | list[str]") -> "rd.Dataset":
    """JSON-lines transcript source; fields coerced to the fixed schema."""
    ds = rd.read_json(paths)
    return map_blocks(ds, _conform)


def _conform(tbl: pa.Table) -> pa.Table:
    cols = {}
    for f in TRANSCRIPT_SCHEMA:
        if f.name in tbl.column_names:
            col = tbl[f.name]
            if col.type != f.type:
                col = col.cast(f.type)
            cols[f.name] = col
        else:
            cols[f.name] = pa.nulls(len(tbl), f.type)
    return pa.table(cols, schema=TRANSCRIPT_SCHEMA)
