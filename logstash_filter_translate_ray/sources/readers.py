"""Source readers for the transcript schema: Parquet (primary), CSV, and
JSON-lines — all producing the identical `TRANSCRIPT_SCHEMA` Dataset so the
whole DAG is source-agnostic (the reference has no sources of its own;
Logstash inputs are host-provided, SURVEY §2.3)."""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.csv as pacsv
import ray.data as rd

from .transcripts import TRANSCRIPT_SCHEMA

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
    return ds.map_batches(_conform, batch_format="pyarrow", batch_size=None)


def read_transcripts_json(paths: "str | list[str]") -> "rd.Dataset":
    """JSON-lines transcript source; fields coerced to the fixed schema."""
    ds = rd.read_json(paths)
    return ds.map_batches(_conform, batch_format="pyarrow", batch_size=None)


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
