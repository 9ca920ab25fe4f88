"""Zero-row layout sweep: every ``queries()`` entry over the sf tables and
over the same tables rewritten as 0-row parquet files.

The first run wraps ``rayutil.map_blocks`` so that every block a mapped
function produces is checked against the schema the map recorded (the
derived schema must be the one the non-empty blocks carry). The second
run feeds the empty tables: a Dataset result's ``schema()`` must give the
first run's names and types, a frame or table result its columns, and a
query that cannot run on empty input must say so in its error."""

import importlib
import os
import pkgutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

import __ray_entry__ as entry_mod
import logstash_filter_translate_ray
from logstash_filter_translate_ray import rayutil

# Dataset results whose stage is not a block map of the package: Ray Data
# takes their schema from their blocks, and over 0-row input there are
# none. The media maps' fixed-size batches stay ``map_batches`` calls.
UNTYPED_WHEN_EMPTY = {"multimodal_features", "multimodal_real_decode"}

# queries whose input cannot be empty, with the words their error says so in
NEEDS_ROWS = {
    "ann_topk": "query vector", "lsh_topk": "query vector",
    "ivf_topk": "query vector",
}


def _import_package():
    for m in pkgutil.walk_packages(logstash_filter_translate_ray.__path__,
                                   "logstash_filter_translate_ray."):
        if m.name.endswith("__main__"):
            continue
        importlib.import_module(m.name)


def _checked(real):
    """``map_blocks`` whose blocks must carry the schema it recorded."""
    def map_blocks(ds, fn, concurrency=None, batch_size=None):
        recorded = rayutil._arrow_schema(
            real(ds, fn).schema(fetch_if_missing=False))
        if recorded is None:
            return real(ds, fn, concurrency, batch_size)

        def checked(t):
            out = fn(t)
            if not out.schema.equals(recorded, check_metadata=False):
                raise AssertionError(
                    f"block schema {out.schema} != recorded {recorded}")
            return out

        return real(ds, checked, concurrency, batch_size)
    return map_blocks


@pytest.fixture
def checked_maps(monkeypatch):
    import sys

    _import_package()
    real = rayutil.map_blocks
    wrapped = _checked(real)
    for mod in list(sys.modules.values()):
        if getattr(mod, "map_blocks", None) is real:
            monkeypatch.setattr(mod, "map_blocks", wrapped)


@pytest.fixture(scope="module")
def empty_sf(sf_dir, tmp_path_factory):
    """The sf tables as 0-row parquet files, in a directory of the same
    name (the transcripts cache is keyed by it)."""
    out = tmp_path_factory.mktemp("zero") / os.path.basename(
        sf_dir.rstrip("/"))
    out.mkdir()
    for name in os.listdir(sf_dir):
        if name.endswith(".parquet"):
            schema = pq.read_schema(os.path.join(sf_dir, name))
            pq.write_table(schema.empty_table(), str(out / name))
    return str(out)


def _columns(res):
    """``(names, types)`` of a result; types None for a frame."""
    if isinstance(res, ray.data.Dataset):
        s = rayutil._arrow_schema(res.schema())
        return None if s is None else (s.names, s.types)
    if isinstance(res, pa.Table):
        return res.schema.names, None
    assert isinstance(res, pd.DataFrame), type(res)
    return list(res.columns), None


def _consume(res):
    if isinstance(res, ray.data.Dataset):
        res.materialize()


@pytest.mark.parametrize("name", sorted(entry_mod.queries()))
def test_query_zero_rows(ray_session, sf_dir, empty_sf, checked_maps, name):
    fn = entry_mod.queries()[name]
    full = fn(sf_dir)
    _consume(full)                     # runs every checked block
    want = _columns(full)
    assert want is not None, f"{name}: no schema over sf rows"
    if name in NEEDS_ROWS:
        with pytest.raises(ValueError, match=NEEDS_ROWS[name]):
            fn(empty_sf)
        return
    got = _columns(fn(empty_sf))
    if name in UNTYPED_WHEN_EMPTY:
        assert got is None, f"{name} keeps its schema now: drop it from " \
                            "UNTYPED_WHEN_EMPTY"
        return
    if want[1] is None:
        assert got[0] == want[0]
    else:
        assert got == want
