"""Stateless translate stage: the worker-process snapshot cache, the
build-time dictionary checks of :func:`translate_dataset`, and the
file-backed flavor running on the same fused tasks as the inline one."""

import dataclasses
import json
import os
import re
from collections import Counter, OrderedDict

import pyarrow as pa
import pytest
import ray

from logstash_filter_translate_ray import DictSnapshot, TranslateConfig
from logstash_filter_translate_ray.dictionary import (FileDictionary,
                                                      load_json_items)
from logstash_filter_translate_ray.errors import ConfigurationError
from logstash_filter_translate_ray.stages import translate_stage as ts


def test_one_snapshot_load_per_worker(ray_session, tmp_path):
    """Each worker process deserializes a broadcast snapshot once, however
    many blocks it translates."""
    log = str(tmp_path / "loads.txt")

    class CountingSnapshot(DictSnapshot):
        # defined locally, so it is pickled by value and the hook runs in
        # the worker on every deserialization
        def __setstate__(self, state):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            self.__dict__.update(state)

    n_blocks = 16
    cfg = TranslateConfig(source="id", target="t", dictionary={})
    fn = ts.make_translate_batch_fn(
        cfg, ray.put(CountingSnapshot({"3": "three"})), matched_col=None)
    out = ray.data.range(n_blocks * 8, override_num_blocks=n_blocks) \
        .map_batches(fn, batch_format="pyarrow", batch_size=None).to_pandas()
    assert out.loc[out["id"] == 3, "t"].tolist() == ["three"]
    with open(log) as f:
        loads = Counter(f.read().split())
    assert loads and max(loads.values()) == 1, loads
    # more blocks than loads: some worker translated several blocks warm
    assert sum(loads.values()) < n_blocks


def test_worker_snapshot_cache_is_a_bounded_lru(ray_session, monkeypatch):
    monkeypatch.setattr(ts, "_snapshot_cache", OrderedDict())
    loaded = []
    real_get = ray.get

    def counting_get(ref):
        loaded.append(ref.hex())
        return real_get(ref)

    monkeypatch.setattr(ray, "get", counting_get)
    cap = ts._SNAPSHOT_CACHE_CAP
    refs = [ray.put(DictSnapshot({"k": str(i)})) for i in range(cap + 2)]

    # cyclic passes over cap refs load each ref once and then never miss
    for _ in range(3):
        for i, ref in enumerate(refs[:cap]):
            assert ts._worker_snapshot(ref).map == {"k": str(i)}
    assert loaded == [r.hex() for r in refs[:cap]]
    assert ts._worker_snapshot(refs[0]) is ts._worker_snapshot(refs[0])

    # past the cap the least recently used entry goes: refs[0] was just
    # used, so refs[1] is evicted, then refs[2]
    ts._worker_snapshot(refs[cap])
    ts._worker_snapshot(refs[cap + 1])
    assert list(ts._snapshot_cache) == [r.hex() for r in
                                        refs[3:cap] + [refs[0]] + refs[cap:]]
    ts._worker_snapshot(refs[1])
    assert loaded[-1] == refs[1].hex() and len(ts._snapshot_cache) == cap

    # a raw snapshot passes straight through, uncached
    snap = DictSnapshot({"a": "b"})
    assert ts._worker_snapshot(snap) is snap
    assert len(loaded) == cap + 3


@pytest.mark.parametrize("entries", [{"a": "x\ud800y", "b": "ok"},
                                     {"b": "ok", "x\ud800": "v"}])
def test_lone_surrogate_dictionary_fails_at_build(ray_session, tmp_path,
                                                  entries):
    """A JSON ``"\\ud800"`` escape loads as a lone surrogate, which Arrow
    cannot encode: the pipeline build fails naming the entry, instead of
    every translate task failing later."""
    path = tmp_path / "dict.json"
    path.write_text(json.dumps(entries))        # ASCII, escapes kept
    bad = next(k for k, v in entries.items() if v != "ok")
    ds = ray.data.from_items([{"s": "a"}, {"s": "b"}])
    inline = TranslateConfig(source="s", target="t",
                             dictionary=dict(load_json_items(str(path))))
    with pytest.raises(ConfigurationError, match="valid Unicode text") as ei:
        ts.translate_dataset(ds, inline)
    assert repr(bad) in str(ei.value)
    # the file-backed flavor fails when its dictionary service first loads
    from_file = TranslateConfig(source="s", target="t",
                                dictionary_path=str(path))
    with pytest.raises(Exception, match="valid Unicode text"):
        ts.translate_dataset(ds, from_file)


def test_missing_file_ok_translate_dataset(ray_session, tmp_path):
    """The flag must flow through the PRODUCTION path (translate_dataset →
    DictionaryService actor), not just direct FileDictionary construction
    (round-5 review: service_kwargs silently dropped it)."""
    import ray
    import ray.data as rd
    from logstash_filter_translate_ray.config import TranslateConfig
    from logstash_filter_translate_ray.stages.translate_stage import (
        translate_dataset)

    missing = tmp_path / "gone.csv"
    ds = rd.from_arrow(pa.table({"status": ["a", "b"]}))

    # default: loud failure at pipeline BUILD time (actor first-load)
    cfg_loud = TranslateConfig(source="status", target="translation",
                               dictionary_path=str(missing),
                               refresh_interval=-1, fallback="nf")
    with pytest.raises(Exception, match="when loading dictionary"):
        translate_dataset(ds, cfg_loud)

    # opt-in: the service registers with an empty dict; fallback applies
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary_path=str(missing),
                          refresh_interval=-1, fallback="nf",
                          missing_file_ok=True)
    out = translate_dataset(ds, cfg).to_pandas()
    assert out["translation"].tolist() == ["nf", "nf"]


def _operators(ds: "ray.data.Dataset") -> list[str]:
    """The executed physical operators, by name, from ``stats()``."""
    return re.findall(r"^Operator \d+ (.+?):", ds.materialize().stats(),
                      re.M)


def test_file_backed_chain_fuses_like_inline(ray_session, tmp_path):
    """A file-backed dictionary runs on the same stateless tasks as an
    inline one, so the flagship enrich chain stays one map operator after
    the read."""
    from logstash_filter_translate_ray.pipelines.transcripts import (
        TOOL_DICT, TranscriptPipelineConfig, build_enriched_dataset,
        read_transcripts)
    from logstash_filter_translate_ray.sources import transcripts_parquet_path
    src = transcripts_parquet_path(2_000, seed=7, n_files=2,
                                   cache_dir=str(tmp_path / "src"))
    path = tmp_path / "tools.csv"
    path.write_text("".join(f"{k},{v}\n" for k, v in TOOL_DICT.items()))
    inline = TranscriptPipelineConfig(conv_dict_size=1000,
                                      refresh_interval=-1)
    from_file = dataclasses.replace(inline, tool_dict_path=str(path))
    ops = [_operators(build_enriched_dataset(read_transcripts(src), c))
           for c in (inline, from_file)]
    assert ops[0] == ops[1], ops
    assert len(ops[1]) == 2 and ops[1][0].startswith("ReadParquet"), ops
    assert "MapBatches" in ops[1][1] and "TranslateFn" not in ops[1][1]


_DICT_TEXT = {
    "csv": "a,Alpha\nb,Beta\nc,Gamma\n",
    "json": json.dumps({"a": "Alpha", "b": "Beta", "c": "Gamma"}),
    "yml": "a: Alpha\nb: Beta\nc: Gamma\n",
}
_SHAPES = {
    "single": ({"source": "s"},
               pa.array(["a", "zz", None, "c", "b", "a"])),
    "values": ({"iterate_on": "s", "source": "s"},
               pa.array([["a", "b"], ["zz"], None, [], ["c", "a"], ["b"]],
                        type=pa.list_(pa.string()))),
    "maps": ({"iterate_on": "s", "source": "k"},
             pa.array([[{"k": "a"}, {"k": "zz"}], None, [{"k": "b"}], [],
                       [{"k": "c"}], [{"k": "a"}, {"k": "b"}]],
                      type=pa.list_(pa.struct([("k", pa.string())])))),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("ext", sorted(_DICT_TEXT))
def test_file_backed_equals_inline(ray_session, tmp_path, ext, shape):
    """Over several blocks, a file-backed dictionary translates exactly as
    the same items given inline, for every file format and shape."""
    path = tmp_path / f"dict.{ext}"
    path.write_text(_DICT_TEXT[ext])
    items = FileDictionary(str(path), refresh_interval=-1).snapshot.map
    fields, col = _SHAPES[shape]
    tbl = pa.table({"id": list(range(len(col))), "s": col})
    common = dict(target="t", fallback="?", **fields)

    def run(cfg):
        ds = ray.data.from_arrow([tbl.slice(0, 3), tbl.slice(3)])
        out = ts.translate_dataset(ds, cfg)
        return pa.concat_tables(ray.get(out.to_arrow_refs())).sort_by("id")

    from_file = run(TranslateConfig(dictionary_path=str(path),
                                    refresh_interval=-1, **common))
    inline = run(TranslateConfig(dictionary=dict(items), **common))
    assert from_file.equals(inline), (from_file.to_pylist(),
                                      inline.to_pylist())
    assert from_file.num_rows == len(col)
