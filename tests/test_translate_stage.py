"""Stateless translate stage: the worker-process snapshot cache and the
build-time dictionary checks of :func:`translate_dataset`."""

import json
import os
from collections import Counter, OrderedDict

import pytest
import ray

from logstash_filter_translate_ray import DictSnapshot, TranslateConfig
from logstash_filter_translate_ray.dictionary import load_json_items
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
