"""Scheduling + scale conformance: timed TTL reload (scheduling_spec.rb:45-106),
100k-entry dictionary reload (scheduling_spec.rb:108-204), and S12 per-row
error isolation (translate_spec.rb:724-749)."""

import os
import time

import pyarrow as pa
import pytest

from logstash_filter_translate_ray import DictSnapshot, TranslateConfig
from logstash_filter_translate_ray.stages.translate_stage import (
    ERROR_COL, safe_translate_batch)


def _write_csv(path, rows):
    with open(path, "w") as f:
        for k, v in rows:
            f.write(f"{k},{v}\n")


def test_ttl_refresh_fires_after_interval(ray_session, tmp_path):
    """version_if_newer triggers a TTL reload when refresh_interval elapsed
    and the file mtime changed (scheduler analogue, translate.rb:259-261)."""
    import ray
    from logstash_filter_translate_ray.state import DictionaryService

    p = str(tmp_path / "ttl.csv")
    _write_csv(p, [("a", "1")])
    svc = DictionaryService.options(name="ttl-test").remote(
        path=p, refresh_interval=0.5)
    assert ray.get(svc.version.remote()) == 1

    _write_csv(p, [("a", "2")])
    os.utime(p, (os.path.getmtime(p) + 10,) * 2)
    # within the TTL window: no reload yet
    assert ray.get(svc.version_if_newer.remote(1)) is None
    time.sleep(0.7)
    # past the TTL window: poll triggers the reload
    newer = ray.get(svc.version_if_newer.remote(1))
    assert newer == 2
    snap = ray.get(svc.get_snapshot.remote())
    assert snap.map["a"] == "2"
    ray.kill(svc)


def test_huge_dictionary_reload(tmp_path):
    """100k-entry CSV dictionary loads, translates, and survives a reload
    (scheduling_spec.rb:108-204; seeded keys instead of SecureRandom)."""
    from logstash_filter_translate_ray.dictionary import FileDictionary

    p = str(tmp_path / "huge.csv")
    rows = [("foo", "bar")] + [(f"{i:09x}", str(1_000_000 + i))
                               for i in range(100_000)]
    _write_csv(p, rows)
    t0 = time.perf_counter()
    d = FileDictionary(p, refresh_interval=-1)
    load_s = time.perf_counter() - t0
    assert len(d.snapshot) == 100_001
    assert d.snapshot.map["foo"] == "bar"
    assert load_s < 5.0

    # vectorized lookup against the 100k dict
    cfg = TranslateConfig(source="k", target="v",
                          dictionary_path=p, refresh_interval=-1)
    tbl = pa.table({"k": ["foo", f"{42:09x}", "missing"]})
    from logstash_filter_translate_ray.kernel import translate_table
    out = translate_table(tbl, cfg, d.snapshot).to_pylist()
    assert out[0]["v"] == "bar"
    assert out[1]["v"] == str(1_000_042)
    assert out[2]["v"] is None

    # mutate + reload keeps working (merge)
    _write_csv(p, rows + [("added", "later")])
    os.utime(p, (os.path.getmtime(p) + 10,) * 2)
    assert d.reload(force=True) is True
    assert d.snapshot.map["added"] == "later"
    assert d.snapshot.map["foo"] == "bar"


def test_error_isolation_batch_falls_back_to_rows(monkeypatch):
    """S12: when the vectorized kernel raises, rows run individually; a
    failing row passes through untranslated with translate_error set."""
    import logstash_filter_translate_ray.stages.translate_stage as ts

    cfg = TranslateConfig(source="s", target="t", dictionary={"x": "X"})
    snap = DictSnapshot(cfg.dictionary)
    tbl = pa.table({"s": ["x", "boom", "y"]})

    def exploding_kernel(batch, cfg_, snap_, matched):
        raise RuntimeError("vectorized kernel exploded")

    monkeypatch.setattr(ts, "translate_table", exploding_kernel)

    import logstash_filter_translate_ray.kernel as kmod
    orig_row = kmod.translate_row

    def flaky_row(ev, cfg_, snap_):
        if ev.get("s") == "boom":
            raise ValueError("row-level failure")
        return orig_row(ev, cfg_, snap_)

    monkeypatch.setattr(kmod, "translate_row", flaky_row)

    out = ts.safe_translate_batch(tbl, cfg, snap, "translate_matched",
                                  error_isolation=True).to_pylist()
    assert out[0]["t"] == "X" and out[0]["translate_matched"] is True
    assert out[1].get("t") is None and out[1]["translate_matched"] is False
    assert "row-level failure" in out[1][ERROR_COL]
    assert out[2].get("t") is None and out[2][ERROR_COL] is None


def test_error_isolation_clean_batch_stable_schema():
    cfg = TranslateConfig(source="s", target="t", dictionary={"x": "X"})
    snap = DictSnapshot(cfg.dictionary)
    tbl = pa.table({"s": ["x", "y"]})
    out = safe_translate_batch(tbl, cfg, snap, "translate_matched",
                               error_isolation=True)
    assert ERROR_COL in out.column_names
    assert out.to_pylist()[0][ERROR_COL] is None


def test_error_isolation_dataset_level(ray_session):
    """error_isolation=True through translate_dataset keeps a stable schema."""
    import ray.data as rd
    from logstash_filter_translate_ray.stages import translate_dataset

    cfg = TranslateConfig(source="s", target="t", dictionary={"x": "X"})
    ds = rd.from_arrow(pa.table({"s": ["x", "y"]}))
    out = translate_dataset(ds, cfg, error_isolation=True).to_pandas()
    assert ERROR_COL in out.columns
    assert out["t"].tolist() == ["X", None]


def test_mid_run_refresh_smoke(ray_session, tmp_path):
    """Dictionary rewritten WHILE the pipeline streams: the run completes,
    every row is translated with either the old or the new value, and the
    refresh is visible to a subsequent run (scheduling_spec live-reload
    semantics; the exact switchover block is timing-dependent by design)."""
    import threading
    import time as _t

    import pyarrow as pa
    import ray
    import ray.data as rd
    from logstash_filter_translate_ray import TranslateConfig
    from logstash_filter_translate_ray.stages.translate_stage import translate_dataset
    from logstash_filter_translate_ray.state import get_or_create_dictionary_service

    p = str(tmp_path / "live.csv")
    with open(p, "w") as f:
        f.write("k,old\n")
    cfg = TranslateConfig(source="s", target="t", dictionary_path=p,
                          refresh_interval=0.05, fallback="miss",
                          override=True)
    n = 20_000
    ds = rd.from_arrow(pa.table({"s": ["k"] * n})).repartition(40)

    def flip():
        _t.sleep(0.3)
        with open(p, "w") as f:
            f.write("k,new\n")
        os.utime(p, (os.path.getmtime(p) + 10,) * 2)
        svc = get_or_create_dictionary_service("live-reload-test")
        ray.get(svc.refresh.remote(force=True))

    th = threading.Thread(target=flip)
    th.start()
    out = translate_dataset(ds, cfg, service_name="live-reload-test",
                            concurrency=1, batch_size=500).to_pandas()
    th.join()
    vals = set(out["t"])
    assert len(out) == n
    assert vals <= {"old", "new"}          # never miss, never corrupt
    # the new value must be visible to a fresh pass
    out2 = translate_dataset(rd.from_arrow(pa.table({"s": ["k"]})), cfg,
                             service_name="live-reload-test",
                             concurrency=1).to_pandas()
    assert out2["t"].tolist() == ["new"]


def test_background_timer_refreshes_while_idle(ray_session, tmp_path):
    """The wall-clock timer thread must reload an IDLE service — no worker
    polls at all (translate.rb:259-261 scheduler.interval parity; the lazy
    TTL path alone would never fire without traffic)."""
    import ray
    from logstash_filter_translate_ray.state import DictionaryService

    p = str(tmp_path / "idle.csv")
    _write_csv(p, [("a", "1")])
    svc = DictionaryService.options(name="idle-timer-test").remote(
        path=p, refresh_interval=0.3)
    assert ray.get(svc.version.remote()) == 1

    _write_csv(p, [("a", "2")])
    os.utime(p, (os.path.getmtime(p) + 10,) * 2)
    # version() never triggers a refresh — only the timer can bump it
    deadline = time.time() + 5
    v = 1
    while time.time() < deadline and v == 1:
        time.sleep(0.2)
        v = ray.get(svc.version.remote())
    assert v == 2
    assert ray.get(svc.get_snapshot.remote()).map["a"] == "2"
    ray.kill(svc)


def test_both_versions_appear_under_streaming_load(ray_session, tmp_path):
    """Reload while a SLOW multi-block pipeline streams: outputs from BOTH
    dictionary versions appear and the total row count is exact (each block
    is consistently one version — every block reads one snapshot ref)."""
    import threading
    import time as _t

    import ray
    import ray.data as rd
    from logstash_filter_translate_ray.stages.translate_stage import translate_dataset
    from logstash_filter_translate_ray.state import get_or_create_dictionary_service

    p = str(tmp_path / "load.csv")
    _write_csv(p, [("k", "old")])
    name = "load-reload-test"
    cfg = TranslateConfig(source="s", target="t", dictionary_path=p,
                          refresh_interval=3600, override=True)
    svc = get_or_create_dictionary_service(name, path=p, refresh_interval=3600)
    ray.get(svc.version.remote())

    marker = str(tmp_path / "first_batch_done")

    def slow(batch):
        """0.1 s per batch so one serialized task slot spreads 30 blocks
        over ~3 s; drops a marker file after the first batch so the flip
        thread can wait out worker-startup time and land mid-stream."""
        _t.sleep(0.1)
        with open(marker, "w") as f:
            f.write("x")
        return batch

    n = 3000
    ds = rd.from_arrow(pa.table({"s": ["k"] * n})).repartition(30)
    # the same concurrency on both stages, so they fuse into one task
    ds = ds.map_batches(slow, batch_format="pyarrow", batch_size=None,
                        concurrency=1)
    out_ds = translate_dataset(ds, cfg, service_name=name, concurrency=1)

    def flip():
        deadline = _t.time() + 30
        while not os.path.exists(marker) and _t.time() < deadline:
            _t.sleep(0.05)
        _t.sleep(0.4)        # a few more old-version blocks flow first
        _write_csv(p, [("k", "new")])
        os.utime(p, (os.path.getmtime(p) + 10,) * 2)
        ray.get(svc.refresh.remote(force=True))

    th = threading.Thread(target=flip)
    th.start()
    out = out_ds.to_pandas()
    th.join()
    assert len(out) == n
    assert set(out["t"]) == {"old", "new"}
    ray.kill(svc)
