"""Dictionary loader + refresh conformance — translate_spec.rb:212-388
(loading per format, malformed file, code point limit, empty dicts) and
559-626 (merge/replace refresh)."""

import os

import pyarrow as pa
import pytest

from logstash_filter_translate_ray import (DictionaryFileError, DictSnapshot,
                                           TranslateConfig, translate_row)
from logstash_filter_translate_ray.dictionary import (FileDictionary,
                                                      load_csv_items,
                                                      load_json_items,
                                                      load_yaml_items,
                                                      streaming_yaml_pairs)

FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def lookup(snap, cfg_kwargs, event):
    cfg = TranslateConfig(**cfg_kwargs)
    translate_row(event, cfg, snap)
    return event


def test_yaml_dict_typed_values():
    # translate_spec.rb:233-241 — a→1 (integer)
    d = FileDictionary(f"{FIX}/dict.yml", refresh_interval=-1)
    ev = lookup(d.snapshot, dict(source="status", target="translation"),
                {"status": "a"})
    assert ev["translation"] == 1
    # nested value survives with native types (S11)
    assert d.snapshot.map["d"] == {"e": [1, "hello", True, "false", "1", "1.1"]}


def test_yaml_streaming_equals_one_shot():
    # translate_spec.rb:242-255
    one_shot = dict(load_yaml_items(f"{FIX}/dict.yml", strategy="one_shot"))
    streaming = dict(load_yaml_items(f"{FIX}/dict.yml", strategy="streaming"))
    assert one_shot == streaming
    for p in ["tag-map-dict.yml", "tag-omap-dict.yml"]:
        assert dict(load_yaml_items(f"{FIX}/{p}", strategy="one_shot")) == \
            dict(load_yaml_items(f"{FIX}/{p}", strategy="streaming"))


def test_malformed_yaml_raises_on_first_load():
    # S13 — translate_spec.rb:227-230
    with pytest.raises(DictionaryFileError,
                       match="when loading dictionary file"):
        FileDictionary(f"{FIX}/dict-wrong.yml", refresh_interval=-1)


def test_code_point_limit_under_size_raises():
    # translate_spec.rb:283-289
    size = os.path.getsize(f"{FIX}/dict.yml")
    with pytest.raises(DictionaryFileError, match="exceeds"):
        FileDictionary(f"{FIX}/dict.yml", yaml_code_point_limit=size // 2)


def test_code_point_limit_at_size_ok():
    size = len(open(f"{FIX}/dict.yml").read())
    d = FileDictionary(f"{FIX}/dict.yml", yaml_code_point_limit=size)
    assert d.snapshot.map["a"] == 1


def test_map_tagged_yaml():
    # translate_spec.rb:336-345
    d = FileDictionary(f"{FIX}/tag-map-dict.yml", refresh_interval=-1)
    assert d.snapshot.map["six"] == "val-6-1|val-6-2"


def test_omap_tagged_yaml():
    # translate_spec.rb:347-356
    d = FileDictionary(f"{FIX}/tag-omap-dict.yml", refresh_interval=-1)
    assert d.snapshot.map["nine"] == "val-9-1|val-9-2"


def test_json_dict():
    # translate_spec.rb:358-367 — b→20 int
    d = FileDictionary(f"{FIX}/dict.json", refresh_interval=-1)
    assert d.snapshot.map["b"] == 20


def test_csv_dict_values_are_strings():
    # translate_spec.rb:369-378 — c→"300" string
    d = FileDictionary(f"{FIX}/dict.csv", refresh_interval=-1)
    assert d.snapshot.map["c"] == "300"


def test_unknown_extension_raises():
    # translate_spec.rb:381-387
    with pytest.raises(Exception, match="non valid format"):
        FileDictionary(f"{FIX}/dict.other", refresh_interval=-1)


def test_regex_dict_csv_loads():
    d = FileDictionary(f"{FIX}/regex_dict.csv", refresh_interval=-1)
    assert d.snapshot.keys[0] == "^2[0-9][0-9]$"


@pytest.mark.parametrize("ext", ["yml", "json", "csv"])
def test_empty_dictionary_valid(tmp_path, ext):
    # S14 — translate_spec.rb:628-682
    p = tmp_path / f"dict-e.{ext}"
    p.write_text("")
    d = FileDictionary(str(p), refresh_interval=-1)
    assert len(d.snapshot) == 0
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary_path=str(p), fallback="no match",
                          refresh_interval=-1)
    ev = {"status": "a"}
    translate_row(ev, cfg, d.snapshot)
    assert ev["translation"] == "no match"


def test_merge_refresh_keeps_deleted_keys(tmp_path):
    # S10 — translate_spec.rb:559-626 (merge)
    p = tmp_path / "dict.yml"
    p.write_text("a : 1\nb : 2\nc : 3")
    d = FileDictionary(str(p), refresh_interval=-1,
                       refresh_behaviour="merge")
    assert d.snapshot.map["b"] == 2 and d.snapshot.map["c"] == 3
    p.write_text("a : 1\nb : 4")
    d.reload(force=True)
    assert d.snapshot.map["b"] == 4
    assert d.snapshot.map["c"] == 3          # leftover kept
    assert d.version == 2


def test_replace_refresh_drops_deleted_keys(tmp_path):
    # S10 (replace)
    p = tmp_path / "dict.yml"
    p.write_text("a : 1\nb : 2\nc : 3")
    d = FileDictionary(str(p), refresh_interval=-1,
                       refresh_behaviour="replace")
    p.write_text("a : 1\nb : 4")
    d.reload(force=True)
    assert d.snapshot.map["b"] == 4
    assert "c" not in d.snapshot.map          # leftover dropped


def test_refresh_error_keeps_old_dictionary(tmp_path):
    # S13 refresh path — dictionary/file.rb:57-61
    p = tmp_path / "dict.yml"
    p.write_text("a : 1")
    d = FileDictionary(str(p), refresh_interval=-1)
    p.write_text("foo: bad: colon: here")
    changed = d.reload(force=True)
    assert changed is False
    assert d.snapshot.map["a"] == 1
    assert d.version == 1


def test_missing_file_on_refresh_keeps_old(tmp_path):
    # dictionary/file.rb:54-55
    p = tmp_path / "dict.csv"
    p.write_text("a,1\n")
    d = FileDictionary(str(p), refresh_interval=-1)
    os.unlink(p)
    assert d.reload(force=True) is False
    assert d.snapshot.map["a"] == "1"


def test_mtime_gated_short_refresh(tmp_path):
    # dictionary/file.rb:104-114 — interval ≤ 300 skips unchanged files
    p = tmp_path / "dict.csv"
    p.write_text("a,1\n")
    d = FileDictionary(str(p), refresh_interval=1)
    v0 = d.version
    assert d.reload() is False               # mtime unchanged → no reload
    assert d.version == v0
    p.write_text("a,2\n")
    os.utime(p, (os.path.getmtime(p) + 5, os.path.getmtime(p) + 5))
    assert d.reload() is True
    assert d.snapshot.map["a"] == "2"


def test_streaming_scalar_coercion():
    # streaming_yaml_parser.rb:88-109
    pairs = dict(streaming_yaml_pairs(
        'i: 42\nf: 1.5\nt: true\nn: null\ne: ""\nq: "1"\np: 1_000\n'))
    assert pairs == {"i": 42, "f": 1.5, "t": True, "n": None, "e": "",
                     "q": "1", "p": 1000}


def test_csv_bom_tolerant(tmp_path):
    # csv_file.rb:10 'r:bom|utf-8'
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfa,1\nb,2\n")
    assert dict(load_csv_items(str(p))) == {"a": "1", "b": "2"}


def test_json_empty_ok(tmp_path):
    p = tmp_path / "e.json"
    p.write_text("")
    assert load_json_items(str(p)) == []


@pytest.mark.parametrize("scalar", [
    "1e3", "1.5e3", "1.5e+3", ".inf", ".nan", "yes", "no", "on", "Off",
    "1:30", "1:30:30", "0o755", "0755", "09", "_", "1_000", "null", "y",
    "N", "2024-01-02", "-0", "+12", "0b101", "0x1F", ".5", "5.",
])
def test_streaming_scalar_typing_matches_one_shot(scalar, tmp_path):
    """(review r4 fuzz) every plain scalar must TYPE identically under the
    streaming parser and the one_shot SafeLoader: the old hand-rolled
    regexes floated '1e3' (PyYAML 1.1 keeps dotless/unsigned exponents as
    strings), crashed on '_', and int'ed the YAML-1.2-only '0o755'. The
    streaming coercer now delegates to PyYAML's own resolver, covering
    sexagesimals, yes/no/on/off, .inf/.nan and timestamps too."""
    import math

    import yaml

    from logstash_filter_translate_ray.dictionary import (
        _coerce_plain_scalar)
    want = yaml.safe_load("k: " + scalar)["k"]
    got = _coerce_plain_scalar(scalar.strip())
    if isinstance(want, float) and math.isnan(want):
        assert isinstance(got, float) and math.isnan(got)
    else:
        assert got == want and type(got) is type(want), (scalar, got, want)


def test_lone_surrogate_fails_first_load_and_refresh_keeps_old(tmp_path):
    """A JSON "\\ud800" escape loads as a lone surrogate: the first load
    fails naming the entry, a refresh to such a file keeps the old
    dictionary (S13)."""
    from logstash_filter_translate_ray.errors import ConfigurationError
    p = tmp_path / "dict.json"
    p.write_text('{"a": "x\\ud800y", "b": "ok"}')
    with pytest.raises(ConfigurationError, match="'a'.*valid Unicode text"):
        FileDictionary(str(p), refresh_interval=-1)
    p.write_text('{"a": "1"}')
    d = FileDictionary(str(p), refresh_interval=-1)
    p.write_text('{"a": ["ok", {"k\\udc00": 2}]}')
    assert d.reload(force=True) is False
    assert d.snapshot.map == {"a": "1"} and d.version == 1


def test_dictionary_service_cross_handle_consistency(ray_session, tmp_path):
    """Two get-or-create handles under the same name resolve to ONE actor
    (fixed namespace) and see the same version stream — the multi-pipeline
    sharing contract (VERDICT r3 #8)."""
    import ray
    from logstash_filter_translate_ray.state import (
        get_or_create_dictionary_service)
    p = tmp_path / "d.csv"
    p.write_text("a,1\n")
    name = "r4-shared-service"
    h1 = get_or_create_dictionary_service(name, path=str(p),
                                          refresh_interval=-1,
                                          background_refresh=False)
    h2 = get_or_create_dictionary_service(name, path=str(p),
                                          refresh_interval=-1,
                                          background_refresh=False)
    v1 = ray.get(h1.version.remote())
    # bump through handle 1; handle 2 must observe the new version AND the
    # new snapshot content
    p.write_text("a,1\nb,2\n")
    v_new = ray.get(h1.refresh.remote(force=True))
    assert v_new == v1 + 1
    assert ray.get(h2.version.remote()) == v_new
    snap = ray.get(h2.get_snapshot.remote())
    assert snap.map.get("b") == "2"
    ray.kill(h1)


def test_snapshot_ref_put_once_per_version(ray_session, tmp_path):
    """The service puts each loaded version once: repeated polls hand out
    the same ref, a forced refresh of a changed file bumps the version and
    hands out a new ref to the new snapshot, and a failed refresh keeps
    the old version and its ref (S13)."""
    import ray
    from logstash_filter_translate_ray.state import DictionaryService
    p = tmp_path / "d.json"
    p.write_text('{"a": "1"}')
    svc = DictionaryService.remote(path=str(p), refresh_interval=-1)
    v1, (r1,) = ray.get(svc.snapshot_ref.remote())
    v1b, (r1b,) = ray.get(svc.snapshot_ref.remote())
    assert (v1b, r1b.hex()) == (v1, r1.hex())
    assert ray.get(r1).map == {"a": "1"}
    p.write_text('{"a": "2"}')
    assert ray.get(svc.refresh.remote(force=True)) == v1 + 1
    v2, (r2,) = ray.get(svc.snapshot_ref.remote())
    assert v2 == v1 + 1 and r2.hex() != r1.hex()
    assert ray.get(r2).map == {"a": "2"} and ray.get(r2).version == v2
    p.write_text('{"a": ')
    assert ray.get(svc.refresh.remote(force=True)) == v2
    v3, (r3,) = ray.get(svc.snapshot_ref.remote())
    assert (v3, r3.hex()) == (v2, r2.hex())
    ray.kill(svc)


# --------------------------------------------------------------------------
# VERDICT r4 #3: missing_file_ok — opt-in ENOENT parity with
# dictionary/file.rb:54-58 (register with an empty dict, refresh later)
# --------------------------------------------------------------------------

def test_missing_file_ok(tmp_path):
    from logstash_filter_translate_ray.config import TranslateConfig
    from logstash_filter_translate_ray.dictionary import FileDictionary
    from logstash_filter_translate_ray.errors import DictionaryFileError
    from logstash_filter_translate_ray.kernel import translate_table

    missing = tmp_path / "nope.csv"
    # default: first load of a missing file fails LOUDLY (S13 deviation)
    with pytest.raises(DictionaryFileError, match="when loading dictionary"):
        FileDictionary(str(missing), refresh_interval=-1)

    # opt-in: registers with an EMPTY dictionary (reference rescue path)
    d = FileDictionary(str(missing), refresh_interval=-1,
                       missing_file_ok=True)
    assert d.snapshot.map == {} and d.version == 1
    # a reload while the file is still missing keeps the empty dict
    assert d.reload(force=True) is False and d.version == 1

    # translate through the empty dict: nothing matches, fallback applies
    cfg = TranslateConfig(source="status", target="translation",
                          dictionary_path=str(missing), refresh_interval=-1,
                          fallback="none", missing_file_ok=True)
    snap = FileDictionary(cfg.dictionary_path, refresh_interval=-1,
                          missing_file_ok=True).snapshot
    tbl = pa.table({"status": ["a", "b"]})
    out = translate_table(tbl, cfg, snap)
    assert out["translation"].to_pylist() == ["none", "none"]

    # the file appearing later is picked up by refresh (merge semantics)
    missing.write_text("a,1\n")
    assert d.reload(force=True) is True and d.version == 2
    assert d.snapshot.map == {"a": "1"}


# --------------------------------------------------------------------------
# ADVICE r4 #3: _coerce_plain_scalar is thread-safe (thread-local
# SafeConstructor — concurrent FileDictionary loads in one process)
# --------------------------------------------------------------------------

def test_scalar_coercion_thread_safety():
    import threading
    from logstash_filter_translate_ray.dictionary import _coerce_plain_scalar

    results, errors = {}, []

    def work(i):
        try:
            results[i] = [_coerce_plain_scalar(str(j)) for j in range(2000)]
        except Exception as e:          # pragma: no cover
            errors.append(e)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(results[i] == list(range(2000)) for i in range(8))
    # typing parity retained
    assert _coerce_plain_scalar("yes") is True
    assert _coerce_plain_scalar("1e3") == "1e3"
    # YAML 1.1 floats need a SIGNED exponent — '1.5e3' stays a string
    assert _coerce_plain_scalar("1.5e+3") == 1500.0
