"""Differential fuzz: streaming_yaml_pairs vs one-shot YAML load must
produce identical items for any YAML document produced by yaml.safe_dump
of scalars/lists/dicts (the loader equality the engine promises)."""
import os
import sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
import yaml
from hypothesis import given, settings, strategies as st, HealthCheck

from logstash_filter_translate_ray.dictionary import (
    _yaml_one_shot_load, _yaml_top_level_items, streaming_yaml_pairs)

scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="abc 01:#-\"'{}[]%é日\n\t._", max_size=12),
    st.sampled_from(["0755", "09", "0x1f", "1e3", "null", "true", "False",
                     "~", "0.5", "-", "---", ":", "a: b", "2024-01-02"]))
value = st.recursive(
    scalar,
    lambda ch: st.one_of(st.lists(ch, max_size=4),
                         st.dictionaries(st.text(alphabet="kxy01", min_size=1,
                                                 max_size=4), ch, max_size=4)),
    max_leaves=8)
keys = st.one_of(st.text(alphabet="abc01 :#é", min_size=1, max_size=8),
                 st.integers(-999, 999),
                 st.sampled_from(["0755", "09", "true", "null", "1.5"]))

@settings(max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(d=st.dictionaries(keys, value, min_size=0, max_size=10),
       flow=st.booleans())
def fuzz(d, flow):
    text = yaml.safe_dump(d, default_flow_style=flow, allow_unicode=True,
                          sort_keys=False)
    one_shot = _yaml_top_level_items(_yaml_one_shot_load(text), "x.yml")
    streamed = list(streaming_yaml_pairs(text))
    assert streamed == one_shot, (text, streamed, one_shot)

if __name__ == "__main__":
    fuzz()
    print("fuzz_yaml OK (500 examples)")
