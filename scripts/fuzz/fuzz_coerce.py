"""Differential fuzz: typed SOURCE columns (int, float, bool) through the
full kernel vs the row oracle — S3 key coercion (Ruby to_s) must agree,
including integral floats ('2.0'), bools ('true'), and negative zero."""
import os
import sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
from hypothesis import given, settings, strategies as st, HealthCheck

from logstash_filter_translate_ray import TranslateConfig
from tests.test_kernel import run_both

int_cell = st.one_of(st.none(), st.integers(-10**9, 10**9))
float_cell = st.one_of(st.none(),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([2.0, -0.0, 0.5, 1e20, -3.0]))
bool_cell = st.one_of(st.none(), st.booleans())

KEYS = ["2.0", "2", "true", "false", "0.5", "-0.0", "0.0", "1000000000",
        "1e+20", "-3.0", "0"]

@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(rows=st.one_of(st.lists(int_cell, min_size=1, max_size=15),
                      st.lists(float_cell, min_size=1, max_size=15),
                      st.lists(bool_cell, min_size=1, max_size=15)),
       kidx=st.lists(st.integers(0, len(KEYS) - 1), min_size=1, max_size=6),
       strategy=st.sampled_from(["exact", "exact_regex", "regex_union"]),
       fallback=st.one_of(st.none(), st.just("fb")))
def fuzz(rows, kidx, strategy, fallback):
    d = {KEYS[i]: f"v{i}" for i in kidx}
    cfg = TranslateConfig(source="s", target="t", dictionary=d,
                          fallback=fallback,
                          exact=strategy != "regex_union",
                          regex=strategy == "exact_regex")
    run_both(cfg, [{"s": v} for v in rows])

# list-of-typed sources through the values shape (element to_s)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(rows=st.lists(st.one_of(st.none(),
                               st.lists(st.one_of(st.none(), float_cell),
                                        max_size=4)),
                     min_size=1, max_size=10),
       fallback=st.one_of(st.none(), st.just("fb")))
def fuzz_values(rows, fallback):
    d = {"2.0": "two", "0.5": "half", "true": "T"}
    cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                          dictionary=d, fallback=fallback)
    run_both(cfg, [{"foo": v} for v in rows])

if __name__ == "__main__":
    fuzz()
    print("fuzz_coerce OK (300 examples)")
    fuzz_values()
    print("fuzz_coerce_values OK (200 examples)")
