"""Aggressive one-off differential fuzz: unicode alphabets (incl. astral,
combining, RTL), regex-special characters in values, bigger dicts/rows,
sprintf fallbacks with nested refs."""
import os
import sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
import string
from hypothesis import given, settings, strategies as st, HealthCheck

from logstash_filter_translate_ray import TranslateConfig
from tests.test_kernel import run_both

NASTY = ("ab01 \t\n.*+?[](){}|\\^$-_&%{}#"
         "éüñßçøİı"            # latin-ext / case-folding edge (İ, ı)
         "日本語中文한국"        # CJK
         "🎉😀𝕏"              # astral plane
         "́‍"        # combining acute, ZWJ
         "אل")       # RTL hebrew/arabic
keys = st.text(alphabet=NASTY, min_size=1, max_size=8)
# scalars include the classes pa.array() silently coerces or chokes on:
# bool-after-float, >int64 ints (OverflowError), bytes-with-str (binary)
scalar_vals = st.one_of(st.none(), st.text(alphabet=NASTY, max_size=16),
                        st.integers(-10**6, 10**6), st.booleans(),
                        st.floats(allow_nan=False, allow_infinity=False,
                                  width=32),
                        st.sampled_from([2**70, -(2**70), 2**53 + 1,
                                         b"\x00bin", b""]))
vals = st.one_of(scalar_vals,
                 st.lists(scalar_vals, max_size=3),
                 st.dictionaries(st.text(alphabet=string.ascii_lowercase,
                                         min_size=1, max_size=3),
                                 scalar_vals, max_size=3))
cell = st.one_of(st.none(), st.text(alphabet=NASTY, max_size=20))
rows = st.lists(cell, min_size=1, max_size=40)

@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(d=st.dictionaries(keys, vals, max_size=20), rows=rows,
       strategy=st.sampled_from(["exact", "regex_union"]),
       fallback=st.one_of(st.none(), st.just("fb"), st.just("%{s}!"),
                          st.just("x %{missing} y")),
       override=st.booleans())
def fuzz_single(d, rows, strategy, fallback, override):
    cfg = TranslateConfig(source="s", target="t", dictionary=d,
                          fallback=fallback, override=override,
                          exact=strategy != "regex_union", regex=False)
    run_both(cfg, [{"s": v} for v in rows])

@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(d=st.dictionaries(keys, vals, max_size=12),
       rows=st.lists(st.one_of(st.none(),
                               st.lists(cell, max_size=6)),
                     min_size=1, max_size=15),
       fallback=st.one_of(st.none(), st.just("fb")),
       strategy=st.sampled_from(["exact", "regex_union"]))
def fuzz_values(d, rows, fallback, strategy):
    cfg = TranslateConfig(source="foo", iterate_on="foo", target="baz",
                          dictionary=d, fallback=fallback,
                          exact=strategy != "regex_union", regex=False)
    run_both(cfg, [{"foo": v} for v in rows])

if __name__ == "__main__":
    fuzz_single()
    print("fuzz_single OK (300 examples)")
    fuzz_values()
    print("fuzz_values OK (200 examples)")
