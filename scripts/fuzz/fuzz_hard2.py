"""Round 2 of the aggressive differential fuzz: regex strategies with a
generated valid-pattern grammar, the array-of-maps shape, nested targets,
nil_is_present, and unicode payloads."""
import os
import sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
from hypothesis import given, settings, strategies as st, HealthCheck

from logstash_filter_translate_ray import TranslateConfig
from tests.test_kernel import run_both

NASTY = ("ab01 .*+?|^$-_&%#éüß日本🎉")
cell = st.one_of(st.none(), st.text(alphabet=NASTY, max_size=16))
rows = st.lists(cell, min_size=1, max_size=30)

# valid-regex grammar: literals, char classes, quantified atoms, anchors,
# alternation — always syntactically valid in both Onigmo shim and RE2
atom = st.one_of(
    st.text(alphabet="abc01é日", min_size=1, max_size=3),
    st.sampled_from([r"\d", r"\w", r"\s", "[a-c]", "[^x]", "(a|b)",
                     "a+", "b*", "c?", ".", "(?:ab)"]))
pattern = st.builds(lambda parts, anchor: (("^" if anchor & 1 else "")
                                           + "".join(parts)
                                           + ("$" if anchor & 2 else "")),
                    st.lists(atom, min_size=1, max_size=4),
                    st.integers(0, 3))
vals = st.one_of(st.none(), st.text(alphabet=NASTY, max_size=10),
                 st.integers(-99, 99))

S = settings(max_examples=250, deadline=None,
             suppress_health_check=[HealthCheck.too_slow,
                                    HealthCheck.filter_too_much])

@S
@given(d=st.dictionaries(pattern, vals, min_size=1, max_size=10),
       rows=rows, fallback=st.one_of(st.none(), st.just("fb")),
       override=st.booleans(), nilp=st.booleans())
def fuzz_exact_regex(d, rows, fallback, override, nilp):
    cfg = TranslateConfig(source="s", target="t", dictionary=d,
                          fallback=fallback, override=override,
                          exact=True, regex=True, nil_is_present=nilp)
    run_both(cfg, [{"s": v} for v in rows])

@S
@given(d=st.dictionaries(pattern, vals, min_size=1, max_size=8),
       rows=rows, fallback=st.one_of(st.none(), st.just("fb")))
def fuzz_regex_union(d, rows, fallback):
    cfg = TranslateConfig(source="s", target="t", dictionary=d,
                          fallback=fallback, exact=False, regex=False)
    run_both(cfg, [{"s": v} for v in rows])

@S
@given(d=st.dictionaries(st.text(alphabet=NASTY, min_size=1, max_size=6),
                         vals, max_size=10),
       maps=st.lists(st.one_of(
           st.none(),
           st.lists(st.one_of(
               st.none(),
               st.fixed_dictionaries({"src": cell, "other": cell})),
               max_size=4)),
           min_size=1, max_size=10),
       fallback=st.one_of(st.none(), st.just("fb"), st.just("%{top}")),
       target=st.sampled_from(["[dst]", "[m][dst]"]))
def fuzz_maps(d, maps, fallback, target):
    cfg = TranslateConfig(source="[src]", iterate_on="maps",
                          target=target, dictionary=d, fallback=fallback)
    run_both(cfg, [{"maps": m, "top": "T"} for m in maps])

@S
@given(d=st.dictionaries(st.text(alphabet=NASTY, min_size=1, max_size=6),
                         vals, max_size=10),
       rows=rows, fallback=st.one_of(st.none(), st.just("fb")),
       nilp=st.booleans())
def fuzz_nested_target(d, rows, fallback, nilp):
    cfg = TranslateConfig(source="s", target="[meta][t]", dictionary=d,
                          fallback=fallback, nil_is_present=nilp)
    run_both(cfg, [{"s": v, "meta": {"keep": "k"}} for v in rows])

if __name__ == "__main__":
    for fn in [fuzz_exact_regex, fuzz_regex_union, fuzz_maps,
               fuzz_nested_target]:
        fn()
        print(fn.__name__, "OK")
