"""Differential fuzz: for Ruby-ish patterns, the Python-compiled path
(compile_ruby_regex) and the RE2 path ((?m:ruby_regex_to_python)) must
agree on per-string match decisions — the kernel mixes them (RE2 group
prefilter + Python first-match resolve), so disagreement silently
reorders or drops matches."""
import os
import sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings, strategies as st, HealthCheck

from logstash_filter_translate_ray.regex_dialect import (
    compile_ruby_regex, ruby_regex_to_python)
from logstash_filter_translate_ray.errors import ConfigurationError

atom = st.one_of(
    st.text(alphabet="abA01é日 .", min_size=1, max_size=3),
    st.sampled_from([
        r"\d", r"\w", r"\s", r"\D", r"\W", r"\S", r"\h", r"\H",
        "[a-c]", "[^b]", "[[:alpha:]]", "[[:digit:]]", "(a|b)", "(?:ab)",
        "a+", "b*", "c?", "a{1,2}", ".", r"\A", r"\z", r"\Z", "^", "$",
        r"\b", r"\t", r"\n", r"\.", "(?i)a", "(?m)a.b", "(?i:AB)",
    ]))
pattern = st.lists(atom, min_size=1, max_size=5).map("".join)
subject = st.text(alphabet="abABc01é日 .\n\t-", max_size=16)

@settings(max_examples=2000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(pat=pattern, subjects=st.lists(subject, min_size=1, max_size=8))
def fuzz(pat, subjects):
    try:
        py = compile_ruby_regex(pat)
        re2 = "(?m:" + ruby_regex_to_python(pat) + ")"
        arr = pa.array(subjects, type=pa.string())
        try:
            got = pc.match_substring_regex(arr, pattern=re2).to_pylist()
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            return   # arrow_ok False → kernel uses Python-only; no pairing
    except ConfigurationError:
        return       # loud reject: both paths refuse together by design
    want = [py.search(s) is not None for s in subjects]
    assert got == want, (pat, re2, subjects, got, want)

if __name__ == "__main__":
    fuzz()
    print("fuzz_dialect OK (600 examples)")
