"""Combined long fuzz: winnow batch-vs-scalar, dialect, yaml, sprintf,
blocks, kernel — high example counts for a background soak."""
import os
import sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
from hypothesis import given, settings, strategies as st, HealthCheck

S = settings(max_examples=800, deadline=None,
             suppress_health_check=[HealthCheck.too_slow,
                                    HealthCheck.filter_too_much,
                                    HealthCheck.data_too_large])

# winnow batch == scalar on arbitrary unicode docs and k/w
from logstash_filter_translate_ray.functions import text as T

@S
@given(texts=st.lists(st.one_of(st.none(), st.text(max_size=40)),
                      min_size=1, max_size=20),
       k=st.integers(1, 8), w=st.integers(1, 6))
def fuzz_winnow(texts, k, w):
    vals, ptr = T.winnow_batch(texts, k, w)
    for i, t in enumerate(texts):
        got = list(vals[ptr[i]:ptr[i + 1]])
        want = T.winnow_fingerprints(t, k, w)
        if t is None:
            assert got == []
        else:
            assert got == want, (i, repr(t), k, w, got, want)

if __name__ == "__main__":
    fuzz_winnow()
    print("fuzz_winnow OK (800 examples)")
