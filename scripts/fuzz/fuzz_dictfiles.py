"""Differential fuzz: file-dictionary backends vs a pure-Python model.

Three pairs under test:
- CSV writer round-trip: csv.writer-serialized (key, value) rows vs
  load_csv_items (quotes, commas, embedded newlines, unicode, BOM).
- JSON round-trip: json.dump'd object vs load_json_items (typed values).
- FileDictionary refresh sequences: random (merge|replace) behaviour and a
  random series of file contents vs a dict-comprehension reference model
  (file.rb:103-125 semantics: merge keeps deleted keys, replace drops them,
  parse errors and lone-surrogate text keep the old snapshot but first
  load raises).
"""
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", ".."))
import csv as csvmod

from hypothesis import given, settings, strategies as st, HealthCheck

from logstash_filter_translate_ray.dictionary import (
    FileDictionary, load_csv_items, load_json_items)
from logstash_filter_translate_ray.errors import (ConfigurationError,
                                                  DictionaryFileError)
from logstash_filter_translate_ray.kernel import ruby_to_s

# Keys/values that stress CSV quoting and unicode handling. \r\n inside a
# quoted field survives; a lone \r is rewritten by csv's universal-newline
# reader, so keep \r out of the alphabet (the writer would emit it raw).
txt = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\r",
        exclude_categories=("Cs",)),
    max_size=12)

jsonable = st.one_of(st.none(), st.booleans(),
                     st.integers(min_value=-2**40, max_value=2**40),
                     st.floats(allow_nan=False, allow_infinity=False),
                     txt)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(st.tuples(txt, txt), max_size=20))
def fuzz_csv(rows):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "dict.csv")
        with open(p, "w", encoding="utf-8", newline="") as f:
            w = csvmod.writer(f)
            for k, v in rows:
                w.writerow([k, v])
        got = load_csv_items(p)
    # csv.writer emits no row for an empty field list; every 2-col row
    # round-trips exactly. A (""," ") style row still has 2 columns.
    assert got == list(rows), (got, rows)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mapping=st.dictionaries(txt, jsonable, max_size=20))
def fuzz_json(mapping):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "dict.json")
        with open(p, "w", encoding="utf-8") as f:
            json.dump(mapping, f, ensure_ascii=False)
        got = dict(load_json_items(p))
    assert got == mapping, (got, mapping)


# -- refresh sequences -------------------------------------------------------

content = st.one_of(
    st.dictionaries(txt, jsonable, max_size=6).map(
        lambda m: ("json", m)),        # parseable
    st.just(("bad", None)),            # parse error
    # a lone surrogate (what a JSON "\ud800" escape loads as) in a key or
    # inside a list value
    st.tuples(st.dictionaries(txt, jsonable, max_size=5), txt,
              st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"]),
              st.booleans()).map(
        lambda t: ("surrogate", {**t[0], **({t[1] + t[2]: 1} if t[3]
                                             else {t[1]: [t[1] + t[2]]})})),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(behaviour=st.sampled_from(["merge", "replace"]),
       first=st.dictionaries(txt, jsonable, max_size=6),
       steps=st.lists(content, max_size=6))
def fuzz_refresh(behaviour, first, steps):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "dict.json")

        def write(mapping):
            with open(p, "w", encoding="utf-8") as f:
                json.dump(mapping, f, ensure_ascii=False)

        write(first)
        fd = FileDictionary(p, refresh_interval=301,  # long: no mtime gate
                            refresh_behaviour=behaviour)
        # DictSnapshot stringifies keys via ruby_to_s (Ruby Hash keys
        # are strings by the time the plugin sees them)
        model = {ruby_to_s(k): v for k, v in first.items()}
        ver = fd.version
        assert fd.snapshot.map == model
        for step in steps:
            if step[0] in ("bad", "surrogate"):
                with open(p, "w", encoding="utf-8") as f:
                    if step[0] == "bad":
                        f.write("{not json")
                    else:
                        json.dump(step[1], f)     # ASCII: escapes kept
                changed = fd.reload()
                assert not changed and fd.version == ver
            else:
                mapping = step[1]
                write(mapping)
                changed = fd.reload()
                assert changed and fd.version == ver + 1
                ver = fd.version
                if behaviour == "replace":
                    model = {ruby_to_s(k): v for k, v in mapping.items()}
                else:
                    model.update({ruby_to_s(k): v for k, v in mapping.items()})
            assert fd.snapshot.map == model, (fd.snapshot.map, model)


def fuzz_first_load_raises():
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "dict.json")
        with open(p, "w") as f:
            f.write("{broken")
        try:
            FileDictionary(p)
        except DictionaryFileError:
            pass
        else:
            raise AssertionError("first-load parse error must raise")
        with open(p, "w") as f:
            f.write('{"ok": 1, "k": ["x\\udc00"]}')
        try:
            FileDictionary(p)
        except ConfigurationError as e:
            assert "'k'" in str(e), e
        else:
            raise AssertionError("first-load lone surrogate must raise")


if __name__ == "__main__":
    fuzz_csv(); print("fuzz_csv OK")
    fuzz_json(); print("fuzz_json OK")
    fuzz_refresh(); print("fuzz_refresh OK")
    fuzz_first_load_raises(); print("fuzz_first_load_raises OK")
