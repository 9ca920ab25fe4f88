"""Config validation conformance — ports of translate_spec.rb:473-557 and
the yaml-code-point-limit config cases (258-318)."""

import pytest

from logstash_filter_translate_ray import ConfigurationError, TranslateConfig

FIX = __file__.rsplit("/", 1)[0] + "/fixtures"


def test_dictionary_and_path_mutually_exclusive():
    # translate_spec.rb:473-486
    with pytest.raises(ConfigurationError, match="mutually exclusive"):
        TranslateConfig(source="random field", dictionary={"a": "b"},
                        dictionary_path=f"{FIX}/dict.yml")


def test_snapshot_and_path_mutually_exclusive():
    """A prebuilt snapshot counts as an inline dictionary."""
    from logstash_filter_translate_ray import DictSnapshot
    with pytest.raises(ConfigurationError, match="mutually exclusive"):
        TranslateConfig(source="random field",
                        dictionary=DictSnapshot({"a": "b"}),
                        dictionary_path=f"{FIX}/dict.yml")


def test_target_and_destination_both_set():
    # translate_spec.rb:488-500
    with pytest.raises(ConfigurationError, match="remove `destination"):
        TranslateConfig(source="message", target="foo", destination="bar")


def test_source_and_field_both_set():
    # translate_spec.rb:502-513
    with pytest.raises(ConfigurationError, match="remove `field"):
        TranslateConfig(source="message", field="foo")


def test_destination_sets_target():
    # translate_spec.rb:515-530
    cfg = TranslateConfig(source="message", destination="bar",
                          ecs_compatibility="v1")
    assert cfg.target == "bar"


def test_field_sets_source():
    # translate_spec.rb:532-546
    cfg = TranslateConfig(field="message", target="bar")
    assert cfg.source == "message"


def test_source_required():
    # translate_spec.rb:548-557
    with pytest.raises(ConfigurationError, match="provide .*source"):
        TranslateConfig(target="bar")


def test_default_target_legacy_vs_ecs():
    # translate_spec.rb:684-721
    legacy = TranslateConfig(source="message", dictionary={"foo": "bar"},
                             ecs_compatibility="disabled")
    assert legacy.target == "translation"
    ecs = TranslateConfig(source="message", dictionary={"foo": "bar"},
                          ecs_compatibility="v1")
    assert ecs.target == "message"
    assert ecs.in_place and ecs.override


def test_in_place_forces_override_and_rejects_false():
    # translate.rb:237-242
    cfg = TranslateConfig(source="foo", target="foo", dictionary={})
    assert cfg.override is True
    with pytest.raises(ConfigurationError, match="override => false"):
        TranslateConfig(source="foo", target="foo", override=False)


def test_yaml_code_point_limit_zero_rejected():
    # translate_spec.rb:290-296
    with pytest.raises(ConfigurationError, match="positive number"):
        TranslateConfig(source="status", dictionary_path=f"{FIX}/dict.yml",
                        yaml_dictionary_code_point_limit=0)


def test_yaml_code_point_limit_default_128mb():
    # translate_spec.rb:298-311
    cfg = TranslateConfig(source="status", dictionary_path=f"{FIX}/dict.yml")
    assert cfg.yaml_dictionary_code_point_limit == 134_217_728


def test_yaml_limit_rejected_for_json():
    # translate_spec.rb:313-320
    with pytest.raises(ConfigurationError, match="JSON or CSV"):
        TranslateConfig(source="status", dictionary_path=f"{FIX}/dict.json",
                        yaml_dictionary_code_point_limit=100)


def test_shape_selection():
    # translate.rb:244-250
    assert TranslateConfig(source="s", dictionary={}).shape == "single"
    assert TranslateConfig(source="s", iterate_on="s",
                           dictionary={}).shape == "array_of_values"
    assert TranslateConfig(source="s", iterate_on="t",
                           dictionary={}).shape == "array_of_maps"


def test_strategy_selection():
    assert TranslateConfig(source="s", dictionary={}).strategy == "exact"
    assert TranslateConfig(source="s", regex=True,
                           dictionary={}).strategy == "exact_regex"
    assert TranslateConfig(source="s", exact=False,
                           dictionary={}).strategy == "regex_union"


def test_bad_refresh_behaviour():
    with pytest.raises(ConfigurationError, match="refresh_behaviour"):
        TranslateConfig(source="s", dictionary={}, refresh_behaviour="bogus")
