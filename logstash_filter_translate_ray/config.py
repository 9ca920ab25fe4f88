"""TranslateConfig — the full config surface of the reference plugin.

Mirrors every ``config :x`` declaration and every validation rule of
``lib/logstash/filters/translate.rb:58-178`` (declarations) and
``translate.rb:183-262`` (register-time validation), including the
deprecated ``field``/``destination`` aliases, ECS target defaulting, the
in-place override rules, and the YAML code-point-limit rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Any, Optional

from .errors import ConfigurationError

if TYPE_CHECKING:
    from .kernel import DictSnapshot

YAML_CODE_POINT_LIMIT_DEFAULT = 134_217_728  # translate.rb:197

_YAML_EXT = re.compile(r"\.ya?ml$")


def is_yaml_path(path: str) -> bool:
    """translate.rb:274 ``yaml_file?``"""
    return bool(_YAML_EXT.search(path))


@dataclass
class TranslateConfig:
    """Validated translate-operator configuration.

    Raises :class:`ConfigurationError` with conditions matching the
    reference's register-time checks (translate.rb:183-262).
    """

    source: Optional[str] = None
    field: Optional[str] = None            # deprecated alias of source
    target: Optional[str] = None
    destination: Optional[str] = None      # deprecated alias of target
    override: Optional[bool] = None        # tri-state: None = unset (translate.rb:66,237-242)
    # a dict, or a prebuilt immutable kernel.DictSnapshot (a dictionary
    # built once per process and shared by every DAG build)
    dictionary: "dict[str, Any] | DictSnapshot" = dc_field(default_factory=dict)
    dictionary_path: Optional[str] = None
    exact: bool = True
    regex: bool = False
    fallback: Optional[str] = None
    refresh_interval: float = 300
    refresh_behaviour: str = "merge"
    iterate_on: Optional[str] = None
    yaml_dictionary_code_point_limit: Optional[int] = None
    yaml_load_strategy: str = "one_shot"
    ecs_compatibility: str = "disabled"    # disabled | v1 | v8 (v8 → v1 behavior)
    # Opt-in Logstash Event#include? parity (single_value_update.rb:29-31,
    # array_of_values_update.rb:23-27): a null cell counts as
    # PRESENT-but-nil — a nil scalar source is looked up as "" (CoerceOther
    # nil.to_s), a nil target blocks translation unless override, and a nil
    # iterate_on list is included as CoerceArray [] (target written as an
    # empty list in the values shape). Default False keeps the engine's
    # columnar convention (null ⇔ absent, SURVEY §8).
    nil_is_present: bool = False
    # Opt-in reference-parity for a MISSING dictionary file at first load
    # (dictionary/file.rb:54-58 rescues Errno::ENOENT and registers with an
    # empty dict; refresh picks the file up once it appears). Default False
    # keeps the engine's loud DictionaryFileError — at 100 TB a silently
    # empty dictionary is usually a misconfiguration, not a feature
    # (deviation documented in SURVEY §8).
    missing_file_ok: bool = False

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        # Logstash config also accepts the flat array form
        # ["200","OK","300","Redirect",...] (used throughout the reference
        # specs, e.g. translate_spec.rb:31-34) — normalize to a dict.
        if isinstance(self.dictionary, (list, tuple)):
            if len(self.dictionary) % 2 != 0:
                raise ConfigurationError(
                    "translate dictionary in array form must have an even "
                    "number of entries")
            it = iter(self.dictionary)
            self.dictionary = dict(zip(it, it))

        # translate.rb:184-191 — dictionary XOR dictionary_path
        if self.dictionary_path and self.dictionary:
            raise ConfigurationError(
                "The configuration options 'dictionary' and 'dictionary_path' "
                "are mutually exclusive"
            )

        # translate.rb:196-207 — yaml code point limit rules
        if self.dictionary_path and is_yaml_path(self.dictionary_path):
            if self.yaml_dictionary_code_point_limit is None:
                self.yaml_dictionary_code_point_limit = YAML_CODE_POINT_LIMIT_DEFAULT
            if self.yaml_dictionary_code_point_limit <= 0:
                raise ConfigurationError(
                    "Please set a positive number in `yaml_dictionary_code_point_limit "
                    f"=> {self.yaml_dictionary_code_point_limit}`."
                )
        elif self.dictionary_path \
                and self.yaml_dictionary_code_point_limit is not None:
            # reference scope (translate.rb:196-207): the whole check lives
            # inside `if @dictionary_path` — an INLINE dictionary with a
            # stray limit registers fine there, so it must here too
            raise ConfigurationError(
                "Please remove `yaml_dictionary_code_point_limit` for dictionary "
                "file in JSON or CSV format"
            )

        # translate.rb:213-221 — field deprecated alias
        if self.field is not None:
            if self.source is not None:
                raise ConfigurationError(
                    f"Please remove `field => {self.field!r}` and only set the "
                    "`source => ...` option instead"
                )
            self.source = self.field
        if self.source is None:
            raise ConfigurationError(
                "No source field specified, please provide the `source => ...` option"
            )

        # translate.rb:226-234 — destination deprecated alias
        if self.destination is not None:
            if self.target is not None:
                raise ConfigurationError(
                    f"Please remove `destination => {self.destination!r}` and only "
                    "set the `target => ...` option instead"
                )
            self.target = self.destination

        # translate.rb:235 — ECS-driven target default
        if self.target is None:
            self.target = "translation" if self.ecs_compatibility == "disabled" else self.source

        # translate.rb:237-242 — in-place translation forces override
        if self.source == self.target:
            if self.override is None:
                self.override = True
            elif self.override is False:
                raise ConfigurationError(
                    "Configuring `override => false` with in-place translation has "
                    "no effect, please remove the option"
                )
        if self.override is None:
            self.override = False

        # %{+date-format} sprintf is unsupported — reject at register time
        # rather than mid-pipeline (sprintf.py check_no_timeformat)
        if self.fallback is not None and "%{" in self.fallback:
            from .sprintf import check_no_timeformat
            check_no_timeformat(self.fallback)

        if self.refresh_behaviour not in ("merge", "replace"):
            raise ConfigurationError(
                f"Unknown value for refresh_behaviour={self.refresh_behaviour}"
            )
        if self.yaml_load_strategy not in ("one_shot", "streaming"):
            raise ConfigurationError(
                f"Unknown value for yaml_load_strategy={self.yaml_load_strategy}"
            )

    # translate.rb:244-250 — updater shape selection
    @property
    def shape(self) -> str:
        """'single' | 'array_of_values' | 'array_of_maps'."""
        if self.iterate_on is None:
            return "single"
        if self.iterate_on == self.source:
            return "array_of_values"
        return "array_of_maps"

    @property
    def strategy(self) -> str:
        """'exact' | 'exact_regex' | 'regex_union' (memory.rb / file.rb strategy pick)."""
        if self.exact and self.regex:
            return "exact_regex"
        if self.exact:
            return "exact"
        return "regex_union"

    @property
    def in_place(self) -> bool:
        return self.source == self.target
