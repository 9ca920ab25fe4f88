"""logstash_filter_translate_ray — a from-scratch, Ray-Data-native
translate/enrich engine with the semantics of the logstash-filter-translate
plugin (reference: /root/reference, v3.5.0), embedded in a full
parse → enrich → route → aggregate pipeline over Parquet transcript tables.

Layout
------
- ``config``      : ``TranslateConfig`` + validation (reference translate.rb:183-262)
- ``kernel``      : vectorized Arrow translate kernels + row-oriented oracle
- ``dictionary``  : CSV/JSON/YAML loaders, merge/replace refresh, mtime gating
- ``state``       : ``DictionaryService`` Ray actor (versioned snapshots, TTL refresh)
- ``stages``      : parse / translate / route / aggregate Ray Data stages
- ``sources``     : transcript generator + parquet readers
- ``pipelines``   : the flagship transcripts DAG with checkpoint/resume
- ``functions``   : training-data ops (dedup, similarity, text analysis, multimodal)
"""

from .errors import ConfigurationError, DictionaryFileError
from .config import TranslateConfig
from .kernel import (DictSnapshot, as_snapshot, translate_table, translate_row,
                     ruby_to_s)

__all__ = [
    "ConfigurationError",
    "DictionaryFileError",
    "TranslateConfig",
    "DictSnapshot",
    "as_snapshot",
    "translate_table",
    "translate_row",
    "ruby_to_s",
]

__version__ = "0.1.0"
