from .translate_stage import translate_dataset, make_translate_batch_fn
from .parse import ExtractRule, GrokRule, ParseConfig, parse_batch, parse_dataset
from .route import route_dataset, write_routed
from .aggregate import sink_counts, matched_counts, grouped_counts
from .window import tumbling_counts, prev_event_gap, session_counts

__all__ = [
    "translate_dataset", "make_translate_batch_fn",
    "ExtractRule", "GrokRule", "ParseConfig", "parse_batch", "parse_dataset",
    "route_dataset", "write_routed",
    "sink_counts", "matched_counts", "grouped_counts",
    "tumbling_counts", "prev_event_gap", "session_counts",
]
