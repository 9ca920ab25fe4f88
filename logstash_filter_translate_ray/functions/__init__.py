from . import dedup, multimodal, sampling, similarity, text

__all__ = ["dedup", "multimodal", "sampling", "similarity", "text"]
