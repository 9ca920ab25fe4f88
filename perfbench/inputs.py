"""Seeded inputs and their independent reference answers.

Every input is a function of (workload, size, seed, file count) and is
cached under the benchmark's work directory by exactly that key, so a
cached copy can never silently change the block or shard layout. The
references are computed by DuckDB over the generated files (transcripts)
or by a NumPy brute force (embeddings); neither runs any code of the
engine under test.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# cached seeds kept per input kind; older ones are evicted
KEEP_SEEDS = 6
REFERENCE_SUFFIX = ".reference.json"


def _evict(parent: str, keep: int = KEEP_SEEDS) -> None:
    """Delete all but the ``keep`` most recently used inputs under
    ``parent``, with the reference cached beside each."""
    dirs = [os.path.join(parent, e) for e in os.listdir(parent)]
    dirs = sorted((d for d in dirs if os.path.isdir(d)),
                  key=os.path.getmtime, reverse=True)
    for old in dirs[keep:]:
        shutil.rmtree(old, ignore_errors=True)
        for ref in glob.glob(glob.escape(old) + ".*" + REFERENCE_SUFFIX) + \
                [old + REFERENCE_SUFFIX]:
            if os.path.exists(ref):
                os.unlink(ref)


def transcripts(work: str, workload: str, n_turns: int, n_files: int,
                seed: int) -> str:
    """Directory of ``n_files`` parquet files (one row group each) holding
    ``n_turns`` generated transcript turns."""
    from logstash_filter_translate_ray.sources.transcripts import (
        transcripts_parquet_path)
    cache = os.path.join(work, "inputs", f"{workload}_n{n_turns}_f{n_files}")
    os.makedirs(cache, exist_ok=True)
    path = transcripts_parquet_path(
        n_turns, seed=seed, cache_dir=cache, n_files=n_files,
        row_group_size=-(-n_turns // n_files))
    files = [f for f in os.listdir(path) if f.endswith(".parquet")]
    if len(files) != n_files:
        raise RuntimeError(f"{path} holds {len(files)} files, not {n_files}")
    os.utime(path)
    _evict(cache)
    return path


def transcript_reference(path: str, n_files: Optional[int] = None) -> dict:
    """Expected pipeline outcome for the transcripts under ``path`` (or
    its first ``n_files`` files): rows, rows per sink, status_matched and
    tool_matched counts. The pipeline's configured patterns and
    dictionaries are the inputs; DuckDB evaluates them. Cached next to the
    input."""
    files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
    if n_files is not None:
        files = files[:n_files]
    ref_path = path + (f".first{n_files}" if n_files else "") + \
        REFERENCE_SUFFIX
    if os.path.exists(ref_path):
        with open(ref_path) as f:
            return json.load(f)
    import duckdb
    from logstash_filter_translate_ray.pipelines.transcripts import (
        ROLE_ROUTES, STATUS_REGEX_DICT, TOOL_DICT, TranscriptPipelineConfig)

    def lit(s: str) -> str:
        return "'" + s.replace("'", "''") + "'"

    rules = {r.out: r.pattern for r in TranscriptPipelineConfig().parse.rules}
    con = duckdb.connect()
    try:
        con.execute(f"""
            CREATE VIEW parsed AS
            SELECT role,
                   nullif(regexp_extract(text, {lit(rules["status"])}, 1), '')
                       AS status,
                   nullif(regexp_extract(tool, {lit(rules["tool_norm"])}, 1), '')
                       AS tool_norm
            FROM read_parquet([{", ".join(
                lit(os.path.join(path, f)) for f in files)}])""")
        status_match = " OR ".join(
            f"regexp_matches(status, {lit(p)})" for p in STATUS_REGEX_DICT)
        tools = ", ".join(lit(k) for k in TOOL_DICT)
        roles = [(r, n) for r, n in con.execute(
            "SELECT role, count(*) FROM parsed GROUP BY role").fetchall()]
        rows, status_matched, tool_matched = con.execute(f"""
            SELECT count(*),
                   count_if(coalesce({status_match}, false)),
                   count_if(coalesce(tool_norm IN ({tools}), false))
            FROM parsed""").fetchone()
    finally:
        con.close()
    routes: dict[str, int] = {}
    for role, n in roles:
        route = ROLE_ROUTES.get(role, "other")
        routes[route] = routes.get(route, 0) + int(n)
    ref = {"rows": int(rows), "routes": dict(sorted(routes.items())),
           "status_matched": int(status_matched),
           "tool_matched": int(tool_matched)}
    with open(ref_path + ".tmp", "w") as f:
        json.dump(ref, f)
    os.replace(ref_path + ".tmp", ref_path)
    return ref


def check_transcript_counts(ref: dict, rows: int, routes: dict,
                            status_matched: int,
                            tool_matched: Optional[int]) -> list[str]:
    """Mismatches between observed pipeline counts and ``ref``."""
    bad = []
    if rows != ref["rows"]:
        bad.append(f"rows out {rows} != rows in {ref['rows']}")
    if dict(sorted(routes.items())) != ref["routes"]:
        bad.append(f"sink counts {routes} != reference {ref['routes']}")
    if status_matched != ref["status_matched"]:
        bad.append(f"status_matched {status_matched} != "
                   f"{ref['status_matched']}")
    if tool_matched is not None and tool_matched != ref["tool_matched"]:
        bad.append(f"tool_matched {tool_matched} != {ref['tool_matched']}")
    return bad


# ---------------------------------------------------------------------------
# Embeddings with planted near-duplicates
# ---------------------------------------------------------------------------

def embeddings(work: str, n: int, dim: int, n_files: int, seed: int,
               dup_frac: float = 0.05) -> tuple[str, int]:
    """Unit vectors with planted near-duplicates: the last ``dup_frac`` of
    the rows copy an earlier row plus 0.01 noise (cosine about 0.999).
    Returns (directory, number of planted duplicates)."""
    cache = os.path.join(work, "inputs", f"knn_n{n}_d{dim}_f{n_files}")
    path = os.path.join(cache, f"s{seed}")
    n_dups = int(n * dup_frac)
    if not os.path.exists(os.path.join(path, "_DONE")):
        rng = np.random.RandomState(seed)
        m = rng.randn(n, dim).astype(np.float32)
        src = rng.randint(0, n - n_dups, size=n_dups)
        m[n - n_dups:] = m[src] + rng.randn(n_dups, dim).astype(np.float32) * 0.01
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        per = -(-n // n_files)
        for f in range(n_files):
            lo, hi = f * per, min((f + 1) * per, n)
            offs = np.arange(0, (hi - lo + 1) * dim, dim, dtype=np.int32)
            pq.write_table(pa.table({
                "vec_id": pa.array(np.arange(lo, hi), type=pa.int64()),
                "embedding": pa.ListArray.from_arrays(
                    pa.array(offs), pa.array(m[lo:hi].reshape(-1)))}),
                os.path.join(tmp, f"part-{f:03d}.parquet"))
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
        with open(os.path.join(path, "_DONE"), "w") as f:
            f.write("ok")
    os.utime(path)
    _evict(cache)
    return path, n_dups


def load_unit_matrix(path: str) -> np.ndarray:
    """The stored vectors in id order, renormalized in float64."""
    t = pq.read_table(path, columns=["vec_id", "embedding"]).sort_by("vec_id")
    m = np.asarray(t["embedding"].combine_chunks().flatten(),
                   dtype=np.float64).reshape(len(t), -1)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def brute_force_top1(m: np.ndarray, queries: np.ndarray,
                     chunk: int = 1024) -> np.ndarray:
    """Nearest other row (cosine, smallest id on ties) for each query id."""
    out = np.empty(len(queries), dtype=np.int64)
    for s in range(0, len(queries), chunk):
        q = queries[s:s + chunk]
        scores = m[q] @ m.T
        scores[np.arange(len(q)), q] = -np.inf
        out[s:s + chunk] = np.argmax(scores, axis=1)
    return out

