#!/usr/bin/env python
"""Scale probe: run the dedup pipelines at N ≫ the sf test tables.

The sf0.1 documents table is 5000 rows — small enough that Ray fixed
costs dominate every bench query. This probe synthesizes a deterministic
N-doc corpus (default 100k, 20× sf0.1) with PLANTED exact and near
duplicates, then runs

  1. exact_dedup_ids        (hash128 → keyed exchange, Arrow min per bucket)
  2. minhash_dedup cc=auto  (LSH candidates → distributed Jaccard verify
                             → connected components → survivor filter)

and checks the planted duplicates are found. Prints one JSON line; the
numbers land in BASELINE.md as would-it-hold-at-scale evidence.

Usage: python scripts/scale_probe.py [N_DOCS] [--distributed-cc]
       python scripts/scale_probe.py [N_VECS] --embeddings
         (LSH embedding near-dup + IVF top-k at N_VECS ≫ the sf tables,
          with planted near-duplicate vectors)
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_DOCS = int(sys.argv[1]) if len(sys.argv) > 1 and sys.argv[1].isdigit() \
    else 100_000
VOCAB = 5_000
WORDS_LO, WORDS_HI = 60, 160
EXACT_DUP_FRAC = 0.05        # doc i copies doc i - base verbatim
NEAR_DUP_FRAC = 0.10         # doc i copies doc i - base with 3 word swaps
SEED = 42
N_FILES = 16


def synth_corpus(path: str) -> tuple[int, int]:
    """Deterministic corpus with planted duplicates. Returns the planted
    (n_exact, n_near) counts. Cached on disk by (N, seed)."""
    if os.path.isdir(path) and len(os.listdir(path)) == N_FILES:
        meta = json.load(open(os.path.join(path, "..",
                                           f"meta_{N_DOCS}.json")))
        return meta["n_exact"], meta["n_near"]
    rng = np.random.RandomState(SEED)
    vocab = np.array([f"w{i:04d}" for i in range(VOCAB)], dtype=object)
    lens = rng.randint(WORDS_LO, WORDS_HI, size=N_DOCS)
    texts: list = [None] * N_DOCS
    n_exact = n_near = 0
    base_span = 1000           # dup sources come from the previous span
    for i in range(N_DOCS):
        r = rng.rand()
        if i >= base_span and r < EXACT_DUP_FRAC:
            texts[i] = texts[i - base_span]
            n_exact += 1
        elif i >= base_span and r < EXACT_DUP_FRAC + NEAR_DUP_FRAC:
            words = texts[i - base_span].split()
            for _ in range(3):
                words[rng.randint(len(words))] = vocab[rng.randint(VOCAB)]
            texts[i] = " ".join(words)
            n_near += 1
        else:
            texts[i] = " ".join(vocab[rng.randint(0, VOCAB, size=lens[i])])
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    per = (N_DOCS + N_FILES - 1) // N_FILES
    for f in range(N_FILES):
        lo, hi = f * per, min((f + 1) * per, N_DOCS)
        pq.write_table(
            pa.table({"doc_id": pa.array(range(lo, hi), type=pa.int64()),
                      "text": pa.array(texts[lo:hi], type=pa.string())}),
            os.path.join(path, f"part-{f:03d}.parquet"))
    json.dump({"n_exact": n_exact, "n_near": n_near},
              open(os.path.join(path, "..", f"meta_{N_DOCS}.json"), "w"))
    return n_exact, n_near


def synth_embeddings(path: str, n: int, dim: int = 64,
                     dup_frac: float = 0.05) -> int:
    """Unit-norm random vectors with planted near-duplicates (copy of an
    earlier vector + tiny noise ⇒ cosine ≈ 0.999). Returns planted count."""
    if os.path.isdir(path) and os.listdir(path):
        return json.load(open(os.path.join(
            path, "..", f"emb_meta_{n}.json")))["n_dups"]
    rng = np.random.RandomState(SEED)
    m = rng.randn(n, dim).astype(np.float32)
    n_dups = int(n * dup_frac)
    src = rng.randint(0, n - n_dups, size=n_dups)
    m[n - n_dups:] = m[src] + rng.randn(n_dups, dim).astype(np.float32) * 0.01
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    per = (n + N_FILES - 1) // N_FILES
    offs = np.arange(0, (per + 1) * dim, dim, dtype=np.int32)
    for f in range(N_FILES):
        lo, hi = f * per, min((f + 1) * per, n)
        if lo >= hi:
            break
        chunk = m[lo:hi]
        lists = pa.ListArray.from_arrays(
            pa.array(offs[: hi - lo + 1]), pa.array(chunk.reshape(-1)))
        pq.write_table(pa.table({
            "vec_id": pa.array(range(lo, hi), type=pa.int64()),
            "embedding": lists}),
            os.path.join(path, f"part-{f:03d}.parquet"))
    json.dump({"n_dups": n_dups},
              open(os.path.join(path, "..", f"emb_meta_{n}.json"), "w"))
    return n_dups


def main_embeddings(n_vecs: int) -> None:
    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from logstash_filter_translate_ray.functions.similarity import (
        embedding_neardup_pairs_lsh, ivf_topk)

    root = "/tmp/lftr_scale_probe"
    corpus = os.path.join(root, f"embs_{n_vecs}")
    n_dups = synth_embeddings(corpus, n_vecs)
    read = lambda: rd.read_parquet(corpus)
    read().materialize()                        # warm

    t0 = time.perf_counter()
    pairs = embedding_neardup_pairs_lsh(read(), threshold=0.98,
                                        planes_per_table=8, n_tables=12)
    t_lsh = time.perf_counter() - t0
    # every planted dup (cosine ≈ 0.999) should surface; random 64-dim
    # pairs essentially never clear 0.98. Recall = distinct planted ids
    # that appear in at least one found pair.
    found_dups = int(pairs.loc[pairs["id_b"] >= n_vecs - n_dups, "id_b"]
                     .nunique())

    q = np.asarray(pq.read_table(corpus)["embedding"].to_pylist()[0],
                   dtype=np.float64)
    t0 = time.perf_counter()
    top = ivf_topk(read(), q, k=10, n_cells=64, n_probe=8,
                   cache_key=corpus)
    t_ivf = time.perf_counter() - t0

    # exact kNN join at full N — evidence for the r4 bounded-memory kernel:
    # per-task transient is target_block_rows² × 8 B (fixed, N-independent);
    # the r3 full-width design needed block × N × 8 B per task, which at
    # this N × default concurrency would not fit the box. Streaming return
    # (as_dataset) keeps the N×k result off the driver; correctness signal:
    # every planted near-dup (cosine ≈ 0.999 to its source) must have a
    # rank-1 neighbor at cosine ≥ 0.98.
    from logstash_filter_translate_ray.functions.similarity import knn_join
    tbr = 4096
    t0 = time.perf_counter()
    knn_ds = knn_join(read(), k=5, target_block_rows=tbr, as_dataset=True)
    top1 = knn_ds.filter(expr="nn_rank == 1").to_pandas()
    t_knn = time.perf_counter() - t0
    full = pq.read_table(corpus)
    m = np.asarray(full["embedding"].combine_chunks().flatten(),
                   dtype=np.float64).reshape(n_vecs, -1)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    t1 = top1.sort_values("vec_id").set_index("vec_id")
    planted = np.arange(n_vecs - n_dups, n_vecs)
    nb = t1.loc[planted, "neighbor_id"].to_numpy()
    cos = np.einsum("ij,ij->i", m[planted], m[nb])
    knn_planted_ok = int((cos >= 0.98).sum())

    # IVF-partitioned approximate kNN join (round-5): same output shape as
    # the exact kernel, compute O(N²/n_cells × n_probe). Recall@1 is
    # measured against the exact run's rank-1 neighbors; planted near-dups
    # use the same cosine ≥ 0.98 signal as the exact kernel.
    from logstash_filter_translate_ray.functions.similarity import (
        knn_join_ivf)
    n_cells = max(16, int(n_vecs ** 0.5) // 2)      # ≈ √N/2 → ~220 at 200k
    t0 = time.perf_counter()
    ivf_ds = knn_join_ivf(read(), k=5, n_cells=n_cells, n_probe=16,
                          cache_key=corpus + ":ivfknn", as_dataset=True)
    itop1 = ivf_ds.filter(expr="nn_rank == 1").to_pandas()
    t_ivfknn = time.perf_counter() - t0
    it1 = itop1.sort_values("vec_id").set_index("vec_id")
    common = t1.index.intersection(it1.index)
    recall_at1 = float((t1.loc[common, "neighbor_id"].to_numpy()
                        == it1.loc[common, "neighbor_id"].to_numpy()).mean())
    inb = it1.loc[planted, "neighbor_id"].to_numpy()
    icos = np.einsum("ij,ij->i", m[planted], m[inb])
    ivfknn_planted_ok = int((icos >= 0.98).sum())

    print(json.dumps({
        "n_vecs": n_vecs, "planted_dups": n_dups,
        "lsh_neardup_sec": round(t_lsh, 2),
        "lsh_pairs": int(len(pairs)), "planted_found": found_dups,
        "recall_planted": round(found_dups / max(n_dups, 1), 4),
        "ivf_topk_sec": round(t_ivf, 2), "ivf_rows": int(len(top)),
        "knn_join_sec": round(t_knn, 2),
        "knn_rows_rank1": int(len(top1)),
        "knn_planted_top1_ok": knn_planted_ok,
        "knn_task_peak_mb": round(tbr * tbr * 8 / 1e6, 1),
        "knn_r3_design_task_mb": round(tbr * n_vecs * 8 / 1e6, 1),
        "knn_join_ivf_sec": round(t_ivfknn, 2),
        "knn_join_ivf_cells": n_cells,
        "knn_join_ivf_recall_at1": round(recall_at1, 4),
        "knn_join_ivf_planted_top1_ok": ivfknn_planted_ok,
        "num_cpus": int(os.environ.get("RAY_GRAFT_CPUS", "32"))}))
    ray.shutdown()


def main() -> None:
    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from logstash_filter_translate_ray.functions.dedup import (
        exact_dedup_ids, minhash_dedup)

    root = "/tmp/lftr_scale_probe"
    corpus = os.path.join(root, f"docs_{N_DOCS}")
    n_exact, n_near = synth_corpus(corpus)

    read = lambda: rd.read_parquet(corpus, columns=["doc_id", "text"])
    # warm page cache + worker pool + per-worker package imports (untimed)
    exact_dedup_ids(read().limit(1000)).count()

    t0 = time.perf_counter()
    survivors = exact_dedup_ids(read()).count()
    t_exact = time.perf_counter() - t0
    assert survivors == N_DOCS - n_exact, (survivors, N_DOCS - n_exact)

    cc = "distributed" if "--distributed-cc" in sys.argv else "auto"
    t0 = time.perf_counter()
    kept, dropped = minhash_dedup(read(), threshold=0.7, num_perm=64,
                                  bands=16, concurrency=8, cc=cc)
    n_kept = kept.count()
    n_dropped = (len(dropped) if isinstance(dropped, list)
                 else dropped.count())
    t_minhash = time.perf_counter() - t0
    # every planted exact+near dup should fall (3 swaps in 60-160 words
    # keeps Jaccard far above 0.7); random word-soup docs share few
    # 3-shingles, so false drops should be ≈ 0
    result = {
        "n_docs": N_DOCS, "planted_exact": n_exact, "planted_near": n_near,
        "exact_dedup_ids_sec": round(t_exact, 2),
        "exact_survivors": int(survivors),
        "minhash_cc_mode": cc,
        "minhash_dedup_sec": round(t_minhash, 2),
        "minhash_kept": int(n_kept), "minhash_dropped": int(n_dropped),
        "expected_dropped": n_exact + n_near,
        "num_cpus": int(os.environ.get("RAY_GRAFT_CPUS", "32")),
    }
    print(json.dumps(result))
    ray.shutdown()


if __name__ == "__main__":
    if "--embeddings" in sys.argv:
        main_embeddings(N_DOCS)
    else:
        main()
