"""Multi-node-shaped smoke run (VERDICT r4 #6): drive the flagship
transcripts DAG and the minhash near-dup pipeline through a DELIBERATELY
small object store with tiny target block sizes, so Ray Data's streaming
executor must pipeline blocks through backpressure (and spill when the
store fills) — the exact mechanism a 100 TB run lives on — and assert the
outputs stay ORACLE-EXACT. 128 GiB of RAM hides scale bugs; this doesn't.

Usage: python scripts/spill_smoke.py [sf_dir]      (default sf0.01)
Prints one JSON line: {"ok": bool, "spilled_mb": float, ...}.
Owns its Ray session (small object_store_memory) — run standalone, never
inside the shared pytest session.
"""

import json
import os
import re
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
sys.path.insert(0, os.path.join(_REPO, "scripts", "fuzz"))


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"

    import ray
    ray.init(address="local", num_cpus=16,
             object_store_memory=100 * 1024 * 1024,      # 100 MB — tiny
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.target_max_block_size = 1 * 1024 * 1024          # 1 MB blocks
    ctx.enable_progress_bars = False

    import duckdb

    import __ray_entry__ as m

    con = duckdb.connect()
    for t in ["events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    queries, oracles = m.queries(), m.oracle_sql()
    names = ["minhash_pairs", "dedup_exact", "tumbling_counts",
             "knn_join_ivf", "event_paths"]
    # the transcripts oracle SQL pins the sf0.01 /tmp cache by design
    # (see q_transcripts_pipeline) — only comparable at that sf
    if os.path.basename(os.path.normpath(sf_dir)) == "sf0.01":
        names.insert(0, "transcripts_pipeline")
    results = {}
    ok = True
    # ONE canon (CLAUDE.md): the -0.0 fold, null rendering and the
    # empty-Dataset schema() path all live in fuzz_common.compare_result
    from fuzz_common import compare_result
    for name in names:
        got = queries[name](sf_dir)
        want = con.execute(oracles[name]).df()
        try:
            compare_result(name, got, want)
            results[name] = {"rows": len(want), "match": True}
        except Exception as e:          # noqa: BLE001 — report, don't die
            results[name] = {"rows": len(want), "match": False,
                             "err": str(e)[:200]}
            ok = False

    # A deliberate SPILL driver: the operator queries above stream so well
    # at sf that nothing spills even through a 100 MB store — which is the
    # point of streaming execution, but leaves the spill path untested.
    # Materialize 64 copies of the events table (~170 MB of Arrow blocks
    # vs the sf0.1 2.6 MB parquet) INTO the 100 MB store — the plasma store spills blocks to
    # disk as they are created — then aggregate from the spilled handle
    # (every block restores from disk) and check the counts are exactly
    # 64 × the single-copy oracle.
    #
    # Deliberately NOT a Ray AllToAll operator here: Ray 2.49's streaming
    # executor cannot ADMIT an AllToAllOperator whose input exceeds the
    # store budget (the scheduling loop spins forever at 100 MB — measured
    # 35+ min stuck). The engine runs none: its keyed exchange (groups,
    # aggregates, joins) is plain tasks whose outputs spill like the
    # materialize below (see docs/SCALE.md).
    import ray.data as rd
    from logstash_filter_translate_ray.stages.aggregate import (
        grouped_counts)
    one = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                          columns=["user_id", "event_type", "props"])
    n_copies = 64
    big = one.union(*[rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type", "props"])
        for _ in range(n_copies - 1)])
    mat = big.materialize()
    got8 = grouped_counts(mat, ["user_id"], driver_merge=True) \
        .sort_values(["n", "user_id"], ascending=[False, True],
                     na_position="last").reset_index(drop=True)
    want8 = con.execute(
        "SELECT user_id, 64 * COUNT(*) AS n FROM events GROUP BY user_id "
        "ORDER BY n DESC, user_id NULLS LAST").df()
    try:
        compare_result("spill_materialize_x64", got8, want8)
        results["spill_materialize_x64"] = {"rows": len(got8), "match": True}
    except Exception as e:              # noqa: BLE001
        results["spill_materialize_x64"] = {"rows": len(got8),
                                           "match": False,
                                           "err": str(e)[:200]}
        ok = False

    # spill evidence from the raylet's own log ("Spilled N MiB, M objects")
    # — the memory_summary API needs grpc, which this container lacks
    spilled_mb = 0.0
    spilled_objects = 0
    try:
        raylet_log = os.path.join(
            ray._private.worker._global_node.get_session_dir_path(),
            "logs", "raylet.out")
        for hit in re.finditer(r"Spilled (\d+) MiB, (\d+) objects",
                               open(raylet_log).read()):
            spilled_mb = max(spilled_mb, float(hit.group(1)))
            spilled_objects = max(spilled_objects, int(hit.group(2)))
    except Exception:       # noqa: BLE001 — log layout may move
        pass

    print(json.dumps({"ok": ok, "sf_dir": sf_dir,
                      "object_store_mb": 100, "block_mb": 1,
                      "spilled_mb": spilled_mb,
                      "spilled_objects": spilled_objects,
                      "queries": results}))
    ray.shutdown()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
