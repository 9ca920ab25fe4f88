"""Per-partition checkpoint manifests and the one resumable shard runner.

North_rule: "every partition records lineage + metrics to a checkpoint
store so the streaming-executed job resumes idempotently". Design
(SURVEY §4 'Checkpoint / resume'):

- A *shard* is an input partition (one or more input parquet files).
- Each shard's output goes to its own directory, written atomically
  (tmp dir → ``os.replace`` rename), so a crashed run leaves either a
  complete shard or a removable ``.tmp``.
- After a shard's sink commit, a JSON manifest records lineage (input
  files), metrics (row counts, per-route counts) and the output files.
  The metrics are read from the committed files themselves (parquet
  footers, partition directory names, one column where needed), not
  from a second job over them.
- Resume = skip shards whose manifest exists; aggregates are recomputed
  from manifests (never double-counted — the manifest is the unit of
  exactly-once accounting over at-least-once task retries).
- Durability: the manifest is fsync'd before the rename and the directory
  fsync'd after, so a power loss can't leave a renamed-but-empty manifest
  (ext4 delayed allocation); a manifest that is nonetheless unreadable or
  truncated is treated as ABSENT (the shard re-runs — at-least-once work,
  never silent data loss) rather than wedging every subsequent resume.

:func:`run_shards` is the only resumable runner: ``run_resumable`` and
``run_spec_resumable`` pass it just their per-shard write step.
"""

from __future__ import annotations

import glob
import json
import logging
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import pyarrow.parquet as pq


def _fsync_dir(path: str) -> None:
    try:
        dfd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:
        pass        # directory fsync unsupported on some filesystems


def _fsync_tree(d: str) -> None:
    """fsync every regular file and directory under ``d`` — shard DATA
    must be durable before the manifest certifies it (ext4 delayed
    allocation can otherwise persist the fsync'd manifest but lose the
    unfsync'd parquet it points at, and resume would then skip the shard
    forever: silent data loss)."""
    for root, _dirs, files in os.walk(d):
        for fn in files:
            try:
                fd = os.open(os.path.join(root, fn), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            except OSError:
                pass
        _fsync_dir(root)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _proc_start(pid: int) -> Optional[int]:
    """Kernel start time (clock ticks since boot) of a LOCAL pid, or None
    where /proc is unavailable. Distinguishes a recycled PID from the
    original owner — os.kill(pid, 0) alone cannot."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
        # field 2 (comm) may contain spaces/parens — parse after the
        # LAST ')'; start time is the 22nd field = index 19 after comm
        fields = stat[stat.rindex(b")") + 2:].split()
        return int(fields[19])
    except (OSError, ValueError, IndexError):
        return None


def _local_host() -> str:
    import socket
    import re
    return re.sub(r"[^A-Za-z0-9_-]", "-", socket.gethostname()) or "host"


def _tmp_owner(path: str):
    """(host, pid, start) embedded in a tmp path, any of them None for
    older suffix forms:

    - ``<base>.<host>.<pid>-<start>.tmp``  (current)
    - ``<base>.<pid>.tmp``                 (legacy: no host, no start)
    - ``<base>.tmp``                       (legacy pid-less)
    """
    parts = path.split(".")
    if len(parts) < 2 or parts[-1] != "tmp":
        return None, None, None
    tok = parts[-2]
    if tok.isdigit():                          # legacy <pid>
        return None, int(tok), None
    if "-" in tok and len(parts) >= 4:
        pid_s, _, start_s = tok.partition("-")
        if pid_s.isdigit() and start_s.isdigit():
            return parts[-3], int(pid_s), int(start_s)
    return None, None, None


def _owner_alive(path: str, foreign_lease_s: float) -> bool:
    """Is the process that owns this tmp path still alive?

    Same-host owners are PID-probed, and a pid that IS alive but whose
    /proc start time differs from the recorded one is a recycled PID —
    stale. Foreign-host owners can't be probed (checkpoint roots may be
    shared over NFS); they are presumed alive while the tmp is younger
    than ``foreign_lease_s`` (advisor r4: never rmtree another node's
    in-progress write, never wedge forever on its crash litter)."""
    host, pid, start = _tmp_owner(path)
    if host is not None and host != _local_host():
        try:
            age = time.time() - os.stat(path).st_mtime
        except OSError:
            return False                      # vanished — owner finished
        return age < foreign_lease_s
    if pid is None:
        return False                          # legacy pid-less: stale
    if not _pid_alive(pid):
        return False
    if start is not None:
        now_start = _proc_start(pid)
        if now_start is not None and now_start != start:
            return False                      # recycled PID
    return True


def _tmp_suffix() -> str:
    start = _proc_start(os.getpid())
    return f".{_local_host()}.{os.getpid()}-{start or 0}.tmp"


@dataclass
class ShardManifest:
    shard_id: str
    input_files: list[str]
    output_dir: str
    rows_in: int
    rows_out: int
    route_counts: dict[str, int] = field(default_factory=dict)
    matched_counts: dict[str, int] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class CheckpointStore:
    def __init__(self, root: str, foreign_lease_s: float = 86400.0):
        self.root = root
        # how long a FOREIGN host's in-progress tmp is presumed live (it
        # can't be PID-probed across nodes); same-host tmps are probed
        self.foreign_lease_s = foreign_lease_s
        self.manifest_dir = os.path.join(root, "_manifests")
        os.makedirs(self.manifest_dir, exist_ok=True)

    def _path(self, shard_id: str) -> str:
        return os.path.join(self.manifest_dir, f"{shard_id}.json")

    def is_done(self, shard_id: str) -> bool:
        # a readable manifest is not enough: it must still point at REAL
        # output (an operator deleting only the shard dir, or data lost
        # in a crash window, must re-run the shard — never silently drop
        # its rows from every future aggregate)
        m = self.load(shard_id)
        if m is None:
            return False
        if m.rows_out > 0 and m.output_dir and not os.path.isdir(
                m.output_dir):
            logging.getLogger(__name__).warning(
                "manifest for shard %s exists but its output dir %s is "
                "missing — treating the shard as not done; it will re-run",
                shard_id, m.output_dir)
            return False
        return True

    def _read(self, path: str) -> Optional[ShardManifest]:
        try:
            with open(path) as f:
                return ShardManifest(**json.load(f))
        except (json.JSONDecodeError, TypeError, ValueError, OSError) as e:
            logging.getLogger(__name__).warning(
                "checkpoint manifest %s unreadable (%s: %s) — treating the "
                "shard as not done; it will re-run", path,
                type(e).__name__, e)
            return None

    def load(self, shard_id: str) -> Optional[ShardManifest]:
        p = self._path(shard_id)
        if not os.path.exists(p):
            return None
        return self._read(p)

    def load_all(self) -> list[ShardManifest]:
        out = []
        for name in sorted(os.listdir(self.manifest_dir)):
            if name.endswith(".tmp"):
                # crashed-commit litter: remove once its writer is gone
                # (a live owner is mid-commit — leave its tmp alone)
                full = os.path.join(self.manifest_dir, name)
                if not _owner_alive(full, self.foreign_lease_s):
                    try:
                        os.unlink(full)
                    except OSError:
                        pass
                continue
            if name.endswith(".json"):
                m = self._read(os.path.join(self.manifest_dir, name))
                if m is not None:
                    out.append(m)
        return out

    def commit(self, manifest: ShardManifest) -> None:
        """Write the manifest atomically AND durably (write → fsync →
        rename → dir fsync): without the fsyncs a power loss can promote
        an empty file past the rename barrier. The tmp name carries this
        process's host/pid/start-time so two overlapping runs — even on
        different nodes of a shared root — can't truncate each other's
        in-flight commit."""
        p = self._path(manifest.shard_id)
        tmp = f"{p}{_tmp_suffix()}"
        with open(tmp, "w") as f:
            json.dump(asdict(manifest), f, indent=1)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, p)
        _fsync_dir(self.manifest_dir)

    def shard_output_dir(self, shard_id: str) -> str:
        return os.path.join(self.root, f"shard={shard_id}")

    def _shard_tmp(self, shard_id: str) -> str:
        # host/pid/start-suffixed so overlapping runs never write into
        # (or rmtree) each other's in-progress dir — including runs on
        # OTHER nodes when the checkpoint root is shared (NFS)
        return f"{self.shard_output_dir(shard_id)}{_tmp_suffix()}"

    def begin_shard(self, shard_id: str) -> str:
        """Return a tmp output dir for the shard. Stale tmp dirs (ours,
        legacy pid-less, recycled-PID, or from DEAD processes) are
        cleared; a tmp dir owned by a LIVE other process — same-host
        PID-probed, foreign-host presumed live within the lease — means
        two runs share this checkpoint root: fail loudly instead of
        corrupting each other's in-progress shard output."""
        final = self.shard_output_dir(shard_id)
        mine = self._shard_tmp(shard_id)
        for stale in glob.glob(final + ".*.tmp") + [final + ".tmp"]:
            if not os.path.exists(stale):
                continue
            if stale != mine and _owner_alive(stale, self.foreign_lease_s):
                raise RuntimeError(
                    f"shard {shard_id!r} is being written by a live "
                    f"process ({stale}) — two runs share checkpoint root "
                    f"{self.root!r}; wait for it or use a separate root")
            shutil.rmtree(stale, ignore_errors=True)
        tmp = self._shard_tmp(shard_id)
        os.makedirs(tmp, exist_ok=True)
        return tmp

    def finish_shard(self, shard_id: str) -> str:
        """Atomically AND durably promote the shard tmp dir to final:
        the data files fsync BEFORE the rename (a durable manifest must
        never certify unflushed parquet) and the parent dir fsyncs after
        (the rename itself survives power loss)."""
        final = self.shard_output_dir(shard_id)
        tmp = self._shard_tmp(shard_id)
        _fsync_tree(tmp)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.replace(tmp, final)
        _fsync_dir(self.root)
        return final


# ---------------------------------------------------------------------------
# The resumable runner: one manifest + one atomically-renamed dir per shard
# ---------------------------------------------------------------------------

def parquet_files(root: str) -> list[str]:
    """Every ``*.parquet`` file under ``root`` (recursive), sorted."""
    return sorted(os.path.join(r, f) for r, _dirs, fnames in os.walk(root)
                  for f in fnames if f.endswith(".parquet"))


def _shard_inputs(input_path: "str | list[str]", shard_files: int) -> list[list[str]]:
    if isinstance(input_path, str):
        if os.path.isdir(input_path):
            # RECURSE: nested/hive-partitioned layouts (e.g. a previous
            # route=... fan-out output) must shard like the non-resumable
            # rd.read_parquet would read them — the top-level-only listing
            # found zero files and returned a silently-successful empty run
            files = parquet_files(input_path)
            if not files:
                raise FileNotFoundError(
                    f"no *.parquet files under {input_path!r} — refusing a "
                    "0-shard (silently empty) resumable run")
        else:
            files = [input_path]
    else:
        files = sorted(input_path)
    return [files[i:i + shard_files] for i in range(0, len(files), shard_files)]


def run_shards(input_path: "str | list[str]", out_dir: str, shard_files: int,
               write_shard: Callable[[list[str], str], dict],
               ) -> tuple[int, int, list[ShardManifest]]:
    """Run ``write_shard(files, tmp_dir)`` once per unfinished input shard
    and commit its manifest; skip shards a previous run committed.
    ``write_shard`` writes the shard's parquet output under ``tmp_dir`` and
    returns the manifest fields that differ by pipeline (e.g.
    ``route_counts``); ``rows_in`` and ``rows_out`` come from the input and
    output footers. Returns ``(shards_run, shards_skipped, manifests)``."""
    shards = _shard_inputs(input_path, shard_files)
    store = CheckpointStore(out_dir)
    # fail FAST if the input shrank since a previous run at this out_dir:
    # stale manifests would otherwise poison the totals, and checking only
    # after the loop would waste the whole run before erroring (review r3)
    want_ids = {f"{i:05d}" for i in range(len(shards))}
    extra = sorted(m.shard_id for m in store.load_all()
                   if m.shard_id not in want_ids)
    if extra:
        raise RuntimeError(
            f"out_dir has manifests {extra} beyond this run's "
            f"{len(shards)} shards — the input shrank since the previous "
            "run; use a fresh out_dir")
    ran = skipped = 0
    for i, files in enumerate(shards):
        shard_id = f"{i:05d}"
        if store.is_done(shard_id):
            done = store.load(shard_id)
            if done is not None and done.input_files != files:
                raise RuntimeError(
                    f"checkpoint mismatch for shard {shard_id}: manifest "
                    f"covers {done.input_files}, run asked for {files} "
                    "— the input list or shard_files changed; use a fresh "
                    "out_dir")
            skipped += 1
            continue
        tmp = store.begin_shard(shard_id)
        fields = write_shard(files, tmp)
        rows_out = sum(pq.read_metadata(f).num_rows
                       for f in parquet_files(tmp))
        rows_in = sum(pq.read_metadata(f).num_rows for f in files)
        final = store.finish_shard(shard_id)
        store.commit(ShardManifest(
            shard_id=shard_id, input_files=files, output_dir=final,
            rows_in=rows_in, rows_out=rows_out, **fields))
        ran += 1
    return ran, skipped, store.load_all()
