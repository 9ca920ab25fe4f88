"""Host facts, the Ray session the benchmark runs in, and memory sampling.

Everything here reads ``/proc`` directly (psutil is not a dependency of
the repository) and writes only under the benchmark's work directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
from typing import Optional

# A unix socket path may hold 107 bytes; a Ray session puts
# "session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" (about 64
# bytes) under its temp dir, so a deeper temp dir would fail ray.init.
_MAX_RAY_TEMP_DIR = 40


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def process_age_s() -> float:
    """Seconds since this process was started by the kernel."""
    with open("/proc/self/stat", "rb") as f:
        stat = f.read()
    start_ticks = int(stat[stat.rindex(b")") + 2:].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def load_1min() -> float:
    return os.getloadavg()[0]


def git_commit(root: str) -> Optional[str]:
    """HEAD of ``root`` when it is a git checkout, else None (the lookup
    never walks into parent directories)."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_stamp(root: str, seed: int, num_cpus: int) -> dict:
    import pyarrow
    import ray
    return {"affinity_cpus": affinity_cpus(), "os_cpu_count": os.cpu_count(),
            "num_cpus": num_cpus, "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "git_commit": git_commit(root),
            "seed": seed}


# ---------------------------------------------------------------------------
# Resident memory of this process and its Ray workers
# ---------------------------------------------------------------------------

def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    # idle and busy workers retitle themselves "ray::<task or actor>"
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _vm_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def own_and_workers_rss_mb() -> float:
    """Summed VmRSS of this process and every Ray worker descended from
    it (raylet, GCS and other daemons are not counted)."""
    me = os.getpid()
    kids = _children_map()
    total = _vm_rss_kb(me)
    todo = list(kids.get(me, []))
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, []))
        if _is_ray_worker(pid):
            total += _vm_rss_kb(pid)
    return total / 1024.0


class RssSampler:
    """Samples :func:`own_and_workers_rss_mb` on a daemon thread while
    it is ``active``; ``peak_mb`` is the largest sample taken."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._active = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            if self._active.is_set():
                self.peak_mb = max(self.peak_mb, own_and_workers_rss_mb())
            self._stop.wait(self.interval_s)

    @contextlib.contextmanager
    def active(self):
        self._active.set()
        try:
            yield
        finally:
            self._active.clear()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Ray cluster and the jobs that connect to it
# ---------------------------------------------------------------------------

# Runs in a child process: starts a local single-node cluster, prints its
# address and session directory, and shuts the cluster down when its stdin
# closes.
_CLUSTER_MAIN = """
import json, sys, ray
kw = json.loads(sys.argv[1])
ray.init(address="local", include_dashboard=False, logging_level="ERROR",
         **kw)
print(json.dumps([ray.get_runtime_context().gcs_address,
                  ray._private.worker._global_node.get_session_dir_path()]),
      flush=True)
sys.stdin.read()
ray.shutdown()
"""


class RayCluster:
    """A local Ray cluster owned by a child process, so that each set-up
    can be a new Ray job (connect, build, warm pass on fresh workers)
    without paying for a cluster start each time. Its workers import
    packages from ``root``; its session files live under ``temp`` when the
    socket path allows it (else under Ray's default temp dir)."""

    def __init__(self, root: str, temp: str, num_cpus: int,
                 start_timeout_s: float = 60.0):
        env = dict(os.environ)
        path = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (root, path) if p)
        kw = {"num_cpus": num_cpus, "object_store_memory": 1_000_000_000}
        self.temp = None
        if len(temp) <= _MAX_RAY_TEMP_DIR:
            os.makedirs(temp, exist_ok=True)
            kw["_temp_dir"] = self.temp = temp
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _CLUSTER_MAIN, json.dumps(kw)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, start_new_session=True)
        self.session_dir = ""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    start_timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError("the Ray cluster did not start")
        self.address, self.session_dir = json.loads(line)

    def connect(self) -> None:
        import ray
        from ray.data import DataContext
        ray.init(address=self.address, logging_level="ERROR",
                 log_to_driver=False)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    @staticmethod
    def disconnect() -> None:
        import ray
        if ray.is_initialized():
            ray.shutdown()

    def stop(self, timeout_s: float = 30.0) -> None:
        """Disconnect, shut the cluster down and wait for its process
        group to end; delete the session directory under ``temp``."""
        self.disconnect()
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        # reap what the cluster started (raylet, GCS, workers) if any
        # outlived it
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if self.temp and self.session_dir and os.path.abspath(
                self.session_dir).startswith(
                os.path.abspath(self.temp) + os.sep):
            shutil.rmtree(self.session_dir, ignore_errors=True)
