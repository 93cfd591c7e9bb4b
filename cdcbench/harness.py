"""Shared pieces of the benchmark: the on-disk binlog cache, the Ray
session, process accounting and the summary statistics."""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".cdcbench_work")

# Ray's logical CPU count. Kept small because the benchmark host may have a
# single core; a merge pool that reserves every CPU deadlocks
# (engine.merge_pool_size), so it must leave at least 2 free for the
# pipeline's own tasks.
RAY_CPUS = 4
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# AF_UNIX socket paths are limited to 107 bytes; Ray appends about 62
# characters (session dir + sockets/plasma_store) to its temp dir.
_MAX_RAY_TMP = 44


# -- binlog cache --------------------------------------------------------------

def binlog_dir(workload: str, spec) -> str:
    tag = hashlib.sha1(repr(asdict(spec)).encode()).hexdigest()[:10]
    return os.path.join(WORK, "binlog", f"{workload}-s{spec.seed}-{tag}")


def epoch_path(workload: str, spec, epoch: int) -> str:
    return os.path.join(binlog_dir(workload, spec), f"ep{epoch:04d}",
                        "data.parquet")


def materialize_epoch(workload: str, spec, epoch: int) -> str:
    """Write one binlog epoch once (driver-side, no Ray). The dir is written
    under a temp name and renamed, so a crashed run leaves either nothing or
    a complete epoch. A missing, empty or partial dir (wrong row count) is
    treated as absent and rewritten."""
    import pyarrow.parquet as pq

    from e_commerce_batch_etl_pipeline_ray.cdc import binlog

    path = epoch_path(workload, spec, epoch)
    final = os.path.dirname(path)
    if os.path.isdir(final):
        try:
            if pq.read_metadata(path).num_rows == spec.events_per_epoch:
                return path
        except (OSError, ValueError):
            pass
        shutil.rmtree(final)
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    pq.write_table(binlog.gen_epoch_table(spec, epoch),
                   os.path.join(tmp, "data.parquet"))
    os.replace(tmp, final)
    return path


# -- Ray session ---------------------------------------------------------------

def start_ray() -> None:
    import logging

    import ray

    # workers import the package from the checkout, as this process does
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    tmp = os.path.join(WORK, "ray")
    kwargs = {}
    if len(tmp) <= _MAX_RAY_TMP:
        os.makedirs(tmp, exist_ok=True)
        kwargs["_temp_dir"] = tmp
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             # Ray kills idle workers after 1 s by default; on one core the
             # respawn (~1.5 s) lands on whichever call comes next and makes
             # every latency bimodal. Keeping idle workers alive for the
             # length of a run makes the numbers repeatable.
             _system_config={"idle_worker_killing_time_threshold_ms":
                             600_000},
             **kwargs)
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    from e_commerce_batch_etl_pipeline_ray.stages.blockutil import (
        silence_empty_bundle_warnings,
    )
    silence_empty_bundle_warnings()


def stop_ray(timeout_s: float = 30.0) -> None:
    """Shut Ray down and wait until every process it started has exited
    (SIGKILL after ``timeout_s``), then drop the session's logs so they do
    not pile up run after run."""
    import ray
    pids = descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    killed = False
    while True:
        _reap()
        alive = [p for p in pids if _alive(p)]
        if not alive:
            shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"Ray processes still alive: {alive}")
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.1)


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
        return state != "Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def session_pss_mb() -> float:
    """Proportional set size of this process and every process it started
    (Ray's raylet, GCS and workers). PSS charges shared pages — the
    object store above all — once in total, so the sum is not inflated."""
    kb = 0
    for pid in [os.getpid(), *descendants(os.getpid())]:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0


def cpu_jiffies() -> tuple[int, int]:
    """(steal, demand) CPU time of the whole VM so far, in clock ticks.
    Steal is time the hypervisor ran something else while a vCPU of this VM
    was ready to run; demand is steal plus every busy state (user, nice,
    system, irq, softirq), i.e. all the time the VM wanted a CPU."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], v[0] + v[1] + v[2] + v[5] + v[6] + v[7]


def steal_share(start: tuple[int, int], end: tuple[int, int]) -> float:
    """Share of the VM's CPU demand between two cpu_jiffies() readings that
    the hypervisor stole."""
    demand = end[1] - start[1]
    return (end[0] - start[0]) / demand if demand else 0.0


# -- timing --------------------------------------------------------------------
#
# The benchmark host runs other VMs, and its speed moves under the benchmark
# in two ways, each moving every time metric of a run together:
# - the hypervisor takes CPU time from this VM: between one-minute runs of
#   one workload the stolen share of the VM's CPU demand ranged from 1% to
#   46%, and the run at 46% took twice as long;
# - a core's own speed drifts: the CPU time of a fixed pure-Python loop
#   rose by 35% within an hour, with no steal.
# So each timed operation's wall time is scaled by (1 - the share stolen
# over its interval), and every time metric of a run is divided by the run's
# core slowness: the median, over the calibrations taken before each
# operation, of a fixed kernel's CPU time against CAL_REF_S. Times read as
# seconds on an unstolen core of the reference speed; with no steal and a
# core at that speed they are wall times.

CAL_REF_S = 0.004
_CAL_KEYS = [f"org{i % 50:03d}/proj:src/mod{i % 40}/file{i}.py"
             for i in range(8000)]
random.Random(0).shuffle(_CAL_KEYS)


def _cal_once() -> float:
    """CPU seconds to sort, index and look up a fixed key list: interpreter,
    allocator and cache work, like the driver's share of an operation."""
    t = time.thread_time()
    ranks = {k: i for i, k in enumerate(sorted(_CAL_KEYS))}
    x = 0
    for k in _CAL_KEYS:
        x += ranks[k] & 7
    return time.thread_time() - t


class HostLog:
    """What timer() measured about the host over one run."""

    def __init__(self):
        self.stolen: list[float] = []   # stolen share, per operation
        self.core: list[float] = []     # core slowness, per calibration

    def core_slowness(self) -> float:
        """The run's core slowness (> 1: slower than the reference)."""
        return p50(self.core)


@contextmanager
def timer(samples: list[float], host: HostLog):
    """Time the block into ``samples`` with its stolen share taken out;
    calibrate the core just before. Nothing is timed if the block raises."""
    host.core.append(p50([_cal_once() for _ in range(3)]) / CAL_REF_S)
    j = cpu_jiffies()
    t = time.perf_counter()
    yield
    dt = time.perf_counter() - t
    f = steal_share(j, cpu_jiffies())
    host.stolen.append(f)
    samples.append(dt * (1.0 - f))


# -- statistics ----------------------------------------------------------------

def p50(xs: list[float]) -> float:
    return float(np.median(xs))


def tree_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total
