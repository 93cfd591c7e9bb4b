"""The workloads. Each is a closed loop with one client: a tailer
that ingests binlog epoch N+1 only after epoch N has committed, followed by
a reader that queries the freshly committed state. Inputs come from
``cdc/binlog.BinlogSpec(seed=...)``; engine knobs keep their ``CDCConfig``
defaults unless listed here, so a change to a default is measured.
"""

from __future__ import annotations

import os
import sqlite3
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from e_commerce_batch_etl_pipeline_ray.cdc import (
    cms_state,
    db_replica,
    dedup_state,
    engine,
    keybloom,
    lake,
    stream_join,
)
from e_commerce_batch_etl_pipeline_ray.cdc.binlog import BinlogSpec
from e_commerce_batch_etl_pipeline_ray.stages import blockutil
from e_commerce_batch_etl_pipeline_ray.stages.blockutil import (
    read_parquet_clean,
)
from e_commerce_batch_etl_pipeline_ray.stages.dedup import hash_partition_ids

from cdcbench import harness, oracles

HOT_REPO = "org000/proj"
KEYS_PER_READ = 32
# The reader's calls per epoch: rounds of (hot, cold, absent) point reads
# and snapshot reads. A single snapshot read per epoch leaves too few
# samples for a median that repeats from run to run.
POINT_ROUNDS = 1
SNAPSHOT_READS = 2
# The state reader's timed point reads per epoch, each a count-min estimate
# for a hot, a cold and an absent batch (StateStack._estimate): enough
# samples for a steady median at about 0.5 s an epoch.
STATE_POINT_BATCHES = 4
JOIN_WINDOW = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    binlog: dict                      # BinlogSpec fields other than seed
    epochs: int                       # timed epochs, after set-up's epoch 0
    cdc: dict = field(default_factory=dict)   # CDCConfig overrides
    replica: bool = False             # reader also syncs a SQLite replica


WORKLOADS = {w.name: w for w in [
    Workload(
        "ingest_compact",
        "sha verify, prior+delta merge and full-state rewrite dominate; "
        "state keeps growing (keyspace 5x an epoch)",
        dict(events_per_epoch=10_000, n_repos=50, paths_per_repo=1_000,
             content_chars_min=64, content_chars_max=2048),
        7, dict(backend="actor_pool", verify_sha=True, compact_interval=1),
        replica=True),
    Workload(
        "state_epochs",
        "no engine: dedup, count-min and stream-join states each run the "
        "epoch/manifest protocol, three commits per small epoch",
        dict(events_per_epoch=5_000, n_repos=50, paths_per_repo=1_000,
             hot_fraction=0.9, content_chars_min=64, content_chars_max=256),
        6),
]}


def _path(p: int) -> str:
    return f"src/mod{p % 40}/file{p}.py"


def reader_keys(spec: BinlogSpec, batch: int, kind: str
                ) -> list[tuple[str, str]]:
    """A fixed batch of hot, cold or absent keys, rotating with the batch
    number."""
    base = batch * KEYS_PER_READ
    n = range(KEYS_PER_READ)
    if kind == "hot":
        return [(HOT_REPO, _path((base + i) % spec.paths_per_repo))
                for i in n]
    if kind == "cold":
        return [(f"org{1 + (base + i) % (spec.n_repos - 1):03d}/proj",
                 _path((7 * base + 13 * i) % spec.paths_per_repo)) for i in n]
    return [(f"org{i % spec.n_repos:03d}/proj", f"absent/e{batch}/f{i}.py")
            for i in n]


class Measure:
    """Samples and operation counts of one run."""

    def __init__(self):
        self.ingest_s: list[float] = []
        self.events = 0
        self.point_s: list[float] = []
        self.snapshot_s: list[float] = []
        self.sync_s: list[float] = []
        self.pss_mb: list[float] = []
        self.host = harness.HostLog()      # never reset: one run's host
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()   # per-layer counters

    def op(self, samples: list | None, fn, check=None):
        """Run one attempted operation; time it into ``samples`` (see
        harness.timer). An exception or a failed ``check`` counts as a
        failed operation."""
        self.attempted += 1
        try:
            with (harness.timer(samples, self.host)
                  if samples is not None else nullcontext()):
                out = fn()
        except Exception:  # noqa: BLE001 - any raise is a failed operation
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if check is not None and not check(out):
            self.failed += 1
            print(f"wrong answer from {getattr(fn, '__name__', fn)}",
                  file=sys.stderr)
        return out

    def reset_samples(self) -> None:
        for s in (self.ingest_s, self.point_s, self.snapshot_s, self.sync_s,
                  self.pss_mb):
            s.clear()
        self.events = 0
        self.counts.clear()


# -- lake workloads ------------------------------------------------------------

class LakeStack:
    """CDCEngine tailer plus reader (point reads, snapshot count and, if
    the workload asks, a SQLite replica sync) over one lake."""

    def __init__(self, root: str, wl: Workload, spec: BinlogSpec,
                 m: Measure, tracer=None):
        self.wl, self.spec, self.m = wl, spec, m
        self.trace = tracer is not None
        self.quiet = tracer.paused if tracer else nullcontext
        self.lake_dir = os.path.join(root, "lake")
        self.eng = engine.CDCEngine(engine.CDCConfig(lake_dir=self.lake_dir,
                                                     **wl.cdc))
        # the replica syncs every epoch, in the traced run only: a sync
        # costs several times an epoch's ingest, and its time is a
        # per-layer metric, not an end-to-end one
        self.replica = (db_replica.DBReplica(
            self.lake_dir, os.path.join(root, "replica.sqlite"))
            if wl.replica and self.trace else None)
        self.replay = oracles.Replay()

    def dirs(self) -> list[str]:
        return [self.lake_dir]

    def ingest(self, epoch: int, path: str) -> bool:
        ds = read_parquet_clean(path)
        st = self.m.op(self.m.ingest_s, lambda: self.eng.ingest_epoch(
            ds, epoch, events_in=self.spec.events_per_epoch))
        self.replay.apply(path)
        if st is None:
            return False
        self.m.events += self.spec.events_per_epoch
        if self.trace:
            self.m.counts["rows_applied"] += st.rows_applied
            self.m.counts["events_in"] += st.events_in
            self.m.counts["late_events"] += sum(
                r.get("late_events", 0) for r in st.lineage)
        return True

    def read(self, epoch: int) -> None:
        m, rp = self.m, self.replay
        for r in range(POINT_ROUNDS):
            for kind in ("hot", "cold", "absent"):
                keys = reader_keys(self.spec, epoch * POINT_ROUNDS + r, kind)
                m.op(m.point_s,
                     lambda: blockutil.collect_arrow(
                         lake.point_read(self.lake_dir, keys)),
                     lambda t: oracles.point_read_ok(rp, keys, t))
                if self.trace:
                    with self.quiet():
                        self._bloom_counts(keys)
        if self.replica is not None:
            r = m.op(m.sync_s, self.replica.sync,
                     lambda r: self._replica_count() == rp.live_count())
            if self.trace and r is not None:
                m.counts["replica_rows"] += r["applied"] + r["deleted"]
                with self.quiet():
                    self._feed_counts()
        for _ in range(SNAPSHOT_READS):
            m.op(m.snapshot_s,
                 lambda: lake.read_lake(self.lake_dir).count(),
                 lambda n: n == rp.live_count())
        if self.trace:
            with self.quiet():
                _count_files(m, self.dirs())

    def _replica_count(self) -> int:
        con = sqlite3.connect(self.replica.db_path)
        try:
            return con.execute('SELECT COUNT(*) FROM "replica"').fetchone()[0]
        finally:
            con.close()

    def _bloom_counts(self, keys) -> None:
        """Files point_read would open for ``keys`` before and after the
        key-bloom pruning (same routing as lake.point_read)."""
        man = lake.read_manifest(self.lake_dir,
                                 lake.last_committed_epoch(self.lake_dir))
        kt = pa.table({"repo": [k[0] for k in keys],
                       "path": [k[1] for k in keys]})
        pids = hash_partition_ids(kt, ["repo", "path"],
                                  man["num_partitions"])
        by_pid: dict[int, list] = {}
        for k, pid in zip(keys, pids):
            by_pid.setdefault(int(pid), []).append(k)
        for pid, ks in by_pid.items():
            files = _rec_files(man["partitions"].get(str(pid)))
            kept = keybloom.prune_files(files, [k[0] for k in ks],
                                        [k[1] for k in ks])
            self.m.counts["bloom_files"] += len(files)
            self.m.counts["bloom_kept"] += len(kept)

    def _feed_counts(self) -> None:
        from e_commerce_batch_etl_pipeline_ray.cdc import feed
        last = lake.last_committed_epoch(self.lake_dir)
        self.m.counts["feed_rows"] += feed.change_feed(
            self.lake_dir, last, last).count()
        self.m.counts["syncs"] += 1

    def final_check(self) -> None:
        m, rp = self.m, self.replay
        m.op(None, lambda: blockutil.collect_arrow(lake.read_lake(
            self.lake_dir, include_tombstones=True,
            columns=["repo", "path", "lsn", "content_sha256", "_deleted"])),
             lambda t: oracles.snapshot_rows(t) == rp.rows())
        if self.replica is not None:
            m.op(None, self.replica.read,
                 lambda t: oracles.replica_ok(rp, t))

    def close(self) -> None:
        if self.eng._pool is not None:
            self.eng._pool.shutdown()


# -- epoch-state workload ------------------------------------------------------

def _docs(t: pa.Table) -> pa.Table:
    t = t.filter(pc.is_valid(t["content"]))
    return pa.table({"doc_id": t["lsn"], "text": t["content"]})


def _path_ids(t: pa.Table) -> pa.Table:
    ids = pc.struct_field(pc.extract_regex(t["path"],
                                           r"file(?P<id>\d+)\.py"), [0])
    return pa.table({"repo": t["repo"], "path_id": pc.cast(ids, pa.int64())})


def _side(op: str):
    def _fn(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["op"], op))
    return _fn


class StateStack:
    """Incremental dedup, count-min and stream-join states fed by the same
    epochs. Reader: count-min point estimates and a read of the epoch's
    novel documents."""

    def __init__(self, root: str, wl: Workload, spec: BinlogSpec,
                 m: Measure, tracer=None):
        self.spec, self.m = spec, m
        self.trace = tracer is not None
        self.quiet = tracer.paused if tracer else nullcontext
        self.dedup = dedup_state.IncrementalDedup(dedup_state.IncDedupConfig(
            state_dir=os.path.join(root, "dedup")))
        self.cms = cms_state.IncrementalCMS(cms_state.IncCMSConfig(
            state_dir=os.path.join(root, "cms"), col="path_id", by=["repo"]))
        self.join = stream_join.StreamJoin(stream_join.StreamJoinConfig(
            state_dir=os.path.join(root, "join"), window=JOIN_WINDOW))
        self.freq: Counter = Counter()
        self.novel_rows: dict[int, int] = {}
        self.replay = oracles.Replay()

    def dirs(self) -> list[str]:
        return [self.dedup.cfg.state_dir, self.cms.cfg.state_dir,
                self.join.cfg.state_dir]

    def ingest(self, epoch: int, path: str) -> bool:
        m = self.m
        ds = read_parquet_clean(path)
        fmt = dict(batch_format="pyarrow")

        def _all_states():
            # one operation per epoch: from the first ingest to the last
            # state's commit, the time until every state is fresh
            return (self.dedup.ingest(ds.map_batches(_docs, **fmt), epoch),
                    self.cms.ingest(ds.map_batches(_path_ids, **fmt), epoch),
                    self.join.ingest(ds.map_batches(_side("I"), **fmt),
                                     ds.map_batches(_side("U"), **fmt),
                                     epoch))
        out = m.op(m.ingest_s, _all_states)
        self.replay.apply(path)
        ids = _path_ids(pq.read_table(path, columns=["repo", "path"]))
        self.freq.update(zip(ids["repo"].to_pylist(),
                             ids["path_id"].to_pylist()))
        if out is None:
            return False
        md, _, mj = out
        self.novel_rows[epoch] = md["novel_rows"]
        m.events += self.spec.events_per_epoch
        if self.trace:
            m.counts["rows_in"] += md["rows_in"]
            m.counts["novel"] += md["novel_rows"]
            m.counts["matches"] += mj["matches"]
            m.counts["late_dropped"] += mj["late_dropped"]
        return True

    def read(self, epoch: int) -> None:
        m = self.m
        for b in range(STATE_POINT_BATCHES):
            batch = epoch * STATE_POINT_BATCHES + b
            self._estimate([reader_keys(self.spec, batch, kind)
                            for kind in ("hot", "cold", "absent")])
        for _ in range(SNAPSHOT_READS):
            m.op(m.snapshot_s,
                 lambda: blockutil.collect_arrow(self.dedup.novel(epoch)),
                 lambda t: t.num_rows == self.novel_rows.get(epoch))
        if self.trace:
            with self.quiet():
                _count_files(m, self.dirs())

    def _estimate(self, batches: list[list[tuple[str, str]]]) -> None:
        """Count-min point estimates for several batches of keys, timed as
        one read: a single estimate (~30 ms) spans too few of the 10 ms
        clock ticks that harness.timer's steal share is counted in. Each
        batch is estimated within the repo of its first key; an estimate
        must never be below the true count."""
        calls = []
        for keys in batches:
            repo = keys[0][0]
            ids = np.array([int(p.rsplit("file", 1)[1].split(".")[0])
                            if "file" in p else 10 ** 9 + i
                            for i, (_, p) in enumerate(keys)], np.int64)
            truth = np.array([self.freq[(repo, int(i))] for i in ids])
            calls.append((repo, ids, truth))
        self.m.op(self.m.point_s,
                  lambda: [self.cms.estimate(ids, group=(repo,))
                           for repo, ids, _ in calls],
                  lambda ests: all(bool((e >= t).all())
                                   for e, (_, _, t) in zip(ests, calls)))

    def final_check(self, epoch_paths: list[str]) -> None:
        import duckdb
        m = self.m
        con = duckdb.connect()
        try:
            m.op(None, self._novel_by_epoch,
                 lambda got: got == oracles.dedup_expected(con, epoch_paths))
            m.op(None, self.cms.counters, lambda t: Counter({
                (r, row, idx): c for r, row, idx, c in zip(
                    *(t[c].to_pylist()
                      for c in ("repo", "row", "idx", "cnt")))})
                 == oracles.cms_expected(con, epoch_paths,
                                         self.cms.cfg.d, self.cms.cfg.w))
            m.op(None, self._matches,
                 lambda got: got == oracles.join_expected(
                     con, epoch_paths, JOIN_WINDOW,
                     self.join.cfg.lateness))
        finally:
            con.close()

    def _novel_by_epoch(self) -> Counter:
        d = self.dedup.cfg.state_dir
        out: Counter = Counter()
        for e in range(lake.last_committed_epoch(d) + 1):
            marker = f"epoch={e:04d}{os.sep}"
            for rec in lake.read_manifest(d, e)["partitions"].values():
                f = rec.get("novel_file")
                if f and marker in f:
                    out.update((e, i) for i in
                               pq.read_table(f)["doc_id"].to_pylist())
        return out

    def _matches(self) -> Counter:
        d = self.join.cfg.state_dir
        man = lake.read_manifest(d, lake.last_committed_epoch(d))
        out: Counter = Counter()
        cols = ["repo", "path", "l_lsn", "r_lsn", "l_commit", "r_commit"]
        for f in sorted({f for r in man["partitions"].values()
                         for f in r.get("deltas", [])}):
            t = pq.read_table(f, columns=cols)
            out.update(zip(*(t[c].to_pylist() for c in cols)))
        return out

    def close(self) -> None:
        pass


def _rec_files(rec: dict | None) -> list[str]:
    if not rec:
        return []
    return ([rec["file"]] if rec.get("file") else []) + \
        list(rec.get("deltas", []))


def _count_files(m: Measure, dirs: list[str]) -> None:
    """Most files any partition of the latest manifests spans."""
    for d in dirs:
        parts = lake.read_manifest(
            d, lake.last_committed_epoch(d))["partitions"].values()
        m.counts["files_per_partition_max"] = max(
            m.counts["files_per_partition_max"],
            max(len(_rec_files(r)) for r in parts))


def make_stack(root: str, wl: Workload, spec: BinlogSpec, m: Measure,
               tracer=None):
    cls = StateStack if wl.name == "state_epochs" else LakeStack
    return cls(root, wl, spec, m, tracer)


# -- storage accounting --------------------------------------------------------

def written_bytes(dirs: list[str]) -> int:
    """Bytes every committed epoch wrote: its epoch dir (data files, bloom
    sidecars, novel/match outputs) plus its manifest."""
    total = 0
    for d in dirs:
        for e in range(lake.last_committed_epoch(d) + 1):
            total += harness.tree_bytes(lake.epoch_dir(d, e))
            total += os.path.getsize(lake._manifest_path(d, e))
    return total


def live_bytes(dirs: list[str]) -> int:
    """Bytes of the partition state the latest manifests reference (base
    file, delta files and their bloom sidecars) — what is left after a
    vacuum that keeps only the latest epoch."""
    total = 0
    for d in dirs:
        man = lake.read_manifest(d, lake.last_committed_epoch(d))
        for rec in man["partitions"].values():
            for f in _rec_files(rec):
                total += os.path.getsize(f)
                side = keybloom.sidecar_path(f)
                if os.path.exists(side):
                    total += os.path.getsize(side)
    return total


def manifest_sizes(dirs: list[str]) -> list[int]:
    return [os.path.getsize(lake._manifest_path(d, e)) for d in dirs
            for e in range(lake.last_committed_epoch(d) + 1)]


def epoch_skew(dirs: list[str], epochs: range) -> tuple[float, float]:
    """Median over (dir, epoch) of max / median per-partition rows and
    bytes written by that epoch."""
    rows_sk, bytes_sk = [], []
    for d in dirs:
        for e in epochs:
            marker = f"epoch={e:04d}{os.sep}"
            recs = [r for r in lake.read_manifest(d, e)["partitions"].values()
                    if any(marker in f for f in _rec_files(r))]
            rows = [r.get("rows_applied", r.get("rows_total", 0))
                    for r in recs]
            byts = [r.get("bytes_written", 0) for r in recs]
            if rows and np.median(rows) > 0:
                rows_sk.append(max(rows) / np.median(rows))
            if byts and np.median(byts) > 0:
                bytes_sk.append(max(byts) / np.median(byts))
    return (float(np.median(rows_sk)) if rows_sk else 0.0,
            float(np.median(bytes_sk)) if bytes_sk else 0.0)
