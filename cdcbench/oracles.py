"""Reference answers the benchmark checks the engine's outputs against.

Lake workloads use the single-process replay oracle (``cdc/oracle.replay``
semantics: max LSN per key wins, deletes stay as tombstones), applied one
epoch at a time on (repo, path, lsn, op, content_sha256) only — the content
column is never loaded, which keeps the check cheap. The epoch-state
workload is checked against DuckDB over the same binlog files, in the
shapes of the q110 (incremental dedup), q133 (incremental count-min) and
q164 (stream interval join) oracles.
"""

from __future__ import annotations

import time
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

ORACLE_COLS = ["lsn", "op", "repo", "path", "content_sha256"]


class Replay:
    """Incremental replay of the binlog, epoch by epoch. Applying epochs
    in any order gives the same state (LWW by LSN; equal LSNs carry equal
    payloads), so the incremental form equals ``cdc/oracle.replay`` over
    the concatenated epochs."""

    def __init__(self):
        self.state: dict[tuple[str, str], tuple[int, str, str | None]] = {}
        self.seconds = 0.0
        self.events = 0

    def apply(self, path: str) -> None:
        t = time.perf_counter()
        cols = pq.read_table(path, columns=ORACLE_COLS).to_pydict()
        st = self.state
        for lsn, op, repo, p, sha in zip(cols["lsn"], cols["op"],
                                         cols["repo"], cols["path"],
                                         cols["content_sha256"]):
            cur = st.get((repo, p))
            if cur is None or lsn >= cur[0]:
                st[(repo, p)] = (lsn, op, sha)
        self.events += len(cols["lsn"])
        self.seconds += time.perf_counter() - t

    def live_count(self) -> int:
        return sum(1 for v in self.state.values() if v[1] != "D")

    def live(self, key) -> tuple[int, str | None] | None:
        v = self.state.get(key)
        return None if v is None or v[1] == "D" else (v[0], v[2])

    def rows(self) -> set[tuple]:
        """(repo, path, lsn, content_sha256, live) for every key, tombstones
        included."""
        return {(r, p, lsn, sha, op != "D")
                for (r, p), (lsn, op, sha) in self.state.items()}


def live_snapshot_bytes(paths: list[str]) -> int:
    """Arrow bytes of the live table the binlog epochs produce: the winning
    row of every live key, all columns but ``op``. Winners are found on the
    key columns alone (lsn descending, first row per key), then only the
    winning rows are loaded, so memory stays at the size of the table."""
    import numpy as np
    import pyarrow.compute as pc
    keys = []
    for e, p in enumerate(paths):
        t = pq.read_table(p, columns=["repo", "path", "lsn", "op"])
        keys.append(t.append_column("_e", pa.array(
            np.full(t.num_rows, e, np.int32))).append_column(
            "_i", pa.array(np.arange(t.num_rows))))
    k = pa.concat_tables(keys).sort_by([
        ("repo", "ascending"), ("path", "ascending"), ("lsn", "descending")])
    fused = pc.binary_join_element_wise(
        k["repo"], k["path"], "\x00").combine_chunks()
    first = pc.not_equal(fused.slice(1), fused.slice(0, len(fused) - 1))
    k = k.filter(pa.concat_arrays([pa.array([True]), first]))
    k = k.filter(pc.not_equal(k["op"], "D"))
    e_col, i_col = k["_e"].to_numpy(), k["_i"].to_numpy()
    parts = [pq.read_table(p).drop_columns(["op"]).take(i_col[e_col == e])
             for e, p in enumerate(paths)]
    return pa.concat_tables(parts, promote_options="default").nbytes


def snapshot_rows(t: pa.Table) -> set[tuple]:
    d = t.select(["repo", "path", "lsn", "content_sha256",
                  "_deleted"]).to_pydict()
    return {(r, p, lsn, sha, not dead) for r, p, lsn, sha, dead in zip(
        d["repo"], d["path"], d["lsn"], d["content_sha256"], d["_deleted"])}


def point_read_ok(replay: Replay, keys: list[tuple[str, str]],
                  got: pa.Table) -> bool:
    want = {k: replay.live(k) for k in keys}
    want = {k: v for k, v in want.items() if v is not None}
    if got.num_rows == 0:
        return not want
    d = got.select(["repo", "path", "lsn", "content_sha256"]).to_pydict()
    have = {(r, p): (lsn, sha) for r, p, lsn, sha in zip(
        d["repo"], d["path"], d["lsn"], d["content_sha256"])}
    return have == want and len(have) == got.num_rows


def replica_ok(replay: Replay, t: pa.Table) -> bool:
    d = t.to_pydict()
    have = {(r, p): (lsn, sha) for r, p, lsn, sha in zip(
        d["repo"], d["path"], d["lsn"], d["content_sha256"])}
    want = {k: (v[0], v[2]) for k, v in replay.state.items() if v[1] != "D"}
    return have == want and len(have) == t.num_rows


# -- epoch-state workload (DuckDB) -------------------------------------------

def _events_sql(paths: list[str]) -> str:
    arms = [f"SELECT {e} AS epoch, lsn, op, repo, path, commit, content "
            f"FROM read_parquet('{p}')" for e, p in enumerate(paths)]
    return "\nUNION ALL ".join(arms)


def dedup_expected(con, paths: list[str]) -> Counter:
    """q110 shape: an epoch's novel documents are its lowest-id row per
    text, for texts no earlier epoch carried (doc_id = lsn, text =
    non-null content)."""
    rows = con.execute(f"""
        WITH ev AS ({_events_sql(paths)}),
        d AS (SELECT epoch, lsn AS doc_id, content AS text FROM ev
              WHERE content IS NOT NULL),
        first AS (SELECT text, min(epoch) AS e0 FROM d GROUP BY text)
        SELECT d.epoch, min(d.doc_id) FROM d JOIN first
          ON d.text = first.text AND d.epoch = first.e0
        GROUP BY d.epoch, d.text""").fetchall()
    return Counter(rows)


def cms_expected(con, paths: list[str], d: int, w: int) -> Counter:
    """q133 shape: the summed counter state equals the one-shot q121
    count over every event (path id per repo)."""
    from e_commerce_batch_etl_pipeline_ray.stages import sketch
    arms = "\nUNION ALL ".join(
        f"SELECT repo, {j} AS row, "
        f"{sketch.cms_hash_sql('path_id', j, w)} AS idx FROM ev2"
        for j in range(d))
    rows = con.execute(f"""
        WITH ev AS ({_events_sql(paths)}),
        ev2 AS (SELECT repo, CAST(regexp_extract(path, 'file(\\d+)\\.py', 1)
                                  AS BIGINT) AS path_id FROM ev),
        h AS ({arms})
        SELECT repo, row, idx, COUNT(*) FROM h
        GROUP BY repo, row, idx""").fetchall()
    return Counter({(r, row, idx): c for r, row, idx, c in rows})


def join_expected(con, paths: list[str], window: int,
                  lateness: int) -> Counter:
    """q164 shape, generalised to a continuous stream: a side's arrival is
    accepted iff its lsn is at or above that side's watermark after the
    previous epoch (running max of per-epoch max lsn, minus lateness);
    the emitted set is the interval join of the accepted rows, left =
    inserts, right = updates."""
    rows = con.execute(f"""
        WITH ev AS ({_events_sql(paths)}),
        s AS (SELECT epoch, CASE op WHEN 'I' THEN 'L' ELSE 'R' END AS side,
                     repo, path, lsn, commit FROM ev WHERE op IN ('I', 'U')),
        m AS (SELECT side, epoch, max(lsn) - {lateness} AS mx
              FROM s GROUP BY side, epoch),
        w AS (SELECT side, epoch, max(mx) OVER (
                PARTITION BY side ORDER BY epoch
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
              FROM m),
        acc AS (SELECT s.* FROM s JOIN w USING (side, epoch)
                WHERE w.wm IS NULL OR s.lsn >= w.wm)
        SELECT l.repo, l.path, l.lsn, r.lsn, l.commit, r.commit
        FROM acc l JOIN acc r ON l.repo = r.repo AND l.path = r.path
        WHERE l.side = 'L' AND r.side = 'R'
          AND abs(l.lsn - r.lsn) <= {window}""").fetchall()
    return Counter(rows)
