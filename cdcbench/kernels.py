"""Ray-free kernel probe: the ingest path's per-partition kernels timed on
fixed inputs cut from the seeded binlog, so kernel cost can be told apart
from framework (Ray Data, actor, scheduling) overhead.

Inputs: ``epoch`` is the last binlog epoch of a run in the lake layout
(``op`` turned into ``_deleted``); ``state`` is the LWW state of every
epoch before it, the size the lake reaches by the end of a run. Each kernel
is timed as the median of ``REPS`` calls, and rows and Arrow bytes per
call are reported beside it. The partition count is ``CDCConfig``'s
default, so a change to that default is measured here too.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

REPS = 5


def _lake_layout(t: pa.Table) -> pa.Table:
    dead = pc.equal(t["op"], "D")
    return t.drop_columns(["op"]).append_column("_deleted", dead)


def _median_time(fn) -> float:
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def probe(epoch_paths: list[str], scratch: str) -> dict:
    """``epoch_paths``: parquet files of every binlog epoch of a run.
    Returns {kernel: (seconds per call, rows per call, bytes per call)}."""
    from e_commerce_batch_etl_pipeline_ray.cdc import keybloom
    from e_commerce_batch_etl_pipeline_ray.cdc.engine import (
        KEY,
        CDCConfig,
        _verify_content_sha,
    )
    from e_commerce_batch_etl_pipeline_ray.stages.dedup import (
        combine_keep_extreme,
        hash_partition_ids,
    )

    num_partitions = CDCConfig(lake_dir="").num_partitions
    tabs = [_lake_layout(pq.read_table(p)) for p in epoch_paths]
    schema = pa.unify_schemas([t.schema for t in tabs])
    tabs = [t.select([n for n in schema.names if n in t.column_names])
            for t in tabs]
    raw_epoch = pq.read_table(epoch_paths[-1])
    epoch = tabs[-1]
    state = combine_keep_extreme(
        pa.concat_tables(tabs[:-1], promote_options="default"),
        KEY, ["lsn"], descending=True)
    delta = combine_keep_extreme(epoch, KEY, ["lsn"], descending=True)
    merge_in = pa.concat_tables([state, delta], promote_options="default")

    os.makedirs(scratch, exist_ok=True)
    pq_path = os.path.join(scratch, "part-00000.parquet")
    out = {
        "sha_verify": (lambda: _verify_content_sha(raw_epoch), raw_epoch),
        "combine_epoch": (lambda: combine_keep_extreme(
            epoch, KEY, ["lsn"], descending=True), epoch),
        "combine_merge": (lambda: combine_keep_extreme(
            merge_in, KEY, ["lsn"], descending=True), merge_in),
        "hash_partition_ids": (lambda: hash_partition_ids(
            delta, KEY, num_partitions), delta),
        "parquet_write": (lambda: pq.write_table(state, pq_path), state),
        "keybloom_write": (lambda: keybloom.write_sidecar(
            pq_path, state, 0.01), state),
    }
    result = {name: (_median_time(fn), t.num_rows, t.nbytes)
              for name, (fn, t) in out.items()}
    shutil.rmtree(scratch, ignore_errors=True)
    return result
