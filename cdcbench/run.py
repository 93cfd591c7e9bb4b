"""CDC benchmark: one seeded workload, end-to-end metrics or a traced
per-layer run, with the outputs checked against reference answers.

    python3 cdcbench/run.py --workload ingest_compact --seed 1 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; a readable
summary goes to standard error. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
Each workload ingests a fixed number of epochs (``Workload.epochs``), so
the work measured is the same on every commit whatever its speed;
``--seconds`` is accepted for the calling harness and does not change it.
Working files (binlog cache, lakes, Ray session, span dumps) live under
``.cdcbench_work/`` in the repository root. See cdcbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_TRIALS = 3
WATCHDOG_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "events_per_s": "events/s", "epoch_s.p50": "s",
    "point_read_s.p50": "s", "snapshot_read_s.p50": "s",
    "write_amp": "ratio", "space_amp": "ratio", "peak_rss_mb": "MB",
}
# Span-timed layers, as seconds per epoch. The traced run prints all of
# them; the JSON result carries the lake ones (every workload commits
# through lake) in seconds and the workload-specific ones as shares of the
# timed loop: a layer a workload never enters then reads as a zero share,
# not as a timer stuck at 0 s.
LAYER_SPANS = {
    "actor_pool.normalize": "actor_pool.collect_block_refs",
    "lake.commit_manifest": "lake.commit_manifest",
    "lake.read_manifest": "lake.read_manifest",
    "lake.promote_epoch_dir": "lake.promote_epoch_dir",
    "db_replica.sync": "db_replica.sync",
    "dedup_state.ingest": "dedup_state.ingest",
    "cms_state.ingest": "cms_state.ingest",
    "stream_join.ingest": "stream_join.ingest",
}
SHARE_LAYERS = ["actor_pool.normalize", "actor_pool.merge_write",
                "engine.stream_exec", "engine.ingest_epoch.self",
                "db_replica.sync", "dedup_state.ingest", "cms_state.ingest",
                "stream_join.ingest"]
KERNELS = ["sha_verify", "combine_epoch", "combine_merge", "parquet_write",
           "keybloom_write", "hash_partition_ids"]
PER_LAYER_UNITS = {
    **{f"kernel.{k}_s": "s" for k in KERNELS},
    "lake.commit_manifest_s": "s", "lake.read_manifest_s": "s",
    "lake.promote_epoch_dir_s": "s",
    **{f"{k}.share": "share" for k in SHARE_LAYERS},
    "lake.bytes_written": "bytes", "lake.manifest_bytes": "bytes",
    "lake.read_manifest.calls": "count", "lake.skew.rows": "ratio",
    "lake.skew.bytes": "ratio", "lake.files_per_partition.max": "count",
    "engine.combine_ratio": "ratio", "engine.late_events": "count",
    "keybloom.files_kept_ratio": "ratio", "db_replica.rows_applied": "count",
    "feed.change_rows": "count", "dedup_state.novel_ratio": "ratio",
    "stream_join.matches": "count", "stream_join.late_dropped": "count",
    "trace.overhead": "share", "trace.epoch_coverage": "share",
}


def _patch_layers(tr) -> None:
    """Span every driver-side call into the layers the benchmark covers."""
    from e_commerce_batch_etl_pipeline_ray.cdc import (
        actor_pool,
        cms_state,
        db_replica,
        dedup_state,
        engine,
        lake,
        stream_join,
    )
    from e_commerce_batch_etl_pipeline_ray.stages import blockutil
    for owner, attr, name in [
        (engine.CDCEngine, "ingest_epoch", "engine.ingest_epoch"),
        (actor_pool.PersistentMergePool, "run_epoch", "actor_pool.run_epoch"),
        (actor_pool, "collect_block_refs", "actor_pool.collect_block_refs"),
        (blockutil, "collect_arrow", "blockutil.collect_arrow"),
        (lake, "read_manifest", "lake.read_manifest"),
        (lake, "promote_epoch_dir", "lake.promote_epoch_dir"),
        (lake, "commit_manifest", "lake.commit_manifest"),
        (lake, "point_read", "lake.point_read"),
        (lake, "read_lake", "lake.read_lake"),
        (db_replica.DBReplica, "sync", "db_replica.sync"),
        (dedup_state.IncrementalDedup, "ingest", "dedup_state.ingest"),
        (cms_state.IncrementalCMS, "ingest", "cms_state.ingest"),
        (stream_join.StreamJoin, "ingest", "stream_join.ingest"),
    ]:
        tr.patch(owner, attr, name)


def _layer_metrics(tr, m, stack, n_ep: int, loop_s: float,
                   kern: dict, wrapper_s: float) -> tuple[dict, dict]:
    """(JSON per-layer metrics, seconds per epoch of every span layer)."""
    from cdcbench import workloads as W

    c = m.counts
    roots = (["dedup_state.ingest", "cms_state.ingest", "stream_join.ingest"]
             if isinstance(stack, W.StateStack) else ["engine.ingest_epoch"])
    root_total = sum(tr.total(n) for n in roots)
    root_self = sum(tr.total_self(n) for n in roots)
    layer_s = {k: tr.total(v) / n_ep for k, v in LAYER_SPANS.items()}
    # the engine's own stream execution, not the reader's collect_arrow
    layer_s["engine.stream_exec"] = tr.total(
        "blockutil.collect_arrow", parent="engine.ingest_epoch") / n_ep
    layer_s["actor_pool.merge_write"] = (
        tr.total("actor_pool.run_epoch") / n_ep
        - layer_s["actor_pool.normalize"])
    layer_s["engine.ingest_epoch.self"] = (
        tr.total_self("engine.ingest_epoch") / n_ep)
    layer_s["uncovered"] = root_self / n_ep
    skew_rows, skew_bytes = W.epoch_skew(stack.dirs(), range(1, n_ep + 1))
    sizes = W.manifest_sizes(stack.dirs())
    out = {
        **{f"kernel.{k}_s": kern[k][0] for k in KERNELS},
        **{f"{k}_s": layer_s[k] for k in ("lake.commit_manifest",
                                          "lake.read_manifest",
                                          "lake.promote_epoch_dir")},
        **{f"{k}.share": layer_s[k] * n_ep / loop_s for k in SHARE_LAYERS},
        "lake.bytes_written": W.written_bytes(stack.dirs()) / (n_ep + 1),
        "lake.manifest_bytes": sum(sizes) / len(sizes),
        "lake.read_manifest.calls": len(tr.named("lake.read_manifest")) / n_ep,
        "lake.skew.rows": skew_rows,
        "lake.skew.bytes": skew_bytes,
        "lake.files_per_partition.max": c["files_per_partition_max"],
        "engine.combine_ratio": (c["rows_applied"] / c["events_in"]
                                 if c["events_in"] else 0.0),
        "engine.late_events": c["late_events"] / n_ep,
        "keybloom.files_kept_ratio": (c["bloom_kept"] / c["bloom_files"]
                                      if c["bloom_files"] else 0.0),
        "db_replica.rows_applied": c["replica_rows"] / n_ep,
        "feed.change_rows": c["feed_rows"] / n_ep,
        "dedup_state.novel_ratio": (c["novel"] / c["rows_in"]
                                    if c["rows_in"] else 0.0),
        "stream_join.matches": c["matches"] / n_ep,
        "stream_join.late_dropped": c["late_dropped"] / n_ep,
        "trace.overhead": len(tr.spans) * wrapper_s / loop_s,
        "trace.epoch_coverage": (1.0 - root_self / root_total
                                 if root_total else 0.0),
    }
    return out, layer_s


def run(name: str, seed: int, trace: bool) -> dict:
    import pyarrow.parquet as pq

    from cdcbench import harness, kernels, oracles
    from cdcbench import tracer as tracing
    from cdcbench import workloads as W
    from e_commerce_batch_etl_pipeline_ray.cdc.binlog import BinlogSpec

    wl = W.WORKLOADS[name]
    spec = BinlogSpec(seed=seed, **wl.binlog)
    root = os.path.join(harness.WORK, "runs", f"{name}-s{seed}-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    # materializing the binlog is not the system's work: done up front
    t = time.perf_counter()
    paths = [harness.materialize_epoch(name, spec, e)
             for e in range(wl.epochs + 1)]
    gen_s = time.perf_counter() - t
    m = W.Measure()
    tr = tracing.Tracer(f"{name}-s{seed}-{os.getpid()}") if trace else None

    t = time.perf_counter()
    harness.start_ray()
    ray_s = time.perf_counter() - t
    stack = None
    try:
        # set-up, several times: a fresh stack ingests epoch 0. The first,
        # cold, trial also starts Ray's workers and is printed but not
        # counted; setup_s is the median of the warm ones. The last trial's
        # stack is the one the timed loop continues. Ray's own start is
        # left out too: no engine change can move it, and its run-to-run
        # swing would hide set-up work the engine adds.
        trials = []
        for i in range(1 + SETUP_TRIALS):
            with harness.timer(trials, m.host):
                stack = W.make_stack(os.path.join(root, f"setup{i}"), wl,
                                     spec, m, tr)
                stack.ingest(0, paths[0])
            if i < SETUP_TRIALS:
                stack.close()
                shutil.rmtree(os.path.join(root, f"setup{i}"))
        # warm-up, untimed: the reader's first calls start Ray workers and
        # load their code, which would otherwise land on epoch 1's reads
        stack.read(0)
        m.reset_samples()

        wrapper_s = 0.0
        if tr is not None:
            wrapper_s = tracing.wrapper_cost_s()
            _patch_layers(tr)
        j_loop = harness.cpu_jiffies()
        t_loop = time.perf_counter()
        for epoch in range(1, wl.epochs + 1):
            if not stack.ingest(epoch, paths[epoch]):
                break
            stack.read(epoch)
            m.pss_mb.append(harness.session_pss_mb())
        loop_s = time.perf_counter() - t_loop
        loop_steal = harness.steal_share(j_loop, harness.cpu_jiffies())
        n_ep = len(m.ingest_s)
        if tr is not None:
            tr.restore()

        t = time.perf_counter()
        if isinstance(stack, W.StateStack):
            stack.final_check(paths[:n_ep + 1])
        else:
            stack.final_check()
        event_bytes = sum(pq.read_table(p).nbytes for p in paths[:n_ep + 1])
        core = m.host.core_slowness()   # see harness.timer
        metrics = {
            "setup_s": harness.p50(trials[1:]) / core,
            "events_per_s": m.events / sum(m.ingest_s) * core,
            "epoch_s.p50": harness.p50(m.ingest_s) / core,
            "point_read_s.p50": harness.p50(m.point_s) / core,
            "snapshot_read_s.p50": harness.p50(m.snapshot_s) / core,
            "write_amp": W.written_bytes(stack.dirs()) / event_bytes,
            "space_amp": (W.live_bytes(stack.dirs())
                          / oracles.live_snapshot_bytes(paths[:n_ep + 1])),
            "peak_rss_mb": max(m.pss_mb),
        }
        check_s = time.perf_counter() - t
        print(f"cdcbench phases: binlog {gen_s:.1f} s, ray start "
              f"{ray_s:.1f} s, set-up {sum(trials):.1f} s, loop "
              f"{loop_s:.1f} s, check {check_s:.1f} s; the host stole "
              f"{100 * loop_steal:.1f}% of the CPU time the VM demanded in "
              f"the loop",
              file=sys.stderr)
        _summary(wl, seed, m, stack, metrics, ray_s, trials, loop_s)
        units = END_TO_END_UNITS
        if tr is not None:
            kern = kernels.probe(paths[:n_ep + 1],
                                 os.path.join(root, "kernels"))
            metrics, layer_s = _layer_metrics(tr, m, stack, n_ep, loop_s,
                                              kern, wrapper_s)
            units = PER_LAYER_UNITS
            _dump_trace(tr, kern, name, seed)
            _layer_summary(kern, layer_s, metrics)
    finally:
        if stack is not None:
            stack.close()
        harness.stop_ray()
        shutil.rmtree(root, ignore_errors=True)

    return {"correct": m.failed == 0, "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def _summary(wl, seed, m, stack, metrics, ray_s, trials, loop_s) -> None:
    from cdcbench import harness
    rp = stack.replay
    print(f"cdcbench {wl.name} seed={seed}: {len(m.ingest_s)} timed epochs "
          f"in {loop_s:.1f} s; ray start {ray_s:.2f} s; cold set-up "
          f"{trials[0]:.2f} s; setup_s = median of "
          f"{[round(x, 2) for x in trials[1:]]} s", file=sys.stderr)
    h = m.host
    print(f"cdcbench host: core slowness {h.core_slowness():.3f} (median of "
          f"{len(h.core)}, range {min(h.core):.2f}-{max(h.core):.2f}); "
          f"stolen share per timed op median {harness.p50(h.stolen):.3f}, "
          f"max {max(h.stolen):.3f}. Samples below: seconds less the "
          f"stolen share, before the division by core slowness",
          file=sys.stderr)
    samples = {"epoch_s.p50": m.ingest_s, "point_read_s.p50": m.point_s,
               "snapshot_read_s.p50": m.snapshot_s}
    for k, v in metrics.items():
        n = (f"  (n={len(samples[k])}: "
             f"{' '.join(f'{x:.3g}' for x in samples[k])})"
             if k in samples else "")
        print(f"  {k:<22} {v:.6g} {END_TO_END_UNITS[k]}{n}", file=sys.stderr)
    if m.sync_s:
        print(f"  replica_sync_s.p50     {harness.p50(m.sync_s):.6g} s",
              file=sys.stderr)
    print(f"  ops_failed             {m.failed}/{m.attempted} = "
          f"{m.failed / m.attempted:.4g}", file=sys.stderr)
    print(f"  oracle replay baseline {rp.events} events in "
          f"{rp.seconds:.3f} s single-process "
          f"({rp.events / max(rp.seconds, 1e-9):.0f} events/s)",
          file=sys.stderr)


def _layer_summary(kern, layer_s, metrics) -> None:
    for k, (sec, rows, nbytes) in kern.items():
        print(f"  kernel {k:<20} {sec * 1e3:9.2f} ms/call "
              f"{rows:>8} rows {nbytes / 1e6:8.2f} MB", file=sys.stderr)
    for k in sorted(layer_s):
        print(f"  {k + '_s':<32} {layer_s[k]:.6g} s/epoch", file=sys.stderr)
    for k in sorted(metrics):
        print(f"  {k:<32} {metrics[k]:.6g} {PER_LAYER_UNITS[k]}",
              file=sys.stderr)


def _dump_trace(tr, kern, name, seed) -> None:
    from cdcbench import harness
    d = os.path.join(harness.WORK, "traces")
    os.makedirs(d, exist_ok=True)
    stem = os.path.join(d, f"{name}-s{seed}-{os.getpid()}")
    tr.dump(stem + ".spans.jsonl")
    with open(stem + ".kernels.json", "w") as f:
        json.dump({k: {"seconds": s, "rows": r, "bytes": b}
                   for k, (s, r, b) in kern.items()}, f, indent=1)
    print(f"  spans written to {stem}.spans.jsonl", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int,
                    help="accepted for the calling harness; the run length "
                    "is the workload's fixed epoch count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import e_commerce_batch_etl_pipeline_ray  # noqa: F401
    except ImportError as e:
        print(f"cdcbench: cannot import the engine package from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    from cdcbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"cdcbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def _timeout(signum, frame):
        raise TimeoutError(f"benchmark exceeded {WATCHDOG_S} s")
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(WATCHDOG_S)
    result = run(args.workload, args.seed, bool(args.trace))
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
