"""Cluster job entry point for the extraction pipeline.

On a real multi-node cluster:

    ray job submit --working-dir . -- \\
        python -m webtext.jobs.run_job \\
        --input  <storage>/corpus \\
        --output <storage>/extracted \\
        --shards-per-round 64 --batch-size 128 [--rebalance]

The job is resumable: re-submitting with the same --output skips every
shard already committed to the manifest (webtext.sources.manifest), so a
preempted job continues from the last committed round.  In this sandbox
the same module runs single-node (RAY_ADDRESS=local).

Only this entry point owns a Ray session (guarded — if the job runner
already initialised Ray, it is reused).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="webtext extraction job (resumable)")
    parser.add_argument("--input", required=True,
                        help="input corpus directory (parquet fragments)")
    parser.add_argument("--output", required=True,
                        help="output directory (rounds + commit manifest)")
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--concurrency", type=int, default=None,
                        help="cap on concurrent extraction tasks "
                        "(default: no cap; a cap stops operator fusion)")
    parser.add_argument("--shards-per-round", type=int, default=16)
    parser.add_argument("--rebalance", action="store_true",
                        help="salted-domain repartition before classify")
    parser.add_argument("--no-resume", action="store_true",
                        help="reprocess shards even if committed")
    parser.add_argument("--num-cpus", type=int, default=None,
                        help="local mode only: cap the Ray session CPUs")
    args = parser.parse_args(argv)

    import ray

    if not ray.is_initialized():
        init_kwargs = {"include_dashboard": False}
        if args.num_cpus:
            init_kwargs["num_cpus"] = args.num_cpus
            init_kwargs["address"] = "local"
        ray.init(**init_kwargs)

    from webtext.pipelines import run_extraction

    totals = run_extraction(
        args.input, args.output,
        batch_size=args.batch_size,
        concurrency=args.concurrency,
        shards_per_round=args.shards_per_round,
        resume=not args.no_resume,
        rebalance=args.rebalance,
    )
    print(json.dumps(totals))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
