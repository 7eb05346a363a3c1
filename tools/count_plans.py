"""Count what each query costs Ray: wall time, Ray Data executions,
all-to-all operators by kind, and driver-submitted tasks.

Usage: python tools/count_plans.py [sf_dir] [query ...]

With no query names it counts the tpch family: every registered query
whose ``__ray_entry__`` wrapper imports ``webtext.pipelines.tpch``.  Ray
is started with 4 CPUs.  Each query runs once and its result is read
back to pandas, as ``tools/check_queries.py`` does; the counts cover
both.  An execution is one ``StreamingExecutor.execute`` call; an
all-to-all operator is a physical operator of Ray Data's
``AllToAllOperator`` or hash-shuffle classes in an executed plan; a
task is one ``RemoteFunction._remote`` call in the driver process
(Ray Data's own map and shuffle tasks, and webtext's raw exchange
tasks)."""

from __future__ import annotations

import collections
import contextlib
import inspect
import sys
import time


def tpch_family(entrymod) -> list[str]:
    """The registered queries whose wrapper imports the tpch module."""
    names = []
    for name, fn in entrymod.queries().items():
        wrappers = [getattr(entrymod, n) for n in fn.__code__.co_names
                    if inspect.isfunction(getattr(entrymod, n, None))]
        if any("pipelines.tpch import" in inspect.getsource(w)
               for w in wrappers):
            names.append(name)
    return names


def all_to_all_kinds(dag) -> list[str]:
    """The names of the all-to-all operators in one executed plan."""
    from ray.data._internal.execution.operators.base_physical_operator \
        import AllToAllOperator
    from ray.data._internal.execution.operators.hash_shuffle import (
        HashShufflingOperatorBase)

    kinds, stack, seen = [], [dag], set()
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if isinstance(op, (AllToAllOperator, HashShufflingOperatorBase)):
            kinds.append(op.name)
        stack.extend(op.input_dependencies)
    return kinds


@contextlib.contextmanager
def counting():
    """Yields a Counter that collects ``executions``, ``tasks`` and one
    ``a2a:<kind>`` entry per all-to-all operator while the block runs."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)
    from ray.remote_function import RemoteFunction

    counts = collections.Counter()
    execute, remote = StreamingExecutor.execute, RemoteFunction._remote

    def counted_execute(self, dag, *args, **kw):
        counts["executions"] += 1
        counts.update(f"a2a:{k}" for k in all_to_all_kinds(dag))
        return execute(self, dag, *args, **kw)

    def counted_remote(self, *args, **kw):
        counts["tasks"] += 1
        return remote(self, *args, **kw)

    StreamingExecutor.execute = counted_execute
    RemoteFunction._remote = counted_remote
    try:
        yield counts
    finally:
        StreamingExecutor.execute = execute
        RemoteFunction._remote = remote


def count_query(fn, sf_dir: str) -> tuple[float, collections.Counter]:
    """(wall seconds, counts) of one query run and read back."""
    import pandas as pd

    t0 = time.perf_counter()
    with counting() as counts:
        out = fn(sf_dir)
        if not isinstance(out, pd.DataFrame):
            out.to_pandas()
    return time.perf_counter() - t0, counts


def main(sf_dir: str, only: list[str] | None = None) -> int:
    import ray

    sys.path.insert(0, ".")
    import __ray_entry__ as entrymod

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    qs = entrymod.queries()
    names = only or tpch_family(entrymod)
    unknown = [n for n in names if n not in qs]
    if unknown:
        print(f"unknown query name(s): {unknown}")
        return 1
    print(f"{'query':28} {'wall_s':>7} {'execs':>5} {'a2a':>4} "
          f"{'tasks':>6}  all-to-all by kind")
    total, wall = collections.Counter(), 0.0
    for name in names:
        secs, counts = count_query(qs[name], sf_dir)
        kinds = {k[4:]: v for k, v in sorted(counts.items())
                 if k.startswith("a2a:")}
        n_a2a = sum(kinds.values())
        print(f"{name:28} {secs:7.2f} {counts['executions']:5d} "
              f"{n_a2a:4d} {counts['tasks']:6d}  "
              f"{' '.join(f'{k}={v}' for k, v in kinds.items())}")
        total.update(counts)
        total["queries with a2a"] += n_a2a > 0
        wall += secs
    kinds = {k[4:]: v for k, v in sorted(total.items())
             if k.startswith("a2a:")}
    print(f"{'TOTAL':28} {wall:7.2f} {total['executions']:5d} "
          f"{sum(kinds.values()):4d} {total['tasks']:6d}  "
          f"{' '.join(f'{k}={v}' for k, v in kinds.items())} "
          f"({total['queries with a2a']} of {len(names)} queries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1
                  else "/root/testdata/sf0.001", sys.argv[2:] or None))
