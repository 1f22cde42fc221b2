"""Launch ``ClusterServer`` + ``ShardCoordinator`` in a process of their own.

Started by the load generator with its stdin as a pipe.  Prints one JSON
line — ``{"port", "server_pid", "worker_pids"}`` — once every shard answered
its ping, then serves until stdin reaches end-of-file (the load generator
closed it, or died) or SIGTERM/SIGINT arrives, and shuts down cleanly:
server closed, workers sent ``shutdown`` and joined, traces flushed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

N_SHARDS = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--factory-kwargs", required=True, help="JSON kwargs for factory:build_engine")
    parser.add_argument("--durability-root", required=True)
    parser.add_argument("--fsync", required=True, help="the shards' WAL fsync policy")
    parser.add_argument("--fsync-every", type=int, required=True)
    parser.add_argument("--trace-path", default=None, help="trace file prefix; enables tracing")
    args = parser.parse_args()

    # Shard workers are forked from here and inherit this: a Ctrl-C aimed at
    # the whole process group must not kill them under the coordinator, which
    # shuts them down itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.cluster import EngineSpec, ShardCoordinator
    from repro.cluster.server import ClusterServer

    tracer = None
    if args.trace_path:
        import tracer as tracing

        tracer = tracing.install(Path(args.trace_path))

    spec = EngineSpec("factory:build_engine", json.loads(args.factory_kwargs))
    coordinator = ShardCoordinator(
        spec,
        N_SHARDS,
        placement="round-robin",
        durability_root=args.durability_root,
        durability_fsync=args.fsync,
        durability_fsync_every=args.fsync_every,
    )

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        # End-of-file on stdin means the load generator is gone.
        loop.add_reader(sys.stdin.fileno(), lambda: os.read(sys.stdin.fileno(), 4096) or stop.set())
        async with ClusterServer(coordinator) as server:
            ready = {
                "port": server.port,
                "server_pid": os.getpid(),
                "worker_pids": sorted(child.pid for child in multiprocessing.active_children()),
            }
            print(json.dumps(ready), flush=True)
            await stop.wait()
        loop.remove_reader(sys.stdin.fileno())

    coordinator.start()
    try:
        asyncio.run(serve())
    finally:
        coordinator.close()
        if tracer is not None:
            tracer.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
