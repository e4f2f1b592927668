"""``python -m repro.serving`` -- launch the HTTP serving layer.

Single-engine mode (one durable session on one store directory)::

    python -m repro.serving --store /var/lib/fleet --port 8080
    python -m repro.serving --store /var/lib/fresh --period 24 --port 8080
    python -m repro.serving --store /var/lib/fresh --spec engine_spec.json

Sharded mode (front a whole cluster; workers are spawned per the spec)::

    python -m repro.serving --cluster cluster_spec.json --port 8080

The process prints one ready line (``repro-serving (kernel: native)
(vector: avx512f) ready on http://HOST:PORT`` -- which body its fleet
kernels, or with ``--cluster`` its workers', run and which ISA clone of
the native routine the CPU dispatched to; port last)
once the socket is bound, serves until SIGTERM/SIGINT, then drains
in-flight requests, checkpoints, releases the store lease, and exits 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.serving.app import EngineBackend, RouterBackend, ServingApp
from repro.serving.server import ServingServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Serve a streaming decomposition engine over HTTP.",
    )
    backend = parser.add_mutually_exclusive_group(required=True)
    backend.add_argument(
        "--store",
        metavar="DIR",
        help="checkpoint-store directory for a single durable engine "
        "session (created/recovered; the server holds its lease)",
    )
    backend.add_argument(
        "--cluster",
        metavar="SPEC.json",
        help="ClusterSpec JSON file: serve a sharded tier instead",
    )
    parser.add_argument(
        "--spec",
        metavar="SPEC.json",
        help="EngineSpec JSON for a *fresh* --store (an existing store "
        "recovers from its manifest and must not pass one)",
    )
    parser.add_argument(
        "--period",
        type=int,
        metavar="N",
        help="shorthand for a fresh --store: a OneShotSTL engine with "
        "this period (mutually exclusive with --spec)",
    )
    parser.add_argument(
        "--recovery",
        default="strict",
        choices=("strict", "truncate", "quarantine"),
        help="recovery policy when opening an existing --store",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=32,
        help="requests handled concurrently before 503 backpressure",
    )
    parser.add_argument(
        "--anomaly-ring",
        type=int,
        default=4096,
        help="recent anomalies retained for GET /v1/anomalies",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also checkpoint periodically while serving",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=8,
        help="handler thread-pool size",
    )
    return parser


def _engine_backend(args: argparse.Namespace) -> EngineBackend:
    from repro.durability import DirectoryCheckpointStore
    from repro.streaming.engine import MultiSeriesEngine

    if args.spec and args.period:
        raise SystemExit("--spec and --period are mutually exclusive")
    store = DirectoryCheckpointStore(args.store, exclusive=True)
    spec = None
    if store.read_manifest() is None:
        if args.spec:
            from repro.specs import EngineSpec

            spec = EngineSpec.from_json(
                Path(args.spec).read_text(encoding="utf-8")
            )
        elif args.period:
            engine = MultiSeriesEngine.for_oneshotstl(int(args.period))
            engine.attach_store(store)
            return EngineBackend(engine)
        else:
            store.close()
            raise SystemExit(
                f"store {args.store!r} is empty: pass --spec SPEC.json or "
                "--period N to configure the fresh session"
            )
    elif args.spec or args.period:
        store.close()
        raise SystemExit(
            f"store {args.store!r} already holds a session; it recovers "
            "from its manifest (drop --spec/--period)"
        )
    engine = MultiSeriesEngine.open(store, spec=spec, recovery=args.recovery)
    return EngineBackend(engine)


def _router_backend(args: argparse.Namespace) -> RouterBackend:
    from repro.sharding import ClusterSpec, ShardRouter

    if args.spec or args.period:
        raise SystemExit("--spec/--period only apply to --store mode")
    cluster = ClusterSpec.from_json(
        Path(args.cluster).read_text(encoding="utf-8")
    )
    return RouterBackend(ShardRouter(cluster))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cluster:
        backend = _router_backend(args)
    else:
        backend = _engine_backend(args)
    app = ServingApp(
        backend,
        max_in_flight=args.max_in_flight,
        anomaly_capacity=args.anomaly_ring,
    )
    server = ServingServer(
        app,
        host=args.host,
        port=args.port,
        workers=args.workers,
        checkpoint_interval=args.checkpoint_interval,
    )
    return server.run()


if __name__ == "__main__":
    sys.exit(main())
