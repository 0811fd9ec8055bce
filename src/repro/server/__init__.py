"""The serving layer: a TCP object server and its client.

* :mod:`repro.server.protocol` — the length-prefixed binary wire format
  (opcodes, error marshalling onto :mod:`repro.errors`);
* :mod:`repro.server.server` — the asyncio server: per-connection
  sessions, byte-range lock scheduling, admission control;
* :mod:`repro.server.client` — the blocking client library;
* :mod:`repro.server.sharding` — shared-nothing shards: oid tagging,
  per-shard workers, the coordinating :class:`ShardSet`;
* :mod:`repro.server.runner` — run a server on a background thread
  (tests, benchmarks, ``servectl bench-smoke --spawn``).

* :mod:`repro.server.expo` — exposition: the live status document,
  the Prometheus/health HTTP sidecar.

CLI: ``python -m repro.tools.servectl serve`` / ``ping`` / ``put`` /
``get`` / ``metrics`` / ``top`` / ``dump-flight`` / ``bench-smoke``.
"""

from repro.server.client import EOSClient
from repro.server.expo import MetricsHTTPServer, status_snapshot
from repro.server.protocol import Opcode, Status
from repro.server.runner import ServerThread
from repro.server.server import EOSServer
from repro.server.sharding import Shard, ShardSet

__all__ = [
    "EOSClient",
    "EOSServer",
    "MetricsHTTPServer",
    "Opcode",
    "ServerThread",
    "Shard",
    "ShardSet",
    "Status",
    "status_snapshot",
]
