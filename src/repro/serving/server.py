"""Asyncio HTTP front-end for the ingestion core (stdlib only).

One port serves both planes:

* **data plane** — ``POST /v1/devices/{id}/chunks`` offers a sequenced
  chunk (JSON ``{"seq": n, "X": [[...]], "y": [...]}``) and maps the
  :class:`~repro.serving.ingest.OfferStatus` onto HTTP: 202
  accepted/buffered, 409 duplicate, 422 gap overflow, 429 + Retry-After
  throttled/queue-full, 503 shed/rejected, 404 unknown device.
  ``GET /v1/devices/{id}/results`` returns completion tickets
  (``?order=seq`` or first-come, ``?pop=0`` to peek), and
  ``GET /v1/ingest`` exposes queue introspection;
* **observability plane** — ``/metrics``, ``/health``, ``/fleet`` and
  ``/`` rendered by :class:`~repro.telemetry.httpd.EndpointSuite`, so
  Prometheus scrapes the serving port directly.

Without an ingest core the server is scrape-only: the ``/v1/...`` routes
answer 404 and the observability plane works as above. That is how
``python -m repro fleet --serve-metrics PORT`` serves its metrics.

The server is a single asyncio loop on a daemon thread
(``start``/``stop``/``port``/``url``, context manager, port 0 = pick
free). Handlers never block: ``offer`` and
``results`` only take the core's lock — the fleet engine itself runs on
the core's dispatcher thread, never on the loop.

:class:`ServingStack` wires the whole tier — manager (optionally
sharded/supervised, sharing the admission ladder), admission
controller, ingest core, and this server — for the CLI, the benches and
the tests.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..engine.spec import ExperimentSpec
from ..fleet.manager import FleetManager
from ..fleet.sharding import ShardedFleetManager
from ..fleet.supervisor import SupervisorConfig
from ..telemetry.httpd import EndpointSuite
from ..utils.exceptions import ConfigurationError
from ..utils.hooks import default_telemetry
from .admission import AdmissionController
from .ingest import IngestCore, OfferStatus, _chunk_arrays

__all__ = ["IngestServer", "ServingStack"]

_JSON = "application/json"

#: OfferStatus -> HTTP status code.
_HTTP_OF = {
    OfferStatus.ACCEPTED: 202,
    OfferStatus.BUFFERED: 202,
    OfferStatus.DUPLICATE: 409,
    OfferStatus.GAP_OVERFLOW: 422,
    OfferStatus.QUEUE_FULL: 429,
    OfferStatus.THROTTLED: 429,
    OfferStatus.SHED: 503,
    OfferStatus.REJECTED: 503,
    OfferStatus.UNKNOWN_DEVICE: 404,
}

_INDEX = (
    "repro serving endpoint: "
    "POST /v1/devices/{id}/chunks  GET /v1/devices/{id}/results  "
    "GET /v1/ingest  /metrics /health /fleet\n"
)


def _content_length(value: Optional[str]) -> Optional[int]:
    """Parsed ``Content-Length`` (0 when absent); ``None`` when invalid."""
    if not value:
        return 0
    try:
        length = int(value)
    except ValueError:
        return None
    return length if length >= 0 else None


class IngestServer:
    """Serve an :class:`IngestCore` over HTTP/1.1 from an asyncio loop.

    ``core=None`` serves only the observability endpoints.
    """

    def __init__(
        self,
        core: Optional[IngestCore],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry=None,
        health_provider: Optional[Callable[[], dict]] = None,
        fleet_provider: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.core = core
        self.telemetry = telemetry if telemetry is not None else default_telemetry()
        self.endpoints = EndpointSuite(
            self.telemetry,
            health_provider=health_provider,
            fleet_provider=fleet_provider,
        )
        if core is not None:
            self.endpoints.index_text = _INDEX
        self._requested = (host, int(port))
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._bound: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None
        #: running connection handlers and their writers (closed on stop)
        self._clients: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def host(self) -> str:
        return self._bound[0] if self._bound else self._requested[0]

    @property
    def port(self) -> int:
        return self._bound[1] if self._bound else self._requested[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "IngestServer":
        if self._thread is not None:
            return self
        ready = threading.Event()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop,
            args=(ready,),
            name="repro-ingest-server",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=10.0):  # pragma: no cover — startup hang
            raise ConfigurationError("ingest server failed to start in 10s.")
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5.0)
            self._thread = None
            raise error
        return self

    def _run_loop(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._serve_client, *self._requested)
            )
        except BaseException as exc:  # bind failure — surface on start()
            self._startup_error = exc
            ready.set()
            loop.close()
            return
        self._server = server
        self._bound = server.sockets[0].getsockname()[:2]
        ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            # Keep-alive clients may still sit in readline(): close their
            # connections so the handlers read EOF and finish while the
            # loop can still run their callbacks.
            clients = list(self._clients.items())
            for _, writer in clients:
                writer.close()
            loop.run_until_complete(
                asyncio.gather(*(task for task, _ in clients), return_exceptions=True)
            )
            loop.run_until_complete(server.wait_closed())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=10.0)
        self._thread = None
        self._server = None
        self._loop = None
        self._bound = None

    def __enter__(self) -> "IngestServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- HTTP/1.1 --------------------------------------------------------------

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._clients[task] = writer
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, target, version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    writer.write(self._render(400, _JSON, '{"error": "bad request"}\n'))
                    await writer.drain()
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                length = _content_length(headers.get("content-length"))
                if length is None:
                    # The body cannot be delimited, so neither can the
                    # next request: answer and drop the connection.
                    writer.write(
                        self._render(
                            400, _JSON, '{"error": "bad content-length"}\n',
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                body = await reader.readexactly(length) if length else b""
                status, ctype, payload, extra = self._route(method, target, body)
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                writer.write(
                    self._render(status, ctype, payload, extra, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._clients.pop(task, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    _REASONS = {
        200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
        405: "Method Not Allowed", 409: "Conflict", 422: "Unprocessable Entity",
        429: "Too Many Requests", 503: "Service Unavailable",
    }

    def _render(
        self,
        status: int,
        ctype: str,
        body: str,
        extra: Optional[dict] = None,
        keep_alive: bool = True,
    ) -> bytes:
        payload = body.encode("utf-8")
        reason = self._REASONS.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(payload)}",
            "Server: repro-serving/1",
        ]
        if not keep_alive:
            lines.append("Connection: close")
        for key, value in (extra or {}).items():
            lines.append(f"{key}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload

    # -- routing ---------------------------------------------------------------

    def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, str, str, Optional[dict]]:
        path, _, query = target.partition("?")
        parts = [p for p in path.split("/") if p]
        if self.core is None and parts[:1] == ["v1"]:
            return 404, _JSON, '{"error": "no ingest core"}\n', None
        if len(parts) == 4 and parts[0] == "v1" and parts[1] == "devices":
            device_id, leaf = parts[2], parts[3]
            if leaf == "chunks" and method == "POST":
                return self._handle_chunk(device_id, body)
            if leaf == "results" and method == "GET":
                return self._handle_results(device_id, query)
            return 405, _JSON, '{"error": "method not allowed"}\n', None
        if path.rstrip("/") == "/v1/ingest" and method == "GET":
            return (
                200,
                _JSON,
                json.dumps(self.core.pending(), sort_keys=True) + "\n",
                None,
            )
        if method != "GET":
            return 405, _JSON, '{"error": "method not allowed"}\n', None
        status, ctype, rendered = self.endpoints.handle(path)
        return status, ctype, rendered, None

    def _handle_chunk(
        self, device_id: str, body: bytes
    ) -> Tuple[int, str, str, Optional[dict]]:
        try:
            payload = json.loads(body.decode("utf-8"))
            seq = int(payload["seq"])
            # A chunk the core would refuse as malformed is the client's
            # error (400), not load shedding (503).
            X, y = _chunk_arrays(payload["X"], payload["y"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            return (
                400,
                _JSON,
                json.dumps({"error": f"malformed chunk body: {exc}"}) + "\n",
                None,
            )
        try:
            offer = self.core.offer(device_id, seq, X, y)
        except ConfigurationError as exc:
            return 400, _JSON, json.dumps({"error": str(exc)}) + "\n", None
        status = _HTTP_OF[offer.status]
        reply = {"status": offer.status.value, "seq": seq}
        if offer.ticket is not None:
            reply["ticket"] = offer.ticket
        if offer.retry_after is not None:
            reply["retry_after"] = round(offer.retry_after, 4)
        if offer.detail:
            reply["detail"] = offer.detail
        extra = None
        if offer.retry_after is not None and status in (429, 503):
            # RFC 7231 Retry-After in (integral) seconds; keep sub-second
            # precision in the JSON body for clients that parse it.
            extra = {"Retry-After": max(1, round(offer.retry_after))}
        return status, _JSON, json.dumps(reply, sort_keys=True) + "\n", extra

    def _handle_results(
        self, device_id: str, query: str
    ) -> Tuple[int, str, str, Optional[dict]]:
        params = {}
        for pair in query.split("&"):
            if "=" in pair:
                key, value = pair.split("=", 1)
                params[key] = value
        order = params.get("order", "arrival")
        limit = int(params["max"]) if "max" in params else None
        pop = params.get("pop", "1") not in ("0", "false", "no")
        try:
            results = self.core.results(
                device_id, order=order, limit=limit, pop=pop
            )
        except ConfigurationError as exc:
            return 404, _JSON, json.dumps({"error": str(exc)}) + "\n", None
        body = {
            "device": device_id,
            "count": len(results),
            "results": [r.to_json() for r in results],
        }
        return 200, _JSON, json.dumps(body, sort_keys=True) + "\n", None


class ServingStack:
    """Manager + admission + ingest core + HTTP front-end, wired.

    The one-stop constructor the CLI (``python -m repro serve``), the
    serving bench, and the golden tests share. With ``n_shards`` the
    fleet runs sharded; with ``supervisor`` too, the supervisor shares
    the admission controller's ladder — network backpressure and shard
    self-healing escalate through one authority.
    """

    def __init__(
        self,
        *,
        capacity: int = 64,
        spool_dir: Optional[str | Path] = None,
        chunk_size: Optional[int] = None,
        batch_scoring: bool = False,
        n_shards: Optional[int] = None,
        supervisor: Optional[SupervisorConfig] = None,
        admission: Optional[AdmissionController] = None,
        queue_capacity: int = 64,
        gap_window: int = 32,
        window_chunks: int = 256,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry=None,
    ) -> None:
        tel = telemetry if telemetry is not None else default_telemetry()
        self.admission = (
            admission if admission is not None else AdmissionController(telemetry=tel)
        )
        if n_shards:
            self.manager = ShardedFleetManager(
                int(n_shards),
                capacity,
                spool_dir,
                chunk_size=chunk_size,
                batch_scoring=batch_scoring,
                supervisor=supervisor,
                ladder=self.admission.ladder if supervisor is not None else None,
            )
        else:
            self.manager = FleetManager(
                capacity=capacity,
                spool_dir=spool_dir,
                chunk_size=chunk_size,
                batch_scoring=batch_scoring,
            )
        self.core = IngestCore(
            self.manager,
            queue_capacity=queue_capacity,
            gap_window=gap_window,
            window_chunks=window_chunks,
            admission=self.admission,
            telemetry=tel,
        )
        self.server = IngestServer(
            self.core,
            host=host,
            port=port,
            telemetry=tel,
            health_provider=self._health,
            fleet_provider=self._fleet,
        )

    def _health(self) -> dict:
        level = self.admission.level
        return {
            "status": "ok" if int(level) == 0 else "degraded",
            "level": getattr(level, "name", str(level)),
            "level_value": int(level),
            "ingest": self.core.pending(),
        }

    def _fleet(self) -> dict:
        if isinstance(self.manager, ShardedFleetManager):
            # Mid-run totals from the submit-reply stats deltas — live,
            # not frozen at the last collect boundary.
            return {"devices": self.manager.live_stats(), "sharded": True}
        return {
            "devices": self.manager.stats.to_json(),
            "sharded": False,
        }

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        return self.server.port

    def register(self, device_id: str, spec: ExperimentSpec) -> None:
        self.core.register(device_id, spec)

    def start(self) -> "ServingStack":
        self.core.start()
        self.server.start()
        return self

    def stop(self) -> None:
        self.server.stop()
        self.core.stop()

    def finish_all(self, **kwargs) -> dict:
        self.server.stop()
        return self.core.finish_all(**kwargs)

    def close(self) -> None:
        self.server.stop()
        self.core.close()

    def __enter__(self) -> "ServingStack":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()
