"""Observability GET endpoints, rendered independently of any server.

:class:`EndpointSuite` routes and renders the scrape endpoints that
:class:`repro.serving.server.IngestServer` answers. That one asyncio
server backs both the serving port (``python -m repro serve``) and the
scrape-only port of ``python -m repro fleet --serve-metrics PORT``, which
runs it without an ingest core:

* ``GET /metrics`` — Prometheus text exposition (version 0.0.4) of every
  registered metric, straight from ``registry.to_prometheus()``;
* ``GET /health``  — JSON from the configured ``health_provider`` (see
  :func:`ladder_health` for the guard-ladder flavour); 200 while healthy,
  503 once degraded;
* ``GET /fleet``   — JSON from the configured ``fleet_provider``
  (per-device :class:`~repro.fleet.manager.FleetStats`).
"""

from __future__ import annotations

import json
from typing import Callable, Optional, Tuple

from .hub import Telemetry, get_telemetry

__all__ = ["EndpointSuite", "ladder_health"]

#: Content type mandated by Prometheus text exposition 0.0.4.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_TEXT = "text/plain; charset=utf-8"
_JSON = "application/json"

#: The routed paths; the request counter labels any other path ``other``,
#: so a client cannot grow the registry by probing new paths.
_ROUTES = frozenset({"/metrics", "/health", "/fleet", "/"})


def ladder_health(ladder, sentinel=None) -> Callable[[], dict]:
    """Health provider reading a guard :class:`DegradationLadder`.

    Reports the ladder's current level by name and number plus (when a
    ``NumericHealthSentinel`` is given) the sentinel's trip count; the
    endpoint returns 503 whenever the ladder has left HEALTHY, which maps
    directly onto container liveness probes.
    """

    def provider() -> dict:
        level = ladder.level
        body = {
            "status": "ok" if int(level) == 0 else "degraded",
            "level": getattr(level, "name", str(level)),
            "level_value": int(level),
        }
        if sentinel is not None:
            body["sentinel_trips"] = int(getattr(sentinel, "n_trips", 0))
        return body

    return provider


class EndpointSuite:
    """Render the observability GET endpoints to ``(status, ctype, body)``.

    The routing/rendering core of
    :class:`repro.serving.server.IngestServer`, with or without an ingest
    core. Providers run on whatever thread calls :meth:`handle` (the
    server's event loop); hand them thread-safe state only.
    """

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        *,
        health_provider: Optional[Callable[[], dict]] = None,
        fleet_provider: Optional[Callable[[], dict]] = None,
        index_text: str = "repro metrics endpoint: /metrics /health /fleet\n",
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.health_provider = health_provider
        self.fleet_provider = fleet_provider
        self.index_text = index_text

    def handle(self, raw_path: str) -> Tuple[int, str, str]:
        """Route one GET path; returns ``(status, content_type, body)``."""
        path = raw_path.split("?", 1)[0].rstrip("/") or "/"
        tel = self.telemetry
        if tel.enabled:
            tel.counter(
                "metrics_server.requests", "scrapes served by path", labels=("path",)
            ).inc(path=path if path in _ROUTES else "other")
        if path == "/metrics":
            return 200, PROMETHEUS_CONTENT_TYPE, tel.registry.to_prometheus()
        if path == "/health":
            return self._render_json(self.health_provider, healthy_key="status")
        if path == "/fleet":
            return self._render_json(self.fleet_provider)
        if path == "/":
            return 200, _TEXT, self.index_text
        return 404, _TEXT, "not found\n"

    def _render_json(
        self, provider, *, healthy_key: Optional[str] = None
    ) -> Tuple[int, str, str]:
        if provider is None:
            return 404, _TEXT, "not configured\n"
        try:
            body = provider()
        except Exception as exc:  # provider must never take the server down
            return 503, _JSON, json.dumps({"status": "error", "error": str(exc)}) + "\n"
        status = 200
        if healthy_key is not None and body.get(healthy_key) not in (None, "ok"):
            status = 503
        return status, _JSON, json.dumps(body, sort_keys=True) + "\n"
