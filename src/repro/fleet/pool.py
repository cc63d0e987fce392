"""The package's one process pool: long-lived workers, submit/collect.

:class:`~repro.fleet.sharding.ShardedFleetManager` keeps device sessions
resident on each shard; :class:`~repro.metrics.parallel.ParallelRunner`
runs one experiment-grid cell per shard at a time on a stateless host.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import connection as mp_connection
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..telemetry import Telemetry, get_telemetry
from ..utils.exceptions import ConfigurationError

__all__ = [
    "SHARD_RESTARTED",
    "TELEMETRY_FLUSH",
    "ShardDiedError",
    "ShardError",
    "ShardPool",
    "ShardTimeoutError",
]


class ShardError(RuntimeError):
    """A shard worker raised (or died) while serving a request.

    Carries ``ticket`` (the request it belongs to, when known) and
    ``shard`` (the worker it came from, when known) so multi-ticket
    collectors — :meth:`ShardPool.collect_any` callers — can attribute a
    failure without parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        ticket: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.ticket = ticket
        self.shard = shard


class ShardDiedError(ShardError):
    """The shard's worker process is gone (pipe broken or EOF).

    Distinct from a request-level :class:`ShardError` (worker alive, the
    request raised) so supervisors can dispatch on the exception type
    instead of racing ``Process.is_alive`` against SIGKILL delivery.
    """


class ShardTimeoutError(ShardError):
    """A shard worker gave no reply within the per-request deadline.

    The ticket stays outstanding: the worker may be slow rather than
    stuck, so the caller decides — wait again, or escalate with
    :meth:`ShardPool.restart_shard` (which fails the shard's outstanding
    tickets and respawns the process).
    """


#: Reserved ShardPool method name: flush the worker hub's telemetry delta.
TELEMETRY_FLUSH = "__telemetry__"

#: Payload prefix marking tickets failed by :meth:`ShardPool.restart_shard`
#: (not by the request itself) — supervisors match on it to tell "your
#: request was collateral of a restart" from a real worker-side error.
SHARD_RESTARTED = "__shard_restarted__"


def _stop_process(proc, *, grace: float = 1.0, kill_grace: float = 5.0) -> str:
    """Stop a worker with terminate -> kill escalation; returns the outcome.

    ``terminate`` (SIGTERM) handles the common stuck worker; a worker
    that ignores SIGTERM (masked signal, wedged in native code) is
    escalated to ``kill`` (SIGKILL) after ``grace`` seconds. Returns
    ``"dead"`` (was already gone), ``"terminated"``, or ``"killed"``.
    """
    if not proc.is_alive():
        proc.join(timeout=0)
        return "dead"
    proc.terminate()
    proc.join(timeout=grace)
    if not proc.is_alive():
        return "terminated"
    proc.kill()
    proc.join(timeout=kill_grace)
    return "killed"


def _shard_worker(conn, factory, factory_args, telemetry_every) -> None:
    """Worker-process loop: build the host once, serve requests FIFO.

    Protocol: the parent sends ``(ticket, method, args, kwargs)`` tuples
    and eventually ``None`` (shutdown); each request is answered with
    ``(ticket, ok, payload, telemetry)`` where ``payload`` is the method's
    return value (``ok=True``) or a one-line error description
    (``ok=False`` — exceptions never cross the pipe, so an unpicklable
    error cannot wedge the shard).

    ``telemetry`` is usually ``None``; every ``telemetry_every`` requests
    (and on the reserved ``TELEMETRY_FLUSH`` method) it carries this
    worker hub's :class:`TelemetrySnapshot` delta as plain data, so the
    parent aggregates worker metrics *on the collect path* with no extra
    round trips. Without this, everything the shard's pipelines record
    lands on the worker's own hub and silently dies with the process.
    """
    host = factory(*factory_args)
    served = 0

    def delta() -> Optional[dict]:
        tel = get_telemetry()
        if not tel.enabled:
            return None
        snap = tel.snapshot_delta()
        return None if snap.is_empty() else snap.to_json()

    try:
        while True:
            msg = conn.recv()
            if msg is None:
                return
            ticket, method, args, kwargs = msg
            if method == TELEMETRY_FLUSH:
                conn.send((ticket, True, None, delta()))
                continue
            served += 1
            piggyback = (
                delta()
                if telemetry_every is not None and served % telemetry_every == 0
                else None
            )
            try:
                result = getattr(host, method)(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 — ship, don't die
                conn.send((ticket, False, f"{type(exc).__name__}: {exc}", piggyback))
            else:
                conn.send((ticket, True, result, piggyback))
    finally:
        closer = getattr(host, "close", None)
        if callable(closer):
            try:
                closer()
            except Exception:
                pass
        conn.close()


class ShardPool:
    """Long-lived worker processes with a **submit/collect** protocol.

    Workers may *keep state resident* between calls (a fleet shard hosts
    the live sessions of its slice of a device fleet) or be stateless
    (:class:`~repro.metrics.parallel.ParallelRunner` ships one whole grid
    cell per call). A :class:`ShardPool`
    starts ``n_shards`` processes, builds one **host object** per shard
    via ``factory(shard_index, *factory_args)`` (a module-level,
    picklable callable), and then serves method calls on that host:

    >>> pool = ShardPool(4, my_module.make_host)          # doctest: +SKIP
    >>> t = pool.submit(2, "ingest", device_id, chunk)    # doctest: +SKIP
    >>> pool.collect(t)                                   # doctest: +SKIP

    ``submit`` is non-blocking (requests pipeline per shard, FIFO);
    ``collect`` blocks until that ticket's reply arrives, buffering any
    replies it drains for other tickets. :meth:`call` is the synchronous
    convenience, :meth:`broadcast` fans one call over every shard.

    A request that raises in the worker surfaces as :class:`ShardError`
    at its ``collect`` — other requests (and other shards) are
    unaffected. A dead shard process also raises :class:`ShardError`.

    When the parent hub is live, each worker piggybacks a telemetry
    snapshot delta on every ``telemetry_every``-th reply; the pool merges
    it into the parent hub with a ``shard`` label as the reply is
    collected, and :meth:`flush_telemetry` (called automatically by
    :meth:`close`) pulls whatever is still outstanding — so worker-side
    metrics are aggregated losslessly instead of dying with the workers.
    """

    def __init__(
        self,
        n_shards: int,
        factory,
        *,
        factory_args: tuple = (),
        telemetry_every: Optional[int] = 64,
        request_timeout: Optional[float] = None,
    ) -> None:
        if int(n_shards) < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards!r}.")
        if telemetry_every is not None and int(telemetry_every) < 1:
            raise ConfigurationError(
                f"telemetry_every must be >= 1 or None, got {telemetry_every!r}."
            )
        if request_timeout is not None and float(request_timeout) <= 0:
            raise ConfigurationError(
                f"request_timeout must be positive or None, got {request_timeout!r}."
            )
        self._ctx = multiprocessing.get_context()
        self._factory = factory
        self._factory_args = tuple(factory_args)
        self._conns = []
        self._procs = []
        self.telemetry_every = (
            int(telemetry_every) if telemetry_every is not None else None
        )
        #: default deadline (seconds) applied by :meth:`collect` when no
        #: per-call ``timeout`` is given; ``None`` = wait forever.
        self.request_timeout = (
            float(request_timeout) if request_timeout is not None else None
        )
        #: parent-side hub worker deltas are merged into.
        self.telemetry: Telemetry = get_telemetry()
        for shard in range(int(n_shards)):
            parent, proc = self._spawn(shard)
            self._conns.append(parent)
            self._procs.append(proc)
        self._next_ticket = 0
        self._shard_of: Dict[int, int] = {}
        self._replies: Dict[int, Tuple[bool, Any]] = {}
        self._closed = False

    def _spawn(self, shard: int):
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(
                child,
                self._factory,
                (shard, *self._factory_args),
                self.telemetry_every,
            ),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        proc.start()
        child.close()
        return parent, proc

    @property
    def n_shards(self) -> int:
        return len(self._procs)

    def shard_alive(self, shard: int) -> bool:
        """Whether ``shard``'s worker process is currently running."""
        return self._procs[int(shard)].is_alive()

    def worker_pid(self, shard: int) -> Optional[int]:
        """OS pid of ``shard``'s worker (chaos harnesses target this)."""
        return self._procs[int(shard)].pid

    def submit(self, shard: int, method: str, *args, **kwargs) -> int:
        """Queue ``host.method(*args, **kwargs)`` on ``shard``; returns a ticket."""
        if self._closed:
            raise ConfigurationError("ShardPool is closed.")
        if not 0 <= int(shard) < len(self._conns):
            raise ConfigurationError(
                f"shard {shard} out of range (pool has {len(self._conns)})."
            )
        ticket = self._next_ticket
        self._next_ticket += 1
        self._shard_of[ticket] = int(shard)
        try:
            self._conns[shard].send((ticket, method, args, kwargs))
        except (BrokenPipeError, OSError) as exc:
            self._shard_of.pop(ticket, None)
            raise ShardDiedError(f"shard {shard} is dead: {exc}") from exc
        return ticket

    #: collect() sentinel: "use the pool's default request_timeout".
    _POOL_DEFAULT = object()

    def collect(self, ticket: int, *, timeout: Any = _POOL_DEFAULT) -> Any:
        """Block until ``ticket``'s reply arrives; return (or raise) it.

        ``timeout`` (seconds) bounds the wait: when no reply lands within
        the deadline a :class:`ShardTimeoutError` is raised and the
        ticket stays outstanding (collect again, or escalate via
        :meth:`restart_shard`). Defaults to the pool's
        ``request_timeout``; pass ``None`` to wait forever.
        """
        if timeout is ShardPool._POOL_DEFAULT:
            timeout = self.request_timeout
        if ticket not in self._replies and ticket not in self._shard_of:
            raise ConfigurationError(f"unknown or already-collected ticket {ticket}.")
        shard = self._shard_of.get(ticket)
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        while ticket not in self._replies:
            conn = self._conns[shard]
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not conn.poll(remaining):
                    raise ShardTimeoutError(
                        f"shard {shard} gave no reply for ticket {ticket} "
                        f"within {float(timeout):g}s.",
                        ticket=ticket,
                        shard=shard,
                    )
            try:
                t, ok, payload, tel_delta = conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardDiedError(
                    f"shard {shard} died with {len(self._shard_of)} "
                    "request(s) outstanding.",
                    ticket=ticket,
                    shard=shard,
                ) from exc
            if tel_delta is not None and self.telemetry.enabled:
                self.telemetry.merge(tel_delta, extra_labels={"shard": shard})
            self._replies[t] = (ok, payload)
            self._shard_of.pop(t, None)
        ok, payload = self._replies.pop(ticket)
        if not ok:
            raise ShardError(
                f"shard request failed: {payload}", ticket=ticket, shard=shard
            )
        return payload

    def collect_any(
        self,
        tickets: Optional[Iterable[int]] = None,
        *,
        timeout: Any = _POOL_DEFAULT,
    ) -> Tuple[int, Any]:
        """Block until *any* wanted ticket's reply is ready; return it.

        ``tickets`` restricts the wait to those tickets (default: every
        outstanding or buffered ticket). Returns ``(ticket, payload)``
        for the lowest-numbered ready ticket — deterministic when
        several replies are already buffered. Unlike :meth:`collect`,
        the wait multiplexes over **all** shards that still owe a wanted
        reply (``multiprocessing.connection.wait``), so one slow shard
        cannot stall results that other shards already produced — the
        head-of-line fix the fleet drain and the serving dispatcher
        build on.

        A failed request raises :class:`ShardError` with ``.ticket``
        set (that ticket is consumed; the rest stay collectable). A
        dead worker raises :class:`ShardDiedError` with ``.shard`` set
        and leaves its tickets outstanding for the caller to recover
        (e.g. via :meth:`restart_shard`).
        """
        if timeout is ShardPool._POOL_DEFAULT:
            timeout = self.request_timeout
        wanted: Optional[set] = None
        if tickets is not None:
            wanted = {int(t) for t in tickets}
            unknown = [
                t
                for t in wanted
                if t not in self._replies and t not in self._shard_of
            ]
            if unknown:
                raise ConfigurationError(
                    f"unknown or already-collected ticket(s) {sorted(unknown)}."
                )
            if not wanted:
                raise ConfigurationError("collect_any of an empty ticket set.")
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            ready_tickets = (
                self._replies.keys()
                if wanted is None
                else wanted & self._replies.keys()
            )
            if ready_tickets:
                ticket = min(ready_tickets)
                ok, payload = self._replies.pop(ticket)
                if not ok:
                    raise ShardError(
                        f"shard request failed: {payload}", ticket=ticket
                    )
                return ticket, payload
            owing = {
                s
                for t, s in self._shard_of.items()
                if wanted is None or t in wanted
            }
            if not owing:
                raise ConfigurationError("no outstanding tickets to collect.")
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                ready = []
            else:
                ready = mp_connection.wait(
                    [self._conns[s] for s in sorted(owing)], timeout=remaining
                )
            if not ready:
                raise ShardTimeoutError(
                    f"no reply from shard(s) {sorted(owing)} within "
                    f"{float(timeout):g}s."
                )
            shard_of_conn = {id(self._conns[s]): s for s in owing}
            for conn in ready:
                shard = shard_of_conn[id(conn)]
                try:
                    t, ok, payload, tel_delta = conn.recv()
                except (EOFError, OSError) as exc:
                    raise ShardDiedError(
                        f"shard {shard} died with {len(self._shard_of)} "
                        "request(s) outstanding.",
                        shard=shard,
                    ) from exc
                if tel_delta is not None and self.telemetry.enabled:
                    self.telemetry.merge(tel_delta, extra_labels={"shard": shard})
                self._replies[t] = (ok, payload)
                self._shard_of.pop(t, None)

    def restart_shard(self, shard: int, *, grace: float = 1.0) -> str:
        """Stop ``shard``'s worker (if needed) and spawn a fresh one.

        The escalation is terminate -> kill (:func:`_stop_process`); an
        already-dead worker is just reaped. Every outstanding ticket of
        the shard is failed with a :data:`SHARD_RESTARTED`-prefixed
        payload — their requests may or may not have executed, and the
        fresh worker's host starts empty, so it is the caller's job
        (e.g. the fleet supervisor) to re-seed state and replay. Returns
        the stop outcome (``"dead"``/``"terminated"``/``"killed"``).
        """
        if self._closed:
            raise ConfigurationError("ShardPool is closed.")
        shard = int(shard)
        if not 0 <= shard < len(self._procs):
            raise ConfigurationError(
                f"shard {shard} out of range (pool has {len(self._procs)})."
            )
        outcome = _stop_process(self._procs[shard], grace=grace)
        try:
            self._conns[shard].close()
        except OSError:  # pragma: no cover — close on a broken pipe
            pass
        for ticket in [t for t, s in self._shard_of.items() if s == shard]:
            self._replies[ticket] = (
                False,
                f"{SHARD_RESTARTED}: shard {shard} worker restarted ({outcome}).",
            )
            del self._shard_of[ticket]
        parent, proc = self._spawn(shard)
        self._conns[shard] = parent
        self._procs[shard] = proc
        return outcome

    def call(self, shard: int, method: str, *args, **kwargs) -> Any:
        """Synchronous ``submit`` + ``collect`` on one shard."""
        return self.collect(self.submit(shard, method, *args, **kwargs))

    def broadcast(self, method: str, *args, **kwargs) -> List[Any]:
        """Call ``method`` on every shard; returns results in shard order."""
        tickets = [
            self.submit(shard, method, *args, **kwargs)
            for shard in range(self.n_shards)
        ]
        return [self.collect(t) for t in tickets]

    def flush_telemetry(self) -> None:
        """Pull every worker hub's outstanding snapshot delta into the
        parent hub now (the collect path merges them as they arrive)."""
        self.broadcast(TELEMETRY_FLUSH)

    def close(self, *, grace: float = 10.0) -> None:
        """Shut every shard down (idempotent); outstanding replies are dropped.

        ``grace`` bounds the polite wait per worker; one still alive
        after that (stuck mid-request, ignoring the shutdown sentinel)
        is escalated terminate -> kill via :func:`_stop_process`.
        """
        if self._closed:
            return
        if self.telemetry.enabled:
            try:
                self.flush_telemetry()
            except (ShardError, ConfigurationError):
                pass  # a dead shard's unflushed delta is unrecoverable
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=grace)
            if proc.is_alive():
                _stop_process(proc, grace=grace)
        for conn in self._conns:
            conn.close()
        self._shard_of.clear()
        self._replies.clear()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
