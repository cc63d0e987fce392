"""The load driver: one repetition of one workload, from the parent.

The system runs in a fresh interpreter (``python3 host.py``) in a
process group of its own; this module starts it, waits for ``ready``,
offers the load and collects what it measured, and on every way out of
a repetition kills and reaps whatever is left of that group. The driver
is one thread with, for the HTTP workload, one keep-alive connection:

* ``fleet`` — closed loop: each window of chunks is sent over the pipe
  only after the previous one's records came back;
* ``paced`` — open loop: POSTs leave on a seeded Poisson schedule
  whatever the system does, pipelined on the connection behind any
  unanswered request; one ``GET …/results`` is sent in each idle gap
  long enough for it; 429/503 refusals come back into the schedule
  after their ``retry_after``.

Every chunk's latency runs from when it was due (when its window was
sent, for the closed loop) to its completion. For HTTP chunks completion
is the POST reply time plus the server's admission-to-completion
``latency_seconds``, which over-counts by at most one reply leg.
"""

from __future__ import annotations

import ctypes
import heapq
import json
import multiprocessing
import os
import pickle
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict, deque
from dataclasses import asdict
from pathlib import Path
from typing import Deque, Dict, List, Optional

from spans import Tracer, unaccounted_frac
from workloads import Inputs, Workload, paced_events

HOST = Path(__file__).resolve().with_name("host.py")

#: Longest the driver waits for the system to start, finish or complete.
START_TIMEOUT = 120.0
COMPLETE_TIMEOUT = 60.0
#: Longest the driver waits for a killed process group to be gone.
REAP_TIMEOUT = 10.0
PR_SET_CHILD_SUBREAPER = 36
#: An idle gap must be this long before the paced driver spends it on a GET.
READ_SLACK = 0.002
#: How often the driver asks whether every admitted chunk completed; the
#: completion times come from the results, so this only bounds the wait.
POLL_INTERVAL = 0.02
MAX_RETRIES = 8
#: Refusals the server asks the client to retry, and those it sheds.
RETRYABLE = ("queue_full", "throttled")
SHEDDING = ("shed", "rejected")


class HarnessError(RuntimeError):
    """The system process failed or did not answer in time."""


class Client:
    """One keep-alive HTTP/1.1 connection that may pipeline requests.

    :meth:`send` writes a request without waiting for earlier replies;
    :meth:`receive` returns the oldest outstanding reply, since the
    server answers a connection's requests in order. Each request is
    recorded as a span from send to reply when traced.
    """

    def __init__(self, port: int, tracer: Optional[Tracer]) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=COMPLETE_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.tracer = tracer
        self.requests = 0
        self.inflight: Deque[tuple] = deque()    # (method, t0, context)
        self._buf = bytearray()

    def send(self, method: str, path: str, body: bytes = b"", context=None) -> float:
        """Write one request; returns when it left."""
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {len(body)}\r\n"
        if body:
            head += "Content-Type: application/json\r\n"
        t0 = time.perf_counter()
        self.sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        self.inflight.append((method, t0, context))
        return t0

    def receive(self, timeout: float = COMPLETE_TIMEOUT):
        """``(payload, t0, t1, context)`` of the oldest outstanding request.

        ``None`` if its reply is not complete within ``timeout`` seconds.
        """
        deadline = time.perf_counter() + timeout
        while True:
            body = self._take()
            if body is not None:
                break
            wait = deadline - time.perf_counter()
            if wait <= 0 or not select.select([self.sock], [], [], wait)[0]:
                return None
            data = self.sock.recv(1 << 16)
            if not data:
                raise HarnessError("the server closed the connection")
            self._buf += data
        t1 = time.perf_counter()
        method, t0, context = self.inflight.popleft()
        self.requests += 1
        if self.tracer is not None:
            self.tracer.record("serving.server", method, t0, t1)
        return json.loads(body), t0, t1, context

    def _take(self) -> Optional[bytes]:
        """Remove one complete reply from the buffer; returns its body."""
        end = self._buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        length = 0
        for line in bytes(self._buf[:end]).split(b"\r\n")[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        stop = end + 4 + length
        if len(self._buf) < stop:
            return None
        body = bytes(self._buf[end + 4:stop])
        del self._buf[:stop]
        return body

    def request(self, method: str, path: str, body: bytes = b""):
        """Send one request and wait for its reply (none other outstanding)."""
        self.send(method, path, body)
        got = self.receive()
        if got is None:
            raise HarnessError(f"no reply to {method} {path} within {COMPLETE_TIMEOUT:.0f} s")
        return got[:3]

    def idle(self, seconds: float) -> None:
        """Sleep as the driver's own choice (a ``driver`` span when traced)."""
        if seconds <= 0:
            return
        t0 = time.perf_counter()
        time.sleep(seconds)
        if self.tracer is not None:
            self.tracer.record("driver", "idle", t0, time.perf_counter())

    def close(self) -> None:
        self.sock.close()


def _chunk_body(seq: int, X, y) -> bytes:
    return json.dumps({"seq": int(seq), "X": X.tolist(), "y": y.tolist()}).encode()


def _expect(conn, kind: str, timeout: float):
    if not conn.poll(timeout):
        raise HarnessError(f"system process sent no {kind!r} within {timeout:.0f} s")
    try:
        msg = conn.recv()
    except EOFError:
        raise HarnessError(f"system process exited before sending {kind!r}") from None
    if msg[0] == "error":
        raise HarnessError("system process failed:\n" + msg[1])
    if msg[0] != kind:
        raise HarnessError(f"expected {kind!r} from the system, got {msg[0]!r}")
    return msg


def prepare(workload: Workload, inputs: Inputs, seed: int, rep: int) -> list:
    """Serialise every message of repetition ``rep`` ahead of its timed loop.

    ``fleet``: ``(chunks, pickled window)``, the same for every ``rep``;
    ``paced``: ``(due, device, seq, samples, JSON body)`` in send order,
    a schedule of its own for each ``rep``.
    """
    if workload.kind == "fleet":
        plan = []
        chunks = inputs.chunks
        for k in range(0, len(chunks), workload.window):
            batch = [(dev, X, y) for dev, _seq, X, y in chunks[k:k + workload.window]]
            plan.append((len(batch), pickle.dumps(("window", batch), protocol=-1)))
        return plan
    return [
        (due, dev, seq, len(X), _chunk_body(seq, X, y))
        for due, (dev, seq, X, y) in paced_events(workload, inputs, seed, rep)
    ]


def _adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A process the system started (a pool or shard worker, should the
    stack start one) whose system process died is then re-parented here,
    not to PID 1, which in a container may never reap it, so that
    :func:`_stop_group` can wait for it to end.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return                          # not Linux: nothing is re-parented here
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the system's process group and reap all of it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    deadline = time.monotonic() + REAP_TIMEOUT
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return                      # no member of the group is left
        try:
            os.waitpid(-proc.pid, 0)
        except ChildProcessError:
            time.sleep(0.01)            # members that are not our children


def run_rep(
    workload: Workload,
    inputs: Inputs,
    plan: list,
    *,
    spool,
    trace: bool,
    verify: List[str],
    spans_path=None,
) -> dict:
    """Start the system, drive one repetition of ``plan``, tear down."""
    config = pickle.dumps({
        "workload": asdict(workload),
        "specs": {dev: spec.to_json() for dev, spec in inputs.specs.items()},
        "trace": trace,
        "verify": list(verify),
        "spool": str(spool),
        "spans_path": None if spans_path is None else str(spans_path),
        "samples": inputs.samples,
    }, protocol=-1)
    _adopt_orphans()
    # A socket pair, not a multiprocessing child: starting one would also
    # start multiprocessing's resource tracker, which outlives this process.
    parent, child = multiprocessing.Pipe()
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(HOST), str(child.fileno())],
            pass_fds=(child.fileno(),), stdin=subprocess.DEVNULL,
            stdout=sys.stderr, start_new_session=True,
        )
    finally:
        child.close()
    try:
        parent.send_bytes(config)
        _, t_ready, port = _expect(parent, "ready", START_TIMEOUT)
        if workload.kind == "fleet":
            rep = _drive_fleet(parent, plan)
        else:
            tracer = Tracer() if trace else None
            client = Client(port, tracer)
            try:
                rep = _drive_paced(client, plan)
            finally:
                # Close before finish_all: a connection still open when
                # the server stops leaves a pending task behind.
                client.close()
            if tracer is not None:
                rep["driver_unaccounted"] = unaccounted_frac(
                    tracer.spans, threading.get_ident(), rep["t_begin"], rep["t_end"]
                )
                if spans_path is not None:
                    tracer.write_jsonl(spans_path, extra={"role": "driver"})
        parent.send(("finish", rep["t_begin"], rep["t_end"]))
        _, result = _expect(parent, "result", START_TIMEOUT)
        try:
            proc.wait(START_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise HarnessError("system process did not exit after its result") from None
    finally:
        _stop_group(proc)
        parent.close()
        shutil.rmtree(spool, ignore_errors=True)
    if proc.returncode != 0:
        raise HarnessError(f"system process exited with code {proc.returncode}")
    rep["setup_s"] = t_ready - t_spawn
    rep.update(result)
    rep["failed"] += result["dispatch_failures"]
    return rep


def _drive_fleet(conn, windows) -> dict:
    latencies = []
    records = 0
    t_begin = time.perf_counter()
    for n, payload in windows:
        t0 = time.perf_counter()
        conn.send_bytes(payload)
        if not conn.poll(COMPLETE_TIMEOUT):
            raise HarnessError("a submit_many window did not complete in time")
        reply = conn.recv()
        t1 = time.perf_counter()
        if isinstance(reply, tuple):
            raise HarnessError("system process failed:\n" + reply[1])
        records += reply
        latencies.extend([t1 - t0] * n)
    t_end = time.perf_counter()
    chunks = sum(n for n, _ in windows)
    return {
        "t_begin": t_begin,
        "t_end": t_end,
        "wall_s": t_end - t_begin,
        "samples": records,
        "latencies": latencies,
        "attempted": chunks,
        "failed": 0,
        "retries": 0,
    }


class _Ledger:
    """What the HTTP drivers sent, and what came back."""

    def __init__(self) -> None:
        self.sent: Dict[tuple, dict] = {}      # (device, seq) -> chunk entry
        self.outstanding: "OrderedDict[str, int]" = OrderedDict()
        self.attempted = 0
        self.undelivered = 0
        self.retries = 0
        self.posts: List[dict] = []

    def answer(self, reply: dict, due, dev, seq, n, t0, t1, attempt: int) -> Optional[float]:
        """Book the reply to a chunk's POST; returns the retry delay, if any."""
        status = reply.get("status")
        if status in ("accepted", "buffered"):
            self.sent[(dev, seq)] = {"due": due, "reply": t1, "samples": n}
            self.outstanding[dev] = self.outstanding.get(dev, 0) + 1
            self.posts.append({"key": (dev, seq), "rtt": t1 - t0})
            return None
        retry = status in RETRYABLE or (status in SHEDDING and attempt < 2)
        if not retry or attempt == MAX_RETRIES:
            self.undelivered += 1
            return None
        self.retries += 1
        return min(2.0, float(reply.get("retry_after") or 0.05))

    def collect(self, client: Client, dev: str) -> None:
        """GET one device's completions into the ledger."""
        reply, _, _ = client.request("GET", f"/v1/devices/{dev}/results")
        self.book_results(reply, dev)

    def book_results(self, reply: dict, dev: str) -> None:
        for r in reply.get("results", []):
            entry = self.sent[(r["device"], r["seq"])]
            entry["done"] = entry["reply"] + float(r["latency_seconds"])
            entry["error"] = r.get("error")
            left = self.outstanding.get(dev, 0) - 1
            if left > 0:
                self.outstanding[dev] = left
            else:
                self.outstanding.pop(dev, None)

    def wait_all(self, client: Client) -> None:
        """Poll until every admitted chunk completed, then collect them."""
        deadline = time.perf_counter() + COMPLETE_TIMEOUT
        admitted = len(self.sent)
        while True:
            state, _, _ = client.request("GET", "/v1/ingest")
            if state["completed"] >= admitted:
                break
            if time.perf_counter() > deadline:
                break
            client.idle(POLL_INTERVAL)
        for dev in list(self.outstanding):
            self.collect(client, dev)

    def summary(self, t_begin: float) -> dict:
        done = [e for e in self.sent.values() if "done" in e]
        errors = sum(1 for e in done if e.get("error"))
        t_end = max((e["done"] for e in done), default=t_begin)
        ok = [e for e in done if not e.get("error")]
        return {
            "t_begin": t_begin,
            "t_end": t_end,
            "wall_s": t_end - t_begin,
            "samples": sum(e["samples"] for e in ok),
            "latencies": [e["done"] - e["due"] for e in ok],
            "attempted": self.attempted,
            "failed": self.undelivered + errors + (len(self.sent) - len(done)),
            "retries": self.retries,
            "posts": self.posts,
        }


def _drive_paced(client: Client, plan) -> dict:
    """Each POST leaves when due, pipelined behind any unanswered ones.

    Waiting for a reply before the next send would make a slow answer
    delay every later arrival, which is a closed loop; replies are read
    between sends instead. A refused chunk comes back into the schedule
    ``retry_after`` later and keeps its first due time.
    """
    ledger = _Ledger()
    lags = []
    t_start = time.perf_counter() + 0.05
    # (due, order, device, seq, samples, body, attempt); sorted, so a heap.
    todo = [(t_start + due, k, dev, seq, n, body, 0)
            for k, (due, dev, seq, n, body) in enumerate(plan)]
    reading = None          # the device whose GET is unanswered
    may_read = False        # at most one GET after each POST
    while todo or client.inflight:
        now = time.perf_counter()
        if todo and todo[0][0] <= now:
            entry = heapq.heappop(todo)
            t0 = client.send("POST", f"/v1/devices/{entry[2]}/chunks", entry[5], entry)
            if entry[6] == 0:
                ledger.attempted += 1
                lags.append(t0 - entry[0])
            may_read = True
            continue
        slack = todo[0][0] - now if todo else COMPLETE_TIMEOUT
        if may_read and reading is None and ledger.outstanding and slack > READ_SLACK:
            reading = next(iter(ledger.outstanding))
            client.send("GET", f"/v1/devices/{reading}/results")
            may_read = False
            continue
        if not client.inflight:
            client.idle(slack)
            continue
        got = client.receive(slack)
        if got is None:
            if not todo:
                raise HarnessError(f"no reply within {COMPLETE_TIMEOUT:.0f} s")
            continue
        reply, t0, t1, entry = got
        if entry is None:
            ledger.book_results(reply, reading)
            reading = None
            continue
        due, k, dev, seq, n, body, attempt = entry
        delay = ledger.answer(reply, due, dev, seq, n, t0, t1, attempt)
        if delay is not None:
            heapq.heappush(todo, (t1 + delay, k, dev, seq, n, body, attempt + 1))
    ledger.wait_all(client)
    rep = ledger.summary(t_start + plan[0][0])
    rep["requests"] = client.requests
    offered_span = plan[-1][0] - plan[0][0]
    rep["lags"] = lags
    rep["offered_rate"] = sum(p[3] for p in plan) / offered_span
    return rep
