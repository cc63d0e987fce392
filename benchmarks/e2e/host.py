"""The system process: builds the stack under test and serves the driver.

The driver starts it as ``python3 host.py FD``, where ``FD`` is its end
of a socket pair, and sends the pickled config as the first message.
:func:`run` times nothing itself except what the driver asks for: it
imports ``repro``, builds the stack (a :class:`~repro.fleet.FleetManager`
for ``fleet`` workloads, a listening :class:`~repro.serving.ServingStack`
otherwise), registers every device and reports ``ready`` with its clock
reading, which the driver turns into ``setup_s``.

Protocol on the pipe (driver → host):

* a pickled ``("window", [(device_id, X, y), ...])`` — ``fleet`` only:
  one :meth:`FleetManager.submit_many` call, answered with its record
  count; the host then tallies the records (keeping whole record lists
  only for the devices in ``config["verify"]``) and drops the window;
* ``("finish", t_begin, t_end)`` — the measured interval is over; the
  host snapshots fleet stats, tallies every device's records (from the
  windows' replies, or ``finish_all`` when serving) into exact quality
  counts, byte-compares the ``verify`` devices against standalone runs,
  and replies ``("result", dict)``.

Any failure is reported as ``("error", traceback)``.
"""

from __future__ import annotations

import resource
import sys
import threading
import time
import traceback
from pathlib import Path


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run(conn, config: dict) -> None:
    """Build the system from ``config`` and serve ``conn`` until ``finish``."""
    system = None
    try:
        import workloads
        from repro.engine import ExperimentSpec

        tracer = None
        if config["trace"]:
            import layers
            from spans import Tracer

            tracer = Tracer()
            layers.install(tracer)
        w = config["workload"]
        specs = {
            dev: ExperimentSpec.from_json(spec) for dev, spec in config["specs"].items()
        }
        if w["kind"] == "fleet":
            from repro.fleet import FleetManager

            system = FleetManager(
                capacity=w["capacity"], spool_dir=config["spool"], batch_scoring=True
            )
            for dev, spec in specs.items():
                system.add_device(dev, spec)
            port = None
        else:
            from repro.serving import ServingStack

            system = ServingStack(
                capacity=w["capacity"],
                spool_dir=config["spool"],
                batch_scoring=True,
                queue_capacity=w["queue_capacity"],
                gap_window=w["gap_window"],
            )
            for dev, spec in specs.items():
                system.register(dev, spec)
            system.start()
            port = system.port
        conn.send(("ready", time.perf_counter(), port))

        tallies = {dev: workloads.tally([]) for dev in specs}
        kept = {dev: [] for dev in config["verify"]}
        while True:
            msg = conn.recv()
            if msg[0] == "window":
                records = system.submit_many(msg[1])
                conn.send(sum(len(r) for r in records))
                for (dev, _X, _y), recs in zip(msg[1], records):
                    workloads.tally(recs, tallies[dev])
                    if dev in kept:
                        kept[dev].extend(recs)
            elif msg[0] == "finish":
                _, t_begin, t_end = msg
                result = _finish(system, specs, tallies, kept)
                stats = result.pop("stats")
                if tracer is not None:
                    result["layers"] = _trace_summary(
                        tracer, t_begin, t_end, stats, w, config
                    )
                conn.send(("result", result))
                return
            else:
                raise ValueError(f"unknown message {msg[0]!r}")
    except Exception:
        conn.send(("error", traceback.format_exc()))
        raise SystemExit(1)
    finally:
        if system is not None:
            system.close()
        conn.close()


def _finish(system, specs, tallies, kept) -> dict:
    import workloads
    from repro.fleet import FleetManager, verify_device

    if isinstance(system, FleetManager):
        # The windows' replies were each device's whole record list, so
        # the tallies are complete without a finish_all.
        stats = system.stats.to_json()
        failures = 0
    else:
        stats = system.manager.stats.to_json()
        failures = system.core.dispatch_failures
        per_device = system.finish_all()
        tallies = {dev: workloads.tally(recs) for dev, recs in per_device.items()}
        kept = {dev: per_device.get(dev, []) for dev in kept}
    peak = _rss_mb(resource.RUSAGE_SELF)   # before the standalone runs below
    return {
        "stats": stats,
        "dispatch_failures": failures,
        "quality": workloads.quality(specs, tallies),
        "verified": {dev: verify_device(specs[dev], recs) for dev, recs in kept.items()},
        "peak_rss_mb": peak,
    }


def _trace_summary(tracer, t_begin, t_end, stats, w, config) -> dict:
    """Per-layer metrics, offer durations and coverage for the driver."""
    import layers
    from spans import unaccounted_frac, within

    measured = within(tracer.spans, t_begin, t_end)
    metrics = layers.layer_metrics(measured, stats=stats, samples=config["samples"])
    out = {"metrics": metrics}
    if w["kind"] == "fleet":
        # The main thread runs the driver's windows; off-span time there
        # is pipe traffic and unpickling.
        out["unaccounted_frac"] = unaccounted_frac(
            tracer.spans, threading.main_thread().ident, t_begin, t_end
        )
    else:
        out["offers"] = {
            (s.tags["device"], s.tags["seq"]): s.duration
            for s in measured
            if s.layer == "serving.ingest" and s.name == "offer" and s.tags
        }
    if config.get("spans_path"):
        tracer.write_jsonl(config["spans_path"], extra={"role": "system"})
    return out


if __name__ == "__main__":
    from multiprocessing.connection import Connection

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    channel = Connection(int(sys.argv[1]))
    run(channel, channel.recv())
