"""The server process: one ``ReputationServer`` on the event-loop transport.

Started by the load generator as ``python3 -m perfbench.server_main``
with ``src`` on ``PYTHONPATH``.  It reads one JSON command per line on
stdin and answers each with one JSON line on stdout:

* ``setup`` builds the server on its data directory (seeding the
  catalogue and the accounts unless ``recover`` is set), starts the
  transport and, for workloads with daily maintenance, the tick thread;
  with ``trace`` the span wrappers are installed first (recording only
  with ``record`` too).
* ``phase`` marks the start of a timed phase.
* ``stats`` returns peak RSS and the cache, subscription, pipeline
  and maintenance counters.
* ``trace`` starts or stops recording spans; ``trace_cut`` summarizes
  the spans recorded since the last cut; ``trace_dump`` writes every
  span to a file.
* ``stop`` stops the transport and closes the server, then exits.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time

from perfbench.tracing import Tracer, summarize
from perfbench.workloads import PASSWORD, WORKLOADS, account_name, build_catalogue

#: Catalogue rows per seeding transaction.
SEED_CHUNK = 512

WRITE_TYPES = ("VoteRequest", "CommentRequest", "RemarkRequest")


class Maintenance:
    """Advance the clock a day and run the daily batch every *every*
    acknowledged writes, on a thread of its own.

    Ticks run in the ``open`` phase only and their count restarts with
    it (:meth:`rearm`): the open phase sends a fixed number of writes,
    so every run holds the same number of ticks, while a closed phase's
    write count depends on its speed and would tick on some runs and not
    on others.
    """

    def __init__(self, server, every: int):
        self.server = server
        self.every = every
        self.ticks = 0
        self.durations: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-maintenance",
                                        daemon=True)

    def start(self) -> None:
        self.rearm()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=60.0)

    def writes(self) -> int:
        by_type = self.server.metrics.snapshot()["requests_by_type"]
        return sum(by_type.get(kind, {}).get("count", 0) for kind in WRITE_TYPES)

    def rearm(self, armed: bool = True) -> None:
        self._due = self.writes() + self.every if armed else float("inf")

    def _run(self) -> None:
        while not self._stop.wait(0.005):
            if self.writes() < self._due:
                continue
            self._due += self.every
            started = time.perf_counter()
            self.server.clock.advance(86400)
            self.server.run_daily_batch()
            self.durations.append(time.perf_counter() - started)
            self.ticks += 1


def peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    ``ru_maxrss`` will not do: Linux carries it across ``exec``, so it
    starts at the generator's size, which grows with the requests it
    encoded before spawning this process.  ``VmHWM`` belongs to the
    address space of this program alone.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class ServerProcess:
    def __init__(self):
        self.tracer = Tracer()
        self.server = None
        self.transport = None
        self.maintenance = None
        self.archive: list = []

    def setup(self, workload: str, seed: int, data_dir: str, recover: bool,
              trace: bool, record: bool = False) -> dict:
        from repro.clock import SimClock
        from repro.net.evloop import EventLoopServer
        from repro.server import ReputationServer

        spec = WORKLOADS[workload]
        if trace:
            self.tracer.install()
            self.tracer.recording = record
        server = ReputationServer(
            clock=SimClock(),
            puzzle_difficulty=0,
            rng=random.Random(seed),
            scoring_mode="streaming",
            data_directory=data_dir,
            trust_model=spec.trust_model,
            collusion=spec.collusion,
            flood_burst=1e9,
        )
        self.server = server
        if not recover:
            self._seed(spec, seed)
        self.transport = EventLoopServer(server.handle_bytes)
        self.transport.start()
        if spec.maintenance_every:
            self.maintenance = Maintenance(server, spec.maintenance_every)
            self.maintenance.start()
        host, port = self.transport.address
        return {"host": host, "port": port}

    def _seed(self, spec, seed: int) -> None:
        server = self.server
        engine = server.engine
        catalogue = build_catalogue(spec, seed)
        for index in range(spec.accounts):
            name = account_name(index)
            token = server.accounts.register(name, PASSWORD, f"{name}@perfbench.invalid")
            server.accounts.activate(name, token)
            engine.enroll_user(name)
        for start in range(0, spec.digests, SEED_CHUNK):
            with engine.db.transaction():
                for index in range(start, min(start + SEED_CHUNK, spec.digests)):
                    engine.register_software(**catalogue.item(index))
        comments = catalogue.seed_comments
        for start in range(0, len(comments), SEED_CHUNK):
            with engine.db.transaction():
                for digest, account, text in comments[start:start + SEED_CHUNK]:
                    engine.add_comment(account_name(account), catalogue.digests[digest], text)
        # Votes publish scores, which must reach listeners at once, so
        # each is its own auto-committed write.
        for digest, account, score in catalogue.seed_votes:
            engine.cast_vote(account_name(account), catalogue.digests[digest], score)

    def stats(self) -> dict:
        server = self.server
        out = {
            "max_rss_kb": peak_rss_kb(),
            "now": time.perf_counter(),
        }
        if server is not None:
            out["cache"] = server.score_cache.stats()
            out["subscriptions"] = server.subscriptions.stats()
            pipeline = server.metrics.snapshot()
            out["requests"] = pipeline["total_requests"]
            out["errors"] = pipeline["errors_by_code"]
            out["wal_bytes"] = server.engine.db.wal_size_bytes()
        if self.maintenance is not None:
            out["ticks"] = self.maintenance.ticks
            out["tick_durations"] = list(self.maintenance.durations)
        return out

    def phase(self, maintenance: bool) -> dict:
        """A timed phase starts: restart the maintenance write count, or
        hold maintenance off for the phase."""
        if self.maintenance is not None:
            self.maintenance.rearm(maintenance)
        return {}

    def trace(self, on: bool) -> dict:
        if not self.tracer.installed:
            raise RuntimeError("the server was not built with tracing")
        self.tracer.recording = on
        return {"recording": on}

    def trace_cut(self) -> dict:
        spans = self.tracer.take()
        self.archive.extend(spans)
        return summarize(spans)

    def trace_dump(self, path: str) -> dict:
        spans = self.archive + self.tracer.take()
        with open(path, "w", encoding="utf-8") as out:
            out.write("# span_id parent request name start end count\n")
            for span in spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
        self.archive = []
        return {"spans": len(spans), "path": path}

    def stop(self) -> dict:
        if self.maintenance is not None:
            self.maintenance.stop()
        if self.transport is not None:
            self.transport.stop()
        if self.server is not None:
            self.server.close()
        return {"stopped": True}


def main() -> int:
    process = ServerProcess()
    replies = sys.stdout
    # Nothing but replies may reach the control pipe.
    sys.stdout = sys.stderr
    for line in sys.stdin:
        command = json.loads(line)
        name = command.pop("cmd")
        try:
            reply = getattr(process, name)(**command)
            reply["ok"] = True
        except Exception as exc:  # reported to the generator, which fails the run
            import traceback

            traceback.print_exc()
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if name == "stop":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
