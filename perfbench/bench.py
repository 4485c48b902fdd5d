"""One benchmark run: set-up, the timed phases, the checks, the metrics.

A run spawns the server process (:mod:`perfbench.server_main`), sets
it up three times (seeding, logins, warm-up) and keeps the third, then
drives two phases over loopback from this single-threaded generator:

* ``open``: requests fall due on a fixed schedule at the workload's
  fixed rate, answered or not; latency counts from the due time;
* ``closed``: each request connection keeps a fixed window in flight;
  this gives throughput and server CPU per operation, as medians over
  one-second windows.

After each phase the server is left to go quiet and a fixed sample of
digests is looked up and compared with :class:`~perfbench.workloads.Model`.
A traced run (``--trace 1``) builds the server with the span wrappers
installed, runs a ``closed`` phase with recording off as the overhead
reference, then runs both phases recording.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil
import subprocess
import sys
import time

from perfbench import loadgen, stats
from perfbench.tracing import HANDLE, MAINTENANCE
from perfbench.workloads import (
    BATCH,
    COMMENT,
    CONNECTIONS,
    LOOKUP,
    PASSWORD,
    SWEEP_SAMPLE,
    VOTE,
    WORKLOADS,
    WRITE_KINDS,
    Model,
    StreamGenerator,
    account_name,
    build_catalogue,
    session_placeholder,
)
from repro.net.framing import frame, pack_correlated
from repro.protocol import (
    ErrorResponse,
    LoginRequest,
    LoginResponse,
    OkResponse,
    QuerySoftwareBatchRequest,
    QuerySoftwareBatchResponse,
    QuerySoftwareItem,
    QuerySoftwareRequest,
    RemarkRequest,
    SoftwareInfoResponse,
    SubscribeRequest,
    SubscribeResponse,
    CommentRequest,
    VoteRequest,
    decode_with,
    encode_with,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The closed phase pre-encodes this many times the open rate per second
#: of phase: over twice each workload's closed throughput on the reference
#: host, and few enough that the vote stream never runs out of fresh
#: (digest, account) pairs on lookup-cold's 128-digest active set.
CLOSED_HEADROOM = 20.0
#: The closed phase reports the median over windows of this length:
#: other tenants of a shared host slow whole seconds of a run, and a
#: median over windows passes over them where a phase-long mean does not.
WINDOW_SECONDS = 1.0
#: Seconds to wait for answers still in flight when a phase ends.
GRACE = 20.0
#: Seconds without a pushed event before the server counts as quiet.
QUIET = 0.3

#: Reported on every workload; carried by the result line of an
#: untraced run.  ``(name, unit)``.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "ops/s"),
    ("server_cpu_us_per_op", "us"),
    ("lookup_p50_ms", "ms"),
    ("server_rss_mb", "MB"),
)

#: Layer metrics non-zero on every workload; carried by the result line
#: of a traced run.  The rest are printed where they apply.
PER_LAYER = (
    ("net.rtt_minus_handle_us", "us"),
    ("net.bytes_per_op", "bytes"),
    ("protocol.decode_us_per_op", "us"),
    ("protocol.encode_us_per_op", "us"),
    ("protocol.encoded_share", "ratio"),
    ("server.handle_us_per_op", "us"),
    ("server.pipeline_self_us_per_op", "us"),
    ("server.auth_us_per_op", "us"),
    ("server.cache.hit_ratio", "ratio"),
    ("server.cache.wire_hit_ratio", "ratio"),
    ("server.subscriptions.publish_us_per_write", "us"),
    ("core.vendor_reputation_us_per_call", "us"),
    ("core.vendor_reputation_calls_per_op", "count"),
    ("core.ranked_comments_us_per_call", "us"),
    ("core.register_software_us_per_item", "us"),
    ("core.cast_vote_us", "us"),
    ("core.scoring.apply_vote_us", "us"),
    ("core.scoring.publishes_per_write", "count"),
    ("storage.row_reads_per_op", "count"),
    ("storage.row_read_us_per_op", "us"),
    ("storage.read_lock_wait_us_per_op", "us"),
    ("storage.write_lock_wait_us_per_write", "us"),
    ("storage.wal_append_us_per_write", "us"),
    ("storage.wal_bytes_per_write", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

#: Printed on the workloads they apply to (units for the report).
EXTRA_UNITS = {
    "lookup_p99_ms": "ms",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "visible_p50_ms": "ms",
    "visible_p99_ms": "ms",
    "push_missed_ratio": "ratio",
    "recovery_s": "s",
    "failed_ratio": "ratio",
    "wrong_answer_ratio": "ratio",
    "server.cache.evictions": "count",
    "server.subscriptions.events_per_write": "count",
    "server.subscriptions.dropped": "count",
    "server.subscriptions.queue_depth_max": "count",
    "core.scoring.trust_changes_per_write": "count",
    "core.trust_us_per_write": "us",
    "core.maintenance_s": "s",
    "core.reconcile_repairs": "count",
    "core.collusion_pass_s": "s",
    "storage.commit_us_per_write": "us",
    "storage.durable_wait_us_per_write": "us",
    "storage.checkpoint_s": "s",
    "storage.recover_s": "s",
    "core.bootstrap_s": "s",
}


#: Span groups of the traced layer split; other spans count toward
#: "<layer> other".  The write path is storage commit/WAL plus the
#: streaming fold plus push publication.
SPLIT_GROUPS = (
    ("protocol", {"protocol.decode", "protocol.encode"}),
    ("core.vendor_reputation", {"core.vendor_reputation"}),
    ("write path", {"storage.commit", "storage.wal_append", "storage.durable_wait",
                    "core.scoring.apply_vote", "core.scoring.apply_trust_change",
                    "server.subscriptions.publish"}),
)

#: Latency families reported on some workloads only (lookups: all).
LATENCY_WORKLOADS = {
    "batch": ("lookup-hot",),
    "write": ("lookup-cold", "vote-ingest"),
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a result."""


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU of process *pid*, all its threads, from
    ``/proc``; read from here so the server is not interrupted."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        # The fields after the parenthesised command name; utime and
        # stime are fields 14 and 15 of the whole line.
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def set_affinity(pid: int, cpus: set) -> None:
    """Let every thread of process *pid* run only on *cpus*."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except ProcessLookupError:
            pass  # the thread ended since the listing


class ServerHandle:
    """The server process and its JSON-lines control pipe."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONHASHSEED"] = "0"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server_main"],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def call(self, command: str, **arguments) -> dict:
        arguments["cmd"] = command
        self.process.stdin.write(json.dumps(arguments) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(f"server process exited during {command!r}")
        reply = json.loads(line)
        if not reply.pop("ok"):
            raise BenchmarkError(f"server {command!r} failed: {reply['error']}")
        return reply

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.call("stop")
            finally:
                self.close()

    def kill(self) -> None:
        """End the process without asking (after a failed run)."""
        if self.process.poll() is None:
            self.process.kill()
        self.close()

    def close(self) -> None:
        """Make sure the process has ended (killing it if it must)."""
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30.0)
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Frames:
    """Requests encoded once, with session placeholders patched later."""

    def __init__(self, codec: str):
        self.codec = codec
        self.next_cid = 1
        self._bodies: dict = {}

    def encode(self, message, connection: int, account: int = -1, key=None) -> tuple:
        """Frame *message* under the next correlation id; messages with
        the same *key* share one encoding."""
        cid = self.next_cid
        self.next_cid += 1
        body = self._bodies.get(key) if key is not None else None
        if body is None:
            body = encode_with(self.codec, message)
            if key is not None:
                self._bodies[key] = body
        return (cid, connection, frame(pack_correlated(cid, body)), account)

    @staticmethod
    def patch(templates: list, sessions: list) -> list:
        patched = []
        for cid, connection, data, account in templates:
            if account >= 0:
                data = data.replace(
                    session_placeholder(account).encode(), sessions[account].encode()
                )
            patched.append((cid, connection, data))
        return patched


def type_markers(codec: str) -> dict:
    """The leading bytes that mark each answer type in *codec*: the
    common prefix of two encodings that differ from their first field on."""
    variants = {
        "info": lambda v: SoftwareInfoResponse(software_id=v, known=True),
        "batch": lambda v: QuerySoftwareBatchResponse(
            results=() if v == "a" else (SoftwareInfoResponse(software_id=v, known=True),)),
        "ok": lambda v: OkResponse(detail=v),
    }
    return {
        name: os.path.commonprefix([encode_with(codec, make("a")), encode_with(codec, make("bb"))])
        for name, make in variants.items()
    }


class Run:
    """Everything one invocation measures and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        if workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {workload!r}; pick one of {sorted(WORKLOADS)}")
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.catalogue = build_catalogue(self.spec, seed)
        self.generator = StreamGenerator(self.spec, self.catalogue, seed)
        self.model = Model(self.spec, self.catalogue)
        self.frames = Frames(self.spec.codec)
        self.markers = type_markers(self.spec.codec)
        self.ops: dict = {}  # cid -> Op
        self.data_dir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
        self.handle = None
        self.mux = None
        self.sessions: list = []
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.vendor_score_defects = 0
        self.wrong = 0
        self.report: list = []
        self.metrics: dict = {}
        self.layer_summaries: list = []

    # -- preparation ---------------------------------------------------------

    def _templates(self, ops: list) -> list:
        out = []
        for op in ops:
            key = (op.digest, op.account) if op.kind == LOOKUP else None
            template = self.frames.encode(self._message(op), op.conn, op.account, key)
            self.ops[template[0]] = op
            out.append(template)
        return out

    def _message(self, op):
        session = session_placeholder(op.account)
        catalogue = self.catalogue
        if op.kind == LOOKUP:
            return QuerySoftwareRequest(session=session, **catalogue.item(op.digest))
        if op.kind == BATCH:
            items = tuple(QuerySoftwareItem(**catalogue.item(d)) for d in op.items)
            return QuerySoftwareBatchRequest(session=session, items=items)
        if op.kind == VOTE:
            return VoteRequest(session=session, software_id=catalogue.digests[op.digest],
                               score=op.score)
        if op.kind == COMMENT:
            return CommentRequest(session=session, software_id=catalogue.digests[op.digest],
                                  text=op.text)
        return RemarkRequest(session=session, comment_id=op.comment_id, positive=op.positive)

    def _draw(self, count: int) -> list:
        return [self.generator.next_op() for _ in range(count)]

    def prepare(self) -> None:
        spec = self.spec
        self.open_seconds = self.seconds * spec.open_share
        closed_seconds = self.seconds - self.open_seconds
        if self.trace:
            closed_seconds /= 2.0
        self.closed_seconds = closed_seconds
        closed_cap = int(spec.open_rate * CLOSED_HEADROOM * closed_seconds) + 64
        self.plan = []
        if self.trace:
            self.plan.append(("reference", self._templates(self._draw(closed_cap))))
        self.plan.append(("open", self._templates(self._draw(int(spec.open_rate * self.open_seconds)))))
        self.plan.append(("closed", self._templates(self._draw(closed_cap))))
        self.login_frames = [
            self.frames.encode(LoginRequest(username=account_name(a), password=PASSWORD), 0)
            for a in range(spec.accounts)
        ]
        warm = self.generator.pool
        self.warm_templates = [
            self.frames.encode(
                QuerySoftwareRequest(session=session_placeholder(0), **self.catalogue.item(d)),
                index % spec.request_connections, 0)
            for index, d in enumerate(warm)
        ]
        self.sweep_digests = self.generator.sample_digests(SWEEP_SAMPLE)
        os.makedirs(WORK_DIR, exist_ok=True)
        os.makedirs(OUT_DIR, exist_ok=True)

    # -- set-up --------------------------------------------------------------

    def _connect(self, reply: dict, connections: int) -> loadgen.Mux:
        return loadgen.Mux([
            loadgen.Connection(reply["host"], reply["port"], self.spec.codec)
            for _ in range(connections)
        ])

    def _login(self, mux: loadgen.Mux, frames: list) -> list:
        loadgen.request_all(mux, [f[:3] for f in frames], window=32, timeout=60.0)
        sessions = []
        for cid, _, _, _ in frames:
            answer = decode_with(self.spec.codec, mux.responses.pop(cid)[1])
            if not isinstance(answer, LoginResponse):
                raise BenchmarkError(f"login refused: {answer}")
            sessions.append(answer.session)
        return sessions

    def set_up_once(self) -> tuple:
        """Spawn, seed, log in, warm; returns ``(handle, mux, sessions,
        seconds)``."""
        shutil.rmtree(self.data_dir, ignore_errors=True)
        started = time.perf_counter()
        handle = ServerHandle()
        try:
            reply = handle.call("setup", workload=self.spec.name, seed=self.seed,
                                data_dir=self.data_dir, recover=False, trace=self.trace)
            mux = self._connect(reply, CONNECTIONS)
            sessions = self._login(mux, self.login_frames)
            warm = Frames.patch(self.warm_templates, sessions)
            loadgen.request_all(mux, warm, window=32, timeout=120.0)
            for cid, _, _ in warm:
                if not mux.responses.pop(cid)[1].startswith(self.markers["info"]):
                    raise BenchmarkError("a warm-up lookup was refused")
            if self.spec.subscriber:
                subscribe = self.frames.encode(
                    SubscribeRequest(session=sessions[0], digest_prefix="", threshold=-1.0), 1)
                loadgen.request_all(mux, [subscribe[:3]], window=1, timeout=30.0)
                answer = decode_with(self.spec.codec, mux.responses.pop(subscribe[0])[1])
                if not isinstance(answer, SubscribeResponse):
                    raise BenchmarkError(f"subscription refused: {answer}")
        except BaseException:
            handle.kill()
            raise
        return handle, mux, sessions, time.perf_counter() - started

    def set_up(self) -> None:
        durations = []
        for attempt in range(SETUPS):
            handle, mux, sessions, seconds = self.set_up_once()
            durations.append(seconds)
            if attempt < SETUPS - 1:
                mux.close()
                handle.stop()
        self.handle, self.mux, self.sessions = handle, mux, sessions
        self.setup_durations = durations
        self.metrics["setup_s"] = (stats.median(durations), len(durations))
        self.plan = [(name, Frames.patch(t, sessions)) for name, t in self.plan]

    # -- phases --------------------------------------------------------------

    def _phase_line(self, name: str, sent: int, ok: int, failed: int, before: dict,
                    after: dict) -> None:
        cache = {k: after["cache"][k] - before["cache"][k]
                 for k in ("hits", "misses", "evictions", "invalidations", "version_evictions")}
        subs = {k: after["subscriptions"][k] - before["subscriptions"][k]
                for k in ("published", "delivered", "dropped_slow", "dropped_dead")}
        self.report.append(
            f"phase {name}: sent {sent} succeeded {ok} failed {failed};"
            f" server.cache {json.dumps(cache)}; server.subscriptions {json.dumps(subs)}"
        )

    def _settle(self, frames: list, sent_times=None) -> dict:
        """Decode the answers to the *frames* a phase sent, fold
        acknowledged writes into the model in stream order, and classify
        each operation.  *sent_times* marks the ``open`` phase."""
        mux = self.mux
        codec = self.spec.codec
        latencies = {LOOKUP: [], BATCH: [], "write": []}
        visible_votes = []
        rtt = []
        ok = failed = writes = moved = 0
        for position, (cid, _, data) in enumerate(frames):
            op = self.ops[cid]
            if op.kind in WRITE_KINDS:
                writes += 1
            answer = mux.responses.pop(cid, None)
            if answer is None:
                failed += 1
                continue
            arrival, body = answer
            moved += len(data) + len(body) + 8
            if not self._good(op, body):
                failed += 1
                if failed <= 3:
                    self.report.append(f"  failed {op.kind}: {decode_with(codec, body)}")
                continue
            ok += 1
            if op.kind in WRITE_KINDS:
                self.model.apply(op)
            if sent_times is None:
                continue
            due = self._open_start + position / self.spec.open_rate
            latencies["write" if op.kind in WRITE_KINDS else op.kind].append(arrival - due)
            rtt.append(arrival - sent_times[position])
            if op.kind == VOTE:
                visible_votes.append(
                    (self.catalogue.digests[op.digest], sent_times[position],
                     self.model.vote_count[op.digest])
                )
        self.attempted += len(frames)
        self.failed += failed
        return {"latencies": latencies, "ok": ok, "failed": failed, "sent": len(frames),
                "writes": writes, "bytes": moved, "rtt": rtt, "visible_votes": visible_votes}

    def _good(self, op, body: bytes) -> bool:
        """The cheap check every answer gets: the right message type and,
        for lookups, every requested digest in it.  The sweep compares
        full answers with the model."""
        markers = self.markers
        if op.kind == LOOKUP:
            return (body.startswith(markers["info"])
                    and self.catalogue.digests[op.digest].encode() in body)
        if op.kind == BATCH:
            return body.startswith(markers["batch"]) and all(
                self.catalogue.digests[d].encode() in body for d in op.items)
        return body.startswith(markers["ok"])

    def _quiesce(self) -> None:
        deadline = time.perf_counter() + GRACE
        if not self.mux.wait_idle(deadline):
            raise BenchmarkError("answers still outstanding after the grace period")
        if self.spec.subscriber:
            self.mux.wait_events_quiet(QUIET, deadline)

    def sweep(self, label: str, mux=None, session: str = None) -> None:
        """Look up the fixed sample and compare each answer with the model."""
        mux = mux or self.mux
        session = session or self.sessions[0]
        frames = [
            self.frames.encode(QuerySoftwareRequest(session=session, **self.catalogue.item(d)), 0)[:3]
            for d in self.sweep_digests
        ]
        loadgen.request_all(mux, frames, window=16, timeout=120.0)
        verdicts: dict = {}
        for (cid, _, _), digest in zip(frames, self.sweep_digests):
            message = decode_with(self.spec.codec, mux.responses.pop(cid)[1])
            verdict = self.model.check(digest, message)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if verdict == "wrong":
                if isinstance(message, ErrorResponse):
                    self.failed += 1
                self.report.append(f"  wrong answer for digest {digest}: {message};"
                                   f" model: {self.model.describe(digest)}")
        stale = verdicts.get("stale-vendor-score", 0)
        torn = verdicts.get("torn-vendor-score", 0)
        wrong = verdicts.get("wrong", 0)
        self.attempted += len(frames)
        self.checked += len(frames)
        self.vendor_score_defects += stale + torn
        self.wrong += wrong
        self.report.append(
            f"sweep {label}: checked {len(frames)} agree {verdicts.get(None, 0)}"
            f" stale-vendor-score {stale} torn-vendor-score {torn} wrong {wrong}"
        )

    def run_open(self, frames: list) -> dict:
        mux = self.mux
        self.handle.call("phase", maintenance=True)
        before = self.handle.call("stats")
        mux.record_events = self.spec.subscriber
        # The generator and the server share one CPU in this phase, so a
        # round trip hands the CPU from one to the other and never waits
        # for an idle CPU to wake: on a shared virtual host that wake-up
        # costs 0.1 to 0.4 ms, set by the other tenants, not the program.
        cpus = os.sched_getaffinity(0)
        processes = (os.getpid(), self.handle.process.pid)
        for pid in processes:
            set_affinity(pid, {min(cpus)})
        try:
            self._open_start = time.perf_counter() + 0.05
            sent_times = loadgen.run_open(mux, frames, self.spec.open_rate,
                                          self._open_start, GRACE)
            self._quiesce()
        finally:
            for pid in processes:
                set_affinity(pid, cpus)
        mux.record_events = False
        after = self.handle.call("stats")
        result = self._settle(frames, sent_times)
        result["lateness"] = [sent_times[i] - (self._open_start + i / self.spec.open_rate)
                              for i in range(len(sent_times))]
        self._phase_line("open", result["sent"], result["ok"], result["failed"], before, after)
        if self.spec.subscriber:
            result["visibility"] = self._visibility(result["visible_votes"], mux.events)
            mux.events = []
        result["stats"] = (before, after)
        return result

    def run_closed(self, name: str, frames: list) -> dict:
        queues = [[] for _ in range(CONNECTIONS)]
        for item in frames:
            queues[item[1]].append(item)
        self.handle.call("phase", maintenance=False)
        before = self.handle.call("stats")
        pid = self.handle.process.pid
        outcome = loadgen.run_closed(
            self.mux, queues, self.spec.window, self.closed_seconds, GRACE,
            probe=lambda: process_cpu_seconds(pid),
            windows=max(1, round(self.closed_seconds / WINDOW_SECONDS)))
        after = self.handle.call("stats")
        self._quiesce()
        sent = sorted(
            (item for queue, count in zip(queues, outcome["issued"]) for item in queue[:count]),
            key=lambda item: item[0],
        )
        result = self._settle(sent)
        samples = outcome["samples"]
        windows = [(later[1] - earlier[1], later[0] - earlier[0], later[2] - earlier[2])
                   for earlier, later in zip(samples, samples[1:])]
        result.update(
            throughput=stats.median([done / seconds for done, seconds, _ in windows]),
            cpu_us_per_op=stats.median([cpu * 1e6 / max(1, done) for done, _, cpu in windows]),
            windows=len(windows),
            completed=outcome["completed"],
            stats=(before, after),
        )
        self._phase_line(name, result["sent"], result["ok"], result["failed"], before, after)
        if outcome["exhausted"]:
            raise BenchmarkError(f"phase {name}: pre-encoded requests ran out")
        return result

    def _visibility(self, votes: list, events: list) -> dict:
        """Vote-to-visible delay of every acknowledged ``open`` vote."""
        by_digest: dict = {}
        codec = self.spec.codec
        for arrival, body in events:
            event = decode_with(codec, body)
            by_digest.setdefault(event.software_id, []).append(
                (arrival, event.vote_count, event.resync))
        delays = []
        missed = 0
        for digest, sent, count in votes:
            stream = by_digest.get(digest, [])
            at = bisect.bisect_left(stream, (sent,))
            seen = None
            for arrival, vote_count, resync in stream[at:]:
                if vote_count >= count:
                    seen = (arrival, resync)
                    break
            if seen is None or seen[1]:
                missed += 1
            else:
                delays.append(seen[0] - sent)
        return {"delays": delays, "missed": missed, "votes": len(votes), "events": len(events)}

    # -- restart ---------------------------------------------------------------

    def restart(self) -> dict:
        """Stop the server, restart it on its directory, time the first
        answered lookup (re-login included), and sweep again."""
        self.mux.close()
        self.handle.stop()
        started = time.perf_counter()
        handle = ServerHandle()
        self.handle = handle
        reply = handle.call("setup", workload=self.spec.name, seed=self.seed,
                            data_dir=self.data_dir, recover=True, trace=self.trace,
                            record=self.trace)
        mux = self._connect(reply, 1)
        self.mux = mux
        session = self._login(mux, self.login_frames[:1])[0]
        probe = self.frames.encode(
            QuerySoftwareRequest(session=session, **self.catalogue.item(self.sweep_digests[0])), 0)
        loadgen.request_all(mux, [probe[:3]], window=1, timeout=60.0)
        recovery = time.perf_counter() - started
        answer = decode_with(self.spec.codec, mux.responses.pop(probe[0])[1])
        self.attempted += 1
        if not isinstance(answer, SoftwareInfoResponse) or not answer.known:
            self.failed += 1
        self.sweep("restart", mux, session)
        return {"recovery_s": recovery}

    # -- the whole run ---------------------------------------------------------------

    def execute(self) -> dict:
        started = time.perf_counter()
        self.prepare()
        prepared = time.perf_counter()
        try:
            self.set_up()
            ready = time.perf_counter()
            results = self._measure()
            self.mux.close()
            self.handle.stop()
            done = time.perf_counter()
            self.report.append(
                f"wall time: prepare {prepared - started:.1f}s, set-ups {ready - prepared:.1f}s,"
                f" phases and checks {done - ready:.1f}s")
            return results
        except BaseException:
            if self.mux is not None:
                self.mux.close()
            if self.handle is not None:
                self.handle.kill()
            raise
        finally:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def _measure(self) -> dict:
        phases = dict(self.plan)
        results = {}
        if self.trace:
            results["reference"] = self.run_closed("reference", phases["reference"])
            self.sweep("reference")
            self.handle.call("trace", on=True)
            self.handle.call("trace_cut")
        results["open"] = self.run_open(phases["open"])
        if self.trace:
            self.layer_summaries.append(("open", self.handle.call("trace_cut")))
        self.sweep("open")
        if self.trace:
            self.handle.call("trace_cut")
        results["closed"] = self.run_closed("closed", phases["closed"])
        if self.trace:
            self.layer_summaries.append(("closed", self.handle.call("trace_cut")))
        self.sweep("closed")
        final = self.handle.call("stats")
        results["final"] = final
        if "ticks" in final:
            self.report.append(
                f"maintenance: {final['ticks']} daily ticks, seconds "
                + " ".join(f"{value:.3f}" for value in final["tick_durations"]))
        if self.trace:
            self._dump_spans("")
        if self.spec.restart:
            results["restart"] = self.restart()
            if self.trace:
                self.layer_summaries.append(("restart", self.handle.call("trace_cut")))
                self._dump_spans("-restart")
        return self._metrics(results)

    def _dump_spans(self, suffix: str) -> None:
        path = os.path.join(OUT_DIR, f"spans-{self.spec.name}-{self.seed}{suffix}.jsonl")
        written = self.handle.call("trace_dump", path=path)["spans"]
        self.report.append(f"{written} spans written to {os.path.relpath(path, ROOT)}")

    # -- metrics ---------------------------------------------------------------

    def _put(self, name: str, value, count) -> None:
        self.metrics[name] = (value, count)

    def _metrics(self, results: dict) -> dict:
        """End-to-end metrics from an untraced run, layer metrics from a
        traced one; both get the correctness shares."""
        if self.trace:
            self.metrics.pop("setup_s")
            self._layer_metrics(results)
        else:
            self._end_to_end(results)
        self._put("failed_ratio", self.failed / max(1, self.attempted), self.attempted)
        self._put("wrong_answer_ratio",
                  (self.vendor_score_defects + self.wrong) / max(1, self.checked),
                  self.checked)
        return results

    def _end_to_end(self, results: dict) -> None:
        spec = self.spec
        open_result = results["open"]
        closed = results["closed"]
        self._put("throughput_rps", closed["throughput"], closed["completed"])
        self._put("server_cpu_us_per_op", closed["cpu_us_per_op"], closed["ok"])
        self.report.append(f"closed phase: throughput_rps and server_cpu_us_per_op are"
                           f" medians over {closed['windows']} windows of {WINDOW_SECONDS:g} s")
        # Peak RSS when the open phase ends: that phase sends the same
        # number of requests on every run, while the closed phase sends
        # as many as the server's speed allows.
        self._put("server_rss_mb", open_result["stats"][1]["max_rss_kb"] / 1024.0, 1)
        for key, prefix in ((LOOKUP, "lookup"), (BATCH, "batch"), ("write", "write")):
            if spec.name in LATENCY_WORKLOADS.get(prefix, (spec.name,)):
                self._percentiles(prefix, [v * 1000.0 for v in open_result["latencies"][key]])
        if spec.subscriber:
            visibility = open_result["visibility"]
            self._percentiles("visible", [v * 1000.0 for v in visibility["delays"]])
            self._put("push_missed_ratio",
                      visibility["missed"] / max(1, visibility["votes"]), visibility["votes"])
        if "restart" in results:
            self._put("recovery_s", results["restart"]["recovery_s"], 1)

    @staticmethod
    def _delta(results, group: str) -> dict:
        """Counter growth of one ``stats()`` group summed over phases."""
        total: dict = {}
        for result in results:
            before, after = result["stats"]
            for key, value in after[group].items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    total[key] = total.get(key, 0) + value - before[group][key]
        return total

    def _percentiles(self, prefix: str, values: list) -> None:
        """p50 and p99 from the nearest rank; a percentile with fewer than
        ten samples beyond it is recorded as unsupported (``None``)."""
        for fraction, suffix in ((0.5, "p50"), (0.99, "p99")):
            self._put(f"{prefix}_{suffix}_ms", stats.percentile(values, fraction), len(values))

    def _layer_split(self, merged: dict) -> None:
        """Report where the server's request time goes: self time by
        layer (the first part of each span name), and by the groups the
        workloads are predicted to separate on."""
        handle = merged.get(HANDLE, {}).get("total_s", 0.0)
        if not handle:
            return
        layers: dict = {}
        groups: dict = {}
        for name, entry in merged.items():
            if name.endswith("@background"):
                continue
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
            group = next((g for g, members in SPLIT_GROUPS if name in members), layer + " other")
            groups[group] = groups.get(group, 0.0) + entry["self_s"]

        def shares(table: dict) -> str:
            return ", ".join(f"{key} {100.0 * value / handle:.1f}%"
                             for key, value in sorted(table.items(), key=lambda kv: -kv[1]))

        self.report.append("layer split of handle_bytes time: " + shares(layers))
        self.report.append("layer groups: " + shares(groups))

    def _layer_metrics(self, results: dict) -> None:
        merged: dict = {}
        requests = encoded = 0
        for phase, summary in self.layer_summaries:
            if phase == "restart":
                continue
            requests += summary["requests"]
            encoded += summary["encoded_requests"]
            for name, entry in summary["names"].items():
                into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                "count": 0, "count_max": 0})
                for key in ("calls", "total_s", "self_s", "count"):
                    into[key] += entry[key]
                into["count_max"] = max(into["count_max"], entry["count_max"])
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "count_max": 0}

        def get(name: str, background: bool = False) -> dict:
            entry = merged.get(name, empty)
            if not background:
                return entry
            other = merged.get(name + "@background", empty)
            return {key: (max(entry[key], other[key]) if key == "count_max"
                          else entry[key] + other[key]) for key in entry}

        ops = max(1, requests)
        traced = (results["open"], results["closed"])
        writes = max(1, sum(r["writes"] for r in traced))
        us = 1e6
        handle = get(HANDLE)
        open_summary = dict(self.layer_summaries)["open"]["names"].get(HANDLE, empty)
        rtt = results["open"]["rtt"]
        self._put("net.rtt_minus_handle_us",
                  (sum(rtt) / max(1, len(rtt))
                   - open_summary["total_s"] / max(1, open_summary["calls"])) * us, len(rtt))
        moved = sum(r["bytes"] for r in traced)
        self._put("net.bytes_per_op", moved / ops, requests)
        self._put("protocol.decode_us_per_op", get("protocol.decode")["total_s"] * us / ops, requests)
        self._put("protocol.encode_us_per_op", get("protocol.encode")["total_s"] * us / ops, requests)
        self._put("protocol.encoded_share", encoded / ops, requests)
        self._put("server.handle_us_per_op", handle["total_s"] * us / ops, requests)
        self._put("server.pipeline_self_us_per_op", handle["self_s"] * us / ops, requests)
        self._put("server.auth_us_per_op", get("server.auth")["total_s"] * us / ops, requests)
        cache_delta = self._delta(traced, "cache")
        lookups = cache_delta["hits"] + cache_delta["misses"]
        self._put("server.cache.hit_ratio", cache_delta["hits"] / max(1, lookups), lookups)
        wire = get("server.cache.wire_for")
        self._put("server.cache.wire_hit_ratio", wire["count"] / max(1, wire["calls"]), wire["calls"])
        self._put("server.cache.evictions", cache_delta["evictions"], lookups)
        publish = get("server.subscriptions.publish", background=True)
        self._put("server.subscriptions.publish_us_per_write",
                  get("server.subscriptions.publish")["total_s"] * us / writes, writes)
        subs = self._delta(traced, "subscriptions")
        self._put("server.subscriptions.events_per_write", subs["delivered"] / writes, writes)
        self._put("server.subscriptions.dropped", subs["dropped_slow"] + subs["dropped_dead"], writes)
        self._put("server.subscriptions.queue_depth_max", publish["count_max"], publish["calls"])
        vendor = get("core.vendor_reputation")
        self._put("core.vendor_reputation_us_per_call",
                  vendor["total_s"] * us / max(1, vendor["calls"]), vendor["calls"])
        self._put("core.vendor_reputation_calls_per_op", vendor["calls"] / ops, requests)
        ranked = get("core.ranked_comments")
        self._put("core.ranked_comments_us_per_call",
                  ranked["total_s"] * us / max(1, ranked["calls"]), ranked["calls"])
        register = get("core.register_software")
        self._put("core.register_software_us_per_item",
                  register["total_s"] * us / max(1, register["calls"]), register["calls"])
        cast = get("core.cast_vote")
        self._put("core.cast_vote_us", cast["total_s"] * us / max(1, cast["calls"]), cast["calls"])
        apply_vote = get("core.scoring.apply_vote")
        self._put("core.scoring.apply_vote_us",
                  apply_vote["total_s"] * us / max(1, apply_vote["calls"]), apply_vote["calls"])
        self._put("core.scoring.trust_changes_per_write",
                  get("core.scoring.apply_trust_change", background=True)["calls"] / writes, writes)
        self._put("core.scoring.publishes_per_write", publish["calls"] / writes, writes)
        self._put("core.trust_us_per_write", get("core.trust")["total_s"] * us / writes, writes)
        tick = get(MAINTENANCE + "@background")
        self._put("core.maintenance_s", tick["total_s"] / max(1, tick["calls"]), tick["calls"])
        reconcile = get("core.reconcile", background=True)
        self._put("core.reconcile_repairs", reconcile["count"] / max(1, reconcile["calls"]),
                  reconcile["calls"])
        collusion = get("core.collusion_pass", background=True)
        self._put("core.collusion_pass_s", collusion["total_s"] / max(1, collusion["calls"]),
                  collusion["calls"])
        rows = get("storage.row_read")
        self._put("storage.row_reads_per_op", rows["count"] / ops, requests)
        self._put("storage.row_read_us_per_op", rows["total_s"] * us / ops, requests)
        self._put("storage.read_lock_wait_us_per_op",
                  get("storage.acquire_read")["total_s"] * us / ops, requests)
        self._put("storage.write_lock_wait_us_per_write",
                  get("storage.acquire_write")["total_s"] * us / writes, writes)
        self._put("storage.commit_us_per_write", get("storage.commit")["total_s"] * us / writes, writes)
        append = get("storage.wal_append")
        self._put("storage.wal_append_us_per_write", append["self_s"] * us / writes, writes)
        self._put("storage.durable_wait_us_per_write",
                  get("storage.durable_wait")["total_s"] * us / writes, writes)
        self._put("storage.wal_bytes_per_write",
                  get("storage.wal_unit", background=True)["count"] / writes, writes)
        checkpoint = get("storage.checkpoint", background=True)
        self._put("storage.checkpoint_s", checkpoint["total_s"] / max(1, checkpoint["calls"]),
                  checkpoint["calls"])
        for phase, summary in self.layer_summaries:
            if phase != "restart":
                continue
            names = summary["names"]
            for span, metric in (("storage.recover", "storage.recover_s"),
                                 ("core.bootstrap", "core.bootstrap_s")):
                entry = names.get(span + "@background", names.get(span, empty))
                self._put(metric, entry["total_s"], entry["calls"])
        self._layer_split(merged)
        lateness = [v * 1000.0 for v in results["open"]["lateness"]]
        late = stats.percentile(lateness, 0.99)
        self._put("loadgen.late_p99_ms", late, len(lateness))
        reference = results["reference"]["throughput"]
        self._put("trace.overhead_ratio", results["closed"]["throughput"] / reference,
                  results["closed"]["completed"])
