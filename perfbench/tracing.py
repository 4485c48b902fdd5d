"""Spans around calls into the server's layers, recorded from outside.

:class:`Tracer` replaces selected functions and methods of the
``repro`` package with wrappers that record one span per call: name,
start, end, parent span and request id.  The ``handle_bytes`` wrapper
opens a request; nested calls take their parent from a thread-local
stack; maintenance ticks are roots of their own.  Wrappers pass
arguments, return values and exceptions through unchanged, and
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory
until :meth:`Tracer.take` hands them over.

The server binds some of these methods when it is built (the transport
holds ``handle_bytes``, the engine's listener list holds
``SubscriptionRegistry.publish``), so a traced server is built with the
wrappers already installed; they record only while :attr:`Tracer.recording`
is set and otherwise just call through.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Optional

#: Span record fields (a list per span keeps recording cheap).
SPAN_ID, PARENT, REQUEST, NAME, START, END, COUNT = range(7)

HANDLE = "server.handle_bytes"
MAINTENANCE = "server.run_daily_batch"


def _one(args, result):
    return 1


def _rows(args, result):
    return len(result)


def _hit(args, result):
    return 0 if result is None else 1


def _repairs(args, result):
    return result.mismatched


def _queue_depth(args, result):
    registry = args[0]
    # Read-only peek at the registry's queues: the subscription layer
    # publishes no depth gauge of its own.
    with registry._lock:
        return max((len(s.queue) for s in registry._subscriptions.values()), default=0)


def _unit_bytes(args, result):
    # encode_commit appends the commit record to the unit's buffer,
    # which then holds the whole unit as it is written to the log.
    return len(args[0])


def targets() -> list:
    """``(owner, attribute, span name, opens a request, count)`` for every
    traced call, outermost layer first; ``count(args, result)`` gives the
    number a span carries besides its times."""
    from repro import protocol
    from repro.core.reputation import ReputationEngine
    from repro.core.scoring import StreamingScorer
    from repro.core.trust2 import BayesianTrustLedger
    from repro.server import app, pipeline, subscriptions
    from repro.server.accounts import AccountManager
    from repro.server.cache import ScoreResponseCache
    from repro.server.subscriptions import SubscriptionRegistry
    from repro.storage.engine import Database
    from repro.storage import records
    from repro.storage.locks import ReadWriteLock
    from repro.storage.table import Table
    from repro.storage.transactions import Transaction
    from repro.storage.wal import WriteAheadLog

    rows = [
        (app.ReputationServer, "handle_bytes", HANDLE, True, _one),
        (app.ReputationServer, "run_daily_batch", MAINTENANCE, True, _one),
        (AccountManager, "authenticate_session", "server.auth", False, _one),
        (ScoreResponseCache, "wire_for", "server.cache.wire_for", False, _hit),
        (SubscriptionRegistry, "publish", "server.subscriptions.publish", False,
         _queue_depth),
        (ReputationEngine, "register_software", "core.register_software", False, _one),
        (ReputationEngine, "vendor_reputation", "core.vendor_reputation", False, _one),
        (ReputationEngine, "ranked_comments", "core.ranked_comments", False, _one),
        (ReputationEngine, "cast_vote", "core.cast_vote", False, _one),
        (ReputationEngine, "run_collusion_pass", "core.collusion_pass", False, _one),
        (ReputationEngine, "reconcile_scores", "core.reconcile", False, _repairs),
        (ReputationEngine, "bootstrap_scores", "core.bootstrap", False, _one),
        (StreamingScorer, "apply_vote", "core.scoring.apply_vote", False, _one),
        (StreamingScorer, "apply_trust_change", "core.scoring.apply_trust_change", False,
         _one),
        (Table, "get", "storage.row_read", False, _one),
        (Table, "get_or_none", "storage.row_read", False, _one),
        (Table, "select", "storage.row_read", False, _rows),
        (ReadWriteLock, "acquire_read", "storage.acquire_read", False, _one),
        (ReadWriteLock, "acquire_write", "storage.acquire_write", False, _one),
        (Transaction, "commit", "storage.commit", False, _one),
        (WriteAheadLog, "append_commit_unit", "storage.wal_append", False, _one),
        (records, "encode_commit", "storage.wal_unit", False, _unit_bytes),
        (WriteAheadLog, "wait_durable", "storage.durable_wait", False, _one),
        (WriteAheadLog, "sync", "storage.durable_wait", False, _one),
        (Database, "checkpoint", "storage.checkpoint", False, _one),
        (Database, "recover", "storage.recover", False, _one),
    ]
    for method in ("observe_vote", "credit", "debit", "penalize", "refresh"):
        rows.append((BayesianTrustLedger, method, "core.trust", False, _one))
    # The codec entry points are module functions imported by name, so
    # each importing module gets its own wrapper.
    for module in (pipeline, app, subscriptions, protocol):
        for function, span in (("decode_with", "protocol.decode"),
                               ("encode_with", "protocol.encode")):
            if function in vars(module):
                rows.append((module, function, span, False, _one))
    return rows


class Tracer:
    """Install span-recording wrappers and collect their spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        self.spans: list = []
        self.recording = False

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def wrap(self, function: Callable, name: str, opens_request: bool = False,
             count: Callable = _one) -> Callable:
        """A wrapper around *function* that records one span per call."""
        clock = self._clock
        local = self._local
        span_ids = self._span_ids
        request_ids = self._request_ids
        spans = self.spans_sink

        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return function(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
                parent_id, request = parent[SPAN_ID], parent[REQUEST]
            else:
                parent_id = 0
                request = next(request_ids) if opens_request else 0
            record = [next(span_ids), parent_id, request, name, 0.0, 0.0, 0]
            stack.append(record)
            record[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
                spans(record)
            record[COUNT] = count(args, result)
            return result

        return traced

    def spans_sink(self, record: list) -> None:
        self.spans.append(record)

    def install(self, rows: Optional[list] = None) -> None:
        if self._patches:
            return
        for owner, attribute, name, opens_request, count in rows or targets():
            original = vars(owner)[attribute]
            setattr(owner, attribute, self.wrap(original, name, opens_request, count))
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        taken, self.spans = self.spans, []
        return taken


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part its child spans cover."""
    children: dict = {}
    for span in spans:
        if span[PARENT]:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span[SPAN_ID], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[SPAN_ID]] = (end - start) - covered
    return result


def summarize(spans: list) -> dict:
    """Per span name: calls, total and self seconds, count sum and max.

    Spans of a ``handle_bytes`` request keep their name; spans on other
    paths (maintenance ticks, push delivery, start-up) are filed under
    ``<name>@background``.
    """
    own = self_times(spans)
    handle_requests = {span[REQUEST] for span in spans if span[NAME] == HANDLE}
    names: dict = {}
    encoded_requests = set()
    for span in spans:
        in_request = span[REQUEST] in handle_requests
        key = span[NAME] if in_request else span[NAME] + "@background"
        entry = names.setdefault(
            key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "count_max": 0}
        )
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own[span[SPAN_ID]]
        entry["count"] += span[COUNT]
        entry["count_max"] = max(entry["count_max"], span[COUNT])
        if in_request and span[NAME] == "protocol.encode":
            encoded_requests.add(span[REQUEST])
    return {
        "names": names,
        "requests": len(handle_requests),
        "encoded_requests": len(encoded_requests),
        "spans": len(spans),
    }
