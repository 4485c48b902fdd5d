"""Workload definitions, seeded request streams and the answer model.

Both processes import this module: the server process seeds its engine
from :func:`build_catalogue`, and the load generator draws the request
stream from :class:`StreamGenerator` and checks answers against
:class:`Model`.  Everything here is a pure function of the workload and
the seed, so the same seed gives the same catalogue and the same
requests.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

PASSWORD = "perfbench-password"

#: Sessions are 32 hex characters.  Requests are encoded before login
#: with a same-length placeholder per account (it holds non-hex letters,
#: so it can never occur inside a digest) and patched after login.
SESSION_WIDTH = 32

#: Vendor scores are means of means; model and server sum in different
#: orders, so floats are compared within this tolerance.
TOLERANCE = 1e-9

LOOKUP = "lookup"
BATCH = "batch"
VOTE = "vote"
COMMENT = "comment"
REMARK = "remark"
WRITE_KINDS = (VOTE, COMMENT, REMARK)

#: Digests the sweep after each phase looks up and checks.
SWEEP_SAMPLE = 64
#: Generator connections on every workload: the nproc of the reference
#: host, so the generator never has more threads of work than cores.
CONNECTIONS = 2

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the server configuration it runs against.

    The values live in the ``workloads`` rows of ``spec.json``; each row
    names every field below, next to its prose (``why``, ``mix``).
    """

    name: str
    codec: str
    digests: int
    per_vendor: int
    comments_per_digest: int
    trust_model: str
    collusion: bool
    accounts: int
    #: Requests per second in the ``open`` phase, fixed once from the
    #: ``closed`` throughput of the parent commit on the reference host
    #: and never recalibrated per run.
    open_rate: float
    #: Share of ``--seconds`` given to the ``open`` phase.
    open_share: float
    #: ``closed`` phase: requests each request-carrying connection keeps
    #: in flight.
    window: int
    #: Digests lookups and votes draw from (``digests``: the whole
    #: catalogue).
    active_set: int
    #: Zipf exponent of digest choice (0: uniform).
    zipf_s: float
    #: One connection holds an all-digest push subscription.
    subscriber: bool
    #: A daily maintenance tick every this many acknowledged writes (0: none).
    maintenance_every: int
    #: Stop and restart the server on its data directory at the end.
    restart: bool
    #: Whether answers are checked field by field (score and vendor
    #: score too) or only for vote and comment counts.
    full_check: bool

    @property
    def request_connections(self) -> int:
        """Connections that carry requests (the subscriber carries none)."""
        return CONNECTIONS - 1 if self.subscriber else CONNECTIONS


def _load_workloads() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        rows = json.load(handle)["workloads"]
    names = [field.name for field in fields(Workload)]
    return {row["name"]: Workload(**{name: row[name] for name in names}) for row in rows}


WORKLOADS = _load_workloads()


def digest_of(seed: int, index: int) -> str:
    return hashlib.sha1(f"perfbench:{seed}:{index}".encode()).hexdigest()


def account_name(index: int) -> str:
    return f"pb{index:04d}"


def session_placeholder(index: int) -> str:
    text = f"perfbench-session-{index:014d}"
    assert len(text) == SESSION_WIDTH
    return text


@dataclass
class Catalogue:
    """The seeded server state, shared by the seeder and the model."""

    digests: list
    vendors: list  # vendor name by digest index
    #: ``(digest_index, account_index, score)`` engine-side seed votes.
    seed_votes: list
    #: ``(digest_index, account_index, text)``; the server numbers
    #: comments 1, 2, ... in this order.
    seed_comments: list
    #: Per-digest "true" score that votes scatter around.
    truths: list

    def item(self, index: int) -> dict:
        """The registration metadata lookups must repeat verbatim."""
        return {
            "software_id": self.digests[index],
            "file_name": f"prog{index:05d}.exe",
            "file_size": 4096 + index,
            "vendor": self.vendors[index],
            "version": "1.0",
        }


def build_catalogue(workload: Workload, seed: int) -> Catalogue:
    rng = random.Random(f"catalogue:{workload.name}:{seed}")
    count = workload.digests
    digests = [digest_of(seed, index) for index in range(count)]
    vendors = [f"Vendor {index // workload.per_vendor:04d}" for index in range(count)]
    truths = [rng.randint(2, 9) for _ in range(count)]
    accounts = workload.accounts
    seed_votes = [
        (index, (index * 7) % accounts, _scatter(rng, truths[index]))
        for index in range(count)
    ]
    seed_comments = [
        (index, (index * 7 + 1 + copy) % accounts, f"comment {copy} on program {index}")
        for index in range(count)
        for copy in range(workload.comments_per_digest)
    ]
    return Catalogue(digests, vendors, seed_votes, seed_comments, truths)


def _scatter(rng: random.Random, truth: int) -> int:
    return max(1, min(10, truth + rng.randint(-2, 2)))


#: Operation blocks of the block-drawn mixes: lookup-cold has 4 lookups
#: to 1 vote; vote-ingest 70% votes, 10% comments, 10% remarks and 10%
#: lookups.
MIX_BLOCKS = {
    "lookup-cold": (LOOKUP,) * 4 + (VOTE,),
    "vote-ingest": (VOTE,) * 7 + (COMMENT, REMARK, LOOKUP),
}


class Op:
    """One request of the stream (before encoding)."""

    __slots__ = ("kind", "conn", "account", "digest", "items", "score",
                 "text", "comment_id", "positive")

    def __init__(self, kind, conn, account, digest=-1, items=(), score=0,
                 text="", comment_id=0, positive=True):
        self.kind = kind
        self.conn = conn
        self.account = account
        self.digest = digest
        self.items = items
        self.score = score
        self.text = text
        self.comment_id = comment_id
        self.positive = positive

    def key(self) -> tuple:
        return (self.kind, self.conn, self.account, self.digest, tuple(self.items),
                self.score, self.text, self.comment_id, self.positive)


class StreamGenerator:
    """The seeded request stream of one workload.

    Writes never fail by construction: a vote picks an account that has
    not voted on the digest yet, and a remark an account that is not the
    comment's author and has not remarked it.  Every write rides
    connection 0, so the server applies writes in stream order and the
    model can replay them in that order.
    """

    def __init__(self, workload: Workload, catalogue: Catalogue, seed: int):
        self.workload = workload
        self.catalogue = catalogue
        self.rng = random.Random(f"stream:{workload.name}:{seed}")
        order_rng = random.Random(f"order:{workload.name}:{seed}")
        count = workload.digests
        if workload.active_set < count:
            self.pool = sorted(order_rng.sample(range(count), workload.active_set))
        else:
            self.pool = list(range(count))
        self._cumulative = None
        if workload.zipf_s:
            # Rank r (1-based) has weight r^-s; ranks map to a seeded
            # permutation so hot digests spread over vendors.
            order_rng.shuffle(self.pool)
            total = 0.0
            self._cumulative = []
            for rank in range(1, len(self.pool) + 1):
                total += rank ** -workload.zipf_s
                self._cumulative.append(total)
        self.voted = {(d, a) for d, a, _ in catalogue.seed_votes}
        self.remarked: set = set()
        self.comment_authors = [a for _, a, _ in catalogue.seed_comments]
        self.commented = {(d, a) for d, a, _ in catalogue.seed_comments}
        self.comments_written = 0
        self.issued = 0
        self._singles = 0
        self._conn_turn = 0
        self._block: list = []

    # -- digest choice ------------------------------------------------------

    def pick_digest(self) -> int:
        if self._cumulative is None:
            return self.pool[self.rng.randrange(len(self.pool))]
        point = self.rng.random() * self._cumulative[-1]
        return self.pool[bisect.bisect_left(self._cumulative, point)]

    def sample_digests(self, count: int) -> list:
        """The fixed sweep sample: drawn by the stream's own digest law
        from a separate generator, so it covers what the load touches."""
        saved = self.rng
        self.rng = random.Random(f"sweep:{self.workload.name}:{saved.random()}")
        try:
            chosen: list = []
            seen = set()
            while len(chosen) < count:
                digest = self.pick_digest()
                if digest not in seen:
                    seen.add(digest)
                    chosen.append(digest)
            return chosen
        finally:
            self.rng = saved

    # -- op construction -----------------------------------------------------

    def _reader_conn(self) -> int:
        if self.workload.request_connections == 1:
            return 0
        self._conn_turn ^= 1
        return self._conn_turn

    def _vote(self) -> Op:
        accounts = self.workload.accounts
        while True:
            digest = self.pick_digest()
            start = self.rng.randrange(accounts)
            for step in range(accounts):
                account = (start + step) % accounts
                if (digest, account) not in self.voted:
                    self.voted.add((digest, account))
                    score = _scatter(self.rng, self.catalogue.truths[digest])
                    return Op(VOTE, 0, account, digest=digest, score=score)

    def _comment(self) -> Op:
        # One comment per account and digest, seeded ones included.
        while True:
            digest = self.pick_digest()
            account = self.rng.randrange(self.workload.accounts)
            if (digest, account) not in self.commented:
                break
        self.commented.add((digest, account))
        self.comments_written += 1
        return Op(COMMENT, 0, account, digest=digest,
                  text=f"field report {self.comments_written} on program {digest}")

    def _remark(self) -> Op:
        accounts = self.workload.accounts
        seeded = len(self.comment_authors)
        while True:
            comment_id = 1 + self.rng.randrange(seeded)
            author = self.comment_authors[comment_id - 1]
            account = self.rng.randrange(accounts)
            if account == author or (account, comment_id) in self.remarked:
                continue
            self.remarked.add((account, comment_id))
            return Op(REMARK, 0, account, comment_id=comment_id,
                      positive=self.rng.random() < 0.7)

    def _lookup(self) -> Op:
        # A reading client keeps one session: lookups on connection c
        # use account c, so equal lookups encode to equal bytes.
        conn = self._reader_conn()
        return Op(LOOKUP, conn, conn, digest=self.pick_digest())

    def next_op(self) -> Op:
        self.issued += 1
        name = self.workload.name
        if name == "lookup-hot":
            # 31 single lookups to 1 batch of 32; 1 vote per 200 singles.
            if self._singles == 200:
                self._singles = 0
                return self._vote()
            if self.issued % 32 == 0:
                conn = self._reader_conn()
                items = tuple(self.pick_digest() for _ in range(32))
                return Op(BATCH, conn, conn, items=items)
            self._singles += 1
            return self._lookup()
        # The other mixes come in shuffled blocks, so every stretch of
        # the stream holds the mix's exact shares.
        if not self._block:
            self._block = list(MIX_BLOCKS[name])
            self.rng.shuffle(self._block)
        return getattr(self, "_" + self._block.pop())()


class Model:
    """What every answer should say, from what the benchmark sent.

    Under linear trust with no remarks and a fixed clock every vote
    weighs the same, so a digest's score is the plain mean of its votes
    and its vendor's score the mean of its rated digests' scores.  Both
    are kept as exact fractions.  ``history`` keeps every value a
    vendor's score has taken, so a stale vendor score can be told apart
    from a wrong one, and each digest's lowest and highest score so far
    bound what a vendor walk racing votes can return.  Every digest
    carries a seed vote, so a vendor's rated count never changes.
    """

    def __init__(self, workload: Workload, catalogue: Catalogue):
        self.workload = workload
        self.catalogue = catalogue
        count = workload.digests
        self.vote_sum = [0] * count
        self.vote_count = [0] * count
        self.comment_count = [0] * count
        self.vendor_sum: dict = {}
        self.vendor_rated: dict = {}
        self.history: dict = {}
        self.low: list = [None] * count
        self.high: list = [None] * count
        self.vendor_low: dict = {}
        self.vendor_high: dict = {}
        for digest, _, score in catalogue.seed_votes:
            self._add_vote(digest, score, remember=False)
        for digest, _, _ in catalogue.seed_comments:
            self.comment_count[digest] += 1
        for vendor in self.vendor_sum:
            self._remember(vendor)

    def _mean(self, digest: int) -> Fraction:
        return Fraction(self.vote_sum[digest], self.vote_count[digest])

    def _add_vote(self, digest: int, score: int, remember: bool = True) -> None:
        vendor = self.catalogue.vendors[digest]
        if self.vote_count[digest]:
            self.vendor_sum[vendor] -= self._mean(digest)
        else:
            self.vendor_rated[vendor] = self.vendor_rated.get(vendor, 0) + 1
            self.vendor_sum.setdefault(vendor, Fraction(0))
        self.vote_sum[digest] += score
        self.vote_count[digest] += 1
        mean = self._mean(digest)
        self.vendor_sum[vendor] += mean
        # Means are at least 1, so ``or 0`` only covers a first vote.
        low, high = self.low[digest], self.high[digest]
        if low is None or mean < low:
            self.vendor_low[vendor] = self.vendor_low.get(vendor, 0) + mean - (low or 0)
            self.low[digest] = mean
        if high is None or mean > high:
            self.vendor_high[vendor] = self.vendor_high.get(vendor, 0) + mean - (high or 0)
            self.high[digest] = mean
        if remember:
            self._remember(vendor)

    def _remember(self, vendor: str) -> None:
        bisect.insort(self.history.setdefault(vendor, []), float(self.vendor_score(vendor)))

    def vendor_score(self, vendor: str) -> Fraction:
        return self.vendor_sum[vendor] / self.vendor_rated[vendor]

    def apply(self, op: Op) -> None:
        """Fold one acknowledged write into the model."""
        if op.kind == VOTE:
            self._add_vote(op.digest, op.score)
        elif op.kind == COMMENT:
            self.comment_count[op.digest] += 1

    def was_vendor_score(self, vendor: str, value: float) -> bool:
        past = self.history.get(vendor, [])
        at = bisect.bisect_left(past, value - TOLERANCE)
        return at < len(past) and past[at] <= value + TOLERANCE

    def could_be_torn(self, vendor: str, value: float) -> bool:
        """Whether a walk that read each sibling's score at some moment of
        the vote sequence could have averaged to *value*: it lies between
        the mean of the siblings' lowest scores and of their highest."""
        rated = self.vendor_rated[vendor]
        return (float(self.vendor_low[vendor] / rated) - TOLERANCE <= value
                <= float(self.vendor_high[vendor] / rated) + TOLERANCE)

    def describe(self, digest: int) -> str:
        vendor = self.catalogue.vendors[digest]
        count = self.vote_count[digest]
        return (f"votes {count} comments {self.comment_count[digest]}"
                f" score {float(self._mean(digest)) if count else None}"
                f" vendor {vendor} vendor_score {float(self.vendor_score(vendor))}")

    def check(self, digest: int, info) -> Optional[str]:
        """``None`` if *info* agrees with the model, else the mismatch kind.

        When every other field agrees and only the vendor score differs,
        the answer shows the known vendor-score defect:
        ``"stale-vendor-score"`` if the value is one that vendor's score
        held earlier (a cached answer kept it after sibling votes), and
        ``"torn-vendor-score"`` if no state of the vote sequence had it
        but a vendor walk reading sibling scores while votes landed could
        have (:meth:`could_be_torn`).  Any other disagreement is
        ``"wrong"``.
        """
        expected_id = self.catalogue.digests[digest]
        if (
            getattr(info, "software_id", None) != expected_id
            or not info.known
            or info.vote_count != self.vote_count[digest]
            or len(info.comments) != self.comment_count[digest]
        ):
            return "wrong"
        if not self.workload.full_check:
            return None
        if info.score is None or abs(info.score - float(self._mean(digest))) > TOLERANCE:
            return "wrong"
        vendor = self.catalogue.vendors[digest]
        if info.vendor != vendor or info.vendor_score is None:
            return "wrong"
        if abs(info.vendor_score - float(self.vendor_score(vendor))) <= TOLERANCE:
            return None
        if self.was_vendor_score(vendor, info.vendor_score):
            return "stale-vendor-score"
        if self.could_be_torn(vendor, info.vendor_score):
            return "torn-vendor-score"
        return "wrong"
