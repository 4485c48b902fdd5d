"""The paper's primary contribution: the collaborative reputation system.

Subpackage layout (Sec. 3 of DESIGN.md):

* :mod:`~repro.core.taxonomy` — the PIS classification of Table 1 and its
  transformation into Table 2.
* :mod:`~repro.core.trust` — user trust factors with the weekly growth cap.
* :mod:`~repro.core.ratings` — 1–10 votes, one per user per software.
* :mod:`~repro.core.comments` — comments and positive/negative remarks.
* :mod:`~repro.core.aggregation` — published scores, versions, epoch.
* :mod:`~repro.core.scoring` — the one scoring fold (running sums),
  published per vote or at the daily tick.
* :mod:`~repro.core.vendor` — vendor reputation (mean of software scores).
* :mod:`~repro.core.bootstrap` — seeding the database from a prior corpus.
* :mod:`~repro.core.moderation` — the admin moderation queue.
* :mod:`~repro.core.policy` — the Sec. 4.2 software policy module.
* :mod:`~repro.core.subscriptions` — expert-group published feeds.
* :mod:`~repro.core.reputation` — the engine facade tying it together.
"""

from .taxonomy import (
    ConsentLevel,
    Consequence,
    TaxonomyCell,
    classify,
    transform_with_reputation,
    TABLE1_CELLS,
    TABLE2_CELLS,
)
from .trust import TrustPolicy, TrustLedger
from .trust2 import BayesianTrustPolicy, BayesianTrustLedger
from .ratings import RatingBook, Vote, MIN_SCORE, MAX_SCORE
from .comments import CommentBoard, Comment, Remark
from .aggregation import Aggregator, ScoreUpdate, SoftwareScore
from .scoring import ReconciliationReport, StreamingScorer
from .vendor import VendorBook, VendorScore
from .bootstrap import BootstrapCorpus, bootstrap_database
from .moderation import ModerationQueue, ModerationDecision, AutoModerator
from .policy import (
    Policy,
    PolicyDecision,
    PolicyVerdict,
    SoftwareFacts,
    MinimumRatingRule,
    TrustedSignerRule,
    ForbiddenBehaviorRule,
    VendorRatingRule,
    VendorRatingDenyRule,
    UnsignedUnknownRule,
)
from .preferences import UserPreferences
from .subscriptions import FeedPublisher, FeedEntry, SubscriptionManager
from .reputation import ReputationEngine

__all__ = [
    "ConsentLevel",
    "Consequence",
    "TaxonomyCell",
    "classify",
    "transform_with_reputation",
    "TABLE1_CELLS",
    "TABLE2_CELLS",
    "TrustPolicy",
    "TrustLedger",
    "BayesianTrustPolicy",
    "BayesianTrustLedger",
    "RatingBook",
    "Vote",
    "MIN_SCORE",
    "MAX_SCORE",
    "CommentBoard",
    "Comment",
    "Remark",
    "Aggregator",
    "ScoreUpdate",
    "SoftwareScore",
    "StreamingScorer",
    "ReconciliationReport",
    "VendorBook",
    "VendorScore",
    "BootstrapCorpus",
    "bootstrap_database",
    "ModerationQueue",
    "ModerationDecision",
    "AutoModerator",
    "Policy",
    "PolicyDecision",
    "PolicyVerdict",
    "SoftwareFacts",
    "MinimumRatingRule",
    "TrustedSignerRule",
    "ForbiddenBehaviorRule",
    "VendorRatingRule",
    "VendorRatingDenyRule",
    "UnsignedUnknownRule",
    "UserPreferences",
    "FeedPublisher",
    "FeedEntry",
    "SubscriptionManager",
    "ReputationEngine",
]
