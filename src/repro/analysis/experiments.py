"""The experiment suite: one function per paper exhibit (see DESIGN.md §4).

Each ``run_eN_*`` function is deterministic given its arguments, returns a
plain dict of results, and includes a ``rendered`` key holding the ASCII
exhibit.  The benchmark files call these functions; EXPERIMENTS.md records
their output against the paper's claims.
"""

from __future__ import annotations

import random
from typing import Optional

from ..clock import SimClock, days, weeks
from ..core.policy import (
    MaximumRatingDenyRule,
    MinimumRatingRule,
    Policy,
    PolicyVerdict,
    SoftwareFacts,
    TrustedSignerRule,
    UnsignedUnknownRule,
)
from ..core.bootstrap import BootstrapCorpus, BootstrapEntry
from ..core.taxonomy import ConsentLevel, transform_with_reputation
from ..core.trust import TrustLedger, TrustPolicy
from ..client.prompter import PrompterConfig, RatingPrompter
from ..crypto.signatures import SignatureVerifier
from ..server import ReputationServer
from ..sim.attacks import (
    run_defamation,
    run_polymorphic_vendor,
    run_self_promotion,
    run_vote_flood,
)
from ..sim.community import CommunityConfig, CommunitySimulation
from ..sim.metrics import classification_matrix
from ..sim.population import (
    DEFAULT_CELL_WEIGHTS,
    PopulationConfig,
    generate_population,
    true_quality_score,
)
from ..sim.users import AVERAGE, EXPERT, FREE_RIDER, NOVICE
from .tables import format_score, render_table, render_taxonomy_matrix


# ---------------------------------------------------------------------------
# E1 — Table 1: the PIS classification
# ---------------------------------------------------------------------------

def run_e1_table1(population_size: int = 400, seed: int = 7) -> dict:
    """Generate a software universe and print it as the paper's Table 1."""
    population = generate_population(
        PopulationConfig(size=population_size, seed=seed)
    )
    counts = classification_matrix(population.executables)
    result = {
        "counts": counts,
        "total": len(population),
        "legitimate": len(population.legitimate()),
        "spyware": len(population.spyware()),
        "malware": len(population.malware()),
        "rendered": render_taxonomy_matrix(
            counts,
            title=(
                "Table 1: classification of privacy-invasive software "
                f"(population of {population_size})"
            ),
        ),
    }
    assert result["legitimate"] + result["spyware"] + result["malware"] == result["total"]
    return result


# ---------------------------------------------------------------------------
# E2 — Table 2: the transformation under a deployed reputation system
# ---------------------------------------------------------------------------

def run_e2_table2(
    users: int = 30,
    simulated_days: int = 45,
    seed: int = 11,
    population_size: int = 120,
    with_bootstrap: bool = True,
) -> dict:
    """Run a community, then re-derive every program's consent level.

    Medium-consent software whose behaviour the reputation system can
    describe to the user migrates to high consent; medium-consent software
    that hides (no vendor name, evasive) is treated as low consent.  The
    medium row should drain in proportion to rating coverage.
    """
    population_config = PopulationConfig(size=population_size, seed=seed + 3)
    bootstrap = None
    if with_bootstrap:
        bootstrap = _bootstrap_from_population(population_config, fraction=0.7)
    config = CommunityConfig(
        users=users,
        simulated_days=simulated_days,
        seed=seed,
        population=population_config,
        bootstrap=bootstrap,
    )
    sim = CommunitySimulation(config)
    result = sim.run()
    engine = result.engine
    before = classification_matrix(result.population.executables)
    after = {number: 0 for number in range(1, 10)}
    migrated_to_high = 0
    migrated_to_low = 0
    unresolved_medium = 0
    for executable in result.population.executables:
        cell = executable.taxonomy_cell
        informed = engine.software_reputation(executable.software_id) is not None
        deceitful = (
            cell.consent is ConsentLevel.MEDIUM and executable.vendor is None
        )
        new_cell = transform_with_reputation(cell, informed, deceitful)
        after[new_cell.number] += 1
        if cell.consent is ConsentLevel.MEDIUM:
            if new_cell.consent is ConsentLevel.HIGH:
                migrated_to_high += 1
            elif new_cell.consent is ConsentLevel.LOW:
                migrated_to_low += 1
            else:
                unresolved_medium += 1
    medium_before = sum(before[n] for n in (4, 5, 6))
    medium_after = sum(after[n] for n in (4, 5, 6))
    rendered = "\n\n".join(
        [
            render_taxonomy_matrix(before, "Before (Table 1 shape)"),
            render_taxonomy_matrix(after, "After reputation deployment (Table 2 shape)"),
            f"medium-consent row: {medium_before} -> {medium_after} "
            f"(to-high {migrated_to_high}, to-low {migrated_to_low}, "
            f"unresolved {unresolved_medium})",
        ]
    )
    return {
        "before": before,
        "after": after,
        "medium_before": medium_before,
        "medium_after": medium_after,
        "migrated_to_high": migrated_to_high,
        "migrated_to_low": migrated_to_low,
        "unresolved_medium": unresolved_medium,
        "coverage": result.final_coverage,
        "rendered": rendered,
    }


def _bootstrap_from_population(
    population_config: PopulationConfig, fraction: float, weight: float = 10.0
) -> BootstrapCorpus:
    """Build a prior corpus covering *fraction* of the population.

    Plays the role of the "existing, more or less reliable, software
    rating database" of Sec. 2.1: priors equal ground truth with mild
    rounding noise.
    """
    population = generate_population(population_config)
    rng = random.Random(population_config.seed + 17)
    entries = []
    for executable in population.executables:
        if rng.random() >= fraction:
            continue
        prior = true_quality_score(executable) + rng.choice((-1, 0, 0, 1))
        prior = min(10, max(1, prior))
        entries.append(
            BootstrapEntry(
                software_id=executable.software_id,
                file_name=executable.file_name,
                file_size=executable.file_size,
                vendor=executable.vendor,
                version=executable.version,
                prior_score=float(prior),
                weight=weight,
            )
        )
    return BootstrapCorpus.from_iterable("prior-corpus", entries)


# ---------------------------------------------------------------------------
# E3 — infection rates: the >80 % home / >30 % corporate claim
# ---------------------------------------------------------------------------

def run_e3_infection(
    users: int = 25, simulated_days: int = 40, seed: int = 13
) -> dict:
    """Home and corporate fleets, unprotected vs reputation-protected."""
    home_population = PopulationConfig(size=150, seed=seed + 1)
    corporate_weights = dict(DEFAULT_CELL_WEIGHTS)
    # IT-managed software sources: far less grey-zone exposure.
    corporate_weights.update({1: 0.75, 4: 0.04, 5: 0.06, 6: 0.01})
    corporate_population = PopulationConfig(
        size=150, seed=seed + 2, cell_weights=corporate_weights
    )
    fleets = {
        "home unprotected": CommunityConfig(
            users=users,
            simulated_days=simulated_days,
            seed=seed,
            protection=("none",),
            population=home_population,
            archetypes=(NOVICE, AVERAGE, FREE_RIDER),
        ),
        "corporate (antivirus)": CommunityConfig(
            users=users,
            simulated_days=simulated_days,
            seed=seed,
            protection=("antivirus",),
            population=corporate_population,
            archetypes=(EXPERT, AVERAGE),
        ),
        "home + reputation": CommunityConfig(
            users=users,
            simulated_days=simulated_days,
            seed=seed,
            protection=("reputation",),
            population=home_population,
            archetypes=(NOVICE, AVERAGE, FREE_RIDER),
            bootstrap=_bootstrap_from_population(home_population, fraction=0.6),
        ),
        "corporate + reputation": CommunityConfig(
            users=users,
            simulated_days=simulated_days,
            seed=seed,
            protection=("antivirus", "reputation"),
            population=corporate_population,
            archetypes=(EXPERT, AVERAGE),
            bootstrap=_bootstrap_from_population(corporate_population, fraction=0.6),
        ),
    }
    rows = []
    outcomes = {}
    for label, config in fleets.items():
        result = CommunitySimulation(config).run()
        outcomes[label] = {
            "ever_infected": result.final_infection_rate,
            "actively_infected": result.final_active_infection_rate,
        }
        rows.append(
            [
                label,
                f"{result.final_infection_rate:.0%}",
                f"{result.final_active_infection_rate:.0%}",
            ]
        )
    rendered = render_table(
        ["fleet", "ever infected", "actively infected (7-day window)"],
        rows,
        title="Infection rates (paper: >80% home, >30% corporate)",
    )
    return {"outcomes": outcomes, "rendered": rendered}


# ---------------------------------------------------------------------------
# E4 — trust-factor growth cap
# ---------------------------------------------------------------------------

def run_e4_trust_growth(max_weeks: int = 25) -> dict:
    """Sweep membership age vs reachable trust, with and without the cap."""
    capped_policy = TrustPolicy()
    uncapped_policy = TrustPolicy(max_growth_per_week=float("inf"))
    rows = []
    series_capped = []
    series_uncapped = []
    for week in range(1, max_weeks + 1):
        now = weeks(week) - 1  # the last second of that membership week
        capped = _max_reachable_trust(capped_policy, now)
        uncapped = _max_reachable_trust(uncapped_policy, now)
        series_capped.append(capped)
        series_uncapped.append(uncapped)
        if week <= 5 or week % 5 == 0:
            rows.append([week, f"{capped:.0f}", f"{uncapped:.0f}"])
    rendered = render_table(
        ["membership week", "max trust (cap=5/wk)", "max trust (uncapped)"],
        rows,
        title="Trust-factor growth limitation (Sec. 3.2)",
    )
    return {
        "capped": series_capped,
        "uncapped": series_uncapped,
        "weeks_to_maximum_capped": next(
            (w + 1 for w, v in enumerate(series_capped) if v >= 100.0), None
        ),
        "rendered": rendered,
    }


def _max_reachable_trust(policy: TrustPolicy, now: int) -> float:
    """Trust a maximally-praised user reaches by *now* (greedy credits)."""
    from ..storage import Database

    ledger = TrustLedger(Database(), policy)
    ledger.enroll("user", 0)
    # Credit far more than any cap each week; the ledger clips.
    step = weeks(1)
    t = 0
    while True:
        ledger.credit("user", 1000.0, min(t, now))
        if t >= now:
            break
        t += step
    return ledger.get("user")


# ---------------------------------------------------------------------------
# E5 — the attack/mitigation matrix
# ---------------------------------------------------------------------------

def _attack_rig(
    seed: int,
    honest_experts: int,
    expert_trust: float,
    puzzle_difficulty: int,
) -> tuple:
    """A server with two rated targets: a good program and a PIS program."""
    from ..winsim import Behavior, build_executable

    clock = SimClock()
    server = ReputationServer(
        clock=clock,
        puzzle_difficulty=puzzle_difficulty,
        rng=random.Random(seed),
    )
    engine = server.engine
    good = build_executable(
        "goodeditor.exe", vendor="Honest Software", content=f"good-{seed}".encode()
    )
    bad = build_executable(
        "adbundle.exe",
        vendor="Claria",
        content=f"bad-{seed}".encode(),
        behaviors=frozenset({Behavior.TRACKS_BROWSING, Behavior.DISPLAYS_ADS}),
        consent=ConsentLevel.MEDIUM,
    )
    for executable in (good, bad):
        engine.register_software(
            executable.software_id,
            executable.file_name,
            executable.file_size,
            executable.vendor,
            executable.version,
        )
    rng = random.Random(seed + 1)
    for index in range(honest_experts):
        username = f"expert_{index}"
        engine.enroll_user(username)
        engine.trust.force_set(username, expert_trust)
        engine.cast_vote(
            username, good.software_id, min(10, max(1, 9 + rng.choice((-1, 0, 0)))),
        )
        engine.cast_vote(
            username, bad.software_id, min(10, max(1, 2 + rng.choice((0, 0, 1)))),
        )
    clock.advance(days(1))
    engine.run_daily_aggregation()
    return server, good, bad


def run_e5_attacks(seed: int = 23) -> dict:
    """Attack outcomes across the mitigation matrix.

    Rows: (defence configuration); columns: defamation displacement of a
    good program and self-promotion displacement of a PIS program, plus
    what the attack cost.  Shape target: the undefended system is
    captured; trust weighting alone absorbs most of the displacement;
    puzzles+limits shrink the Sybil head-count.
    """
    scenarios = {
        "undefended (flat trust, no puzzle)": dict(
            expert_trust=1.0, puzzle_difficulty=0, origins=40
        ),
        "puzzles + origin limits": dict(
            expert_trust=1.0, puzzle_difficulty=12, origins=2
        ),
        "trust weighting": dict(
            expert_trust=25.0, puzzle_difficulty=0, origins=40
        ),
        "all defences": dict(
            expert_trust=25.0, puzzle_difficulty=12, origins=2
        ),
    }
    rows = []
    outcomes = {}
    for label, params in scenarios.items():
        server, good, bad = _attack_rig(
            seed,
            honest_experts=12,
            expert_trust=params["expert_trust"],
            puzzle_difficulty=params["puzzle_difficulty"],
        )
        defame = run_defamation(
            server,
            good.software_id,
            accounts=40,
            origins=params["origins"],
            patient_days=0,
        )
        promote = run_self_promotion(
            server,
            bad.software_id,
            accounts=40,
            origins=params["origins"],
            patient_days=0,
        )
        outcomes[label] = {
            "defamation_displacement": defame.score_displacement,
            "promotion_displacement": promote.score_displacement,
            "defamation_accounts": defame.accounts_created,
            "promotion_accounts": promote.accounts_created,
            "hash_work": defame.puzzle_hash_work + promote.puzzle_hash_work,
        }
        rows.append(
            [
                label,
                format_score(defame.score_displacement),
                format_score(promote.score_displacement),
                defame.accounts_created + promote.accounts_created,
                defame.puzzle_hash_work + promote.puzzle_hash_work,
            ]
        )
    # The flooding baseline: one account, many votes.
    server, good, _bad = _attack_rig(
        seed, honest_experts=12, expert_trust=25.0, puzzle_difficulty=8
    )
    flood = run_vote_flood(server, good.software_id, votes=200, score=1)
    rendered = render_table(
        [
            "defences",
            "defame Δscore",
            "promote Δscore",
            "sybil accounts",
            "hash work",
        ],
        rows,
        title="E5: attack displacement by mitigation (targets: good=~9, PIS=~2)",
    ) + (
        f"\nvote flood: {flood.votes_accepted}/{flood.votes_attempted} votes "
        f"landed (one-vote rule), displacement "
        f"{format_score(flood.score_displacement)}"
    )
    outcomes["vote_flood"] = {
        "votes_attempted": flood.votes_attempted,
        "votes_accepted": flood.votes_accepted,
        "displacement": flood.score_displacement,
    }
    return {"outcomes": outcomes, "rendered": rendered}


# ---------------------------------------------------------------------------
# E6 — comparison with conventional countermeasures
# ---------------------------------------------------------------------------

def run_e6_countermeasures(
    users: int = 20, simulated_days: int = 40, seed: int = 31
) -> dict:
    """Blocking coverage by software class for each countermeasure."""
    from ..sim.metrics import blocked_fraction_by_cell

    population = PopulationConfig(size=150, seed=seed + 1)
    modes = {
        "no protection": ("none",),
        "antivirus": ("antivirus",),
        "antispyware (legal constraint)": ("antispyware",),
        "reputation system": ("reputation",),
    }
    group_of_cell = {}
    for number in range(1, 10):
        if number == 1:
            group_of_cell[number] = "legitimate"
        elif number in (2, 4, 5):
            group_of_cell[number] = "grey zone (spyware)"
        else:
            group_of_cell[number] = "malware"
    rows = []
    outcomes = {}
    for label, protection in modes.items():
        config = CommunityConfig(
            users=users,
            simulated_days=simulated_days,
            seed=seed,
            protection=protection,
            population=population,
            bootstrap=(
                _bootstrap_from_population(population, fraction=0.6)
                if "reputation" in protection
                else None
            ),
        )
        result = CommunitySimulation(config).run()
        by_cell = blocked_fraction_by_cell(
            result.machines, result.executables_by_id
        )
        groups: dict = {}
        for number, fraction in by_cell.items():
            if fraction is None:
                continue
            groups.setdefault(group_of_cell[number], []).append(fraction)
        summary = {
            group: sum(values) / len(values) for group, values in groups.items()
        }
        outcomes[label] = summary
        rows.append(
            [
                label,
                f"{summary.get('legitimate', 0.0):.0%}",
                f"{summary.get('grey zone (spyware)', 0.0):.0%}",
                f"{summary.get('malware', 0.0):.0%}",
            ]
        )
    rendered = render_table(
        ["countermeasure", "legitimate blocked", "grey zone blocked", "malware blocked"],
        rows,
        title="E6: blocking by software class (Sec. 4.3 comparison)",
    )
    return {"outcomes": outcomes, "rendered": rendered}


# ---------------------------------------------------------------------------
# E7 — coverage growth and bootstrapping
# ---------------------------------------------------------------------------

def run_e7_coverage(
    users: int = 30, simulated_days: int = 45, seed: int = 37
) -> dict:
    """Rated-software growth with vs without a bootstrap corpus."""
    population = PopulationConfig(size=150, seed=seed + 1)
    results = {}
    for label, bootstrap in (
        ("cold start", None),
        ("bootstrapped", _bootstrap_from_population(population, fraction=0.7)),
    ):
        config = CommunityConfig(
            users=users,
            simulated_days=simulated_days,
            seed=seed,
            population=population,
            bootstrap=bootstrap,
        )
        result = CommunitySimulation(config).run()
        results[label] = {
            "rated_by_day": result.rated_software_by_day,
            "final_rated": result.rated_software_by_day[-1],
            "final_coverage": result.final_coverage,
            "total_votes": result.votes_by_day[-1],
        }
    rows = [
        [
            label,
            data["final_rated"],
            f"{data['final_coverage']:.0%}",
            data["total_votes"],
        ]
        for label, data in results.items()
    ]
    rendered = render_table(
        ["scenario", "rated software", "coverage", "votes"],
        rows,
        title="E7: rating coverage (paper deployment: 'well over 2000 rated programs')",
    )
    return {"results": results, "rendered": rendered}


# ---------------------------------------------------------------------------
# E8 — the interruption budget (50 executions, 2 prompts/week)
# ---------------------------------------------------------------------------

def run_e8_interruption(
    simulated_weeks: int = 12,
    programs: int = 12,
    runs_per_program_per_day: float = 1.0,
    seed: int = 41,
    configs: Optional[list] = None,
) -> dict:
    """Prompt counts per week under the paper's thresholds and sweeps."""
    if configs is None:
        configs = [
            PrompterConfig(execution_threshold=50, max_prompts_per_week=2),
            PrompterConfig(execution_threshold=10, max_prompts_per_week=2),
            PrompterConfig(execution_threshold=50, max_prompts_per_week=7),
            PrompterConfig(execution_threshold=1, max_prompts_per_week=1000),
        ]
    rows = []
    outcomes = {}
    for config in configs:
        rng = random.Random(seed)
        prompter = RatingPrompter(config)
        counts = {sid: 0 for sid in (f"prog{i}" for i in range(programs))}
        weekly_prompts = [0] * simulated_weeks
        for day in range(simulated_weeks * 7):
            now = days(day)
            week = day // 7
            for software_id in counts:
                launches = rng.randint(0, max(1, int(2 * runs_per_program_per_day)))
                for _ in range(launches):
                    if prompter.should_prompt(software_id, counts[software_id], now):
                        prompter.record_prompt(software_id, now)
                        prompter.mark_rated(software_id)
                        weekly_prompts[week] += 1
                    counts[software_id] += 1
        label = (
            f"threshold={config.execution_threshold}, "
            f"cap={config.max_prompts_per_week}/wk"
        )
        outcomes[label] = {
            "weekly_prompts": weekly_prompts,
            "total_prompts": sum(weekly_prompts),
            "max_in_week": max(weekly_prompts),
        }
        rows.append(
            [
                label,
                sum(weekly_prompts),
                max(weekly_prompts),
                f"{sum(weekly_prompts) / simulated_weeks:.2f}",
            ]
        )
    rendered = render_table(
        ["prompter config", "total prompts", "worst week", "prompts/week"],
        rows,
        title=(
            "E8: user interruption over "
            f"{simulated_weeks} weeks, {programs} programs"
        ),
    )
    return {"outcomes": outcomes, "rendered": rendered}


# ---------------------------------------------------------------------------
# E9 — the policy module
# ---------------------------------------------------------------------------

def run_e9_policy(population_size: int = 300, seed: int = 43) -> dict:
    """Policy outcomes over a rated population (Sec. 4.2's example policy)."""
    from ..winsim import Behavior

    population = generate_population(
        PopulationConfig(size=population_size, seed=seed)
    )
    engine, verifier = _rated_engine_for(population, seed)
    policies = {
        "paper example (signed OR >7.5 and no ads)": Policy.paper_example(
            forbidden_behaviors=frozenset({Behavior.DISPLAYS_ADS})
        ),
        "strict corporate": Policy(
            [
                TrustedSignerRule(),
                MaximumRatingDenyRule(threshold=4.0, min_votes=2),
                UnsignedUnknownRule(),
                MinimumRatingRule(threshold=7.0, min_votes=2),
            ],
            default=PolicyVerdict.DENY,
            name="strict-corporate",
        ),
        "prompt only (no policy)": Policy([], default=PolicyVerdict.ASK),
    }
    rows = []
    outcomes = {}
    for label, policy in policies.items():
        auto = 0
        asked = 0
        pis_allowed = 0
        legit_denied = 0
        for executable in population.executables:
            facts = _facts_for(executable, engine, verifier)
            decision = policy.evaluate(facts)
            if decision.verdict is PolicyVerdict.ASK:
                asked += 1
                continue
            auto += 1
            if (
                decision.verdict is PolicyVerdict.ALLOW
                and executable.is_privacy_invasive
            ):
                pis_allowed += 1
            if (
                decision.verdict is PolicyVerdict.DENY
                and executable.taxonomy_cell.is_legitimate
            ):
                legit_denied += 1
        total = len(population.executables)
        outcomes[label] = {
            "auto_decided": auto,
            "asked": asked,
            "pis_allowed": pis_allowed,
            "legit_denied": legit_denied,
        }
        rows.append(
            [
                label,
                f"{auto / total:.0%}",
                pis_allowed,
                legit_denied,
            ]
        )
    rendered = render_table(
        ["policy", "auto-decided", "PIS auto-allowed", "legit auto-denied"],
        rows,
        title="E9: policy module outcomes (lower interaction, bounded mistakes)",
    )
    return {"outcomes": outcomes, "rendered": rendered}


def _rated_engine_for(population, seed: int):
    """An engine where experts have rated (almost) everything truthfully."""
    clock = SimClock()
    from ..core.reputation import ReputationEngine

    engine = ReputationEngine(clock=clock)
    rng = random.Random(seed + 5)
    raters = [f"rater_{i}" for i in range(8)]
    for username in raters:
        engine.enroll_user(username)
        engine.trust.force_set(username, 20.0)
    for executable in population.executables:
        engine.register_software(
            executable.software_id,
            executable.file_name,
            executable.file_size,
            executable.vendor,
            executable.version,
        )
        if rng.random() < 0.1:
            continue  # a tail of unrated software keeps ASK paths alive
        truth = true_quality_score(executable)
        for username in rng.sample(raters, 4):
            noisy = min(10, max(1, truth + rng.choice((-1, 0, 0, 1))))
            engine.cast_vote(username, executable.software_id, noisy)
    clock.advance(days(1))
    engine.run_daily_aggregation()
    verifier = SignatureVerifier([population.authority])
    return engine, verifier


def _facts_for(executable, engine, verifier: SignatureVerifier) -> SoftwareFacts:
    published = engine.software_reputation(executable.software_id)
    vendor_score = None
    if executable.vendor is not None:
        vendor_published = engine.vendor_reputation(executable.vendor)
        if vendor_published is not None:
            vendor_score = vendor_published.score
    reported = frozenset()
    if published is not None and published.vote_count >= 3:
        # With enough raters the community has named the behaviours.
        reported = executable.behaviors
    return SoftwareFacts(
        software_id=executable.software_id,
        file_name=executable.file_name,
        vendor=executable.vendor,
        signature_status=verifier.verify(executable.content, executable.signature),
        score=None if published is None else published.score,
        vote_count=0 if published is None else published.vote_count,
        vendor_score=vendor_score,
        reported_behaviors=reported,
    )


# ---------------------------------------------------------------------------
# E10 — aggregation batch and vendor ratings vs polymorphism
# ---------------------------------------------------------------------------

def build_loaded_engine(
    software_count: int = 500,
    user_count: int = 100,
    votes_per_software: int = 10,
    seed: int = 47,
):
    """An engine pre-loaded with a realistic vote table (bench fixture)."""
    from ..core.reputation import ReputationEngine

    engine = ReputationEngine(clock=SimClock())
    rng = random.Random(seed)
    users = [f"user_{i}" for i in range(user_count)]
    for username in users:
        engine.enroll_user(username)
    for index in range(software_count):
        software_id = f"{index:040x}"
        engine.register_software(
            software_id, f"prog_{index}.exe", 1000 + index, f"vendor_{index % 25}", "1.0"
        )
        for username in rng.sample(users, min(votes_per_software, user_count)):
            engine.cast_vote(username, software_id, rng.randint(1, 10))
    return engine


def _percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return float(ordered[rank])


def run_e10_freshness(
    software_count: int = 60,
    user_count: int = 50,
    votes_per_day: int = 200,
    sim_days: int = 2,
    seed: int = 47,
) -> dict:
    """Vote-to-visible freshness: the 24h batch vs streaming deltas.

    The same vote schedule (identical seed, identical simulated cast
    times spread across each day) is replayed against a batch-mode and a
    streaming-mode engine.  For every vote, freshness is the simulated
    time between casting it and the moment a published score reflecting
    it exists — **measured** through the aggregator's publish listener,
    not assumed.  Batch mode pays the wait until the next nightly run;
    streaming publishes inside the casting transaction, so its latency
    is zero simulated seconds by construction, and the run closes with a
    reconciliation audit proving the running sums still match a full
    recompute exactly.
    """
    from ..clock import SECONDS_PER_DAY
    from ..core.reputation import (
        SCORING_BATCH,
        SCORING_STREAMING,
        ReputationEngine,
    )
    from ..errors import DuplicateVoteError

    results: dict = {}
    for mode in (SCORING_BATCH, SCORING_STREAMING):
        clock = SimClock()
        engine = ReputationEngine(clock=clock, scoring_mode=mode)
        # Measure visibility through the publish path itself: every
        # published update stamps the digests it covers with "now".
        visible_at: dict = {}
        engine.add_score_listener(
            lambda update, visible_at=visible_at: visible_at.setdefault(
                update.software_id, []
            ).append(update.computed_at)
        )
        rng = random.Random(seed)
        users = [f"user_{i}" for i in range(user_count)]
        for username in users:
            engine.enroll_user(username)
        for index in range(software_count):
            engine.register_software(
                f"{index:040x}", f"prog_{index}.exe", 1000 + index,
                f"vendor_{index % 5}", "1.0",
            )
        pending: list = []  # (software_id, cast_time) not yet visible
        latencies: list = []
        for _ in range(sim_days):
            day_start = clock.now()
            offsets = sorted(
                rng.randrange(SECONDS_PER_DAY) for _ in range(votes_per_day)
            )
            for offset in offsets:
                target = day_start + offset
                if target > clock.now():
                    clock.advance(target - clock.now())
                for _attempt in range(20):
                    username = rng.choice(users)
                    software_id = f"{rng.randrange(software_count):040x}"
                    try:
                        engine.cast_vote(username, software_id, rng.randint(1, 10))
                    except DuplicateVoteError:
                        continue
                    pending.append((software_id, clock.now()))
                    break
            clock.advance(day_start + SECONDS_PER_DAY - clock.now())
            engine.maybe_run_aggregation()  # batch scores / streaming audit
            # Votes become "visible" at the first publish at or after
            # their cast time (streaming: the same instant).
            still_pending = []
            for software_id, cast_time in pending:
                published = [
                    at for at in visible_at.get(software_id, ()) if at >= cast_time
                ]
                if published:
                    latencies.append(min(published) - cast_time)
                else:
                    still_pending.append((software_id, cast_time))
            pending = still_pending
        entry = {
            "votes_measured": len(latencies),
            "p50_seconds": _percentile(latencies, 0.50),
            "p99_seconds": _percentile(latencies, 0.99),
            "mean_seconds": sum(latencies) / len(latencies),
        }
        if mode == SCORING_STREAMING:
            audit = engine.reconcile_scores()
            entry["reconciliation"] = {
                "checked": audit.checked,
                "mismatched": audit.mismatched,
                "republished": audit.republished,
            }
        results[mode] = entry
    rendered = render_table(
        ["mode", "votes", "p50 freshness (s)", "p99 freshness (s)"],
        [
            [
                mode,
                results[mode]["votes_measured"],
                f"{results[mode]['p50_seconds']:.0f}",
                f"{results[mode]['p99_seconds']:.0f}",
            ]
            for mode in results
        ],
        title="E10: vote-to-visible freshness (24h batch vs streaming)",
    ) + (
        "\nstreaming reconciliation: "
        f"{results['streaming']['reconciliation']['checked']} digests audited, "
        f"{results['streaming']['reconciliation']['mismatched']} mismatched"
    )
    results["rendered"] = rendered
    return results


def run_e10_aggregation(
    software_count: int = 400,
    user_count: int = 80,
    votes_per_software: int = 8,
    seed: int = 47,
) -> dict:
    """Daily tick work, plus the polymorphic-vendor story."""
    engine = build_loaded_engine(
        software_count, user_count, votes_per_software, seed
    )
    engine.clock.advance(days(1))
    first_tick = engine.run_daily_aggregation()
    # A quiet day: only a handful of new votes.
    rng = random.Random(seed + 1)
    touched = set()
    for _ in range(10):
        index = rng.randrange(software_count)
        software_id = f"{index:040x}"
        username = f"late_{index}_{rng.randrange(10 ** 6)}"
        engine.enroll_user(username)
        engine.cast_vote(username, software_id, rng.randint(1, 10))
        touched.add(software_id)
    engine.clock.advance(days(1))
    quiet_day = engine.run_daily_aggregation()
    # Polymorphic vendor: per-file ratings scatter, vendor rating holds.
    from ..winsim import Behavior, build_executable

    server = ReputationServer(clock=SimClock(), rng=random.Random(seed + 2))
    base = build_executable(
        "churner.exe",
        vendor="Polymorphic PIS Inc",
        behaviors=frozenset({Behavior.TRACKS_BROWSING}),
        consent=ConsentLevel.MEDIUM,
        content=b"polymorphic-base",
    )
    poly = run_polymorphic_vendor(server, base, victims=30)
    rendered = render_table(
        ["tick", "software recomputed", "scores republished"],
        [
            ["first", first_tick.checked, first_tick.republished],
            ["quiet day", quiet_day.checked, quiet_day.republished],
        ],
        title="E10: daily tick work (recompute every digest, republish what moved)",
    ) + (
        f"\npolymorphic vendor: {poly.variants_served} downloads -> "
        f"{poly.distinct_software_ids} distinct IDs, max "
        f"{poly.max_votes_on_one_variant} vote(s) per file, vendor score "
        f"{format_score(poly.vendor_score)} over {poly.vendor_rated_software} files"
    )
    return {
        "first_tick": {
            "recomputed": first_tick.checked,
            "republished": first_tick.republished,
        },
        "quiet_day": {
            "recomputed": quiet_day.checked,
            "republished": quiet_day.republished,
            "touched": len(touched),
        },
        "polymorphic": {
            "variants": poly.variants_served,
            "distinct_ids": poly.distinct_software_ids,
            "max_votes_per_file": poly.max_votes_on_one_variant,
            "vendor_score": poly.vendor_score,
        },
        "rendered": rendered,
    }


# ---------------------------------------------------------------------------
# E5v2 / E6v2 — detection lift: linear vs bayesian vs bayesian+collusion
# ---------------------------------------------------------------------------

#: Recovery horizon (daily aggregation passes) for the detection-lift
#: exhibits; a scenario that has not converged by then reads "never".
DETECTION_HORIZON = 14

#: "Neutralized" means the published score is back within one point of
#: the honest community's truth.
NEUTRALIZE_BAND = 1.0

_TRUST_CELLS = (
    ("linear", "linear", False),
    ("bayesian", "bayesian", False),
    ("bayesian+collusion", "bayesian", True),
)


def _detection_rig(trust_model: str, collusion: bool, truth: int, seed: int):
    """A defended server whose honest community has settled on *truth*.

    Honest accounts are aged past the young-account window and their
    votes spread one per day, so the community itself carries none of
    the fingerprints the collusion detectors key on (the false-positive
    guard in ``tests/sim/test_attacks.py`` locks this in).
    """
    from ..winsim import build_executable

    server = ReputationServer(
        clock=SimClock(),
        puzzle_difficulty=2,
        rng=random.Random(seed),
        scoring_mode="streaming",
        trust_model=trust_model,
        collusion=collusion,
        flood_burst=50.0,
    )
    engine = server.engine
    target = build_executable(
        "target.exe", vendor="Honest Software", content=f"t-{seed}".encode()
    )
    engine.register_software(
        target.software_id, target.file_name, target.file_size,
        "Honest Software", "1.0",
    )
    for index in range(10):
        username = f"honest_{index}"
        engine.enroll_user(username)
        engine.trust.force_set(username, 50.0)
    # Late voters: aged community members who have not voted yet and
    # trickle in during the recovery window (honest catch-up traffic).
    for index in range(7):
        username = f"late_{index}"
        engine.enroll_user(username)
        engine.trust.force_set(username, 50.0)
    server.clock.advance(days(5))
    for index in range(10):
        engine.cast_vote(f"honest_{index}", target.software_id, truth)
        server.clock.advance(days(1))
    server.run_daily_batch()
    return server, target


def _run_detection_cell(
    attack: str, trust_model: str, collusion: bool, seed: int,
    horizon: int = DETECTION_HORIZON,
) -> dict:
    """One (attack, trust-cell) outcome: trajectory, error, neutralize day."""
    from ..sim.attacks import (
        run_review_burst,
        run_slow_burn_sybil,
        run_vote_ring,
    )

    if attack == "vote-ring":
        truth = 3
        server, target = _detection_rig(trust_model, collusion, truth, seed)
        scored_id = target.software_id
        catalogue = [scored_id, "a1" * 20, "b2" * 20]
        report = run_vote_ring(
            server, catalogue, members=6, score=10, farm_weeks=8
        )
    elif attack == "slow-burn-sybil":
        truth = 9
        server, target = _detection_rig(trust_model, collusion, truth, seed)
        scored_id = target.software_id
        report = run_slow_burn_sybil(
            server, scored_id, accounts=10, idle_weeks=12, score=1
        )
    elif attack == "review-burst":
        # Launch-day astroturf on a *fresh* title: the wave owns the
        # published score outright until honest catch-up votes arrive.
        truth = 3
        server, __ = _detection_rig(trust_model, collusion, truth, seed)
        scored_id = "fe" * 20
        report = run_review_burst(
            server, scored_id, accounts=30, score=10, origins=15
        )
    else:
        raise ValueError(f"unknown attack scenario {attack!r}")

    engine = server.engine
    trajectory = [engine.software_reputation(scored_id).score]
    for day in range(1, horizon + 1):
        server.clock.advance(days(1))
        server.run_daily_batch()
        if day % 2 == 0:
            # Honest catch-up traffic: one aged community member votes
            # the truth every other day.
            engine.cast_vote(f"late_{day // 2 - 1}", scored_id, truth)
        trajectory.append(engine.software_reputation(scored_id).score)
    neutralize_day = next(
        (
            day
            for day, score in enumerate(trajectory)
            if abs(score - truth) <= NEUTRALIZE_BAND
        ),
        None,
    )
    flags = (
        len(engine.last_collusion_report.flags)
        if engine.collusion_enabled
        else 0
    )
    return {
        "attack": attack,
        "truth": truth,
        "trajectory": trajectory,
        "displacement": report.score_displacement,
        "final_error": abs(trajectory[-1] - truth),
        "neutralize_day": neutralize_day,
        "flags": flags,
        "votes_accepted": report.votes_accepted,
        "remarks_exchanged": report.remarks_exchanged,
    }


def run_e5v2_detection_lift(seed: int = 23) -> dict:
    """E5v2: final-score error and time-to-neutralize, attack x trust model.

    Three scripted adversaries against the same settled community under
    the paper's linear trust factor, the Bayesian ledger alone, and the
    Bayesian ledger with the collusion pass.  Shape target: the linear
    baseline never recovers inside the horizon; bayesian+collusion
    neutralizes every scenario within a few daily passes.
    """
    attacks = ("vote-ring", "slow-burn-sybil", "review-burst")
    outcomes: dict = {}
    rows = []
    for attack in attacks:
        per_cell = {}
        for label, trust_model, collusion in _TRUST_CELLS:
            per_cell[label] = _run_detection_cell(
                attack, trust_model, collusion, seed
            )
        outcomes[attack] = per_cell
        for label, __, __unused in _TRUST_CELLS:
            cell = per_cell[label]
            day = cell["neutralize_day"]
            rows.append(
                [
                    attack,
                    label,
                    format_score(cell["displacement"]),
                    format_score(cell["final_error"]),
                    "never" if day is None else f"day {day}",
                    cell["flags"],
                ]
            )
    rendered = render_table(
        [
            "attack",
            "trust model",
            "attack Δscore",
            "final error",
            "neutralized",
            "flags",
        ],
        rows,
        title=(
            "E5v2: detection lift — final-score error and time-to-"
            f"neutralize over a {DETECTION_HORIZON}-day recovery"
            " (band ±1.0)"
        ),
    )
    return {"outcomes": outcomes, "rendered": rendered}


def run_e6v2_trust_countermeasures(seed: int = 23) -> dict:
    """E6v2: the slow-burn Sybil recovery trajectory, day by day.

    The linear model's exact blind spot (age is free, so a patient
    squad strikes at near-full weight) traced across the three trust
    cells: published score each recovery day, plus what the attack
    cost and what the countermeasure did to the attackers' weight.
    """
    cells = {
        label: _run_detection_cell(
            "slow-burn-sybil", trust_model, collusion, seed
        )
        for label, trust_model, collusion in _TRUST_CELLS
    }
    sample_days = (0, 1, 2, 3, 5, 7, 10, 14)
    rows = [
        [f"day {day}"]
        + [format_score(cells[label]["trajectory"][day]) for label in cells]
        for day in sample_days
    ]
    truth = cells["linear"]["truth"]
    rendered = render_table(
        ["recovery day"] + list(cells),
        rows,
        title=(
            "E6v2: slow-burn Sybil recovery by trust countermeasure"
            f" (truth {format_score(float(truth))}, strike pushes toward 1)"
        ),
    ) + (
        "\nattack cost: "
        f"{cells['linear']['votes_accepted']} strike votes after "
        f"{cells['linear']['remarks_exchanged']} farmed remarks; "
        "flags raised: "
        + ", ".join(f"{label}={cells[label]['flags']}" for label in cells)
    )
    return {"outcomes": cells, "rendered": rendered}
