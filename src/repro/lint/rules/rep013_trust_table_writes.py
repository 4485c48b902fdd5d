"""REP013 — no direct trust-table writes outside core/.

Trust is the system's attack surface: every vote weight, every
collusion penalty, and every decayed posterior flows through
:class:`~repro.core.trust.TrustLedger` (``trust_factors``) or
:class:`~repro.core.trust2.BayesianTrustLedger` (``trust_evidence``).
Both ledgers fire change listeners on every mutation, and the scoring
fold re-weights the affected digests off those listeners.  A direct
``insert``/``upsert``/``delete`` against either table from outside
``core/`` changes a voter's weight without firing the listeners: published
scores keep the stale weight until an unrelated vote happens to
touch the same digest.

Even the collusion pass (``analysis/collusion.py``) goes through
``penalize``/``debit`` rather than the tables, which is exactly the
discipline this rule enforces.

Flagged: mutation-method calls (``insert``, ``upsert``, ``delete``,
``clear``) whose receiver mentions a trust table — either inline
(``db.table("trust_factors").upsert(...)``) or through a name
assigned from such an expression anywhere in the module (including
``create_table(trust_schema())`` handles).

Exempt: ``core/`` — the two ledgers' home.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..engine import Finding, Module, Rule

#: The trust-ledger tables (and the schema factories that name them).
_TRUST_TABLE_NAMES = ("trust_factors", "trust_evidence")
_TRUST_SCHEMA_FACTORIES = ("trust_schema", "beta_trust_schema")
_MUTATION_METHODS = ("insert", "upsert", "delete", "clear")


class TrustTableWriteRule(Rule):
    id = "REP013"
    title = "direct trust-table write outside core/"
    exempt = ("/core/",)

    def check(self, module: Module) -> Iterator[Finding]:
        tainted = _trust_table_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATION_METHODS
            ):
                continue
            receiver = func.value
            if not (
                _mentions_trust_table(receiver)
                or (isinstance(receiver, ast.Name) and receiver.id in tainted)
                or (
                    isinstance(receiver, ast.Attribute)
                    and receiver.attr in tainted
                )
            ):
                continue
            yield Finding(
                rule=self.id,
                path=module.rel_path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"direct {func.attr}() on a trust table — vote "
                    "weights are written only by the core/ ledgers "
                    "(TrustLedger / BayesianTrustLedger), whose change "
                    "listeners keep published scores in step; go "
                    "through credit/debit/penalize/force_set"
                ),
            )


def _trust_table_names(tree: ast.AST) -> Set[str]:
    """Names (variables or attributes) bound to a trust-table handle."""
    tainted: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is None or not _mentions_trust_table(value):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
                elif isinstance(target, ast.Attribute):
                    tainted.add(target.attr)
    return tainted


def _mentions_trust_table(expression: ast.AST) -> Optional[str]:
    """The first trust-table reference in the expression subtree."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Constant) and node.value in _TRUST_TABLE_NAMES:
            return node.value
        if isinstance(node, ast.Name) and node.id in _TRUST_SCHEMA_FACTORIES:
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _TRUST_SCHEMA_FACTORIES
        ):
            return node.attr
    return None
