"""The iplint rule registry.

Each rule lives in its own module; :func:`default_rules` instantiates
the set the CLI, the CI job and the regression test run over
``src/repro``.  Adding a rule means: implement a
:class:`~repro.lintkit.engine.Rule` subclass, import it here, append it
to :data:`RULE_CLASSES`, and give it passing/failing fixtures in
``tests/test_lintkit_rules.py``.

The flow rules from :mod:`repro.lintkit.flow.rules` (among them the
dominator-based ``telemetry-guard``) always join the set.
"""

from __future__ import annotations

from ..engine import Rule
from .clock import ClockDisciplineRule
from .determinism import DeterminismRule
from .exceptions import ExceptionDisciplineRule
from .ispp import IsppSafetyRule
from .layering import DeviceLayeringRule
from .telemetry import CounterNamingRule

__all__ = [
    "RULE_CLASSES",
    "ClockDisciplineRule",
    "CounterNamingRule",
    "DeterminismRule",
    "DeviceLayeringRule",
    "ExceptionDisciplineRule",
    "IsppSafetyRule",
    "default_rules",
    "rule_by_id",
]

#: Every shipped rule class, in report order.
RULE_CLASSES: tuple[type[Rule], ...] = (
    IsppSafetyRule,
    DeviceLayeringRule,
    DeterminismRule,
    CounterNamingRule,
    ExceptionDisciplineRule,
    ClockDisciplineRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of the default rule set: syntactic, then flow."""
    from ..flow.rules import FLOW_RULE_CLASSES  # late: avoids a cycle

    return [cls() for cls in RULE_CLASSES + FLOW_RULE_CLASSES]


def rule_by_id(rule_id: str) -> Rule:
    """Instantiate one rule by its id (raises KeyError when unknown)."""
    from ..flow.rules import FLOW_RULE_CLASSES  # late: avoids a cycle

    for cls in RULE_CLASSES + FLOW_RULE_CLASSES:
        if cls.id == rule_id:
            return cls()
    raise KeyError(f"no lint rule with id {rule_id!r}")
