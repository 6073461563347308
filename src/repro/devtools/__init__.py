"""Developer tooling: ``reprolint``, the repo's invariant linter.

Nine PRs of byte-identity guarantees rest on conventions — atomic
tmp+\\ ``os.replace`` writes, canonical JSON serialization, per-case
derived RNG seeds, TOCTOU-tolerant directory scans, frozen
``_reference`` oracles, abort-signal hygiene in worker loops.  This
package checks them mechanically: ``python -m repro.devtools.lint``
parses the tree with :mod:`ast` and runs the rule registry
(``RL001``–``RL006``, see :mod:`repro.devtools.rules`); any finding
fails CI, and an accepted violation carries an inline
``# reprolint: ignore[RLxxx]`` pragma with its reason.
``docs/invariants.md`` catalogues the contracts; ``reprolint --explain
RLxxx`` renders each rule's page.
"""

from repro.devtools.rules import Finding, all_rules, rule_by_id

# NOTE: repro.devtools.lint is deliberately not imported here — importing
# it from the package __init__ would shadow ``python -m
# repro.devtools.lint`` with a runpy double-import warning.

__all__ = [
    "Finding",
    "all_rules",
    "rule_by_id",
]
