"""Case-set algebra: select whole campaign suites with one expression.

``parse`` turns a ClusterShell-style expression like
``graph[chol84,ge90] x ul[1.1-1.6/0.1] x seed[0-9]`` into an ordered,
deduplicated :class:`CaseSet` of campaign cases; ``fold`` compacts any
case set back to its canonical spelling; union / intersection /
difference make "what's missing from the cache" itself a set
expression.  See :mod:`repro.caseset.grammar` for the lexical layer and
:mod:`repro.caseset.sets` for the semantics.
"""

from repro.caseset.grammar import CaseSetError
from repro.caseset.sets import (
    CaseEntry,
    CaseSet,
    GraphToken,
    Profile,
    as_caseset,
    expand,
    fold,
    parse,
)

__all__ = [
    "CaseEntry",
    "CaseSet",
    "CaseSetError",
    "GraphToken",
    "Profile",
    "as_caseset",
    "expand",
    "fold",
    "parse",
]
