"""The ``reprolint`` rule registry: one visitor class per invariant.

Each rule enforces one of the repo's correctness contracts (catalogued
in ``docs/invariants.md``).  A rule is a small :class:`ast.NodeVisitor`
with a stable ID (``RL001``–``RL006``), a class docstring that doubles
as its ``reprolint --explain`` page, and an :meth:`Rule.applies` filter
that scopes it to the package paths where the contract holds.  Files
that are *not* part of the ``repro`` package (test fixtures, scratch
snippets) get every module rule, which is what lets the fixture suite
under ``tests/devtools/`` exercise each rule with standalone files.

Two rule shapes exist:

* **module rules** (:class:`Rule`) — visit one parsed module and emit
  :class:`Finding` objects against its source;
* **project rules** (:class:`ProjectRule`, today only RL005) — run once
  per lint invocation against the repository root, cross-referencing
  kernels, oracles and test modules.

Suppression is per-line and explicit: ``# reprolint: ignore[RL003]``
on the flagged line, with a reason encouraged in the trailing comment.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Finding",
    "ModuleContext",
    "MODULE_RULES",
    "PROJECT_RULES",
    "ProjectRule",
    "Rule",
    "all_rules",
    "rule_by_id",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is repository-relative POSIX (or the path as given for
    files outside the repo).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_payload(self) -> dict:
        """JSON-compatible dict (schema ``reprolint-report-v2``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Everything a module rule may inspect about one source file."""

    path: pathlib.Path
    display: str
    rel: "str | None"
    source: str
    tree: ast.Module
    lines: "list[str]" = field(default_factory=list)
    _parents: "dict[int, ast.AST] | None" = None

    def parent_of(self, node: ast.AST) -> "ast.AST | None":
        """AST parent of ``node`` (parent map built lazily, once)."""
        if self._parents is None:
            parents: dict[int, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[id(child)] = outer
            self._parents = parents
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        up = self.parent_of(node)
        while up is not None:
            yield up
            up = self.parent_of(up)


def _dotted(node: ast.AST) -> "str | None":
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule(ast.NodeVisitor):
    """Base class for module-scoped reprolint rules."""

    id = "RL000"
    title = "abstract rule"

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: list[Finding] = []

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        """Whether this rule runs on ``ctx``'s file (path-scoped)."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding at ``node``'s location."""
        self.findings.append(
            Finding(
                path=self.ctx.display,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.id,
                message=message,
            )
        )

    def run(self) -> "list[Finding]":
        """Visit the module tree; returns the findings."""
        self.visit(self.ctx.tree)
        return self.findings


class ProjectRule:
    """Base class for rules that inspect the whole repository once."""

    id = "RL000"
    title = "abstract project rule"

    @classmethod
    def run_project(cls, root: pathlib.Path) -> "list[Finding]":
        """Run against the repo rooted at ``root`` (contains ``src/repro``)."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# RL001
# --------------------------------------------------------------------- #


class AtomicWriteRule(Rule):
    """RL001 — durable writes must flow through ``io.atomic.write_atomic``.

    Under ``campaign/``, ``service/`` and ``caseset/``, any write-mode
    builtin ``open`` (mode containing ``w``/``a``/``x``) or
    ``Path.write_text`` / ``Path.write_bytes`` call is a finding: a
    direct write can be torn by a kill and observed half-written by a
    concurrent reader.  The blessed sink is
    :func:`repro.io.atomic.write_atomic`, which stages to a pid-suffixed
    temp file and publishes with ``os.replace`` so readers see old bytes
    or new bytes, never a mix.  ``os.open`` with ``O_CREAT | O_EXCL``
    (the queue's claim files) is intentionally out of scope — exclusive
    creation is its own atomicity protocol.  Suppress deliberate
    non-artifact streams (e.g. worker log files) with
    ``# reprolint: ignore[RL001]`` and a reason.
    """

    id = "RL001"
    title = "write-mode open outside the atomic-write helper"
    _WRITE_ATTRS = frozenset({"write_text", "write_bytes"})

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        if ctx.rel is None:
            return True
        return ctx.rel.startswith(("campaign/", "service/", "caseset/"))

    def _mode(self, node: ast.Call) -> "str | None":
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, str):
                    return kw.value.value
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            if isinstance(node.args[1].value, str):
                return node.args[1].value
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = self._mode(node)
            if mode is not None and set(mode) & set("wax"):
                self.report(
                    node,
                    f"open(..., {mode!r}) bypasses atomic-write discipline;"
                    " route durable writes through"
                    " repro.io.atomic.write_atomic",
                )
        elif isinstance(func, ast.Attribute) and func.attr in self._WRITE_ATTRS:
            self.report(
                node,
                f".{func.attr}(...) bypasses atomic-write discipline;"
                " route durable writes through repro.io.atomic.write_atomic",
            )
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# RL002
# --------------------------------------------------------------------- #


class CanonicalJsonRule(Rule):
    """RL002 — serialize through ``io.json_io.canonical_json`` only.

    Artifact digests, cache keys, HTTP payloads and queue records are
    byte-compared across processes and machines, so every serialization
    must produce identical bytes for identical payloads.
    ``json.dumps`` with default settings is *not* canonical (dict
    insertion order leaks through), so any ``json.dump``/``json.dumps``
    call outside ``io/json_io.py`` is a finding — call
    :func:`repro.io.json_io.canonical_json` instead.  Reading
    (``json.load(s)``) is always fine.  Frozen on-disk byte formats that
    predate the rule (the v1 cache envelope) carry an inline
    ``# reprolint: ignore[RL002]`` pragma, with the reason beside it,
    rather than being rewritten, because changing their bytes would
    invalidate every existing artifact hash.
    """

    id = "RL002"
    title = "json.dump(s) outside io/json_io.py"

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        return ctx.rel != "io/json_io.py"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("dump", "dumps")
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ):
            self.report(
                node,
                f"json.{func.attr}(...) is not canonical; serialize via"
                " repro.io.json_io.canonical_json so byte-identity holds",
            )
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# RL003
# --------------------------------------------------------------------- #


class DeterminismSeamRule(Rule):
    """RL003 — randomness and wall-clock reads stay behind blessed seams.

    Campaign results are reproduced bit-for-bit from per-case derived
    seeds (``util/rng.py``: ``as_generator`` / ``spawn_generators`` over
    ``SeedSequence`` chains), so any ambient entropy or wall-clock read
    in library code silently breaks identity.  Findings: ``random.*``
    module calls, ``np.random.*`` / ``numpy.random.*`` calls (except
    explicitly seeded ``default_rng(seed)`` / ``SeedSequence(seed)``,
    which are the derivation primitives), zero-argument
    ``default_rng()`` (fresh OS entropy) anywhere, ``time.time()`` and
    ``datetime.now/utcnow/today``.  Monotonic clocks
    (``time.monotonic``, ``time.perf_counter``) are fine — they never
    enter artifacts.  ``util/rng.py`` and ``benchmarks/`` are out of
    scope; legitimate wall-clock reads (file-mtime lease arithmetic in
    the queue) carry ``# reprolint: ignore[RL003]`` with a reason.
    """

    id = "RL003"
    title = "ambient randomness or wall-clock outside util/rng.py"
    _CLOCKS = frozenset(
        {
            "time.time",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.date.today",
            "date.today",
        }
    )
    _SEEDED_OK = frozenset({"default_rng", "SeedSequence"})

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        if "benchmarks" in ctx.path.parts:
            return False
        if ctx.rel is None:
            return True
        return not ctx.rel.startswith("util/rng")

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if parts[0] == "random" and len(parts) > 1:
                self.report(
                    node,
                    f"{dotted}(...) draws from the ambient global RNG;"
                    " derive a generator via repro.util.rng instead",
                )
            elif (
                parts[0] in ("np", "numpy")
                and len(parts) >= 3
                and parts[1] == "random"
                and not (parts[-1] in self._SEEDED_OK and node.args)
            ):
                self.report(
                    node,
                    f"{dotted}(...) is an un-derived RNG entry point;"
                    " derive a generator via repro.util.rng instead",
                )
            elif dotted in self._CLOCKS:
                self.report(
                    node,
                    f"{dotted}() reads the wall clock; results must not"
                    " depend on when they were computed (use monotonic"
                    " clocks for intervals)",
                )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "default_rng"
            and not node.args
            and not node.keywords
        ):
            self.report(
                node,
                "default_rng() without a seed pulls fresh OS entropy;"
                " derive the seed through repro.util.rng",
            )
        self.generic_visit(node)


# --------------------------------------------------------------------- #
# RL004
# --------------------------------------------------------------------- #


class ToctouScanRule(Rule):
    """RL004 — directory scans must tolerate files vanishing mid-scan.

    Queue and cache directories are mutated concurrently: a claim can be
    retired, a task completed, or a temp file replaced between the
    moment a scan lists an entry and the moment the loop body touches
    it.  A ``for`` loop iterating a directory scan (``iterdir``,
    ``glob``, ``rglob``, ``os.listdir``, ``os.scandir`` — directly or
    through a variable assigned from one) whose body ``stat``\\ s,
    reads, opens or unlinks entries without a ``FileNotFoundError`` /
    ``OSError`` handler around the access is a finding: the scan result
    is already stale when the body runs (classic TOCTOU), so every
    per-entry access must treat "vanished" as a normal outcome, not an
    exception.  The fix is a ``try/except FileNotFoundError`` (or
    ``OSError``) with ``continue``-style tolerance per entry.
    """

    id = "RL004"
    title = "unguarded per-entry access in a directory-scan loop"
    _SCAN_ATTRS = frozenset(
        {"iterdir", "glob", "rglob", "scandir", "listdir"}
    )
    _RISKY_ATTRS = frozenset(
        {"stat", "read_text", "read_bytes", "unlink", "lstat"}
    )
    _TOLERANT = frozenset(
        {
            "FileNotFoundError",
            "OSError",
            "IOError",
            "EnvironmentError",
            "Exception",
            "BaseException",
        }
    )

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        if ctx.rel is None:
            return True
        return ctx.rel.startswith(("campaign/", "service/"))

    def _is_scan_expr(self, expr: ast.AST, scan_names: "set[str]") -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Attribute
            ):
                if sub.func.attr in self._SCAN_ATTRS:
                    return True
            elif isinstance(sub, ast.Name) and sub.id in scan_names:
                return True
        return False

    def _handler_tolerates(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        names = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for name in names:
            if isinstance(name, ast.Name) and name.id in self._TOLERANT:
                return True
        return False

    def _protected(self, node: ast.AST, stop: ast.AST) -> bool:
        for up in self.ctx.ancestors(node):
            if isinstance(up, ast.Try) and any(
                self._handler_tolerates(h) for h in up.handlers
            ):
                return True
            if up is stop:
                return False
        return False

    def _risky_calls(self, loop: ast.For) -> Iterator[ast.Call]:
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._RISKY_ATTRS
                ):
                    yield sub
                elif isinstance(func, ast.Name) and func.id == "open":
                    yield sub

    def _check_scope(self, scope: ast.AST) -> None:
        scan_names: set[str] = set()
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Assign) and self._is_scan_expr(
                sub.value, set()
            ):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        scan_names.add(target.id)
        for sub in ast.walk(scope):
            if not isinstance(sub, ast.For):
                continue
            if not self._is_scan_expr(sub.iter, scan_names):
                continue
            for risky in self._risky_calls(sub):
                if not self._protected(risky, scope):
                    attr = (
                        risky.func.attr
                        if isinstance(risky.func, ast.Attribute)
                        else "open"
                    )
                    self.report(
                        risky,
                        f".{attr}(...) on a scanned directory entry with no"
                        " FileNotFoundError tolerance; entries can vanish"
                        " between the scan and the access (TOCTOU)",
                    )

    def run(self) -> "list[Finding]":
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_scope(node)
        return self.findings


# --------------------------------------------------------------------- #
# RL005
# --------------------------------------------------------------------- #


class OracleCoverageRule(ProjectRule):
    """RL005 — every public kernel keeps a frozen bit-identity oracle.

    The vectorized kernels (``schedule/_kernel.py``,
    ``stochastic/batch.py``) were ported from straightforward loop code
    that is frozen as ``_reference.py`` modules; bit-identity test
    modules (``test_*identity*``, ``test_*equivalence*``,
    ``test_*reference*``, ``test_*oracle*``) assert the port equals the
    oracle operation-for-operation.  Two findings keep that pairing
    honest as kernels evolve: (a) a public kernel name (module
    ``__all__``) that appears in no oracle test module and has no
    ``<name>_reference`` counterpart — an unpaired kernel; (b) a
    ``*_reference`` oracle exported by a ``_reference.py`` whose name
    appears in no oracle test module — a frozen oracle nobody compares
    against.  New kernels must land with both the frozen reference and
    the test that pins them together.
    """

    id = "RL005"
    title = "public kernel without a bit-identity oracle test"
    _KERNEL_MODULES = ("schedule/_kernel.py", "stochastic/batch.py")
    _ORACLE_HINTS = ("identity", "equivalence", "reference", "oracle")

    @classmethod
    def _module_all(cls, path: pathlib.Path) -> "list[tuple[str, int]]":
        try:
            tree = ast.parse(path.read_text())
        except (OSError, SyntaxError):
            return []
        exported: list[str] = []
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if "__all__" in targets and isinstance(
                    node.value, (ast.List, ast.Tuple)
                ):
                    exported = [
                        e.value
                        for e in node.value.elts
                        if isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                    ]
        lines = {}
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                lines[node.name] = node.lineno
        return [(name, lines.get(name, 1)) for name in exported]

    @classmethod
    def _oracle_corpus(cls, root: pathlib.Path) -> str:
        chunks: list[str] = []
        tests = root / "tests"
        if tests.is_dir():
            for path in sorted(tests.rglob("test_*.py")):
                if any(h in path.name for h in cls._ORACLE_HINTS):
                    try:
                        chunks.append(path.read_text())
                    except OSError:
                        continue
        return "\n".join(chunks)

    @classmethod
    def run_project(cls, root: pathlib.Path) -> "list[Finding]":
        pkg = root / "src" / "repro"
        if not pkg.is_dir():
            return []
        corpus = cls._oracle_corpus(root)
        findings: list[Finding] = []

        def covered(name: str) -> bool:
            return re.search(rf"\b{re.escape(name)}\b", corpus) is not None

        for rel in cls._KERNEL_MODULES:
            module = pkg / rel
            if not module.is_file():
                continue
            reference = module.with_name("_reference.py")
            ref_names = {n for n, _ in cls._module_all(reference)}
            for name, line in cls._module_all(module):
                if f"{name}_reference" in ref_names or covered(name):
                    continue
                findings.append(
                    Finding(
                        path=f"src/repro/{rel}",
                        line=line,
                        col=1,
                        rule=cls.id,
                        message=(
                            f"public kernel {name!r} has no frozen"
                            " _reference counterpart and appears in no"
                            " bit-identity test module"
                        ),
                    )
                )
        for reference in sorted(pkg.rglob("_reference.py")):
            rel_path = reference.relative_to(root).as_posix()
            for name, line in cls._module_all(reference):
                if not covered(name):
                    findings.append(
                        Finding(
                            path=rel_path,
                            line=line,
                            col=1,
                            rule=cls.id,
                            message=(
                                f"frozen oracle {name!r} appears in no"
                                " bit-identity test module; nothing pins"
                                " the kernel to it"
                            ),
                        )
                    )
        return findings


# --------------------------------------------------------------------- #
# RL006
# --------------------------------------------------------------------- #


class SwallowedAbortRule(Rule):
    """RL006 — worker loops must not swallow ``ShardAbort`` broadly.

    The queue protocol signals lease loss by raising ``ShardAbort`` out
    of the progress callback; a worker that catches it with a bare
    ``except:`` or ``except Exception:`` inside its polling loop keeps
    computing a shard it no longer owns — wasted work at best, duplicate
    completion races at worst.  Inside ``while``/``for`` loops in
    ``campaign/queue.py`` and ``service/``, a broad handler is a finding
    unless (a) an earlier handler of the same ``try`` catches
    ``ShardAbort`` explicitly (so the abort never reaches the broad
    arm), or (b) the handler re-raises with a bare ``raise``.  Broad
    handlers *outside* loops (top-level task crash reporting) are fine —
    they run once and terminate the attempt rather than looping past the
    signal.
    """

    id = "RL006"
    title = "broad except inside a worker loop can eat ShardAbort"

    @classmethod
    def applies(cls, ctx: ModuleContext) -> bool:
        if ctx.rel is None:
            return True
        return ctx.rel == "campaign/queue.py" or ctx.rel.startswith(
            "service/"
        )

    @staticmethod
    def _names(handler: ast.ExceptHandler) -> "list[str]":
        if handler.type is None:
            return []
        nodes = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        out = []
        for node in nodes:
            dotted = _dotted(node)
            if dotted is not None:
                out.append(dotted.rsplit(".", 1)[-1])
        return out

    def _in_loop(self, node: ast.AST) -> bool:
        for up in self.ctx.ancestors(node):
            if isinstance(up, (ast.For, ast.While)):
                return True
            if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False

    def visit_Try(self, node: ast.Try) -> None:
        abort_handled = False
        for handler in node.handlers:
            names = self._names(handler)
            if "ShardAbort" in names:
                abort_handled = True
                continue
            broad = handler.type is None or any(
                n in ("Exception", "BaseException") for n in names
            )
            if not broad or abort_handled or not self._in_loop(node):
                continue
            reraises = any(
                isinstance(sub, ast.Raise) and sub.exc is None
                for sub in ast.walk(handler)
            )
            if not reraises:
                label = "bare except" if handler.type is None else (
                    "except " + "/".join(names)
                )
                self.report(
                    handler,
                    f"{label} inside a worker loop can swallow ShardAbort;"
                    " handle ShardAbort first or re-raise",
                )
        self.generic_visit(node)


MODULE_RULES: "tuple[type[Rule], ...]" = (
    AtomicWriteRule,
    CanonicalJsonRule,
    DeterminismSeamRule,
    ToctouScanRule,
    SwallowedAbortRule,
)

PROJECT_RULES: "tuple[type[ProjectRule], ...]" = (OracleCoverageRule,)


def all_rules() -> "list[type]":
    """Every rule class, sorted by rule ID."""
    return sorted(
        [*MODULE_RULES, *PROJECT_RULES], key=lambda rule: rule.id
    )


def rule_by_id(rule_id: str) -> "type | None":
    """Look up a rule class by its ``RLxxx`` ID (case-insensitive)."""
    wanted = rule_id.strip().upper()
    for rule in all_rules():
        if rule.id == wanted:
            return rule
    return None
