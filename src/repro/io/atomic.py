"""Atomic file writes: the one blessed tmp + ``os.replace`` sink.

Every durable artifact in this repo — cache envelopes, shard manifests,
partials, poison reports — must reach disk through :func:`write_atomic`
so a killed writer can never leave a truncated file under the final
name.  POSIX ``rename(2)`` is atomic within a
filesystem, so readers observe either the old bytes or the new bytes,
never a torn mix; the queue and service layers depend on that to stay
crash-consistent under the fault-injection harness.

``reprolint`` rule RL001 enforces the discipline mechanically: a
write-mode ``open`` / ``Path.write_text`` under ``campaign/``,
``service/`` or ``caseset/`` that does not flow through this helper is a
finding.
"""

from __future__ import annotations

import os
import pathlib


def write_atomic(path: "pathlib.Path | str", text: str) -> pathlib.Path:
    """Write ``text`` at ``path`` atomically; returns ``path``.

    The temp name embeds the writer's pid (``<name>.tmp.<pid>``) so
    concurrent writers of the same target never collide on the staging
    file, and ``os.replace`` publishes the bytes in one step.  Parent
    directories are created on demand — callers need no mkdir dance.
    Last-write-wins under races, which every call site is designed for
    (idempotent rewrites produce identical bytes).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path
