"""Map a function over a few items at once, one forked process per item.

:func:`fork_map` is how a classical panel walk uses every CPU
(:func:`repro.analysis.classical.classical_makespans`): the walk's
schedules are dealt into shares, the caller walks the first share, and
each other share is walked by an ``os.fork()``\\ ed child on its
copy-on-write copy of the caller's memory — the walk's engine included,
so nothing is pickled on the way in.

The fork contract:

* **A child touches only its copy, its pipe and** ``os._exit``.  It
  computes ``fn(item)``, pickles the result (or the exception ``fn``
  raised) into its pipe and leaves through ``os._exit``: no ``atexit``
  handler, no flush of an inherited buffer, no return into the caller's
  stack.
* **Errors keep their type.**  A child's exception is re-raised in the
  caller with its original type and message, the child's traceback
  attached as a note.  A child killed by a signal is a ``RuntimeError``
  that names the signal.
* **Every child is reaped.**  :func:`fork_map` waits for each child
  before it returns or raises; when the caller's own share fails, or the
  caller is interrupted, the children still running are killed first.
* **A child dies with its parent.**  On Linux each child asks for
  ``SIGKILL`` when the thread that forked it ends (``PR_SET_PDEATHSIG``),
  and exits at once if that happened before it asked.

Threads other than the caller's do not exist in a child.  A child runs
only ``fn`` on state the calling thread owns, so a lock another thread
held at the fork is never waited on.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import traceback
from typing import Any, BinaryIO, Callable, Iterable, TypeVar

__all__ = ["fork_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: ``prctl`` option that sets the signal a child gets when its parent ends.
_PR_SET_PDEATHSIG = 1


@functools.cache
def _arm_pdeathsig() -> Callable[[], object] | None:
    """``prctl(PR_SET_PDEATHSIG, SIGKILL)`` bound through ctypes, or None."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (ImportError, OSError, AttributeError):  # not Linux/glibc
        return None
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return functools.partial(prctl, _PR_SET_PDEATHSIG, signal.SIGKILL)


def fork_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """``[fn(item) for item in items]``, every item after the first forked.

    The calling process computes ``fn(items[0])``; each other item is
    computed at the same time by a forked child (see the module
    docstring).  ``fn``'s results must pickle.  With fewer than two items
    nothing is forked.
    """
    items = list(items)
    if len(items) < 2:
        return [fn(item) for item in items]
    arm = _arm_pdeathsig()  # looked up before any fork: a child imports nothing
    children: dict[int, BinaryIO] = {}  # pid → read end of its pipe
    try:
        for item in items[1:]:
            pid, pipe = _fork(fn, item, arm)
            children[pid] = pipe
        results = [fn(items[0])]
        failure: BaseException | None = None
        for pid, pipe in list(children.items()):
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            ok, value = _outcome(pid, status, payload)
            if not ok:
                failure = failure or value
            results.append(value)
        if failure is not None:
            raise failure
        return results
    finally:
        for pid, pipe in children.items():  # only on an early exit
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # already reaped
                pass


def _fork(
    fn: Callable[[_T], _R], item: _T, arm: Callable[[], object] | None
) -> tuple[int, BinaryIO]:
    """Start one child computing ``fn(item)``; its pid and pipe read end."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        if arm is not None:
            arm()
        if os.getppid() == parent:  # else the parent ended before arm()
            try:
                result = (True, fn(item))
                payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                payload = _error_payload(exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
    finally:
        os._exit(code)


def _error_payload(exc: BaseException) -> bytes:
    """A child's exception, pickled with its traceback text."""
    text = "".join(traceback.format_exception(exc))
    try:
        return pickle.dumps((False, (exc, text)), pickle.HIGHEST_PROTOCOL)
    except Exception:  # an exception that does not pickle
        plain = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        return pickle.dumps((False, (plain, text)), pickle.HIGHEST_PROTOCOL)


def _outcome(pid: int, status: int, payload: bytes) -> tuple[bool, Any]:
    """``(True, result)`` or ``(False, exception)`` of one reaped child."""
    if os.WIFSIGNALED(status):
        number = os.WTERMSIG(status)
        try:
            name = signal.Signals(number).name
        except ValueError:
            name = f"signal {number}"
        return False, RuntimeError(f"panel walker {pid} was killed by {name}")
    try:
        ok, value = pickle.loads(payload)
    except Exception as exc:
        code = os.WEXITSTATUS(status)
        return False, RuntimeError(
            f"panel walker {pid} exited with code {code} and no result ({exc!r})"
        )
    if not ok:
        value, text = value
        value.add_note(f"raised in panel walker {pid}:\n{text}")
    return ok, value
