"""Forked worker processes: when to start them, how they stop, and how they fail.

A worker is started with the ``fork`` start method, so it inherits the
caller's state rather than receiving it pickled, and it talks to the
caller over one pipe. An exception raised in the worker is sent as an
empty message and then the pickled exception, and the caller's next
receive raises it; so no message a worker sends may be empty. A worker
that exits before it answers raises ``WorkerExitedError``, naming its exit
code. ``multiprocessing`` is imported only when a worker starts: the
import adds 10-28 ms, which every CLI start would pay.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import NamedTuple

from .exceptions import WorkerExitedError


def fork_cpus() -> int:
    """The CPUs this process may fork workers onto: 1 without ``fork``, or in a daemonic process.

    ``multiprocessing`` lets no daemonic process, such as a pool worker,
    have children; a process that has not imported it is not its daemon.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


class Worker(NamedTuple):
    """A forked process and this process's end of its pipe."""

    process: object
    end: object

    def send_bytes(self, data) -> None:
        try:
            self.end.send_bytes(data)
        except OSError:
            raise self._exited() from None

    def recv(self):
        return pickle.loads(self._next(self.end.recv_bytes))

    def recv_bytes_into(self, buffer) -> None:
        self._next(self.end.recv_bytes_into, buffer)

    def _next(self, receive, *args):
        try:
            message = receive(*args)
            error = None if message else self.end.recv()
        except (EOFError, OSError):
            raise self._exited() from None
        if error is not None:
            raise error
        return message

    def _exited(self) -> WorkerExitedError:
        self.process.join()
        return WorkerExitedError(f"{self.process.name} exited with code {self.process.exitcode}")

    def stop(self) -> None:
        """Kill and reap the worker, which may still be working, and close this process's end of its pipe."""
        self.process.kill()
        self.process.join()
        self.end.close()


def start(target, *args, name: str, duplex: bool = False) -> Worker:
    """A forked process named ``name`` running ``target(end, *args)``.

    Without ``duplex`` the pipe runs from the worker to this process. The
    worker first closes its copy of this process's end, so it reads EOF
    once this process closes that end or exits. It exits with code 0 when
    ``target`` returns and 1 when it raises.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe(duplex)
    process = context.Process(target=_run, args=(target, ours, theirs, args), name=name)
    process.start()
    theirs.close()
    return Worker(process, ours)


def _run(target, ours, theirs, args):
    code = 1
    try:
        ours.close()
        target(theirs, *args)
        code = 0
    except Exception as e:
        theirs.send_bytes(b"")
        theirs.send(e)
    finally:
        os._exit(code)  # at once: a normal exit would flush stdout text the parent had buffered
