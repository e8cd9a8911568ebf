"""Forked worker processes: when to start them, and how they start and stop.

A worker is started with the ``fork`` start method, so it inherits the
caller's state rather than receiving it pickled, and it talks to the
caller over one pipe. ``multiprocessing`` is imported only when a worker
starts: the import adds 10-28 ms, which every CLI start would pay.
"""

from __future__ import annotations

import os


def fork_cpus() -> int:
    """The CPUs this process may use where the ``fork`` start method exists, else 1."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def start(target, *args, duplex: bool = False):
    """A forked process running ``target(end, *args)``, and this process's end of their pipe.

    Without ``duplex`` the pipe runs from the worker to this process. The
    worker first closes its copy of this process's end, so it reads EOF
    once this process closes that end or exits. It exits with code 0 when
    ``target`` returns and 1 when it raises.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe(duplex)
    process = context.Process(target=_run, args=(target, ours, theirs, args))
    process.start()
    theirs.close()
    return process, ours


def _run(target, ours, theirs, args):
    code = 1
    try:
        ours.close()
        target(theirs, *args)
        code = 0
    finally:
        os._exit(code)  # at once: a normal exit would flush stdout text the parent had buffered


def exit_code(process) -> int:
    """The exit code of a worker whose pipe has closed; minus the signal number if one killed it."""
    process.join()
    return process.exitcode


def stop(process, end) -> None:
    """Kill and reap a worker that may still be working, and close this process's end of its pipe."""
    process.kill()
    process.join()
    end.close()
