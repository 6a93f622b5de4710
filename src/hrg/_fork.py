"""One forked child working beside its parent (POSIX ``os.fork``).

The child leaves only by ``os._exit``: it never returns into the caller's
stack, runs no exit handler, and never flushes the stdout buffer it
inherited. The parent always reaps it, also when its own work raises.
Whatever the child raises comes out of the parent as itself, so a fault in
the child ends the command as the same fault in the parent would.
"""

from __future__ import annotations

import os
import pickle


def fork_call(child, parent, name: str):
    """Runs ``child()`` in a forked child while this process runs
    ``parent()``; returns (parent's result, child's result).

    The child sends back its result, or any exception it raised, pickled
    through a pipe. Once the child is reaped its exception is raised here,
    ahead of one raised by ``parent()``. A child that ends without a
    pickled outcome (a signal, or a result or exception that cannot be
    pickled) raises ``RuntimeError`` naming ``name`` and its exit code."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        exit_code = 1
        try:
            os.close(read_end)
            try:
                payload = (True, child())
            except BaseException as exc:
                payload = (False, exc)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            exit_code = 0
        finally:
            os._exit(exit_code)
    os.close(write_end)
    try:
        parent_result = parent()
    finally:
        # drain the pipe before waiting, so a child blocked on a full pipe
        # can finish
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        exit_code = os.waitstatus_to_exitcode(status)
        if exit_code:
            raise RuntimeError(f"{name} exited with code {exit_code}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
    return parent_result, value
