"""The CPUs a run may use, and forked processes that work on them.

``cpu_count`` is the one reading of the CPU set: a ranging run splits its
trials over it, and ``link_trials`` each round of its frames.

A ``Pool`` runs one function on the parts of shares of work, the first
share in this process and each other in a forked worker process of its
own; ranging and link trials each have a pool, and use forked processes,
not threads, because their Python work holds the interpreter lock.  A
worker runs its share's parts from the front, and this process, once its
own share is done, takes the parts no worker has started, so a worker
that wakes late or runs on a busier CPU leaves them to it instead of
holding up the run.  Each worker has a pipe of part numbers beside its
share: whoever reads a number runs that part, and the kernel gives each
number to one reader.
A worker is forked the first time a ``Pool.run`` needs it and serves later
runs too.  It is a copy of the caller at its fork: caller state set after
it, such as a monkeypatch, a warning filter or ``np.errstate``, does not
reach it.  The package starts no thread of its own, and a pool forks
only inside ``Pool.run`` and serves one run at a time, so callers on
several threads share its workers safely.

No worker outlives its owner for long.  It exits when its pipe closes,
which the kernel does when the owner dies, even by SIGKILL: each worker
closes its inherited copies of the other workers' pipes, those of every
pool, so only the owner holds their ends.  It ignores SIGINT (an
interrupt is the owner's to handle) and leaves through ``os._exit``, so
none of the owner's cleanup runs in it.  A forked child of the owner
forgets the pools it inherited, and the owner closes its workers at exit.
"""
from __future__ import annotations

import atexit
import os
import signal
import threading
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: whether this platform can fork workers, as it can wherever
#: ``multiprocessing`` offers its "fork" start method; without it a pool
#: runs every call in the calling process
FORK = hasattr(os, "fork")


def cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(conn: Connection, numbers: int, fn: Callable) -> None:
    """Answer each share read from ``conn`` until it closes: run the parts
    whose numbers it reads from ``numbers``, then send what they gave
    (``_call``) with their numbers."""
    while True:
        try:
            parts = conn.recv()
        except EOFError:
            return
        done = []
        while (k := _next(numbers)) is not None:
            done.append((k, _call(fn, parts[k])))
        conn.send(done)


def _call(fn: Callable, args: tuple) -> tuple[bool, Any]:
    """``(True, fn(*args))``, or ``(False, exception)`` for an exception
    ``fn`` raised; the owner raises it again."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _next(numbers: int) -> int | None:
    """The next part number read from the non-blocking pipe end
    ``numbers``; None once it is empty."""
    try:
        data = os.read(numbers, 4)
    except BlockingIOError:
        return None
    return int.from_bytes(data, "little") if data else None


class _Worker:
    """One forked process answering shares of ``fn`` calls on a pipe."""

    def __init__(self, fn: Callable):
        # imported by the first fork, so a run that never splits (a one-frame
        # or one-trial warm-up) does not pay for it
        from multiprocessing import Pipe
        ours, theirs = Pipe()
        numbers, feed = os.pipe()
        os.set_blocking(numbers, False)
        try:
            pid = os.fork()
        except OSError:
            for end in (ours, theirs):
                end.close()
            os.close(numbers)
            os.close(feed)
            raise
        if pid == 0:
            # the at-fork hook has closed the other workers' ends
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                ours.close()
                os.close(feed)
                _serve(theirs, numbers, fn)
                code = 0
            finally:
                os._exit(code)   # never return into the caller's code
        theirs.close()
        self.pid = pid
        self.conn: Connection | None = ours
        self.numbers, self.feed = numbers, feed
        self.busy = False   # sent a share whose reply is unread

    def send(self, parts: list[tuple]) -> bool:
        """Hand the worker a share; False if it is dead (then closed)."""
        os.write(self.feed, b"".join(k.to_bytes(4, "little")
                                     for k in range(len(parts))))
        try:
            self.conn.send(parts)
        except OSError:
            self.close()
            return False
        self.busy = True
        return True

    def take(self) -> int | None:
        """The number of a part of the share sent that the worker has not
        started, which the caller then runs; None if there is none."""
        return _next(self.numbers)

    def reply(self) -> list[tuple[int, tuple[bool, Any]]] | None:
        """What the worker gave for the parts it ran; None if it died (then
        closed).  An interrupt while waiting closes it too."""
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            self.close()
            return None
        except BaseException:
            self.close()
            raise
        self.busy = False
        return reply

    def close(self) -> None:
        """End the worker and reap it."""
        if self.conn is None:
            return
        self.forget()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass

    def forget(self) -> None:
        """Close this process's ends of the worker's pipes."""
        self.conn.close()
        self.conn = None
        os.close(self.numbers)
        os.close(self.feed)


class Pool:
    """Runs ``fn`` on the parts of a list of shares, the first share in
    this process and each other in a forked worker of its own."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()   # one run at a time on the pipes
        if FORK:
            os.register_at_fork(after_in_child=self._forget)
            atexit.register(self.close)

    def run(self, shares: list[list[tuple]]) -> list[list]:
        """``fn(*args)`` for every ``args`` of every share, in order.

        This process runs the first share, then the parts of the others
        that their workers have not started.  An exception of a part is
        raised here, with its own type, once every part has ended: the
        first in order.  A share with no worker, because it died or none
        could be forked, runs here instead, with the same results.  A
        share's part numbers, 4 bytes each, are written to a pipe before the
        worker reads any, so a share holds at most 1024 parts (4 KiB, the
        least a pipe holds); a share of link trials holds at most 16, one
        of ranging trials at most ``rangingrun.ROUND_BLOCKS``.
        """
        outcomes: list[list] = [[None] * len(parts) for parts in shares]
        with self._lock:
            workers = self._take(len(shares) - 1)
            sent: list[bool] = []
            try:
                for worker, parts in zip(workers, shares[1:]):
                    sent.append(worker.send(parts))
                outcomes[0] = [_call(self.fn, args) for args in shares[0]]
                for worker, ok, parts, out in zip(workers, sent, shares[1:],
                                                  outcomes[1:]):
                    while ok and (k := worker.take()) is not None:
                        out[k] = _call(self.fn, parts[k])
            finally:
                # every reply is read, so each pipe stays in step; after an
                # interrupt, the parts no worker has started are dropped
                replies = []
                for worker, ok in zip(workers, sent):
                    while ok and worker.take() is not None:
                        pass
                    replies.append(worker.reply() if ok else None)
        replies += [None] * (len(shares) - 1 - len(replies))
        for parts, out, reply in zip(shares[1:], outcomes[1:], replies):
            for k, outcome in reply or ():
                out[k] = outcome
            for k, args in enumerate(parts):   # no worker, or it died
                if out[k] is None:
                    out[k] = _call(self.fn, args)
        for out in outcomes:
            for ok, value in out:
                if not ok:
                    raise value
        return [[value for _, value in out] for out in outcomes]

    def _take(self, n: int) -> list[_Worker]:
        """Up to ``n`` idle workers, forked as needed; a worker left busy by
        an interrupted run is out of step with its pipe and is replaced."""
        for worker in self._workers:
            if worker.busy:
                worker.close()
        self._workers = [w for w in self._workers if w.conn is not None]
        while FORK and len(self._workers) < n:
            try:
                worker = _Worker(self.fn)
            except OSError:   # no process to spare: the caller runs the rest
                break
            self._workers.append(worker)
        return self._workers[:n]

    def close(self) -> None:
        """End every worker; the next run forks afresh."""
        for worker in self._workers:
            worker.close()
        self._workers = []

    def _forget(self) -> None:
        """In a forked child: the workers are the parent's, not its own, so
        close only this process's copies of their pipe ends."""
        for worker in self._workers:
            if worker.conn is not None:
                worker.forget()
        self._workers = []
        self._lock = threading.Lock()   # another thread may have held it
