"""The package's one worker pool: how a run is split over the CPUs, and
the forked processes that work on it.

This module holds the package's one rule for cutting a run of work over
the CPUs the process may run on (``cpu_count``, which ``taskset``
limits), and its one pool of workers, which every engine shares.
``imap(fn, items, most, *args, least=...)`` draws the caller's stream of
item tuples a round at a time, cuts each round into contiguous shares and
each share into parts, and yields what ``fn`` gives for each part, in
order:

- a round is ``round_size(most)`` items at most: one part with one CPU
  (or where no worker can be forked), otherwise ``ROUND_PARTS`` parts a
  CPU;
- a round's shares are near-equal in size, one a CPU but at least
  ``least`` items each, so a round of fewer than ``2 * least`` items is
  one share;
- a share's parts are the fewest near-equal parts of at most ``most``
  items each, and ``fn`` runs once a part, on the part's columns (the
  tuple of its items' first fields, then of their second, ...) and
  ``args``.

Each round's results are yielded, in item order, before the next round is
drawn, so the caller holds one round of items.  Link trials map their
frames in groups of at most ``_chunk(cfg)`` frames with shares of at
least ``MIN_SHARE`` frames; a ranging run maps its trials in parts of at
most ``BLOCK_TRIALS`` (a 100-trial share is two parts of 50).  The split
moves work, never a result: a frame's or a trial's result depends only on
its own seeds, so the bytes are the same at any CPU count.

The pool runs the first share of a round in this process and each other
in a forked worker process of its own, with processes, not threads,
because the engines' Python work holds the interpreter lock, as measured
in the README's CLI section.  A share travels to its worker pickled in
one message, its function by name, so ``fn`` must be a module-level
function (a lambda or a nested function is refused with pickle's error);
a worker forked before that function's module was loaded imports it as
it unpickles the share.
A worker runs every part of its share and replies with what they gave,
in part order, while this process runs its own share and then reads
each reply; the pickled share is the only message, so a share of any
size queues.  A worker whose reply an interrupt left unread is killed
and replaced by the next round.  A worker is forked the first time a
round needs it and serves later rounds, of any function, too: a process
forks at most ``cpu_count() - 1`` workers, whatever engines it runs.  It
is a copy of the caller at its fork: caller state set after it, such as
a monkeypatch, a warning filter or ``np.errstate``, does not reach it.
A worker keeps the heap it has faulted in: right after its fork it sets
the C library's malloc policy (``_keep_heap``) so that a share's freed
arrays stay in the heap for the next share, where glibc's default gave
them back to the kernel and a mux-baseband worker faulted about 940
pages back in a share.  The caller's own malloc policy is never changed.
The package starts no thread of its own, and the pool forks only inside
a round and runs one round at a time, so callers on several threads
share its workers safely.

No worker outlives its owner for long.  It exits when its pipe closes,
which the kernel does when the owner dies, even by SIGKILL: each worker
closes its inherited copies of the other workers' pipes, so only the
owner holds their ends.  It ignores SIGINT (an interrupt is the owner's
to handle) and leaves through ``os._exit``, so none of the owner's
cleanup runs in it.  A forked child of the owner forgets the workers it
inherited, and the owner closes its workers at exit.
"""
from __future__ import annotations

import atexit
import ctypes
import os
import pickle
import signal
import threading
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: whether this platform can fork workers, as it can wherever
#: ``multiprocessing`` offers its "fork" start method; without it a pool
#: runs every call in the calling process
FORK = hasattr(os, "fork")

#: parts a CPU in a round at most, when the round splits: each round
#: wakes every worker and waits for its reply, which on a busy host took
#: up to 25 ms against 10 ms of work a link group, so one round of many
#: parts, not many rounds of one, keeps a long run's time steady.  A
#: sweep's share carries one int payload seed a frame, not the bits,
#: so a long round costs no memory; a mux-sim share's bit rows (a byte a
#: bit) weigh less than one group's waveforms (16 bytes a sample)
ROUND_PARTS = 16


def cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def round_size(most: int) -> int:
    """The items of a round of parts of at most ``most`` items: one part
    with one CPU or no fork, ``ROUND_PARTS`` parts a CPU otherwise."""
    cpus = cpu_count() if FORK else 1
    return most if cpus == 1 else cpus * ROUND_PARTS * most


def _cuts(first: int, last: int, k: int) -> list[tuple[int, int]]:
    """The bounds of ``k`` contiguous runs of the items ``first..last``,
    near-equal in size."""
    bounds = [first + (last - first) * j // k for j in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _keep_heap() -> None:
    """Make the C library keep this worker's freed heap for its next share.

    Out of the box glibc gives the free memory at the heap's top back to
    the kernel once it passes the trim threshold (128 KiB, or twice the
    largest mapped block freed so far), so a mux-baseband worker faulted
    its share's arrays back in, about 940 pages a share.  Both settings
    are needed: the mmap threshold alone leaves that trimming as it was,
    and the trim threshold alone freezes the mmap threshold at the 128
    KiB a fresh process starts with, so every group's arrays would be
    mapped, and faulted, afresh (about 1970 pages a share).  Without
    ``mallopt`` (macOS) this does nothing.  Only workers call it: the
    caller's heap is the user's.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD, glibc's ceiling
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


def _serve(conn: Connection) -> None:
    """Answer each share read from ``conn`` until it closes: run its
    function on every part, then send what they gave (``_call``), in
    part order."""
    while True:
        try:
            fn, parts = conn.recv()
        except EOFError:
            return
        conn.send([_call(fn, args) for args in parts])


def _call(fn: Callable, args: tuple) -> tuple[bool, Any]:
    """``(True, fn(*args))``, or ``(False, exception)`` for an exception
    ``fn`` raised; the owner raises it again."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


class _Worker:
    """One forked process answering shares of function calls on a pipe."""

    def __init__(self):
        # imported by the first fork, so a run that never splits (a one-frame
        # or one-trial warm-up) does not pay for it
        from multiprocessing import Pipe
        ours, theirs = Pipe()
        pid = os.fork()
        if pid == 0:
            # the at-fork hook has closed the other workers' ends
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                ours.close()
                _keep_heap()
                _serve(theirs)
                code = 0
            finally:
                os._exit(code)   # never return into the caller's code
        theirs.close()
        self.pid = pid
        self.conn: Connection | None = ours
        self.busy = False   # sent a share whose reply is unread

    def send(self, fn: Callable, parts: list[tuple]) -> bool:
        """Hand the worker a share of ``fn`` calls; False if it is dead
        (then closed).  A share that does not pickle raises before the
        worker is sent anything."""
        share = pickle.dumps((fn, parts), pickle.HIGHEST_PROTOCOL)
        try:
            self.conn.send_bytes(share)
        except OSError:
            self.close()
            return False
        self.busy = True
        return True

    def reply(self) -> list[tuple[bool, Any]] | None:
        """What the worker gave for each part of its share; None if it died
        (then closed).  An interrupt while waiting closes it too."""
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
        self.conn.close()
        self.conn = None
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


class Pool:
    """The package's workers, which run any module-level function on the
    parts of a run, split as the module says."""

    def __init__(self):
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()   # one round at a time on the pipes
        if FORK:
            os.register_at_fork(after_in_child=self._forget)
            atexit.register(self.close)

    def imap(self, fn: Callable, items: Iterable[tuple], most: int, *args,
             least: int = 1) -> Iterator:
        """``fn(*columns, *args)`` for every part of ``items``, in order,
        where a part's columns are the tuple of its items' first fields,
        then of their second, and so on.

        ``items`` is drawn a round at a time, and a round's results are
        yielded before the next is drawn.  An exception of a part is
        raised here, with its own type, once every part of its round has
        ended: the first in order.
        """
        size = round_size(most)
        cpus = size // (ROUND_PARTS * most) or 1   # those round_size read
        items = iter(items)
        while batch := list(islice(items, size)):
            shares = _cuts(0, len(batch),
                           max(1, min(cpus, len(batch) // least)))
            for out in self._run(fn, [
                    [(*zip(*batch[lo:hi]), *args)
                     for lo, hi in _cuts(start, stop, -(-(stop - start) // most))]
                    for start, stop in shares]):
                yield from out

    def _run(self, fn: Callable, shares: list[list[tuple]]) -> list[list]:
        """``fn(*args)`` for every ``args`` of every share, in order.

        This process runs the first share, then reads each worker's reply
        to its own.  An exception of a part is raised here, with its own
        type, once every part has ended: the first in order.  A share with
        no worker, because it died or none could be forked, runs here
        instead, with the same results.
        """
        with self._lock:
            workers = self._take(len(shares) - 1)
            sent = [worker.send(fn, parts)
                    for worker, parts in zip(workers, shares[1:])]
            outcomes = [[_call(fn, args) for args in shares[0]]]
            replies = [worker.reply() if ok else None
                       for worker, ok in zip(workers, sent)]
        replies += [None] * (len(shares) - 1 - len(replies))
        for parts, reply in zip(shares[1:], replies):   # None: no worker
            outcomes.append(reply or [_call(fn, args) for args in parts])
        for out in outcomes:
            for ok, value in out:
                if not ok:
                    raise value
        return [[value for _, value in out] for out in outcomes]

    def _take(self, n: int) -> list[_Worker]:
        """Up to ``n`` idle workers, forked as needed; a worker left busy by
        an interrupted round still owes its reply and is replaced."""
        for worker in self._workers:
            if worker.busy:
                worker.close()
        self._workers = [w for w in self._workers if w.conn is not None]
        while FORK and len(self._workers) < n:
            try:
                worker = _Worker()
            except OSError:   # no process to spare: the caller runs the rest
                break
            self._workers.append(worker)
        return self._workers[:n]

    def close(self) -> None:
        """End every worker; the next round forks afresh."""
        for worker in self._workers:
            worker.close()
        self._workers = []

    def _forget(self) -> None:
        """In a forked child: the workers are the parent's, not its own, so
        close only this process's copies of their pipe ends."""
        for worker in self._workers:
            if worker.conn is not None:
                worker.conn.close()
        self._workers = []
        self._lock = threading.Lock()   # another thread may have held it


# the package's one pool: its workers are forked once, then serve every
# engine call of the process, so their fork is paid once a run
_POOL = Pool()
imap = _POOL.imap
