"""Independent work items computed by forked processes, one per usable core, and merged in item order.

termnet's one parallel mechanism: `read_corpus` runs the parts of a records file, `compute_features` its
networks and `classify_datasets` its training problems through `fork_map`.  It uses os.fork, pipes and
pickle only, so call it from a single-threaded process.
"""

from __future__ import annotations

import contextlib
import os
from itertools import chain
from typing import Sequence

__all__ = ["fork_map", "usable_cores"]


def usable_cores() -> int:
    """len(os.sched_getaffinity(0)) where the platform has it, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _End:
    """Pickled, by reference, after the pieces of a result."""


def _claims(fd: int, count: int, step: int):
    """The item indices taken from the claim pipe `fd`: each 4-byte claim is the first of `step`."""
    while claim := os.read(fd, 4):
        start = int.from_bytes(claim, "little")
        yield from range(start, min(start + step, count))


def _compute(work, items, indices) -> tuple[list[int], list, Exception | None]:
    """The indices taken, the results of work(items[index]), and the error that ended the work or None."""
    taken, results = [], []
    for index in indices:
        taken.append(index)
        try:
            results.append(work(items[index]))
        except Exception as exc:
            return taken, results, exc
    return taken, results, None


class _Child:
    """A forked child: it computes the items whose indices it takes from `indices`, then pickles to a pipe
    (indices taken, error or None) and each result, whole or as the pickles of `pieces(result)` and _End."""

    def __init__(self, work, items, indices, pieces):
        self.code = None
        read_end, write_end = os.pipe()
        self.pipe = open(read_end, "rb")
        with open(write_end, "wb") as out:
            self.pid = os.fork()
            if self.pid == 0:  # the child ends here, without running any cleanup of the parent's
                code = 1
                try:
                    _send(out, work, items, indices, pieces)
                    out.close()
                    code = 0
                finally:
                    os._exit(code)

    def load(self):
        """The next object the child sent; RuntimeError when it exited before sending it."""
        import pickle

        try:
            return pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            code = self.wait(kill=True)
        raise RuntimeError(f"forked process {self.pid} exited with code {code} before its results")

    def pieces(self):
        while (piece := self.load()) is not _End:
            yield piece

    def wait(self, kill: bool) -> int:
        """Reap the child once, after killing it if `kill`; its exit code (negative: the signal that ended it)."""
        if self.code is None:
            self.pipe.close()
            if kill:
                import signal

                os.kill(self.pid, signal.SIGKILL)  # a child that has exited stays until it is reaped
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code


def _send(out, work, items, indices, pieces) -> None:
    import pickle  # here, not at the top: only a call that forks loads it

    taken, results, error = _compute(work, items, indices)
    pickle.dump((taken, error), out, pickle.HIGHEST_PROTOCOL)
    for result in results:
        for piece in chain(pieces(result), [_End]) if pieces else [result]:
            pickle.dump(piece, out, pickle.HIGHEST_PROTOCOL)


def _in_order(count: int, own, children, pieces):
    """Each item's result, from `own` (this process's `_compute`) or from the child that took it."""
    taken, results, error = own
    owner = dict.fromkeys(taken)  # None: this process
    failed = {taken[-1]: error} if error is not None else {}
    for child in children:
        taken, error = child.load()
        owner.update(dict.fromkeys(taken, child))
        if error is not None:
            failed[taken[-1]] = error
    results.reverse()
    for index in range(count):  # an index after the first that failed may have been taken by no process
        if index in failed:
            raise failed[index]
        if owner[index] is None:
            yield results.pop()
        elif pieces:
            yield (part := owner[index].pieces())
            for _ in part:  # the pieces the caller left
                pass
        else:
            yield owner[index].load()
    for child in children:
        child.wait(kill=False)


@contextlib.contextmanager
def fork_map(work, items: Sequence, pieces=None):
    """Yield an iterator over map(work, items), as if the items were computed one after another.

    This process computes item 0, and it and up to usable_cores() - 1 forked
    children (none without os.fork) take each next index from a pipe filled
    before the fork.  A process stops at the first item whose work raises; the
    iterator raises the error of the first such item in item order.  A child
    sends its results after its last item: each whole or, given `pieces`, as
    an iterator that loads the pickles of `pieces(result)` one at a time.  A
    result computed here is given as it is.  A child that exits before its
    results makes the iterator raise RuntimeError.  Every child is reaped
    before the context exits, killed first unless all its results were read.
    """
    count = len(items)
    processes = min(usable_cores(), count) if hasattr(os, "fork") else 1
    if processes <= 1:
        yield map(work, items)
        return
    step = -(-count // 4096)  # at most 16 KiB of claims: the pipe holds them all before anyone reads
    take, fill = os.pipe()
    with open(fill, "wb") as fh:
        fh.write(b"".join(start.to_bytes(4, "little") for start in range(1, count, step)))
    children: list[_Child] = []
    try:
        for _ in range(processes - 1):
            children.append(_Child(work, items, _claims(take, count, step), pieces))
        yield _in_order(count, _compute(work, items, chain([0], _claims(take, count, step))), children, pieces)
    finally:
        os.close(take)
        for child in children:
            child.wait(kill=True)
