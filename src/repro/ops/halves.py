"""Run an elementwise pass as two halves on two cores.

Eq. (1) computes every hypervector component on its own, the
dimension-wise independence HD hardware parallelises.  The encoders'
sine passes (:func:`repro.encoding.nonlinear.encode_into` and
:func:`repro.runtime.fused.encode_pack_tile`) therefore cut a pass into two
disjoint row halves of one buffer (:func:`run_rows`): the calling thread
computes the first and one process-wide helper thread the second, each in
place.  numpy releases
the interpreter lock inside a ufunc loop over a large array, so the halves
run at once, and every element goes through the same ufunc as in one
pass, so the output is bit for bit the same.  Only elementwise work may be
split this way: a reduction or a BLAS call cut in two can round
differently.

A caller splits a pass only when it holds two rows or more and at least
:data:`SPLIT_ELEMENTS` components.  The constant was measured on two vCPUs
of a KVM guest, where handing the helper an empty pass and waiting for it
costs about 14 µs: split against whole at D=4096, the fused encode→pack
ran 1.16-1.27x faster at 16 384 components (4 rows) and 1.42-1.52x at
32 768 (8 rows), 0.96-1.35x at 8 192, and lost at 4 096, a 1-row point
query (0.55-0.79x).  Re-timed on the one-sine float encode and on distinct
rows (a repeated row lets the CPU learn glibc's sine branches: 4 096 sines
took 30 µs on one and 78 µs on distinct rows), its split read 0.95x, 0.97x
and 0.97x at 2, 4 and 8 rows in a host phase where two ``np.sin`` threads
scaled 0.83-1.21x, 1.36x, 1.52x and 1.44x in one where the second vCPU
ran, and 0.92x, 0.94x and 0.98x a minute later (medians of 9 alternating
pairs).  The gain follows the host, not the pass size, and no workload
encodes 2-3 rows at D=4096, so the constant stays.  The gain assumes the
second CPU is otherwise idle: the affinity mask does not show a CPU
quota, and where caller threads already keep both CPUs busy the helper
only competes with them (two threads reading 8 rows at a time through one
fused plan served 14 % fewer reads).

The helper:

* starts lazily, on the first split-sized pass, and only when the process
  may run on two or more CPUs (``os.sched_getaffinity``) and may start a
  thread; otherwise the caller runs both halves, as it does while another
  caller holds the helper, so no caller waits behind another's half;
* runs its half in a copy of the caller's :mod:`contextvars` context, so
  ``np.errstate`` holds for both halves (numpy 2 keeps it in a context
  variable; numpy 1 kept it per thread, and there the helper's half runs
  under numpy's default error handling);
* hands an exception raised in its half to the caller, which raises it
  once both halves are done (its own exception first);
* is forgotten in a forked child (``os.register_at_fork``), which starts
  its own if it needs one; :func:`stay_single_threaded` keeps a process
  without one, as process-pool workers that pin their BLAS to one thread
  do.  A fork while the helper idles (waiting on its own lock, holding
  nothing a child needs) is safe, though Python 3.12 and later warn
  about any fork of a multi-threaded process.
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable

__all__ = ["SPLIT_ELEMENTS", "run_halves", "run_rows", "stay_single_threaded"]

#: components a pass must hold before its caller splits it
SPLIT_ELEMENTS = 16384


class _Helper:
    """One daemon thread that runs the second half of a split pass."""

    __slots__ = ("claim", "_go", "_done", "_job", "_error")

    def __init__(self) -> None:
        #: held by the caller whose half the helper runs
        self.claim = threading.Lock()
        # Two locks used as binary semaphores: `_go` hands the helper a
        # job, `_done` hands the caller its end.  Both start taken.
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job: tuple | None = None
        self._error: BaseException | None = None
        threading.Thread(
            target=self._serve, name="repro-halves", daemon=True
        ).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            context, fn, args = self._job
            self._job = None
            try:
                context.run(fn, *args)
            except BaseException as exc:  # raised again by the caller
                self._error = exc
            # An idle helper keeps no buffer of the pass alive.
            del context, fn, args
            self._done.release()

    def run(self, fn: Callable, first: tuple, second: tuple) -> None:
        """``fn(*second)`` on the helper beside ``fn(*first)`` here; the
        caller holds :attr:`claim`, which this releases."""
        self._job = (contextvars.copy_context(), fn, second)
        self._go.release()
        try:
            fn(*first)
        finally:
            # The helper writes into the caller's buffers until it is
            # done.  Should this wait itself be interrupted, the claim
            # is never released and later callers run both halves.
            self._done.acquire()
            error, self._error = self._error, None
            self.claim.release()
        if error is not None:
            raise error


#: ``None`` until the first split-sized pass, then the helper, or
#: ``False`` where this process runs without one
_helper: _Helper | bool | None = None
_start = threading.Lock()


def _cpus() -> int:
    """CPUs this process may run on (the host's, where the platform keeps
    no affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim() -> _Helper | None:
    """The helper, claimed for one pass, or ``None`` when the caller is
    to run both halves."""
    global _helper
    helper = _helper
    if helper is None:
        with _start:
            if _helper is None:
                try:
                    _helper = _Helper() if _cpus() >= 2 else False
                except RuntimeError:  # the process may start no thread
                    _helper = False
            helper = _helper
    if helper and helper.claim.acquire(blocking=False):
        return helper
    return None


def run_halves(fn: Callable, first: tuple, second: tuple) -> None:
    """Run ``fn(*first)`` and ``fn(*second)``, two disjoint halves of one
    elementwise pass: the second on the helper thread while the first
    runs here when the helper is free, both here otherwise.  Returns once
    both are done."""
    helper = _claim()
    if helper is None:
        fn(*first)
        fn(*second)
    else:
        helper.run(fn, first, second)


def run_rows(fn: Callable, rows, *args) -> None:
    """``fn(rows, *args)``, an elementwise pass over the rows of one 2-D
    buffer, as two row halves (:func:`run_halves`) when it holds two rows
    or more and at least :data:`SPLIT_ELEMENTS` components, whole
    otherwise."""
    if rows.size < SPLIT_ELEMENTS or len(rows) < 2:
        fn(rows, *args)
    else:
        r = len(rows) // 2
        run_halves(fn, (rows[:r], *args), (rows[r:], *args))


def stay_single_threaded() -> None:
    """Run every split pass of this process in its calling thread.

    A process-pool initializer calls this beside pinning its BLAS to one
    thread, so N workers use N cores, not 2N.
    """
    global _helper
    _helper = False


def _forget() -> None:
    """A forked child has no helper thread, whatever its parent had."""
    global _helper, _start
    _helper, _start = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # platforms that can fork
    os.register_at_fork(after_in_child=_forget)
