"""Solve replay: record the ``nlp.minimize`` calls of one solver run and
return their results to a later run that would retrace them exactly.

``nlp.minimize`` is deterministic in its problem's dimension, bounds,
starts and options and in the values its callables return.  Under
``recording_tape()`` every call is solved and kept on a tape: that key,
every batch passed to the two callables with its output, and the result.
A batch both callables are given in turn is kept once.  A tape holds at
most ``_TAPE_BYTES``; a call whose batches would take more is solved but
not kept, and never replays.  Under ``replaying_tape(recorded)`` the k-th
call is checked against the k-th entry: when the key is equal and the new
callables return the recorded outputs bit for bit on the recorded
batches, stacked into blocks of rows (the batch contract of ``scendo.nlp``
makes that the same as evaluating them one batch at a time), the solve
would take the same L-BFGS-B steps, violation checks and penalty stages,
so a copy of the recorded result is returned.  Any difference, or an
earlier miss on the same tape, runs the real solve.  Outside both blocks
no tape is active and every call is solved.

The tape lives in the ``nlp._TAPE`` context variable, which
``nlp.minimize`` reads; this module holds everything else, so that only
the code that replays (``risk_bounds.support_scenarios``) imports it.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import astuple, replace
from typing import Callable, ContextManager, Iterator, Optional

import numpy as np

from scendo import nlp
from scendo.nlp import NlpOptions, NlpProblem, NlpResult

Array = np.ndarray

#: rows per block of the replay screen
_BLOCK_ROWS = 1024
#: bytes one recording tape may hold; a solve that needs more is not kept
_TAPE_BYTES = 4 << 20


def _problem_key(problem: NlpProblem, opts: NlpOptions) -> tuple:
    """Everything besides the callables' values that a solve depends on."""
    bounds, starts = np.asarray(problem.bounds), np.asarray(problem.starts)
    return (
        problem.dim,
        (bounds.dtype.str, bounds.shape, bounds.tobytes()),
        (starts.dtype.str, starts.shape, starts.tobytes()),
        astuple(opts),
    )


def _same_bits(out, want: Array) -> bool:
    out = np.asarray(out)
    return out.dtype == want.dtype and out.shape == want.shape and out.tobytes() == want.tobytes()


class _Rows:
    """Rows stacked in call order into one buffer that doubles when full.
    One buffer, not an array per batch: thousands of small arrays fragment
    the heap, and the process keeps that memory after the tape is gone."""

    def __init__(self):
        self.buf: Optional[Array] = None
        self.n = 0

    @property
    def nbytes(self) -> int:
        return 0 if self.buf is None else self.buf.nbytes

    @property
    def rows(self) -> Array:
        return self.buf[: self.n]

    def append(self, rows: Array, room: int) -> Optional[slice]:
        """Copy ``rows`` after the earlier ones and say where they went;
        None when they do not stack onto them (no leading axis, another
        trailing shape or dtype) or a grown buffer would not fit in
        ``room`` bytes."""
        if rows.ndim == 0:
            return None
        if self.buf is not None and (rows.shape[1:] != self.buf.shape[1:] or rows.dtype != self.buf.dtype):
            return None
        start, stop = self.n, self.n + len(rows)
        if self.buf is None or stop > len(self.buf):
            shape = (max(2 * stop, 1024),) + rows.shape[1:]
            if int(np.prod(shape)) * rows.itemsize > room:
                return None
            grown = np.empty(shape, rows.dtype)
            if self.buf is not None:
                grown[:start] = self.buf[:start]
            self.buf = grown
        self.buf[start:stop] = rows
        self.n = stop
        return slice(start, stop)


class _Entry:
    """One recorded ``minimize`` call: its key, the batches its callables
    were given, each callable's outputs, and the result.  A batch passed to
    both callables in turn (a merit batch) is kept once, and ``seen`` marks
    which callables evaluated each row.  The result stays None when the
    call raised, a batch did not stack or the buffers would outgrow
    ``budget`` bytes: each means never replay it."""

    def __init__(self, problem: NlpProblem, opts: NlpOptions, budget: int):
        self.key = _problem_key(problem, opts)
        self.budget = budget
        self.kept = True
        self.last: Optional[slice] = None  # the rows of the latest batch
        self.inputs, self.seen, self.outputs = _Rows(), _Rows(), (_Rows(), _Rows())
        self.result: Optional[NlpResult] = None

    @property
    def nbytes(self) -> int:
        return sum(r.nbytes for r in (self.inputs, self.seen, *self.outputs))

    def _drop(self) -> None:
        """Free the buffers; the entry is not replayed."""
        self.kept = False
        self.inputs, self.seen, self.outputs = _Rows(), _Rows(), (_Rows(), _Rows())

    def _append(self, buf: _Rows, rows: Array) -> Optional[slice]:
        where = buf.append(rows, self.budget - self.nbytes) if self.kept else None
        if where is None:
            self._drop()
        return where

    def _record_input(self, c: int, X: Array) -> Optional[slice]:
        last = self.last
        if last is not None and not self.seen.buf[last, c].any() and _same_bits(X, self.inputs.buf[last]):
            return last
        rows = self._append(self.inputs, X)  # copied before the callable sees X
        if rows is not None and self._append(self.seen, np.zeros((len(X), 2), bool)) is not None:
            self.last = rows
            return rows
        return None

    def _recorder(self, c: int, fn: Callable[[Array], Array]) -> Callable[[Array], Array]:
        def call(X):
            X = np.asarray(X)
            rows = self._record_input(c, X) if self.kept else None
            out = fn(X)
            if rows is not None:
                y = np.asarray(out)
                if y.ndim == 0 or len(y) != len(X) or self._append(self.outputs[c], y) is None:
                    self._drop()
                else:
                    self.seen.buf[rows, c] = True
            return out

        return call

    def solve(self, problem: NlpProblem, opts: NlpOptions) -> NlpResult:
        recorded = replace(
            problem,
            objective_batch=self._recorder(0, problem.objective_batch),
            constraints_batch=self._recorder(1, problem.constraints_batch),
        )
        result = nlp._solve(recorded, opts)
        if self.kept:
            self.result = copy.deepcopy(result)
        return result

    def replays(self, problem: NlpProblem, opts: NlpOptions) -> bool:
        """Whether ``problem`` would retrace this solve exactly: its
        callables return the recorded outputs on the recorded batches,
        checked a block of rows at a time so a changed problem stops early."""
        if self.result is None or _problem_key(problem, opts) != self.key:
            return False
        X, seen = self.inputs.rows, self.seen.rows
        done = [0, 0]
        for start in range(0, len(X), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            for c, fn in enumerate((problem.objective_batch, problem.constraints_batch)):
                mask = seen[block, c]
                n = int(np.count_nonzero(mask))
                if n == 0:
                    continue
                try:
                    out = fn(X[block][mask])  # a copy: fn cannot write the tape
                except Exception:  # solving raises there too, or leaves the path before: solve
                    return False
                if not _same_bits(out, self.outputs[c].rows[done[c] : done[c] + n]):
                    return False
                done[c] += n
        return True


class _Tape:
    """The ``minimize`` calls of one solver run: recorded when ``entries``
    is None, else replayed against them."""

    def __init__(self, entries: Optional[list] = None):
        self.recording = entries is None
        self.entries: list = [] if entries is None else entries
        self.calls = 0
        self.hits = 0

    @property
    def replayed(self) -> bool:
        """True when every call of the run returned a recorded result."""
        return self.calls > 0 and self.hits == self.calls

    def minimize(self, problem: NlpProblem, opts: NlpOptions) -> NlpResult:
        k = self.calls
        self.calls += 1
        if self.recording:
            budget = _TAPE_BYTES - sum(entry.nbytes for entry in self.entries)
            self.entries.append(_Entry(problem, opts, budget))
            return self.entries[-1].solve(problem, opts)
        if self.hits == k and k < len(self.entries) and self.entries[k].replays(problem, opts):
            self.hits += 1
            return copy.deepcopy(self.entries[k].result)
        return nlp._solve(problem, opts)


@contextmanager
def _active(tape: _Tape) -> Iterator[_Tape]:
    token = nlp._TAPE.set(tape)
    try:
        yield tape
    finally:
        nlp._TAPE.reset(token)


def recording_tape() -> ContextManager[_Tape]:
    """Context in which every ``minimize`` call is solved and recorded."""
    return _active(_Tape())


def replaying_tape(recorded: _Tape) -> ContextManager[_Tape]:
    """Context in which ``minimize`` calls replay ``recorded`` where they
    match it; the yielded tape's ``replayed`` tells whether all did."""
    return _active(_Tape(recorded.entries))
