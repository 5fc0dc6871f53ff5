"""Solve replay: record the ``nlp.minimize`` calls of one solver run and
return their results to a later run that would retrace them exactly.

``nlp.minimize`` is deterministic in its problem's dimension, bounds,
starts and options and in the values its callables return.  Under
``recording_tape()`` every call is solved and kept on a tape: that key,
for each of the two callables the batches it was given with its outputs,
in call order, and the result.  A tape holds at most ``_TAPE_BYTES``; a
call whose batches would take more is solved but not kept, and never
replays.  Under ``replaying_tape(recorded)`` the k-th call is checked
against the k-th entry: when the key is equal and each new callable
returns its recorded outputs bit for bit on its recorded batches, stacked
into screen blocks (the batch contract of ``scendo.nlp`` makes that the
same as evaluating them one batch at a time), the solve would take the
same L-BFGS-B steps, violation checks and penalty stages, so a copy of
the recorded result is returned.  A screen block is ``_SCREEN_BATCHES``
times as many rows as the largest batch the recorded solve gave that
callable, so the screen's temporaries stay within a few times the
solve's own: on the certify benchmark's 12x10 grids a block is 112 rows
and its grids stay below glibc's 128 KiB mmap threshold, which blocks of
1024 rows would exceed eightfold.  A miss stops the screen after the
block that shows it.  Any difference, or an earlier miss on the same tape,
runs the real solve.  Outside both blocks no tape is active and every
call is solved.

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

#: rows of a replay screen block, in the recorded solve's largest batches
_SCREEN_BATCHES = 4
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
        self.widest = 0  # rows of the largest batch appended

    @property
    def nbytes(self) -> int:
        return 0 if self.buf is None else self.buf.nbytes

    def append(self, rows: Array, room: int) -> bool:
        """Copy ``rows`` after the earlier ones; False when they do not
        stack onto them (no leading axis, another trailing shape or dtype)
        or a grown buffer would not fit in ``room`` bytes."""
        if rows.ndim == 0:
            return False
        if self.buf is not None and (rows.shape[1:] != self.buf.shape[1:] or rows.dtype != self.buf.dtype):
            return False
        start, stop = self.n, self.n + len(rows)
        if self.buf is None or stop > len(self.buf):
            shape = (max(2 * stop, 1024),) + rows.shape[1:]
            if int(np.prod(shape)) * rows.itemsize > room:
                return False
            grown = np.empty(shape, rows.dtype)
            if self.buf is not None:
                grown[:start] = self.buf[:start]
            self.buf = grown
        self.buf[start:stop] = rows
        self.n = stop
        self.widest = max(self.widest, len(rows))
        return True


class _Entry:
    """One recorded ``minimize`` call: its key, each callable's stream of
    batches and outputs (``streams[0]`` the objective's, ``streams[1]``
    the constraints'), and the result.  The result stays None when the
    call raised, a batch did not stack or the buffers would outgrow
    ``budget`` bytes: each means never replay it."""

    def __init__(self, problem: NlpProblem, opts: NlpOptions, budget: int):
        self.key = _problem_key(problem, opts)
        self.budget = budget
        self.kept = True
        self.streams = (_Rows(), _Rows()), (_Rows(), _Rows())
        self.result: Optional[NlpResult] = None

    @property
    def nbytes(self) -> int:
        return sum(rows.nbytes for stream in self.streams for rows in stream)

    def _drop(self) -> None:
        """Free the buffers; the entry is not replayed."""
        self.kept = False
        self.streams = (_Rows(), _Rows()), (_Rows(), _Rows())

    def _append(self, buf: _Rows, rows: Array) -> bool:
        if self.kept and not buf.append(rows, self.budget - self.nbytes):
            self._drop()
        return self.kept

    def _recorder(self, c: int, fn: Callable[[Array], Array]) -> Callable[[Array], Array]:
        def call(X):
            X = np.asarray(X)
            inputs, outputs = self.streams[c]
            kept = self._append(inputs, X)  # copied before the callable sees X
            out = fn(X)
            if kept:
                y = np.asarray(out)
                if y.ndim == 0 or len(y) != len(X):
                    self._drop()
                else:
                    self._append(outputs, y)
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

    def replays(self, problem: NlpProblem, opts: NlpOptions) -> tuple[bool, int]:
        """Whether ``problem`` would retrace this solve exactly: each callable
        returns its recorded outputs on its recorded batches, constraints
        first (they carry the scenario set), a screen block of
        ``_SCREEN_BATCHES`` of its largest recorded batches at a time; and
        the rows screened."""
        if self.result is None or _problem_key(problem, opts) != self.key:
            return False, 0
        screened = 0
        for c, fn in ((1, problem.constraints_batch), (0, problem.objective_batch)):
            inputs, outputs = self.streams[c]
            step = max(_SCREEN_BATCHES * inputs.widest, 1)
            for start in range(0, inputs.n, step):
                block = slice(start, min(start + step, inputs.n))
                screened += block.stop - start
                try:
                    out = fn(inputs.buf[block].copy())  # fn cannot write the tape
                except Exception:  # solving raises there too, or leaves the path before: solve
                    return False, screened
                if not _same_bits(out, outputs.buf[block]):
                    return False, screened
        return True, screened


class _Tape:
    """The ``minimize`` calls of one solver run: recorded when ``entries``
    is None, else replayed against them."""

    def __init__(self, entries: Optional[list] = None):
        self.recording = entries is None
        self.entries: list = [] if entries is None else entries
        self.calls = 0
        self.hits = 0
        self.screened = 0  # rows the replay screens evaluated

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
        if self.hits == k and k < len(self.entries):
            replays, screened = self.entries[k].replays(problem, opts)
            self.screened += screened
            if replays:
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
