from dataclasses import replace

import numpy as np
import pytest

from scendo import nlp, replay


@pytest.mark.parametrize("one_row_dtype", [np.float64, np.float32])
def test_replay_needs_stacking_batches(one_row_dtype):
    # float32 one-row batches break the batch contract: the recorded
    # outputs do not stack, so the replaying tape solves again
    def objective(X):
        out = np.sum((X - 0.3) ** 2, axis=-1)
        return out.astype(one_row_dtype) if len(X) == 1 else out

    bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    problem = nlp.NlpProblem(objective_batch=objective,
                             constraints_batch=lambda X: np.zeros((len(X), 0)),
                             bounds=bounds, starts=nlp.latin_hypercube(bounds, opts))
    with replay.recording_tape() as tape:
        base = nlp.minimize(problem, opts)
    with replay.replaying_tape(tape) as replayed:
        again = nlp.minimize(problem, opts)
    assert replayed.replayed == (one_row_dtype is np.float64)
    assert again.x.tobytes() == base.x.tobytes()
    assert again.diagnostics == base.diagnostics


def _counted_constrained_problem(rows: dict, opts: nlp.NlpOptions) -> nlp.NlpProblem:
    """min x0 + x1 over x0 * x1 >= 0.1 in the unit box, from the starts
    ``opts`` draws; ``rows`` counts the rows each callable is given."""
    def objective(X):
        rows["f"] += len(X)
        return X[:, 0] + X[:, 1]

    def constraints(X):
        rows["g"] += len(X)
        return 0.1 - X[:, :1] * X[:, 1:]

    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    return nlp.NlpProblem(objective_batch=objective, constraints_batch=constraints,
                          bounds=bounds, starts=nlp.latin_hypercube(bounds, opts))


def _logged(fn, log: list):
    """``fn`` that appends each batch it is given and its output to ``log``."""
    def call(X):
        out = fn(X)
        log.append((np.array(X), np.array(out)))
        return out

    return call


def test_tape_keeps_each_callable_stream_in_call_order():
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    problem = _counted_constrained_problem({"f": 0, "g": 0}, opts)
    logs = ([], [])
    logged = replace(
        problem,
        objective_batch=_logged(problem.objective_batch, logs[0]),
        constraints_batch=_logged(problem.constraints_batch, logs[1]),
    )
    with replay.recording_tape() as tape:
        nlp.minimize(logged, opts)
    (entry,) = tape.entries
    assert entry.result is not None
    for (inputs, outputs), log in zip(entry.streams, logs):
        assert log
        assert np.array_equal(inputs.buf[: inputs.n], np.concatenate([X for X, _ in log]))
        assert np.array_equal(outputs.buf[: outputs.n], np.concatenate([y for _, y in log]))


def test_objective_one_ulp_off_on_one_recorded_row_is_solved():
    # the constraints match the tape everywhere, so only the objective's
    # stream shows the change, at its last recorded row
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    rows = {"f": 0, "g": 0}
    with replay.recording_tape() as tape:
        nlp.minimize(_counted_constrained_problem(rows, opts), opts)
    inputs = tape.entries[0].streams[0][0]
    last = inputs.buf[inputs.n - 1].copy()
    problem = _counted_constrained_problem(rows, opts)

    def objective(X):
        out = problem.objective_batch(X)
        hit = np.all(X == last, axis=-1)
        out[hit] = np.nextafter(out[hit], np.inf)
        return out

    changed = replace(problem, objective_batch=objective)
    with replay.replaying_tape(tape) as replayed:
        again = nlp.minimize(changed, opts)
    assert not replayed.replayed
    cold = nlp.minimize(changed, opts)
    assert again.x.tobytes() == cold.x.tobytes()
    assert again.diagnostics == cold.diagnostics


def test_solve_outgrowing_the_tape_budget_is_not_kept(monkeypatch):
    rows = {"f": 0, "g": 0}
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    cold = nlp.minimize(_counted_constrained_problem(rows, opts), opts)
    monkeypatch.setattr(replay, "_TAPE_BYTES", 64 << 10)  # less than this solve's rows take
    with replay.recording_tape() as tape:
        base = nlp.minimize(_counted_constrained_problem(rows, opts), opts)
    (entry,) = tape.entries
    assert entry.result is None and entry.nbytes == 0
    rows.update(f=0, g=0)
    with replay.replaying_tape(tape) as replayed:
        again = nlp.minimize(_counted_constrained_problem(rows, opts), opts)
    assert not replayed.replayed
    assert rows["f"] > 0  # solved, not screened: the tape holds no rows
    for res in (base, again):
        assert res.x.tobytes() == cold.x.tobytes()
        assert res.diagnostics == cold.diagnostics


def test_a_miss_in_the_first_screen_block_evaluates_one_block(monkeypatch):
    # the constraints are one ulp off on the first recorded row, so the
    # screen stops after its first block: _SCREEN_BATCHES of the recorded
    # solve's largest batches, not the whole recording
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    rows = {"f": 0, "g": 0}
    with replay.recording_tape() as tape:
        nlp.minimize(_counted_constrained_problem(rows, opts), opts)
    inputs = tape.entries[0].streams[1][0]
    block = replay._SCREEN_BATCHES * inputs.widest
    assert 0 < inputs.widest and block < inputs.n
    first = inputs.buf[0].copy()
    problem = _counted_constrained_problem(rows, opts)

    def constraints(X):
        out = problem.constraints_batch(X)
        hit = np.all(X == first, axis=-1)
        out[hit] = np.nextafter(out[hit], np.inf)
        return out

    screens = []
    original = replay._Entry.replays

    def screened(entry, *args):
        before = rows["f"] + rows["g"]
        result = original(entry, *args)
        screens.append(rows["f"] + rows["g"] - before)
        return result

    monkeypatch.setattr(replay._Entry, "replays", screened)
    with replay.replaying_tape(tape) as replayed:
        nlp.minimize(replace(problem, constraints_batch=constraints), opts)
    assert not replayed.replayed
    assert screens == [block] and replayed.screened == block


@pytest.mark.parametrize("objective", [
    lambda X: np.zeros(1),  # one value for any batch: broadcasts, but is not one per row
    lambda X: np.asarray(0.0),  # 0-d: solving raises on the final evaluation
], ids=["short", "0-d"])
def test_entry_with_an_output_of_the_wrong_shape_is_dropped(objective):
    # a recorded output that is not one value per row of its batch cannot be
    # screened against: the entry keeps no rows and no result, and the
    # replaying tape solves, with the cold result or the same exception
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    problem = replace(_counted_constrained_problem({"f": 0, "g": 0}, opts), objective_batch=objective)

    def outcome():
        try:
            res = nlp.minimize(problem, opts)
        except IndexError as exc:
            return repr(exc)
        return res.x.tobytes(), res.diagnostics

    cold = outcome()
    with replay.recording_tape() as tape:
        assert outcome() == cold
    (entry,) = tape.entries
    assert entry.result is None and entry.nbytes == 0
    with replay.replaying_tape(tape) as replayed:
        assert outcome() == cold
    assert replayed.calls == 1 and not replayed.replayed


@pytest.mark.parametrize("raising", ["objective_batch", "constraints_batch"])
def test_a_callable_raising_in_the_screen_is_a_miss(raising):
    # the screen runs the new callables on the recorded batches; one that
    # raises there is a miss, and the solve then raises as a cold solve does
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    rows = {"f": 0, "g": 0}
    with replay.recording_tape() as tape:
        nlp.minimize(_counted_constrained_problem(rows, opts), opts)

    def fails(X):
        raise FloatingPointError("no value here")

    problem = replace(_counted_constrained_problem(rows, opts), **{raising: fails})
    with pytest.raises(FloatingPointError, match="no value here"):
        nlp.minimize(problem, opts)
    with replay.replaying_tape(tape) as replayed:
        with pytest.raises(FloatingPointError, match="no value here"):
            nlp.minimize(problem, opts)
    assert replayed.calls == 1 and replayed.hits == 0 and replayed.screened > 0
