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

    problem = nlp.NlpProblem(dim=2, objective_batch=objective,
                             constraints_batch=lambda X: np.zeros((len(X), 0)),
                             bounds=np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    with replay.recording_tape() as tape:
        base = nlp.minimize(problem, opts)
    with replay.replaying_tape(tape) as replayed:
        again = nlp.minimize(problem, opts)
    assert replayed.replayed == (one_row_dtype is np.float64)
    assert again.x.tobytes() == base.x.tobytes()
    assert again.diagnostics == base.diagnostics


def _counted_constrained_problem(rows: dict) -> nlp.NlpProblem:
    """min x0 + x1 over x0 * x1 >= 0.1 in the unit box; ``rows`` counts the
    rows each callable is given."""
    def objective(X):
        rows["f"] += len(X)
        return X[:, 0] + X[:, 1]

    def constraints(X):
        rows["g"] += len(X)
        return 0.1 - X[:, :1] * X[:, 1:]

    return nlp.NlpProblem(dim=2, objective_batch=objective, constraints_batch=constraints,
                          bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_tape_keeps_a_merit_batch_once_for_both_callables():
    rows = {"f": 0, "g": 0}
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    with replay.recording_tape() as tape:
        res = nlp.minimize(_counted_constrained_problem(rows), opts)
    (entry,) = tape.entries
    # every merit row is kept once; so is a final objective row that
    # repeats the last violation row of its start
    shared = int(entry.seen.rows.all(axis=1).sum())
    assert res.diagnostics["nfev"] <= shared <= res.diagnostics["nfev"] + opts.n_starts
    assert entry.inputs.n == rows["f"] + rows["g"] - shared
    assert entry.outputs[0].n == rows["f"] and entry.outputs[1].n == rows["g"]


def test_solve_outgrowing_the_tape_budget_is_not_kept(monkeypatch):
    rows = {"f": 0, "g": 0}
    opts = nlp.NlpOptions(seed=0, n_starts=2, max_inner=30)
    cold = nlp.minimize(_counted_constrained_problem(rows), opts)
    monkeypatch.setattr(replay, "_TAPE_BYTES", 64 << 10)  # less than this solve's rows take
    with replay.recording_tape() as tape:
        base = nlp.minimize(_counted_constrained_problem(rows), opts)
    (entry,) = tape.entries
    assert entry.result is None and entry.nbytes == 0
    rows.update(f=0, g=0)
    with replay.replaying_tape(tape) as replayed:
        again = nlp.minimize(_counted_constrained_problem(rows), opts)
    assert not replayed.replayed
    assert rows["f"] > 0  # solved, not screened: the tape holds no rows
    for res in (base, again):
        assert res.x.tobytes() == cold.x.tobytes()
        assert res.diagnostics == cold.diagnostics
