"""The iterates behind a trace, replayed by the oracle's own steps: the
trace keeps f(x-bar), g(x-bar) and ||Q(t)|| per sample, not x(t) or Q(t).
Also one step of an oracle, blocks of steps chained as the DPP kernel
chains them, a count of the queue steps generated, and a count of the
steps that they make."""

import numpy as np

import driftopt.oracles
from driftopt.solver import _step_to_fixed_point


def step(oracle, q):
    """Q(t+1) for Q(t) = ``q``: the oracle's ``steps`` on a two-row block."""
    Q = np.empty((2, len(q)))
    Q[0] = q
    oracle.steps(Q)
    return Q[1]


def replay(oracle, q0, ts):
    """x(t) and Q(t) at each t in the increasing ``ts``, for the recurrence
    Q(t+1) = max(Q(t) + g(x(Q(t))), 0) from Q(0) = ``q0`` with x(t) =
    oracle.argmin(Q(t)), where ``oracle`` is built at the run's V and steps
    every row of Q(0..ts[-1]) in one block, past any fixed point of the
    queue.  Row i of each array holds sample ts[i], as a trace's row i
    does."""
    Q = np.empty((int(ts[-1]) + 1, len(q0)))
    Q[0] = q0
    oracle.steps(Q)
    queues = Q[np.asarray(ts, dtype=int)]
    return oracle.argmin(queues), queues


def blockwise_steps(oracle, q0, blocks, size):
    """Q(0..blocks * size) from ``q0`` in ``blocks`` blocks of ``size`` steps
    each, each block starting from the last row of the one before, as the
    DPP kernel chains them: stepped by the oracle's ``steps`` up to the
    queue's fixed point, and filled from it."""
    Q = np.empty((blocks * size + 1, len(q0)))
    Q[0] = q0
    for j in range(blocks):
        _step_to_fixed_point(oracle.steps, Q[j * size:(j + 1) * size + 1])
    return Q


def fixed_point(Q):
    """The first t at which row t + 1 of Q is bitwise row t, or None."""
    bits = Q.view(np.int64)
    same = (bits[1:] == bits[:-1]).all(axis=1)
    return int(same.argmax()) if same.any() else None


def assert_bitwise_equal(Q, expect):
    # np.array_equal takes -0.0 for 0.0, and they are different queues
    assert np.array_equal(Q.view(np.int64), expect.view(np.int64))


def count_generations(monkeypatch):
    """The list that gets one entry for each queue step, NUM or QP, that the
    oracles generate from here on, for the rest of the test."""
    made, generate = [], driftopt.oracles._generate_steps

    def counting(*args):
        made.append(args)
        return generate(*args)

    monkeypatch.setattr(driftopt.oracles, "_generate_steps", counting)
    return made


def count_steps(monkeypatch):
    """The list that gets, for each call of a queue step that the oracles
    generate from here on, the number of steps that call makes."""
    made, generate = [], driftopt.oracles._generate_steps

    def counting(*args):
        steps = generate(*args)

        def counted(*constants_qs_and_k):
            made.append(constants_qs_and_k[-1])
            return steps(*constants_qs_and_k)
        return counted

    monkeypatch.setattr(driftopt.oracles, "_generate_steps", counting)
    return made
