"""The iterates behind a trace, replayed by the oracle's own steps: the
trace keeps f(x-bar), g(x-bar) and ||Q(t)|| per sample, not x(t) or Q(t).
Also one step of an oracle, a count of the queue steps generated, and a
count of the steps that they make."""

import numpy as np

import driftopt.oracles


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
    Q(0..ts[-1]) in one block.  Row i of each array holds sample ts[i], as
    a trace's row i does."""
    Q = np.empty((int(ts[-1]) + 1, len(q0)))
    Q[0] = q0
    oracle.steps(Q)
    queues = Q[np.asarray(ts, dtype=int)]
    return oracle.argmin(queues), queues


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

        def counted(*qs_and_k):
            made.append(qs_and_k[-1])
            return steps(*qs_and_k)
        return counted

    monkeypatch.setattr(driftopt.oracles, "_generate_steps", counting)
    return made
