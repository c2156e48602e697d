"""The iterates behind a trace, replayed one oracle call at a time: the
trace keeps f(x-bar), g(x-bar) and ||Q(t)|| per sample, not x(t) or Q(t)."""

import numpy as np


def replay(oracle, q0, ts):
    """x(t) and Q(t) at each t in the increasing ``ts``, for the recurrence
    Q(t+1) = oracle.step(Q(t)) from Q(0) = ``q0`` with x(t) =
    oracle.argmin(Q(t)), where ``oracle`` is built at the run's V.  Row i
    of each array holds sample ts[i], as a trace's row i does."""
    wanted, q, queues = {int(t) for t in ts}, np.array(q0, dtype=float), []
    for t in range(int(ts[-1]) + 1):
        if t in wanted:
            queues.append(q)
        q = oracle.step(q, np.empty_like(q))
    queues = np.array(queues)
    return oracle.argmin(queues), queues
