"""Per-layer tracing for the benchmark's traced run.

The tracer wraps driftopt's functions at the names their callers look them
up (``driftopt.cli.run``, ``driftopt.problems.kkt_solve_num``, methods on
the classes the loop calls), in this process only, and restores them
afterwards.  Each wrapper adds its call's duration to its layer and
subtracts it from the enclosing call's self time, so a layer's self time is
its calls' duration minus the part covered by wrapped calls inside them.

Calls made once per command (CLI commands, solver runs, bundle builds, KKT,
audit, fit, dual analysis) are also kept as spans: id, parent id, layer,
start and end.  Calls made every iteration (oracle, queue state, program
evaluation, trace append) only add to a count and a total, so that the
trace stays small, and only while the innermost open once-per-command call
is the solver's: the same methods called by ``audit`` (rebuilding the trace
from its CSV, evaluating the dual function) stay in the self time of the
layer that calls them.  Nothing is written until the run ends (``dump``).
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


# The layer whose per-iteration calls the hot wrappers count.
HOT_OWNER = "solver"


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        # Open calls: [child seconds, span id, innermost once-per-command layer].
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._ids = itertools.count()

    def wrap(self, owner, name: str, layer: str, hot: bool = False) -> None:
        """Replace ``owner.name`` by a timing wrapper.

        A missing attribute is skipped, so a layer whose function was
        removed reads zero calls.
        """
        original = vars(owner).get(name)
        if original is None:
            return
        stack, self_s, calls, spans = self._stack, self.self_s, self.calls, self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            if hot and (not stack or stack[-1][2] != HOT_OWNER):
                return original(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            if hot:
                frame = [0.0, parent, HOT_OWNER]
            else:
                frame = [0.0, next(ids), layer]
            stack.append(frame)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    spans.append((frame[1], parent, layer, start, end))

        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def install(self) -> None:
        import driftopt.cli as cli
        import driftopt.core as core
        import driftopt.diagnostics as diagnostics
        import driftopt.oracles as oracles
        import driftopt.problems as problems

        self.wrap(cli, "main", "cli")
        self.wrap(cli, "run", HOT_OWNER)
        for name in ("builtin", "load_problem"):
            self.wrap(cli, name, "problems")
        for name in ("kkt_solve_num", "kkt_solve_qp"):
            self.wrap(problems, name, "reference")
        for name in ("num_dual_hessian", "general_dual_hessian", "gamma_geq_Lc_check"):
            self.wrap(problems, name, "dual_analysis")
        for name in ("dual_value_and_gradient", "theta_bound"):
            self.wrap(diagnostics, name, "dual_analysis")
        self.wrap(cli, "audit_bounds", "diagnostics.audit")
        for name in ("fit_power_decay", "fit_geometric"):
            self.wrap(cli, name, "diagnostics.fit")
        for cls in list(vars(oracles).values()):
            if isinstance(cls, type) and "argmin" in vars(cls):
                self.wrap(cls, "argmin", "oracles.argmin", hot=True)
        self.wrap(core.QueueState, "__init__", "core.queue_state", hot=True)
        for name in ("f", "g"):
            self.wrap(core.ProgramSpec, name, "core.program_eval", hot=True)
        self.wrap(core.IterateTrace, "append", "core.trace_append", hot=True)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        doc = {"self_s": self.self_s, "calls": self.calls,
               "span_fields": ["id", "parent", "layer", "start", "end"],
               "spans": self.spans}
        path.write_text(json.dumps(doc))
