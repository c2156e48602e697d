"""The paper's statements as properties of random feasible instances.

hypothesis draws NUM and QP problem files from ``random_document``
(m <= 8; b > 0, so x = 0 is strictly feasible) and runs dpp from
Q(0) = 0 at V = m beta^2 / alpha with the ground-truth reference.  At
every sample the run must keep f(x-bar) <= f*, the queue bound
||Q(t)|| <= 2 V ||lambda*||, the exact drift identity and weak duality,
and pass the audit with the file's computed gamma.  The profile is
derandomized, so the examples are the same on every run.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftopt import audit_bounds, audit_passed, choose_V, load_problem, run
from test_problems import random_document


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["num", "qp"]))
def test_dpp_keeps_the_papers_bounds_on_random_files(tmp_path_factory, seed, kind):
    path = tmp_path_factory.mktemp("doc") / f"{kind}.json"
    path.write_text(json.dumps(random_document(np.random.default_rng(seed), kind)))
    bundle = load_problem(path)
    program, ref = bundle.program, bundle.reference
    assert ref is not None, bundle.reference_error
    V, q0 = choose_V(program), np.zeros(program.m)
    tr = run(program, bundle.oracle, V=V, q0=q0, iters=2000, reference=ref)

    f_star, B = ref.f_star, 2.0 * V * np.linalg.norm(ref.lambda_star)
    assert np.all(tr.f_xbar <= f_star + 1e-9 * (1.0 + abs(f_star)))
    assert np.all(tr.qnorm <= B + 1e-9 * (1.0 + B))
    assert tr.max_drift_residual <= 1e-9 * (1.0 + tr.qnorm.max() ** 2)
    assert np.all(tr.dual_gap >= -1e-9 * (1.0 + abs(f_star)))  # weak duality
    report = audit_bounds(tr, ref, program, q0, gamma=bundle.constant("gamma"),
                          oracle=bundle.oracle)
    assert audit_passed(report), report
