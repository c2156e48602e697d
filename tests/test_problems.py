import dataclasses
import json
import warnings

import numpy as np
import pytest

from driftopt import BUILTIN_TAGS, builtin, choose_V, load_problem, problems
from driftopt.problems import BUILTINS, PAPER_CONSTANTS
from generic_oracle import num_step_in_index_order, qp_step_in_index_order
from replay import replay, step


def test_builtin_tags_complete():
    assert set(BUILTIN_TAGS) == {"num_6_1", "qp_6_2", "num_5_2_rank_deficient"}
    with pytest.raises(ValueError):
        builtin("nope")


def test_num_6_1_bundle():
    b = builtin("num_6_1")
    assert b.kind == "num"
    assert (b.program.n, b.program.m) == (3, 3)
    ref_f = -(np.log(2.0) + 2 * np.log(3.2) + 3 * np.log(4.8))
    assert b.reference.f_star == pytest.approx(ref_f, abs=1e-3)
    assert b.constant("alpha") == pytest.approx(2 / 121)
    assert b.constant("beta") == pytest.approx(np.sqrt(3.0))
    assert b.constant("gamma") == 422.0
    assert b.constant("gamma_computed") == pytest.approx(423.5)
    assert b.constant("V_standard") == 363.0
    assert b.constant("V_shifted") == 422.0


def test_qp_6_2_bundle():
    b = builtin("qp_6_2")
    assert b.kind == "qp"
    assert np.allclose(b.reference.x_star, [-1.0, -1.0], atol=1e-9)
    assert b.reference.f_star == pytest.approx(8.0, abs=1e-9)
    assert b.constant("alpha") == 0.34
    assert b.constant("beta") == pytest.approx(np.sqrt(2.0))
    assert b.constant("gamma") == 9.0
    assert b.constant("gamma_computed") == pytest.approx(3 / 0.34)


def test_paper_gamma_below_local_curvature_is_refused(monkeypatch):
    # a paper gamma must dominate Lc, the strong-concavity modulus of the
    # dual at lambda*: 0.19 for qp_6_2
    monkeypatch.setitem(PAPER_CONSTANTS["qp_6_2"], "gamma", 0.2)
    assert builtin("qp_6_2").constant("gamma") == 0.2
    monkeypatch.setitem(PAPER_CONSTANTS["qp_6_2"], "gamma", 0.1)
    with pytest.raises(ValueError, match="below the local curvature"):
        builtin("qp_6_2")


def test_a_bundle_is_built_once_per_content(tmp_path, monkeypatch):
    # a builtin, or a file read again unchanged, gives back the bundle
    # built before, KKT solution included; a rewritten file is built afresh
    problems._bundle.cache_clear()
    solved, solve = [], problems.kkt_solve_qp
    monkeypatch.setattr(problems, "kkt_solve_qp", lambda inst: solved.append(inst) or solve(inst))
    assert builtin("qp_6_2") is builtin("qp_6_2")
    path = tmp_path / "qp.json"
    path.write_text(json.dumps(BUILTINS["qp_6_2"]))
    first = load_problem(path)
    assert load_problem(path) is first
    assert first is not builtin("qp_6_2")  # another tag and no paper constants
    assert len(solved) == 2
    path.write_text(json.dumps({**BUILTINS["qp_6_2"], "c": [1.0, 2.0]}))
    rewritten = load_problem(path)
    assert rewritten is not first and rewritten.program.c.tolist() == [1.0, 2.0]
    assert len(solved) == 3


def test_the_builtins_and_the_current_file_stay_cached(tmp_path):
    # files run one after another, each through kkt, solve and audit: the
    # cache keeps every builtin and the file in use, and drops a file done
    # with once the next file comes
    problems._bundle.cache_clear()
    kept = {tag: builtin(tag) for tag in BUILTIN_TAGS}
    paths = [tmp_path / f"qp{i}.json" for i in range(3)]
    for i, path in enumerate(paths):
        path.write_text(json.dumps({**BUILTINS["qp_6_2"], "c": [float(i), 1.0]}))
        bundle = load_problem(path)
        assert load_problem(path) is bundle and load_problem(path) is bundle
        assert all(builtin(tag) is kept[tag] for tag in BUILTIN_TAGS)
    assert problems._bundle.cache_info().currsize == problems._CACHED_BUNDLES == 4
    misses = problems._bundle.cache_info().misses
    load_problem(paths[1])
    assert problems._bundle.cache_info().misses == misses + 1


def test_a_bad_file_raises_on_every_call(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BUILTINS["num_6_1"], "b": [-1.0, 8.0, 8.0]}))
    for _ in range(2):
        with pytest.raises(ValueError, match="capacities b must be positive"):
            load_problem(path)
    path.write_text(json.dumps(BUILTINS["num_6_1"]))
    assert load_problem(path).tag == "bad"


def test_a_shared_bundle_cannot_change():
    b = builtin("qp_6_2")
    for field in dataclasses.fields(b):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(b, field.name, getattr(b, field.name))
    for arr in (b.reference.x_star, b.reference.lambda_star, b.program.A, b.program.P):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert builtin("qp_6_2").reference.x_star.tolist() == b.reference.x_star.tolist()


def test_building_bundles_warns_of_nothing(tmp_path):
    # a bundle given back from the cache does not repeat the warnings of
    # its build, so no build may warn: every builtin, and the benchmark's
    # random files of a warm-up round and of 4 rounds of each of two seeds
    from test_perfbench_checks import load
    workloads = load("workloads")
    problems._bundle.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tag in BUILTIN_TAGS:
            builtin(tag)
        for seed, rounds in ((0, range(-1, 4)), (1, range(4))):
            for r in rounds:
                for _, path, _ in workloads.random_problems(seed, r, tmp_path):
                    load_problem(path)


def test_rank_deficient_bundle():
    b = builtin("num_5_2_rank_deficient")
    assert np.allclose(b.reference.lambda_star,
                       [0.46628, 0.17078, 0.70284, 0.0], atol=1e-5)
    # rank 3 < m = 4 (singular values above 1e-10 times the largest): the
    # dual is not strongly concave
    A = b.program.A
    assert np.linalg.matrix_rank(A, tol=1e-10 * np.linalg.norm(A, 2)) == 3


def test_constant_provenance_flags():
    for tag in BUILTIN_TAGS:
        b = builtin(tag)
        assert all(c.source in ("paper", "computed") for c in b.constants)
    b = builtin("num_6_1")
    by_name = {c.name: c for c in b.constants}
    assert by_name["gamma"].source == "paper"
    assert by_name["gamma_computed"].source == "computed"


def test_rank_deficiency_witness():
    # mu = (1,1,-1,-1) kills both the rows of A and the right-hand side
    b = builtin("num_5_2_rank_deficient")
    mu = np.array([1.0, 1.0, -1.0, -1.0])
    assert np.all(mu @ b.program.A == 0)
    assert mu @ b.program.b == 0


def test_round_trip_through_json(tmp_path):
    for tag in BUILTIN_TAGS:
        b = builtin(tag)
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(BUILTINS[tag]))
        loaded = load_problem(path)
        assert loaded.kind == b.kind
        assert np.array_equal(loaded.program.A, b.program.A)
        assert np.array_equal(loaded.program.b, b.program.b)
        assert np.array_equal(loaded.program.c, b.program.c)
        assert loaded.program.alpha == b.program.alpha
        assert loaded.program.beta == b.program.beta
        assert np.allclose(loaded.reference.x_star, b.reference.x_star,
                           atol=1e-10)
        assert np.allclose(loaded.reference.lambda_star,
                           b.reference.lambda_star, atol=1e-8)


def test_load_rejects_bad_caps(tmp_path):
    doc = {"kind": "num", "A": [[1.0]], "b": [5.0], "c": [1.0], "xmax": [4.0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_problem(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_problem(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"kind": "qp", "A": [[1.0]], "b": [1.0]}))
    with pytest.raises(ValueError):
        load_problem(path)


def test_load_computes_default_constants(tmp_path):
    doc = {"kind": "qp", "P": [[1.0, 0.0], [0.0, 2.0]], "c": [0.0, 0.0],
           "A": [[1.0, 1.0]], "b": [10.0]}
    path = tmp_path / "simple.json"
    path.write_text(json.dumps(doc))
    b = load_problem(path)
    assert b.program.alpha == pytest.approx(2.0)  # min eig of 2P
    assert b.program.beta == pytest.approx(np.sqrt(2.0))  # max row norm
    by_name = {c.name: c for c in b.constants}
    assert by_name["alpha"].source == "computed"
    assert np.allclose(b.reference.x_star, [0.0, 0.0], atol=1e-10)


@pytest.mark.parametrize("tag", BUILTIN_TAGS)
def test_builtin_row_forms_match_one_row_calls(tag):
    # a (k, n) block of iterates and random points gives bitwise the
    # values of the one-row calls
    b = builtin(tag)
    program = b.program
    xs, _ = replay(b.oracle(choose_V(program)), np.zeros(program.m), np.arange(1, 501))
    X = np.vstack([xs, np.random.default_rng(3).uniform(0.01, 12.0, (200, program.n))])
    f, g = program.objective(X), program.constraints(X)
    assert f.shape == (len(X),) and g.shape == (len(X), program.m)
    for i, x in enumerate(X):
        assert f[i] == program.objective(x), i
        assert np.array_equal(g[i], program.constraints(x)), i


def random_document(rng, kind):
    n, m = rng.integers(1, 9, size=2)
    if kind == "num":
        A = (rng.random((m, n)) < 0.5).astype(float)
        A[rng.integers(0, m, size=n), np.arange(n)] = 1.0
        b = rng.uniform(1.0, 10.0, m)
        return {"kind": "num", "A": A.tolist(), "b": b.tolist(),
                "c": rng.uniform(0.1, 5.0, n).tolist(),
                "xmax": (b.max() * rng.uniform(1.1, 2.0, n)).tolist()}
    M = rng.normal(size=(n, n))
    return {"kind": "qp", "P": (M @ M.T + np.eye(n)).tolist(),
            "c": rng.normal(size=n).tolist(), "A": rng.normal(size=(m, n)).tolist(),
            "b": rng.uniform(0.5, 5.0, m).tolist()}


@pytest.mark.parametrize("kind", ["num", "qp"])
def test_random_row_forms_match_one_row_calls(tmp_path, kind):
    # a block may sum in another order than one row: the two agree to 1e-12
    # of the size of the terms summed
    rng = np.random.default_rng(17)
    for k in range(6):
        path = tmp_path / f"{kind}{k}.json"
        path.write_text(json.dumps(random_document(rng, kind)))
        bundle = load_problem(path)
        inst = bundle.program
        X = rng.uniform(0.01, 10.0, (300, inst.n))
        f_size = (np.abs(np.log(X)) @ inst.c if kind == "num"
                  else np.vecdot(X @ np.abs(inst.P), X) + X @ np.abs(inst.c))
        g_size = X @ np.abs(inst.A).T + inst.b
        f1 = np.array([inst.objective(x) for x in X])
        g1 = np.array([inst.constraints(x) for x in X])
        assert np.all(np.abs(inst.objective(X) - f1) <= 1e-12 * f_size), k
        assert np.all(np.abs(inst.constraints(X) - g1) <= 1e-12 * g_size), k


@pytest.mark.parametrize("kind", ["num", "qp"])
def test_random_oracle_rows_and_steps(tmp_path, kind):
    # a block of queues may sum in another order than one queue: row argmin
    # agrees with the one-queue call to 1e-12 of the terms summed.  The NUM
    # step is bitwise argmin, then constraints, then the clamp, and the QP
    # step bitwise max(M q + c0, 0), with every sum in index order; numpy's
    # BLAS may sum in another order, so both agree with numpy's argmin,
    # then constraints, then the clamp to 1e-14 of the terms summed.
    rng = np.random.default_rng(19)
    for k in range(6):
        path = tmp_path / f"{kind}{k}.json"
        path.write_text(json.dumps(random_document(rng, kind)))
        bundle = load_problem(path)
        inst = bundle.program
        V = choose_V(inst) * 10.0 ** rng.uniform(-2, 2)
        oracle = bundle.oracle(V)
        Q = rng.uniform(0, 20.0, (300, inst.m)) * (rng.random((300, inst.m)) > 0.3)
        X1 = np.array([oracle.argmin(q) for q in Q])
        if kind == "num":  # q . a_i sums nonnegative terms
            x_size = X1
            g_size = Q + X1 @ inst.A.T + inst.b
        else:
            x0 = np.linalg.solve(2.0 * V * inst.P, -V * inst.c)
            K = np.linalg.solve(2.0 * V * inst.P, -inst.A.T)
            x_size = np.abs(x0) + Q @ np.abs(K).T
            g_size = Q + x_size @ np.abs(inst.A).T + inst.b
        assert np.all(np.abs(oracle.argmin(Q) - X1) <= 1e-12 * x_size), k
        for q, x, size in zip(Q, X1, g_size):
            expect = np.maximum(q + inst.constraints(x), 0.0)
            out = step(oracle, q)
            in_index_order = num_step_in_index_order if kind == "num" else qp_step_in_index_order
            assert np.array_equal(out, in_index_order(oracle, q)), k
            assert np.all(np.abs(out - expect) <= 1e-14 * (1.0 + size)), k
