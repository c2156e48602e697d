import ast
import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftopt.oracles
import driftopt.solver
from driftopt import (ClosedFormNumOracle, ClosedFormQpOracle, NumInstance, QpInstance,
                      builtin, choose_V)
from driftopt.cli import main
from driftopt.oracles import _CACHED_STEPS, _cap_threshold
from driftopt.problems import BUILTIN_TAGS
from generic_oracle import (GenericOracleError, GenericProgram, ProjectedGradientOracle,
                            generic_oracle, num_step_in_index_order,
                            qp_step_in_index_order)
from replay import (assert_bitwise_equal, blockwise_steps, count_generations, fixed_point,
                    step)

QP_V = 4.0 / 0.34
NUM_V = 363.0


def test_num_instance_validation():
    good = dict(c=[1.0], A=[[1.0]], b=[5.0], xmax=[10.0])
    NumInstance(**good)
    with pytest.raises(ValueError):
        NumInstance(**{**good, "c": [-1.0]})
    with pytest.raises(ValueError):
        NumInstance(**{**good, "b": [0.0]})
    with pytest.raises(ValueError):
        NumInstance(**{**good, "xmax": [5.0]})  # needs xmax > max b
    with pytest.raises(ValueError):
        NumInstance(**{**good, "A": [[0.5]]})  # not 0-1
    with pytest.raises(ValueError):
        NumInstance(c=[1.0, 1.0], A=[[1.0, 0.0]], b=[5.0], xmax=[10.0, 10.0])


def test_instance_copies_caller_arrays():
    b = np.array([10.0, 8.0, 8.0])
    inst = NumInstance(c=[1.0, 2.0, 3.0], A=[[1, 1, 1], [1, 1, 0], [0, 1, 1]],
                       b=b, xmax=[11.0] * 3)
    assert b.flags.writeable
    assert not inst.b.flags.writeable
    b[0] = 1.0
    assert inst.b[0] == 10.0
    P = np.eye(2)
    qp = QpInstance(P=P, c=[0.0, 0.0], A=[[1.0, 0.0]], b=[1.0])
    assert P.flags.writeable and not qp.P.flags.writeable


def test_qp_instance_validation():
    with pytest.raises(ValueError):
        QpInstance(P=[[1.0, 0.5], [0.0, 1.0]], c=[0, 0], A=[[1, 0]], b=[1])
    with pytest.raises(ValueError):
        QpInstance(P=[[0.0]], c=[0.0], A=[[1.0]], b=[1.0])  # 2P not PD


def test_qp_instance_checks_the_conditioning_of_P():
    # cond(2VP) = cond(2P) at every V, so the instance refuses what no
    # oracle built from it could factor well
    QpInstance(P=[[1.0, 0.0], [0.0, 1e-11]], c=[0, 0], A=[[1, 0]], b=[1])
    with pytest.raises(ValueError, match="P is ill-conditioned: cond\\(2P\\) is above 1e12"):
        QpInstance(P=[[1.0, 0.0], [0.0, 1e-13]], c=[0, 0], A=[[1, 0]], b=[1])


TOO_LARGE = "P is too large: 2P or its eigenvalues overflow"


@pytest.mark.parametrize("P,message", [
    ([[1e308, 0.0], [0.0, 1e308]], TOO_LARGE),  # 2P overflows
    ([[9e307, 4.5e307], [4.5e307, 9e307]], TOO_LARGE),  # 2P does not, its top eigenvalue does
    ([[1e308, 1e308], [-1e308, 1e308]], "P must be symmetric"),  # P - P' overflows
], ids=["2P", "eigenvalue", "asymmetric"])
def test_qp_instance_refuses_a_P_too_large_for_floats(P, message):
    # one ValueError, and no numpy warning (warnings are errors in the tests)
    with pytest.raises(ValueError, match=re.escape(message)):
        QpInstance(P=P, c=[0.0, 0.0], A=[[1.0, 1.0]], b=[1.0])
    QpInstance(P=[[8e307, 0.0], [0.0, 8e307]], c=[0.0, 0.0], A=[[1.0, 1.0]], b=[1.0])


def test_qp_instance_takes_the_eigenvalues_of_2P_once(monkeypatch):
    # the checks and the computed alpha share one eigvalsh(2P)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: calls.append(H) or eigvalsh(H))
    inst = QpInstance(P=[[1.0, 2.0], [2.0, 5.0]], c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0])
    assert inst.alpha == inst.alpha_computed == eigvalsh(2.0 * inst.P).min()
    assert len(calls) == 1


@pytest.mark.parametrize("V", [1e308, 1e300])
def test_qp_oracle_refuses_a_V_at_which_2VP_overflows(V):
    P = [[1.0, 0.0], [0.0, 1e8]]  # 2VP overflows from V ~ 9e299
    inst = QpInstance(P=P, c=[0.0, 0.0], A=[[1.0, 0.0]], b=[1.0])
    with pytest.raises(ValueError, match=re.escape(f"V={V:g} is too large for this program")):
        ClosedFormQpOracle(inst, V)
    ClosedFormQpOracle(inst, 1e299)


def test_log_utility_argmin_zero_queue_hits_caps():
    inst = builtin("num_6_1").program
    x = ClosedFormNumOracle(inst, NUM_V).argmin(np.zeros(3))
    assert np.allclose(x, inst.xmax)


def test_log_utility_argmin_scalar_closed_form():
    inst = NumInstance(c=[1.0], A=[[1.0]], b=[2.0], xmax=[5.0])
    x = ClosedFormNumOracle(inst, 1.0).argmin(np.array([2.0]))
    assert np.allclose(x, [0.5])


def test_log_utility_argmin_at_optimal_multiplier():
    # at q = V * lam_star the minimizer is the primal optimum
    b = builtin("num_5_2_rank_deficient")
    lam = np.array([0.46628, 0.17078, 0.70284, 0.0])
    x = ClosedFormNumOracle(b.program, NUM_V).argmin(NUM_V * lam)
    assert abs(x[0] - 0.8553) < 1e-3
    assert np.allclose(x, [0.8553, 2.1447, 1.1447, 5.8553], atol=1e-3)


def test_quadratic_argmin_trivial():
    inst = QpInstance(P=[[0.5]], c=[0.0], A=[[1.0]], b=[1.0])
    x = ClosedFormQpOracle(inst, 1.0).argmin(np.zeros(1))
    assert np.allclose(x, [0.0])


def test_quadratic_argmin_unconstrained_minimum():
    inst = builtin("qp_6_2").program
    x = ClosedFormQpOracle(inst, 1.0).argmin(np.zeros(2))
    assert np.allclose(x, [-1.5, 0.5], atol=1e-12)


def test_quadratic_argmin_at_optimal_multiplier():
    b = builtin("qp_6_2")
    lam = b.reference.lambda_star
    for V in (1.0, QP_V, 100.0):
        x = ClosedFormQpOracle(b.program, V).argmin(V * lam)
        assert np.allclose(x, b.reference.x_star, atol=1e-9)


def test_qp_oracle_matches_direct_solve():
    b = builtin("qp_6_2")
    P, c, A = b.program.P, b.program.c, b.program.A
    oracle = ClosedFormQpOracle(b.program, QP_V)
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.uniform(0, 40, 2)
        # the minimizer of V f + q . g solves 2VP x = -(V c + A'q)
        direct = np.linalg.solve(2.0 * QP_V * P, -(QP_V * c + A.T @ q))
        assert np.allclose(oracle.argmin(q), direct, atol=1e-10)


def test_qp_oracle_solve_is_backward_stable():
    # x0 and K solve 2VP [x0 K] = [-Vc -A'] with a normwise backward error
    # of a few eps, up to the cond(2P) <= 1e12 that the instance allows
    rng = np.random.default_rng(23)
    norm = functools.partial(np.linalg.norm, ord=2)
    worst = 0.0
    for _ in range(300):
        n, m = rng.integers(1, 21, size=2)
        top = rng.uniform(0, 12)  # log10 cond(2P)
        eig = 10.0 ** rng.uniform(0, top, n)
        eig[0], eig[-1] = 1.0, 10.0 ** top
        U = np.linalg.qr(rng.normal(size=(n, n)))[0]
        P = U @ np.diag(eig * 10.0 ** rng.uniform(-3, 3)) @ U.T
        inst = QpInstance(P=(P + P.T) / 2, c=rng.normal(size=n), A=rng.normal(size=(m, n)),
                          b=rng.uniform(0.5, 5.0, m))
        V = 10.0 ** rng.uniform(-3, 3)
        oracle = ClosedFormQpOracle(inst, V)
        H = 2.0 * V * inst.P
        X = np.column_stack([oracle.x0, oracle.Kt.T])
        rhs = np.column_stack([-(V * inst.c), -inst.A.T])
        worst = max(worst, norm(H @ X - rhs) / (norm(H) * norm(X) + norm(rhs)))
    assert worst <= 1e-14


def test_oracle_rejects_nonpositive_V():
    # the oracle is built at one V and checks it there, as run does: a
    # NaN or infinite V is refused too
    for cls, tag in ((ClosedFormNumOracle, "num_6_1"), (ClosedFormQpOracle, "qp_6_2")):
        inst = builtin(tag).program
        for V in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^V must be positive and finite$"):
                cls(inst, V)


def test_oracle_optimality_certificate():
    # returned x beats random nearby feasible points on the inner objective
    rng = np.random.default_rng(11)
    for tag, V in (("num_6_1", NUM_V), ("qp_6_2", QP_V)):
        b = builtin(tag)
        q = rng.uniform(0, 20, b.program.m)
        x = b.oracle(V).argmin(q)
        val = V * b.program.objective(x) + float(q @ b.program.constraints(x))
        # the box X: rates in [0, xmax], QP points in R^n
        lower, upper = (0.0, b.program.xmax) if b.kind == "num" else (-np.inf, np.inf)
        for _ in range(1000):
            xp = np.clip(x + rng.uniform(-0.1, 0.1, b.program.n), lower, upper)
            if tag == "num_6_1" and np.any(xp <= 0):
                continue
            valp = V * b.program.objective(xp) + float(q @ b.program.constraints(xp))
            assert val <= valp + 1e-8


def test_strong_convexity_inequality_at_minimizer():
    # inner objective grows at least (V alpha / 2) ||x - x'||^2 away from
    # the minimizer
    rng = np.random.default_rng(12)
    b = builtin("qp_6_2")
    alpha = b.constant("alpha_computed")
    q = np.array([3.0, 7.0])
    x = b.oracle(QP_V).argmin(q)
    val = QP_V * b.program.objective(x) + float(q @ b.program.constraints(x))
    for _ in range(200):
        xp = x + rng.uniform(-2, 2, 2)
        valp = QP_V * b.program.objective(xp) + float(q @ b.program.constraints(xp))
        assert val <= valp - 0.5 * QP_V * alpha * float((x - xp) @ (x - xp)) + 1e-8


def test_projected_gradient_matches_qp_closed_form():
    b = builtin("qp_6_2")
    x = generic_oracle(b, tol=1e-10)(1.0).argmin(np.zeros(2))
    assert np.allclose(x, [-1.5, 0.5], atol=1e-8)


def test_projected_gradient_matches_num_closed_form():
    b = builtin("num_6_1")
    rng = np.random.default_rng(5)
    gen = generic_oracle(b, tol=1e-10)(NUM_V)
    for _ in range(10):
        q = rng.uniform(0, 30, 3)
        assert np.allclose(gen.argmin(q),
                           b.oracle(NUM_V).argmin(q), atol=1e-6)


def test_projected_gradient_constant_constraints():
    # constraints independent of x leave only the strongly convex objective
    p = GenericProgram(n=3, m=1,
                       objective=lambda x: 0.5 * np.vecdot(x, x),
                       constraints=lambda x: x @ np.zeros((3, 1)) - 1.0,
                       alpha=1.0, beta=1.0)
    x = ProjectedGradientOracle(p, 1.0, lower=-np.inf, upper=np.inf,
                                objective_grad=lambda x: x,
                                constraints_jac=lambda x: np.zeros((1, 3)),
                                tol=1e-10).argmin(np.array([7.0]))
    assert np.allclose(x, np.zeros(3), atol=1e-9)


def test_projected_gradient_needs_derivatives():
    p = GenericProgram(n=1, m=1,
                       objective=lambda x: np.vecdot(x, x),
                       constraints=lambda x: x[..., :1],
                       alpha=2.0, beta=1.0)
    with pytest.raises(GenericOracleError):
        ProjectedGradientOracle(p, 1.0, lower=[-1.0], upper=[1.0]).argmin(np.zeros(1))


def test_log_utility_argmin_floor_matches_plain_quotient():
    # raising q . a_i to the oracle's floor is bitwise min(cV / (q . a_i), xmax)
    # on queues with zero entries, over a wide range of V
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, m = rng.integers(1, 9, size=2)
        A = (rng.random((m, n)) < 0.5).astype(float)
        A[rng.integers(0, m, size=n), np.arange(n)] = 1.0
        b = rng.uniform(0.5, 10.0, m)
        inst = NumInstance(c=rng.uniform(0.1, 10.0, n), A=A, b=b,
                           xmax=b.max() * rng.uniform(1.01, 3.0, n))
        V = 10.0 ** rng.uniform(-100, 100)
        oracle = ClosedFormNumOracle(inst, V)
        q = rng.uniform(0, 10.0, m) * 10.0 ** rng.uniform(-200, 200)
        q[rng.random(m) < 0.3] = 0.0
        with np.errstate(divide="ignore"):
            plain = np.minimum(inst.c * V / q.dot(inst.A), inst.xmax)
        assert np.array_equal(oracle.argmin(q), plain)
        with np.errstate(all="raise"):
            assert np.array_equal(oracle.argmin(np.zeros(m)), inst.xmax)


def random_queues(rng, k, m):
    """k random queues over many magnitudes, about 30% of entries zero."""
    Q = rng.uniform(0, 10.0, (k, m)) * 10.0 ** rng.uniform(-100, 100, (k, 1))
    Q[rng.random((k, m)) < 0.3] = 0.0
    return Q


@pytest.mark.parametrize("tag", ["num_6_1", "num_5_2_rank_deficient"])
def test_num_step_is_argmin_then_constraints(tag):
    # bitwise max(q + g(x(q)), 0), the per-iteration update of the DPP loop
    b = builtin(tag)
    rng = np.random.default_rng(21)
    for _ in range(200):
        V = 10.0 ** rng.uniform(-100, 100)
        oracle = b.oracle(V)
        for q in random_queues(rng, 10, b.program.m):
            expect = np.maximum(q + b.program.constraints(oracle.argmin(q)), 0.0)
            assert np.array_equal(step(oracle, q), expect), (q, V)


def test_qp_step_is_argmin_then_constraints():
    # the affine map M q + c0 regroups the sums of A (x0 + K q) - b, so it
    # agrees with argmin, then constraints, to rounding of the terms summed
    b = builtin("qp_6_2")
    P, c, A, b_vec = b.program.P, b.program.c, b.program.A, b.program.b
    rng = np.random.default_rng(22)
    for _ in range(200):
        V = QP_V * 10.0 ** rng.uniform(-3, 3)
        x0 = np.linalg.solve(2.0 * V * P, -V * c)
        K = np.linalg.solve(2.0 * V * P, -A.T)
        oracle = b.oracle(V)
        for q in rng.uniform(0, 100, (10, 2)) * (rng.random((10, 2)) > 0.3):
            expect = np.maximum(q + b.program.constraints(oracle.argmin(q)), 0.0)
            terms = q + np.abs(A) @ (np.abs(x0) + np.abs(K) @ q) + np.abs(b_vec)
            assert np.all(np.abs(step(oracle, q) - expect) <= 1e-14 * (1.0 + terms)), (q, V)


def numpy_num_steps(oracle, q0, k):
    """Q(0..k) from ``q0`` by the numpy NUM row update, the one the oracle
    makes above its size bound: argmin, then A x - b, then the clamp."""
    A, b = oracle.inst.A, oracle.inst.b
    Q = [np.asarray(q0, dtype=float)]
    for _ in range(k):
        q = Q[-1]
        Q.append(np.maximum(q + (A.dot(oracle.argmin(q)) - b), 0.0))
    return np.array(Q)


@pytest.mark.parametrize("q0", [0.0, 2.0])
@pytest.mark.parametrize("tag", ["num_6_1", "num_5_2_rank_deficient"])
def test_generated_num_steps_are_the_numpy_row_update_on_the_builtins(
        monkeypatch, tag, q0):
    # 20 blocks of 1024 steps at the default V, bitwise; the step is
    # generated once, at the first block
    made = count_generations(monkeypatch)
    b = builtin(tag)
    oracle = b.oracle(choose_V(b.program))
    start = np.full(b.program.m, q0)
    Q = blockwise_steps(oracle, start, 20, 1024)
    assert len(made) == 1
    assert np.array_equal(Q, numpy_num_steps(oracle, start, 20 * 1024))


def random_num_instance(rng, n, m, zero_row):
    """A random NUM instance; with ``zero_row`` (and m > 1) the last row of
    A is all zero."""
    rows = m - 1 if zero_row and m > 1 else m
    A = np.zeros((m, n))
    A[:rows] = rng.random((rows, n)) < 0.5
    A[rng.integers(0, rows, size=n), np.arange(n)] = 1.0  # every column needs a one
    b = rng.uniform(0.1, 10.0, m)
    return NumInstance(c=rng.uniform(0.1, 10.0, n), A=A, b=b,
                       xmax=b.max() * rng.uniform(1.01, 3.0, n))


def test_generated_num_steps_on_random_files():
    # the generated step sums in index order, numpy's BLAS in an order of
    # its own on some shapes: the two trajectories agree to 1e-12, and each
    # generated step is bitwise the index-order loop's.  Some draws reach
    # the queue's fixed point within the 300 steps (10 of the 62 draws),
    # and fill from it.
    reached = []

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), m=st.integers(1, 8),
           zero_row=st.booleans())
    @example(seed=0, n=1, m=1, zero_row=False)
    @example(seed=1, n=3, m=4, zero_row=True)
    def check(seed, n, m, zero_row):
        rng = np.random.default_rng(seed)
        inst = random_num_instance(rng, n, m, zero_row)
        oracle = ClosedFormNumOracle(inst, choose_V(inst) * 10.0 ** rng.uniform(-2, 2))
        q0 = rng.uniform(0.0, 100.0, m) * (rng.random(m) < 0.7)
        with pytest.MonkeyPatch.context() as patch:
            made = count_generations(patch)
            Q = blockwise_steps(oracle, q0, 3, 100)
        assert len(made) == 1
        assert_bitwise_equal(Q[1:], np.array([num_step_in_index_order(oracle, q) for q in Q[:-1]]))
        expect = numpy_num_steps(oracle, q0, 300)
        assert np.all(np.abs(Q - expect) <= 1e-12 * (np.abs(expect) + inst.b.max()))
        reached.append(fixed_point(Q) is not None)

    check()
    assert sum(reached) > 0


def test_num_cap_fold_is_exact_at_its_edges():
    # a flow with a cap threshold s* steps as xmax if s < s* else cV / s:
    # bitwise the index-order min(cV / max(s, floor), xmax) at every edge
    # of s, the floor, s* and its neighbours.  At V = 1e-310, cV / xmax is
    # subnormal, cV / floor can round to xmax or below, and such a flow
    # keeps its floor and cap
    folded, kept = [], []

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), m=st.integers(1, 8),
           zero_row=st.booleans(), V=st.sampled_from([None, 1e300, 1e-100, 1e-300, 1e-310]))
    @example(seed=2, n=8, m=3, zero_row=False, V=1e-310)
    def check(seed, n, m, zero_row, V):
        rng = np.random.default_rng(seed)
        inst = random_num_instance(rng, n, m, zero_row)
        oracle = ClosedFormNumOracle(inst, V or choose_V(inst) * 10.0 ** rng.uniform(-2, 2))
        cV, floor, xmax = (v.tolist() for v in (oracle.cV, oracle.floor, inst.xmax))
        for i in range(n):
            s_star = _cap_threshold(cV[i], floor[i], xmax[i])
            edges = [0.0, floor[i], 1e300, math.inf, math.nan]
            if s_star is None:
                kept.append(i)
            else:
                folded.append(i)
                assert floor[i] < s_star < math.inf
                # the least such float: one below it, the quotient is above xmax
                assert cV[i] / s_star <= xmax[i] < cV[i] / math.nextafter(s_star, 0.0)
                edges += [math.nextafter(s_star, -math.inf), s_star,
                          math.nextafter(s_star, math.inf)]
            for s in edges:
                q = np.zeros(m)
                q[inst.A[:, i].argmax()] = s  # the first queue flow i sums
                assert_bitwise_equal(step(oracle, q), num_step_in_index_order(oracle, q))
        q = np.full(m, -0.0)  # every s is -0.0
        assert_bitwise_equal(step(oracle, q), num_step_in_index_order(oracle, q))

    check()
    assert folded and kept


@pytest.mark.parametrize("n,generates", [(18, True), (19, False)])
def test_num_oracle_above_the_size_bound_steps_with_numpy(monkeypatch, n, generates):
    # an 8 x 18 all-ones A holds 144 ones, the bound; 8 x 19 holds 152, and
    # its oracle makes the numpy row update's bits without generating
    made = count_generations(monkeypatch)
    inst = NumInstance(c=np.linspace(1.0, 2.0, n), A=np.ones((8, n)),
                       b=np.linspace(5.0, 12.0, 8), xmax=np.full(n, 20.0))
    oracle = ClosedFormNumOracle(inst, choose_V(inst))
    Q = blockwise_steps(oracle, np.full(8, 3.0), 2, 300)
    assert len(made) == int(generates)
    if not generates:
        assert np.array_equal(Q, numpy_num_steps(oracle, np.full(8, 3.0), 600))


@pytest.mark.parametrize("xmax,V,generates", [(0.5, 1e308, True), (20.0, 5e-324, False)])
def test_num_oracle_whose_floor_overflows_generates_bitwise_numpys_rows(monkeypatch, xmax, V,
                                                                         generates):
    # at V = 1e308, c V / xmax = 2e308 overflows: the floor is inf, which the
    # generated step binds as a constant.  At V = 5e-324 and xmax = 20
    # the floor underflows to 0.0, where a Python step would divide by
    # zero, so numpy's row update steps.  Either way the rows are numpy's,
    # bitwise
    made = count_generations(monkeypatch)
    inst = NumInstance(c=[1.0], A=[[1.0]], b=[0.1], xmax=[xmax])
    with np.errstate(all="ignore"):
        oracle = ClosedFormNumOracle(inst, V)
        Q = blockwise_steps(oracle, np.zeros(1), 2, 10)
        expect = numpy_num_steps(oracle, np.zeros(1), 20)
    assert oracle.floor[0] == (np.inf if generates else 0.0)
    assert len(made) == int(generates)
    assert_bitwise_equal(Q, expect)


@pytest.mark.parametrize("tag,V", [("num_6_1", 1e308), ("qp_6_2", 5e-324),
                                   ("qp_6_2", 1e-310)])
def test_builtin_with_non_finite_constants_generates_bitwise_numpys_rows(monkeypatch, tag,
                                                                          V):
    # num_6_1 at 1e308 has inf floors and c V, and NaN x; qp_6_2's M and c0
    # are NaN at these V.  The generated step binds them as they are, and
    # makes numpy's rows over two blocks, bitwise
    made = count_generations(monkeypatch)
    b = builtin(tag)
    with np.errstate(all="ignore"):
        oracle = b.oracle(V)
        q0 = np.zeros(b.program.m)
        Q = blockwise_steps(oracle, q0, 2, 10)
        expect = (numpy_num_steps if tag.startswith("num") else numpy_qp_steps)(oracle, q0, 20)
    assert len(made) == 1
    assert np.isnan(Q[1:]).all()
    assert_bitwise_equal(Q, expect)


def numpy_qp_steps(oracle, q0, k):
    """Q(0..k) from ``q0`` by the numpy QP row update max(M q + c0, 0), the
    one the oracle makes above its size bound."""
    Q = [np.asarray(q0, dtype=float)]
    for _ in range(k):
        Q.append(np.maximum(oracle.M.dot(Q[-1]) + oracle.c0, 0.0))
    return np.array(Q)


def assert_generated_qp_steps(oracle, Q):
    """Each step of the block Q is bitwise the index-order loop's, and the
    block is within 1e-12 of the numpy row update's from the same start;
    numpy's BLAS may fuse a product into its sum."""
    assert_bitwise_equal(Q[1:], np.array([qp_step_in_index_order(oracle, q) for q in Q[:-1]]))
    expect = numpy_qp_steps(oracle, Q[0], len(Q) - 1)
    assert np.all(np.abs(Q - expect) <= 1e-12 * (np.abs(expect) + np.abs(oracle.c0).max()))


@pytest.mark.parametrize("q0", [0.0, 2.0])
def test_generated_qp_steps_on_qp_6_2(monkeypatch, q0):
    # 20 blocks of 1024 steps at the default V; the step is generated
    # once, at the first block
    made = count_generations(monkeypatch)
    b = builtin("qp_6_2")
    oracle = b.oracle(choose_V(b.program))
    Q = blockwise_steps(oracle, np.full(2, q0), 20, 1024)
    assert len(made) == 1
    assert Q[1:].min() > 0.0  # both constraints bind: the queues grow to V lambda*
    assert_generated_qp_steps(oracle, Q)


def test_generated_qp_step_sums_the_zeros_of_M():
    # M = (1 - 1/2V) I: its zeros are summed too, so an inf queue gives
    # NaN where numpy's dot does (0 * inf)
    inst = QpInstance(P=np.eye(2), c=[1.0, 1.0], A=np.eye(2), b=[1.0, 1.0])
    oracle = ClosedFormQpOracle(inst, choose_V(inst))
    assert oracle.M[0, 1] == oracle.M[1, 0] == 0.0
    q = np.array([np.inf, 0.0])
    with np.errstate(invalid="ignore"):
        expect = numpy_qp_steps(oracle, q, 1)[1]
    assert np.isnan(expect[1])
    np.testing.assert_array_equal(step(oracle, q), expect)


def random_qp_instance(rng, n, m):
    """A random QP whose unconstrained minimum violates each constraint
    with probability 1/2, by up to 1."""
    B = rng.normal(size=(n, n))
    P = B @ B.T + np.eye(n)
    c, A = rng.normal(size=n), rng.normal(size=(m, n))
    x_free = np.linalg.solve(2.0 * P, -c)
    return QpInstance(P=P, c=c, A=A, b=A @ x_free + rng.uniform(-1.0, 1.0, m))


def test_generated_qp_steps_on_random_files():
    # from a random q0 > 0, at V from the guarantee threshold up, where
    # M's eigenvalues lie in [0, 1] and rounding does not grow.  Some draws
    # reach the queue's fixed point within the 300 steps (9 of the 62 draws),
    # and fill from it.
    reached = []

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), m=st.integers(1, 8))
    @example(seed=0, n=1, m=1)
    @example(seed=1, n=2, m=8)
    def check(seed, n, m):
        rng = np.random.default_rng(seed)
        inst = random_qp_instance(rng, n, m)
        oracle = ClosedFormQpOracle(inst, choose_V(inst) * 10.0 ** rng.uniform(0, 2))
        q0 = rng.uniform(0.0, 100.0, m) * (rng.random(m) < 0.7)
        with pytest.MonkeyPatch.context() as patch:
            made = count_generations(patch)
            Q = blockwise_steps(oracle, q0, 3, 100)
        assert len(made) == 1
        assert_generated_qp_steps(oracle, Q)
        reached.append(fixed_point(Q) is not None)

    check()
    assert sum(reached) > 0


@pytest.mark.parametrize("m,generates", [(8, True), (9, False)])
def test_qp_oracle_above_the_size_bound_steps_with_numpy(monkeypatch, m, generates):
    # an 8 x 8 M holds 64 entries, the bound; 9 x 9 holds 81, and its
    # oracle makes the numpy row update's bits without generating
    made = count_generations(monkeypatch)
    inst = random_qp_instance(np.random.default_rng(m), m, m)
    oracle = ClosedFormQpOracle(inst, choose_V(inst))
    Q = blockwise_steps(oracle, np.full(m, 3.0), 2, 300)
    assert len(made) == int(generates)
    if not generates:
        assert np.array_equal(Q, numpy_qp_steps(oracle, np.full(m, 3.0), 600))


def test_numpy_row_steps_stop_at_the_queues_fixed_point():
    # above the size bounds, a QP with m = 9 from Q(0) = 0 and a NUM with 145
    # ones in A at V = 5.2 reach a fixed point inside the third and the
    # second block of 1000 steps, which fill from it; every row is bitwise
    # the numpy row update's
    inst = random_qp_instance(np.random.default_rng(0), 9, 9)
    qp = ClosedFormQpOracle(inst, choose_V(inst))
    A = np.ones((2, 97))
    A[1, 48:] = 0.0
    num = ClosedFormNumOracle(NumInstance(c=np.linspace(1.0, 2.0, 97), A=A, b=[10.0, 4.0],
                                          xmax=np.full(97, 20.0)), 5.2)
    for oracle, numpy_steps, m, fixed in ((qp, numpy_qp_steps, 9, 2535),
                                          (num, numpy_num_steps, 2, 1584)):
        assert oracle._straight_line is None
        q0 = np.zeros(m)
        Q = blockwise_steps(oracle, q0, 3, 1000)
        assert fixed_point(Q) == fixed
        assert_bitwise_equal(Q, numpy_steps(oracle, q0, 3000))


def test_a_queue_that_changes_only_the_sign_of_a_zero_is_stepped_on():
    # at V = 1/4, min x^2 s.t. x <= 0 has M = -1 and c0 = -0.0, so its
    # generated step takes 0.0 to -0.0 and back: equal by ==, different
    # bits, and no fixed point
    oracle = ClosedFormQpOracle(QpInstance(P=[[1.0]], c=[0.0], A=[[1.0]], b=[0.0]), 0.25)
    assert oracle.M[0, 0] == -1.0 and np.signbit(oracle.c0[0])
    Q = blockwise_steps(oracle, np.zeros(1), 2, 600)
    assert fixed_point(Q) is None
    assert np.signbit(Q[1::2]).all() and not np.signbit(Q[::2]).any()
    for q, q_next in zip(Q, Q[1:]):
        assert_bitwise_equal(q_next, qp_step_in_index_order(oracle, q))


@pytest.mark.parametrize("tag", ["num_6_1", "qp_6_2", "num_5_2_rank_deficient"])
def test_row_argmin_is_the_one_queue_argmin(tag):
    # on the builtins, row i of a block's argmin is bitwise argmin(Q[i]),
    # which lets the DPP loop rebuild x once per block from its queues
    b = builtin(tag)
    rng = np.random.default_rng(23)
    for _ in range(20):
        V = choose_V(b.program) * 10.0 ** rng.uniform(-3, 3)
        Q = rng.uniform(0, 50, (300, b.program.m)) * 10.0 ** rng.uniform(-3, 3)
        Q[rng.random(Q.shape) < 0.3] = 0.0
        oracle = b.oracle(V)
        X = oracle.argmin(Q)
        assert X.shape == (300, b.program.n)
        for q, x in zip(Q, X):
            assert np.array_equal(x, oracle.argmin(q))
    assert oracle.argmin(Q[:0]).shape == (0, b.program.n)


def test_a_step_is_compiled_once_per_source(tmp_path):
    # a source is the step of one shape, with no constant in it: one compile
    # per shape in a process.  qp_6_2 compiles once under dpp, under the dual
    # subgradient method and at a second V, and num_6_1 once at three V.
    # Each oracle still generates once, and the least recently used of the
    # last _CACHED_STEPS shapes is the one that goes.  The kept queue rows
    # are dropped before each solve, so that each steps its oracle
    cache = driftopt.oracles._generate_steps
    cache.cache_clear()

    def problem(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    with pytest.MonkeyPatch.context() as patch:
        made = count_generations(patch)

        def solve(*argv):
            driftopt.solver._KEPT.clear()
            assert main(["solve", *argv, "--iters", "100", "--out",
                         str(tmp_path / "t.csv")]) == 0
            return cache.cache_info()

        assert solve("--builtin", "qp_6_2", "--algorithm", "dpp")[:2] == (0, 1)
        assert solve("--builtin", "qp_6_2", "--algorithm", "dual-subgradient")[:2] == (1, 1)
        assert solve("--builtin", "qp_6_2", "--V", "1e5")[:2] == (2, 1)
        assert solve("--builtin", "num_6_1", "--V", "300")[:2] == (2, 2)
        assert solve("--builtin", "num_6_1", "--V", "400")[:2] == (3, 2)
        assert solve("--builtin", "num_6_1", "--V", "500")[:2] == (4, 2)
        assert solve("--builtin", "num_5_2_rank_deficient")[:2] == (4, 3)
        qp = problem("qp", {"kind": "qp", "P": [[1.0]], "c": [0.0], "A": [[1.0]], "b": [1.0]})
        assert solve("--problem", qp)[:2] == (4, 4)
        # qp_6_2 is now the least recently used: the shapes of one link
        # shared by n = 1, 2, ... flows bring the distinct shapes to
        # _CACHED_STEPS + 1 and drop it, and it alone
        for n in range(1, _CACHED_STEPS - 2):
            info = solve("--problem", problem(f"num{n}", {
                "kind": "num", "c": [1.0] * n, "A": [[1] * n], "b": [1.0], "xmax": [2.0] * n}))
        assert info[1:] == (_CACHED_STEPS + 1, _CACHED_STEPS, _CACHED_STEPS)
        assert solve("--builtin", "num_6_1")[:2] == (5, _CACHED_STEPS + 1)
        assert solve("--builtin", "qp_6_2", "--V", "1")[:2] == (5, _CACHED_STEPS + 2)
        assert len(made) == _CACHED_STEPS + 7


STEP_NAMES = re.compile(r"q\d+|x\d+|y\d*|v\d+|s|rows|k|_")


def assert_arithmetic(source):
    """``source`` is a generated step: one ``def`` of a ``for _ in
    range(k)`` loop of assignments and ``rows += (...)``, then ``return
    rows``, over the step's own names and its constants v0, v1, .., + - *
    /, unary -, < and >, conditional expressions and the float 0.0, the
    one number it holds."""
    (steps,) = ast.parse(source).body
    assert isinstance(steps, ast.FunctionDef) and not steps.decorator_list
    assert not steps.args.defaults and not steps.args.kwonlyargs
    rows, loop, ret = steps.body
    assert ast.unparse(rows) == "rows = []" and ast.unparse(ret) == "return rows"
    assert isinstance(loop, ast.For) and ast.unparse(loop.target) == "_"
    assert ast.unparse(loop.iter) == "range(k)" and not loop.orelse
    *assigns, append = loop.body
    assert isinstance(append, ast.AugAssign) and ast.unparse(append.target) == "rows"
    assert isinstance(append.op, ast.Add) and isinstance(append.value, ast.Tuple)
    for line in assigns:
        assert isinstance(line, ast.Assign) and len(line.targets) == 1
        for node in ast.walk(line):
            assert isinstance(node, (ast.Assign, ast.Name, ast.Load, ast.Store, ast.BinOp,
                                     ast.Add, ast.Sub, ast.Mult, ast.Div, ast.UnaryOp,
                                     ast.USub, ast.Compare, ast.Lt, ast.Gt, ast.IfExp,
                                     ast.Constant)), ast.dump(node)
            if isinstance(node, ast.Name):
                assert STEP_NAMES.fullmatch(node.id), node.id
            if isinstance(node, ast.Compare):
                assert len(node.ops) == 1
            if isinstance(node, ast.Constant):
                assert repr(node.value) == "0.0", node.value
    args = [arg.arg for arg in steps.args.args]
    assert re.fullmatch(r"(v\d+,)*(q\d+,)+k", ",".join(args)), args
    # every constant it reads is one of its arguments, and it reads each
    read = {node.id for node in ast.walk(loop) if isinstance(node, ast.Name)}
    assert {name for name in read if name[0] == "v"} == {a for a in args if a[0] == "v"}
    for node in ast.walk(append.value):
        assert not isinstance(node, ast.Name) or re.fullmatch(r"q\d+", node.id)


def test_the_source_given_to_exec_stays_arithmetic(monkeypatch):
    # problem files supply the constants of a generated step, which exec
    # must never see: every builtin's step, and the steps of 20 random NUM
    # and QP instances, the NUM ones at V where flows fold (the default V)
    # and keep their floor and cap (1e-310), hold only arithmetic and 0.0.
    # So do num_6_1 at V = 1e308, whose c V and floors overflow, and qp_6_2
    # at 5e-324, whose M and c0 are NaN; the latter's source is qp_6_2's at
    # the default V.  Each oracle's step is compiled afresh here
    sources = []
    monkeypatch.setattr(driftopt.oracles, "compile", lambda source, *args:
                        sources.append(source) or compile(source, *args), raising=False)
    pairs = [(b.program, b.oracle(choose_V(b.program))) for b in map(builtin, BUILTIN_TAGS)]
    with np.errstate(all="ignore"):
        pairs += [(b.program, b.oracle(V)) for b, V in ((builtin("num_6_1"), 1e308),
                                                        (builtin("qp_6_2"), 5e-324))]
    rng = np.random.default_rng(36)
    for j in range(10):
        n, m = rng.integers(1, 9, size=2)
        num = random_num_instance(rng, n, m, zero_row=j % 2 == 1)
        qp = random_qp_instance(rng, n, m)
        pairs += [(num, ClosedFormNumOracle(num, choose_V(num) if j < 5 else 1e-310)),
                  (qp, ClosedFormQpOracle(qp, choose_V(qp)))]
    for program, oracle in pairs:
        driftopt.oracles._generate_steps.cache_clear()
        step(oracle, np.ones(program.m))
    assert len(sources) == 25
    for source in sources:
        assert_arithmetic(source)
    assert sources[4] == sources[1] != sources[3]
    # flows that fold, and flows that keep their floor and cap
    assert any(" / s\n" in source for source in sources)
    assert any(" / (" in source for source in sources)
