import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    all_pairs_filter,
    brute_force_filter,
    epsilon_filter,
    nonconvexity_witness,
    pairwise_front_distance,
    scalar_envelope,
)

from hopfront.oracle import (
    SampleCloud,
    certification_cloud,
    convex_envelope_front,
    enrich_cloud,
    front_distance,
    greedy_pareto_filter,
    nondominated_mask,
    sample_cloud,
)
from hopfront.constrained import ConstraintSet, box_constraints
from hopfront.problems import example1, example2_case1, get_problem


def cloud_of(points):
    P = np.asarray(points, dtype=float)
    return SampleCloud(points_u=np.zeros((P.shape[0], 1)), points_obj=P, source="test")


def dominates(a, b):
    # Dominance of a over b read off the library filter on the pair (a, b):
    # "strict" when the weak mode (better in every coordinate) drops b,
    # "weak" when only the strong (Pareto) mode drops it, "none" otherwise.
    P = np.array([a, b], dtype=float)
    if not nondominated_mask(P, "weak")[1]:
        return "strict"
    if not nondominated_mask(P, "strong")[1]:
        return "weak"
    return "none"


class TestDominates:
    def test_strict(self):
        assert dominates([1, 2], [2, 3]) == "strict"

    def test_weak(self):
        assert dominates([1, 3], [1, 4]) == "weak"

    def test_none(self):
        assert dominates([1, 4], [2, 3]) == "none"

    def test_equal_points_do_not_dominate(self):
        assert dominates([1, 1], [1, 1]) == "none"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates([1, 2], [1, 2, 3])

    def test_strict_relation_is_partial_order(self, rng):
        # irreflexive and transitive on random triples
        for _ in range(300):
            a, b, c = rng.integers(0, 4, size=(3, 3)).astype(float)
            assert dominates(a, a) == "none"
            if dominates(a, b) == "strict" and dominates(b, c) == "strict":
                assert dominates(a, c) == "strict"

    def test_antisymmetry(self, rng):
        for _ in range(200):
            a, b = rng.integers(0, 3, size=(2, 2)).astype(float)
            if dominates(a, b) != "none":
                assert dominates(b, a) == "none"


class TestGreedyParetoFilter:
    def test_small_example(self):
        out = greedy_pareto_filter(cloud_of([[1, 2], [2, 1], [2, 2]]))
        assert out.points_obj.tolist() == [[1, 2], [2, 1]]

    def test_singleton(self):
        out = greedy_pareto_filter(cloud_of([[1, 1]]))
        assert out.points_obj.tolist() == [[1, 1]]

    def test_equals_brute_force_both_modes(self, rng):
        for trial in range(60):
            n_obj = [2, 3, 5][trial % 3]
            n = int(rng.integers(2, 300))
            # quantized coordinates force plenty of exact ties
            P = np.round(rng.random((n, n_obj)) * 8) / 8.0
            for mode in ("strong", "weak"):
                keep = nondominated_mask(P, mode)
                assert np.array_equal(keep, brute_force_filter(P, mode)), (trial, mode)

    def test_idempotent(self, rng):
        P = rng.random((200, 2))
        once = greedy_pareto_filter(cloud_of(P))
        twice = greedy_pareto_filter(once)
        assert np.array_equal(once.points_obj, twice.points_obj)

    def test_stable_order(self, rng):
        P = rng.random((100, 3))
        out = greedy_pareto_filter(cloud_of(P))
        keep = nondominated_mask(P, "strong")
        assert np.array_equal(out.points_obj, P[keep])

    def test_epsilon_filter_collapses_near_ties(self):
        P = np.array([[0.0, 1.0], [0.0, 1.0 + 5e-10], [1.0, 0.0]])
        out = epsilon_filter(cloud_of(P), 1e-9)
        assert out.points_obj.shape[0] == 2
        keep = nondominated_mask(out.points_obj, "strong")
        assert keep.all()

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            greedy_pareto_filter(cloud_of(np.zeros((0, 2))))

    def test_duplicates_kept_in_strong_mode(self):
        out = greedy_pareto_filter(cloud_of([[1.0, 1.0], [1.0, 1.0]]))
        assert out.points_obj.shape[0] == 2


@st.composite
def tie_heavy_clouds(draw):
    # small integer coordinates: many exact ties and duplicates
    n_obj = draw(st.integers(1, 6))
    n = draw(st.integers(1, 60))
    return draw(arrays(np.float64, (n, n_obj), elements=st.integers(-2, 2).map(float)))


@st.composite
def screened_clouds(draw):
    # past the filter's subsample screen (512 points): integer coordinates
    # on a few levels, so that ties and duplicates occur
    n, n_obj, levels = draw(st.integers(600, 3000)), draw(st.integers(3, 8)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, levels, (n, n_obj)).astype(float)


EDGE_CASES = [
    # the two rows' float sums tie although the second dominates the first
    [[1e16, 1.0, 0.0], [1e16, 0.0, 0.0]],
    [[1e16, 0.0, 0.0], [1e16, 1.0, 0.0]],
    [[1e16, 1.0, 1.0], [1e16, 0.0, 0.0], [0.0, 1e16, 0.0]],
    [[3.0], [1.0], [2.0], [1.0]],
    [[0.5, 0.5, 0.5]],
    [[2.0, 1.0, 0.0]] * 70,
    [[1.0, 2.0]] * 5,
    [[-0.0, 1.0, 0.0], [0.0, 1.0, -0.0], [0.0, 1.0, 1.0]],
    [[-0.0, 1.0], [0.0, 1.0], [0.0, 2.0], [1.0, -0.0]],
]
EDGE_IDS = ["sum-tie", "sum-tie-reversed", "sum-tie-three", "one-objective", "one-point",
            "duplicates-3d", "duplicates-2d", "signed-zero-3d", "signed-zero-2d"]


def padded(points):
    # the points ahead of and behind 600 rows that never dominate them, so
    # that the filter's screen and block pass both meet them: rows above
    # every point (half of them) and rows below in one objective only
    P = np.asarray(points, dtype=float)
    n_obj, hi = P.shape[1], 2 * np.abs(P).max() + 1
    pad = hi + np.random.default_rng(0).integers(0, 3, size=(600, n_obj))
    if n_obj > 1:
        pad[np.arange(300, 600), np.arange(300) % n_obj] = -hi
    return np.concatenate([P, pad, P])


def lexsort_filter_2d(points, mode):
    """Two-objective keep-mask by one lexicographic sort on (f1, f2): inside
    an f1 group f2 ascends, so the group's first f2 is its least, and the
    prefix minimum of f2 just before the group is the best f2 at strictly
    smaller f1. Independent of the library's argsort and group minima, and
    fast enough for clouds of benchmark size."""
    P = np.asarray(points, dtype=float)
    order = np.lexsort((P[:, 1], P[:, 0]))
    f1, f2 = P[order, 0], P[order, 1]
    new_group = np.concatenate(([True], f1[1:] != f1[:-1]))
    first = np.maximum.accumulate(np.where(new_group, np.arange(len(f1)), 0))
    best_strict = np.concatenate(([np.inf], np.minimum.accumulate(f2)))[first]
    if mode == "strong":
        dominated = (f2 >= best_strict) | (f2 > f2[first])
    else:
        dominated = f2 > best_strict
    keep = np.empty(len(f1), dtype=bool)
    keep[order] = ~dominated
    return keep


def two_objective_cloud(kind, seed, n=20011):
    # integer levels, so that f1 groups hold many rows and rows repeat, with
    # a random half of the zeros negated
    rng = np.random.default_rng(seed)
    if kind == "front":  # thousands of nondominated rows, ties along the front
        f1 = rng.integers(-1000, 1000, n)
        P = np.stack([f1, -f1 + rng.integers(0, 3, n)], axis=1).astype(float)
    else:
        levels = {"few-levels": 2, "many-levels": 1000}[kind]
        P = rng.integers(-levels, levels + 1, size=(n, 2)).astype(float)
    P[(P == 0) & (rng.random(P.shape) < 0.5)] = -0.0
    return P


class TestNondominatedMask:
    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_ex3b_cloud_matches_all_pairs(self, mode):
        P = sample_cloud(get_problem("ex3b"), mc=4000, seed=3).points_obj
        assert np.array_equal(nondominated_mask(P, mode), all_pairs_filter(P, mode))

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("points", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_cases_match_all_pairs(self, points, mode):
        P = np.array(points)
        assert np.array_equal(nondominated_mask(P, mode), all_pairs_filter(P, mode))

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("points", EDGE_CASES, ids=EDGE_IDS)
    def test_padded_edge_cases_match_all_pairs(self, points, mode):
        P = padded(points)
        assert np.array_equal(nondominated_mask(P, mode), all_pairs_filter(P, mode))

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("points", [
        [[0.0, np.inf], [-np.inf, np.inf]],
        [[0.0, 1.0], [np.nan, 0.0]],
        [[0.0, 1.0, 2.0], [1.0, np.nan, 0.0]],
    ], ids=["opposite-infinities", "nan-2d", "nan-3d"])
    def test_non_finite_rejected(self, points, mode):
        with pytest.raises(ValueError, match="non-finite objective values"):
            nondominated_mask(points, mode)

    @pytest.mark.parametrize("points", [np.zeros((3, 0)), np.zeros(3), np.zeros((2, 2, 2))],
                             ids=["no-objectives", "1-d", "3-d"])
    def test_malformed_shape_rejected(self, points):
        with pytest.raises(ValueError, match="2-D array"):
            nondominated_mask(points)

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["few-levels", "many-levels", "front"])
    def test_two_objectives_at_benchmark_scale(self, kind, seed, mode):
        P = two_objective_cloud(kind, seed)
        assert np.signbit(P[P == 0]).any() and (~np.signbit(P[P == 0])).any()
        assert len(np.unique(P[:, 0])) < len(P) // 4  # f1 groups of several rows
        keep = nondominated_mask(P, mode)
        assert np.array_equal(keep, lexsort_filter_2d(P, mode))
        # rows in another order, and with f1's zeros of the other sign, keep the same points
        perm = np.random.default_rng(seed + 7).permutation(len(P))
        assert np.array_equal(nondominated_mask(P[perm], mode), keep[perm])
        Q = P.copy()
        Q[Q[:, 0] == 0, 0] *= -1.0
        assert np.array_equal(nondominated_mask(Q, mode), keep)

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_lexsort_reference_matches_all_pairs(self, mode):
        for kind in ("few-levels", "many-levels", "front"):
            P = two_objective_cloud(kind, 2, n=2000)
            assert np.array_equal(lexsort_filter_2d(P, mode), all_pairs_filter(P, mode))

    @settings(derandomize=True, deadline=None, database=None)
    @given(P=tie_heavy_clouds(), mode=st.sampled_from(["strong", "weak"]))
    def test_exact_on_tie_heavy_clouds(self, P, mode):
        assert np.array_equal(nondominated_mask(P, mode), brute_force_filter(P, mode))

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(P=screened_clouds(), mode=st.sampled_from(["strong", "weak"]))
    def test_exact_on_screened_clouds(self, P, mode):
        assert np.array_equal(nondominated_mask(P, mode), all_pairs_filter(P, mode))


class TestReferenceFront:
    def test_grid_front_clusters_near_diagonal(self):
        prob = example2_case1()
        ref = greedy_pareto_filter(sample_cloud(prob, grid=150))
        spacing = 1.0 / 149
        off = np.abs(ref.points_u[:, 1] - ref.points_u[:, 0])
        assert off.max() <= 4 * spacing

    def test_mc_front_on_parabola_boundary(self):
        prob = example1()
        ref = greedy_pareto_filter(sample_cloud(prob, mc=20000, seed=0))
        k1 = -ref.points_u[:, 0] ** 2 + ref.points_u[:, 1]
        assert k1.min() >= -1e-9  # feasible
        assert np.quantile(k1, 0.95) <= 0.05  # hugging the boundary

    def test_constant_objective_collapses_to_point(self):
        from hopfront.problems import BenchmarkProblem
        from hopfront.core import VectorObjective

        prob = BenchmarkProblem(
            id="const",
            objective=VectorObjective(2, 2, lambda u: np.zeros(u.shape[:-1] + (2,)), None),
            constraints=None,
            feasible_box=(np.zeros(2), np.ones(2)),
            alpha=1.0, c=0.1, mu=0.01, x=np.zeros(2),
            tau_start=np.zeros(2), tau_end=np.ones(2),
            label="constant",
        )
        ref = greedy_pareto_filter(sample_cloud(prob, mc=500, seed=1))
        assert ref.points_obj.shape[0] >= 1
        assert np.allclose(ref.points_obj, 0.0)

    def test_internally_nondominated(self, rng):
        prob = example2_case1()
        ref = greedy_pareto_filter(sample_cloud(prob, mc=3000, seed=2))
        assert nondominated_mask(ref.points_obj, "strong").all()

    def test_source_validation(self):
        prob = example2_case1()
        with pytest.raises(ValueError):
            sample_cloud(prob)
        with pytest.raises(ValueError):
            sample_cloud(prob, mc=0)
        with pytest.raises(ValueError):
            sample_cloud(prob, grid=100, mc=100)


def same_cloud(a, b):
    # objective bytes always; decision vectors where the clouds keep them
    if (a.points_u is None) != (b.points_u is None):
        return False
    return a.points_obj.tobytes() == b.points_obj.tobytes() and (
        a.points_u is None or a.points_u.tobytes() == b.points_u.tobytes())


BUILT_IN = ["ex1", "ex2a", "ex2b", "ex3b", "ex3a-d10", "ex3a-d100"]


class TestCloudReuse:
    @pytest.mark.parametrize("pid", BUILT_IN)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_enriched_base_is_the_certification_cloud(self, pid, seed):
        prob = get_problem(pid)
        base = sample_cloud(prob, mc=4000, seed=seed)
        cert = certification_cloud(prob, mc=4000, seed=seed)
        assert same_cloud(enrich_cloud(prob, base), cert)
        assert cert.points_u is None and len(cert) == 24000
        # and the one pass over base + enrichment that certification_cloud used to make
        U = np.concatenate([base.points_u, prob.optimal_manifold(20000)])
        assert same_cloud(cert, SampleCloud(None, prob.objective.value_batch(U), "one pass"))

    def test_enrich_without_manifold_or_count_is_identity(self):
        prob = dataclasses.replace(get_problem("ex2a"), optimal_manifold=None)
        base = sample_cloud(prob, mc=500, seed=0)
        assert enrich_cloud(prob, base) is base

    @pytest.mark.parametrize("pid", ["ex1", "ex2a", "ex2b", "ex3a-d10"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_filtering_reference_plus_enrichment_is_filtering_the_cloud(self, pid, seed):
        # ND(ND(A) + B) = ND(A + B) by transitivity, in the same order
        prob = get_problem(pid)
        reference = greedy_pareto_filter(sample_cloud(prob, mc=4000, seed=seed))
        reused = greedy_pareto_filter(enrich_cloud(prob, reference))
        assert same_cloud(reused, greedy_pareto_filter(certification_cloud(prob, mc=4000, seed=seed)))

    @pytest.mark.parametrize("pid", ["ex2a", "ex2b", "ex3a-d10", "ex3b"])
    def test_box_membership_skips_the_constraint_map(self, pid):
        prob = get_problem(pid)
        evaluated = dataclasses.replace(prob, constraints=dataclasses.replace(prob.constraints, bounds=None))
        for seed in (0, 1):
            assert same_cloud(sample_cloud(prob, mc=3000, seed=seed), sample_cloud(evaluated, mc=3000, seed=seed))
        if prob.objective.dim_u == 2:
            assert same_cloud(sample_cloud(prob, grid=60), sample_cloud(evaluated, grid=60))

        def untouched(u):
            raise AssertionError("k evaluated on points drawn in its own box")

        fast = dataclasses.replace(prob, constraints=dataclasses.replace(prob.constraints, fn=untouched))
        assert same_cloud(sample_cloud(fast, mc=500, seed=2), sample_cloud(prob, mc=500, seed=2))

    def test_box_narrower_than_the_drawing_box_is_evaluated(self):
        prob = get_problem("ex2a")
        narrow = dataclasses.replace(prob, constraints=box_constraints([0.0, 0.0], [1.0, 0.5]))
        cloud = sample_cloud(narrow, mc=2000, seed=0)
        assert len(cloud) == 2000 and cloud.points_u[:, 1].max() <= 0.5

    def test_certification_cloud_without_manifold_is_objective_only(self):
        prob = dataclasses.replace(get_problem("ex2a"), optimal_manifold=None)
        cert = certification_cloud(prob, mc=500, seed=0)
        assert cert.points_u is None
        assert cert.points_obj.tobytes() == sample_cloud(prob, mc=500, seed=0).points_obj.tobytes()


DEFAULT_PROBLEMS = ["ex1", "ex2a", "ex2b", "ex3a-d10", "ex3a-d30", "ex3a-d100", "ex3a-d1000", "ex3b"]


class TestChunkedValues:
    @pytest.mark.parametrize("pid", DEFAULT_PROBLEMS)
    def test_chunks_equal_one_call(self, pid):
        import hopfront.oracle as oracle

        prob = get_problem(pid)
        f, (lo, hi) = prob.objective, prob.feasible_box
        rows = oracle._CLOUD_CHUNK // f.dim_u
        rng = np.random.default_rng(7)
        for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
            U = rng.uniform(lo, hi, size=(n, f.dim_u))
            assert oracle._cloud_values(f, U).tobytes() == f.value_batch(U).tobytes()

    @pytest.mark.parametrize("pid", ["ex2a", "ex2b", "ex3a-d10", "ex3a-d100", "ex3a-d1000", "ex3b"])
    def test_broadcast_manifold_equals_the_repeated_stack(self, pid):
        import hopfront.oracle as oracle

        prob = get_problem(pid)
        f = prob.objective
        for n in (1, 2, 3, 20000):
            view = prob.optimal_manifold(n)
            t = np.linspace(0.0, 1.0, max(2, n))
            stack = np.repeat(t[:, None], f.dim_u, axis=1)
            assert not view.flags.writeable and np.array_equal(view, stack)
            want = f.value_batch(stack).tobytes()
            assert f.value_batch(view).tobytes() == want
            assert oracle._cloud_values(f, view).tobytes() == want

    @pytest.mark.parametrize("mc", [500, 3000])
    def test_a_draw_feasible_in_every_row_is_the_cloud(self, mc):
        # a box problem's cloud is the first mc rows of the generator's first draw
        prob = get_problem("ex3b")
        lo, hi = prob.feasible_box
        draw = np.random.default_rng(4).uniform(lo, hi, size=(max(mc, 1024), 20))
        cloud = sample_cloud(prob, mc=mc, seed=4)
        assert cloud.points_u.tobytes() == draw[:mc].tobytes()
        assert cloud.points_obj.tobytes() == prob.objective.value_batch(draw[:mc]).tobytes()


def rowwise_monte_carlo(problem, mc, seed):
    """``sample_cloud``'s Monte Carlo draws with membership taken as a row
    reduction, ``K.min(axis=1) >= -membership_tol``, each draw indexed and
    all of them joined."""
    k, (lo, hi) = problem.constraints, problem.feasible_box
    rng = np.random.default_rng(seed)
    chunks, total = [], 0
    while total < mc:
        draw = rng.uniform(lo, hi, size=(max(mc, 1024), problem.objective.dim_u))
        chunks.append(draw[k.value_batch(draw).min(axis=1) >= -k.membership_tol])
        total += len(chunks[-1])
    return np.concatenate(chunks)[:mc]


def table_constraints(K):
    # a constraint set whose values are the rows of K, whatever the points
    return ConstraintSet(dim_u=2, dim_con=K.shape[1], fn=lambda U: K[: len(U)], jac=None)


class TestRejectionSampling:
    @pytest.mark.parametrize("n_con", [1, 2, 3, 7])
    def test_membership_equals_the_row_reduction(self, n_con):
        import hopfront.oracle as oracle

        rng = np.random.default_rng(n_con)
        tol = 1e-6
        K = rng.choice([-2 * tol, -tol, np.nextafter(-tol, -1.0), -0.0, 0.0, 0.5, np.nan, np.inf, -np.inf],
                       size=(5000, n_con))
        K[:8] = 1.0
        K[0, -1] = np.nan  # NaN anywhere in a row rejects it
        K[1, 0] = np.nan
        K[2, -1] = -tol  # exactly at the tolerance is kept
        K[3, 0] = -tol
        K[4, -1] = np.nextafter(-tol, -1.0)  # one ulp past it is not
        prob = dataclasses.replace(get_problem("ex1"), constraints=dataclasses.replace(
            table_constraints(K), membership_tol=tol))
        feasible = oracle._feasible_mask(prob, np.zeros((len(K), 2)))
        assert np.array_equal(feasible, K.min(axis=1) >= -tol)
        assert feasible[:8].tolist() == [False, False, True, True, False, True, True, True]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ex1_cloud_equals_the_row_wise_formula(self, seed):
        prob = get_problem("ex1")
        U = rowwise_monte_carlo(prob, 20000, seed)
        assert same_cloud(sample_cloud(prob, mc=20000, seed=seed),
                          SampleCloud(U, prob.objective.value_batch(U), "row-wise"))

    def test_rejection_without_feasible_points_fails(self):
        prob = dataclasses.replace(get_problem("ex1"), constraints=table_constraints(np.full((1024, 1), -1.0)))
        with pytest.raises(ValueError, match="rejection sampling failed"):
            sample_cloud(prob, mc=10)


class TestCountValidation:
    @pytest.mark.parametrize("call, name", [
        (lambda p: sample_cloud(p, mc=2.5), "mc"),
        (lambda p: sample_cloud(p, mc=100.0), "mc"),
        (lambda p: sample_cloud(p, grid=3.0), "grid"),
        (lambda p: certification_cloud(p, mc=10.5), "mc"),
        (lambda p: convex_envelope_front(p, n_weights=2.5), "n_weights"),
    ], ids=["mc-2.5", "mc-100.0", "grid-3.0", "certification-mc-10.5", "n_weights-2.5"])
    def test_non_integer_counts_rejected(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(get_problem("ex2a"))

    @pytest.mark.parametrize("call, message", [
        (lambda p: sample_cloud(p, mc=0), "empty reference: mc must be positive"),
        (lambda p: sample_cloud(p, mc=-3), "empty reference: mc must be positive"),
        (lambda p: sample_cloud(p, grid=1), "grid resolution must be >= 2"),
        (lambda p: certification_cloud(p, mc=0), "empty reference: mc must be positive"),
        (lambda p: convex_envelope_front(p, n_weights=1), "n_weights must be >= 2"),
    ], ids=["mc-0", "mc-negative", "grid-1", "certification-mc-0", "n_weights-1"])
    def test_counts_too_small_keep_their_messages(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(get_problem("ex2a"))

    def test_numpy_integer_counts(self):
        prob = get_problem("ex2a")
        assert same_cloud(sample_cloud(prob, mc=np.int64(300), seed=1), sample_cloud(prob, mc=300, seed=1))
        assert sample_cloud(prob, mc=np.int64(300)).source == "monte_carlo(300,seed=0)"
        assert same_cloud(sample_cloud(prob, grid=np.int64(7)), sample_cloud(prob, grid=7))
        base = sample_cloud(prob, mc=500, seed=0)
        assert same_cloud(convex_envelope_front(prob, n_weights=np.int64(4), base_cloud=base),
                          convex_envelope_front(prob, n_weights=4, base_cloud=base))


class TestConvexEnvelope:
    def test_parabola_pair_against_dense_line_search(self):
        from hopfront.constrained import box_constraints
        from hopfront.core import VectorObjective
        from hopfront.problems import BenchmarkProblem

        def ell(u):
            x = u[..., 0]
            return np.stack([x**2, (x - 1.0) ** 2], axis=-1)

        def jac(u):
            x = u[..., 0]
            return np.stack([2.0 * x, 2.0 * (x - 1.0)], axis=-1)[..., None]

        prob = BenchmarkProblem(
            id="pp",
            objective=VectorObjective(1, 2, ell, jac),
            constraints=box_constraints(np.zeros(1), np.ones(1)),
            feasible_box=(np.zeros(1), np.ones(1)),
            alpha=1.0, c=0.1, mu=0.01, x=np.zeros(1),
            tau_start=np.zeros(2), tau_end=np.ones(2),
            label="parabola pair",
        )
        env = convex_envelope_front(prob, n_weights=11, seed=0)
        xs = np.linspace(0, 1, 100001)
        for w1 in np.linspace(0, 1, 11):
            w = np.array([max(w1, 1e-12), max(1 - w1, 1e-12)])
            dense_best = (w[0] * xs**2 + w[1] * (xs - 1) ** 2).min()
            env_vals = env.points_obj @ w
            assert env_vals.min() <= dense_best + 1e-3

    def test_envelope_not_above_reference_front(self):
        prob = example2_case1()
        base = sample_cloud(prob, grid=60)
        env = convex_envelope_front(prob, n_weights=8, base_cloud=base)
        ref = greedy_pareto_filter(sample_cloud(prob, grid=60))
        for e in env.points_obj:
            strictly_better = np.all(ref.points_obj < e - 1e-6, axis=1)
            assert not strictly_better.any()

    def test_single_objective_degenerates_to_minimum(self):
        from hopfront.constrained import box_constraints
        from hopfront.core import VectorObjective
        from hopfront.problems import BenchmarkProblem

        prob = BenchmarkProblem(
            id="one",
            objective=VectorObjective(1, 1, lambda u: (u - 0.3) ** 2, None),
            constraints=box_constraints(np.zeros(1), np.ones(1)),
            feasible_box=(np.zeros(1), np.ones(1)),
            alpha=1.0, c=0.1, mu=0.01, x=np.zeros(1),
            tau_start=np.zeros(1), tau_end=np.ones(1),
            label="single",
        )
        env = convex_envelope_front(prob, n_weights=5, seed=0)
        assert env.points_obj.shape == (1, 1)
        base = sample_cloud(prob, mc=4000, seed=0)
        assert env.points_obj[0, 0] == base.points_obj.min()

    def test_each_point_once(self):
        # three weights share the ex1 vertex (1, 1) as their minimizer
        prob = example1()
        base = sample_cloud(prob, mc=20000, seed=1)
        env = convex_envelope_front(prob, seed=1, base_cloud=base)
        assert len(env) == len(np.unique(env.points_obj, axis=0)) == 14

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("pid", ["ex1", "ex2a", "ex2b", "ex3a-d10", "ex3b"])
    def test_lockstep_batch_matches_scalar_descents(self, pid, seed):
        prob = get_problem(pid)
        env = convex_envelope_front(prob, seed=seed)
        ref = scalar_envelope(prob, seed=seed)
        # the reference keeps repeated points; drop them as the library does
        first = np.sort(np.unique(ref.points_obj, axis=0, return_index=True)[1])
        assert len(env) == len(first)
        assert np.abs(env.points_obj - ref.points_obj[first]).max() <= 1e-7
        assert np.abs(env.points_u - ref.points_u[first]).max() <= 1e-7

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("pid", ["ex1", "ex2a", "ex2b", "ex3a-d10", "ex3a-d100", "ex3b"])
    def test_descents_converge(self, pid, seed, monkeypatch):
        # At each weight's chosen point the projected-gradient residual
        # |P(u - grad(w . ell)) - u| vanishes.
        import hopfront.oracle as oracle

        runs = []

        def recorded(f, project, W, U0):
            U, FU = descent(f, project, W, U0)
            runs.append((W, U, FU))
            return U, FU

        descent = oracle._lockstep_descent
        monkeypatch.setattr(oracle, "_lockstep_descent", recorded)
        prob = get_problem(pid)
        convex_envelope_front(prob, seed=seed, base_cloud=sample_cloud(prob, mc=4000, seed=seed))
        [(W, U, FU)] = runs
        k = oracle._ENVELOPE_STARTS
        project, f = prob.projector(), prob.objective
        for start in range(0, len(W), k):
            r = start + int(np.argmin(FU[start : start + k]))
            u, w = U[r], W[r]
            assert np.linalg.norm(project(u - f.jacobian(u).T @ w) - u) <= 1e-7


class TestFrontDistance:
    def test_identical_sets(self):
        A = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert front_distance(A, A) == (0.0, 0.0, 0.0)

    def test_single_pair(self):
        fwd, bwd, h = front_distance([[0.0, 0.0]], [[3.0, 4.0]])
        assert (fwd, bwd, h) == (5.0, 5.0, 5.0)

    def test_hausdorff_symmetric_and_triangle(self, rng):
        for _ in range(30):
            A = rng.random((8, 2))
            B = rng.random((6, 2))
            C = rng.random((7, 2))
            hab = front_distance(A, B)[2]
            hba = front_distance(B, A)[2]
            assert hab == pytest.approx(hba, abs=1e-12)
            hac = front_distance(A, C)[2]
            hcb = front_distance(C, B)[2]
            assert hab <= hac + hcb + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            front_distance(np.zeros((0, 2)), [[0.0, 0.0]])

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_equals_pairwise_distances_bit_for_bit(self, N, rng):
        for n, m in ((1, 1), (7, 40), (30, 3)):
            A = rng.normal(size=(n, N)) * 10.0 ** rng.uniform(-3, 3)
            B = rng.normal(size=(m, N))
            assert front_distance(A, B) == pairwise_front_distance(A, B)

    @pytest.mark.parametrize("N", [8, 13])
    def test_matches_the_broadcast_formula_from_eight_objectives(self, N, rng):
        # numpy sums a row of 8 terms or more pairwise, so the two agree to rounding
        A, B = rng.normal(size=(9, N)), rng.normal(size=(50, N))
        d = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
        fwd, bwd = float(d.min(axis=1).max()), float(d.min(axis=0).max())
        assert front_distance(A, B) == pytest.approx((fwd, bwd, max(fwd, bwd)), rel=1e-14)


class TestNonconvexityWitness:
    def test_convex_front_no_witness(self):
        t = np.linspace(0, 1, 50)
        front = np.stack([t, (1 - t) ** 2], axis=1)  # convex tradeoff
        assert nonconvexity_witness(front, front, margin=0.05) == 0

    def test_empty_front(self):
        assert nonconvexity_witness(np.zeros((0, 2)), [[0.0, 0.0]], 0.05) == 0

    def test_bulge_detected(self):
        # envelope: two endpoints; front: a bump strictly above their chord
        env = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = np.linspace(0.2, 0.8, 13)
        bulge = np.stack([t, 1.05 - t], axis=1)
        front = np.concatenate([env, bulge])
        count = nonconvexity_witness(front, env, margin=0.05)
        assert count >= 5

    def test_requires_two_objectives(self):
        with pytest.raises(ValueError):
            nonconvexity_witness(np.zeros((3, 3)), np.zeros((2, 3)), 0.1)
