import contextlib
import hashlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rig_lab import (
    ExperimentConfig,
    FeatureProbabilities,
    RigInstance,
    Seed,
    UnsupportedArity,
    ValidationError,
    cli,
    plan_point,
    project_rig,
    run_sweep,
    sample_g_star,
    sample_g_star_poisson,
    sample_h_independent,
    sample_rig,
)
from rig_lab.experiments import render_results_csv, render_summary_json, render_timings_csv
from rig_lab.graphs import rank_subsets
from rig_lab.sampling import MAX_DRAWS, _floyd_rows, draw_subsets, unrank_subsets
from oracles import (_oracle_floyd, oracle_project_rig, oracle_sample_rig, subset_rank,
                     subset_unrank)


def test_probability_vector_validation():
    with pytest.raises(ValidationError):
        FeatureProbabilities(())
    with pytest.raises(ValidationError):
        FeatureProbabilities((0.0,))
    with pytest.raises(ValidationError):
        FeatureProbabilities((1.0,))
    with pytest.raises(ValidationError):
        FeatureProbabilities((0.5, float("nan")))
    assert FeatureProbabilities.homogeneous(3, 0.25).values.tolist() == [0.25, 0.25, 0.25]


def test_seed_determinism_and_separation():
    p = FeatureProbabilities.homogeneous(8, 0.2)
    a = sample_rig(30, p, Seed(99).child("exp", 0, "sample"))
    b = sample_rig(30, p, Seed(99).child("exp", 0, "sample"))
    c = sample_rig(30, p, Seed(99).child("exp", 1, "sample"))
    assert a == b
    assert a != c  # distinct labels give distinct streams


def test_seed_label_validation():
    with pytest.raises(ValidationError):
        Seed(-1)
    with pytest.raises(ValidationError):
        Seed(0).child(-3).rng()
    with pytest.raises(ValidationError):
        Seed(0).child(1.5).rng()
    assert Seed(7).child("a").state_word() != Seed(7).child("b").state_word()


def test_rig_degenerate_probabilities():
    p = FeatureProbabilities.homogeneous(10, 1e-12)
    inst = sample_rig(100, p, Seed(5).child("tiny"))
    assert all(len(s) == 0 for s in inst.feature_sets)
    one = sample_rig(1, FeatureProbabilities.homogeneous(4, 0.9), Seed(5).child("n1"))
    assert project_rig(one).edge_count() == 0


def test_rig_binomial_moments():
    # mean of |V_i| should sit within 3 sigma of n*p over many trials
    n, m, p = 50, 20, 0.3
    trials = 10_000
    probs = FeatureProbabilities.homogeneous(m, p)
    rng_seed = Seed(2024).child("binom")
    total = 0
    total_sq = 0
    for t in range(trials):
        inst = sample_rig(n, probs, rng_seed.child(t))
        for s in inst.feature_sets:
            total += len(s)
            total_sq += len(s) ** 2
    count = trials * m
    mean = total / count
    var = total_sq / count - mean**2
    se_mean = math.sqrt(n * p * (1 - p) / count)
    assert abs(mean - n * p) < 3 * se_mean
    assert abs(var - n * p * (1 - p)) / (n * p * (1 - p)) < 0.05


def _assert_matches_per_feature_sampler(n, values, seed):
    inst = sample_rig(n, FeatureProbabilities(values), seed)
    sets = oracle_sample_rig(n, values, seed)
    assert inst.feature_sets == sets
    assert inst == RigInstance(n, len(values), sets)  # sorted, duplicate-free rows
    assert set(project_rig(inst).edge_list()) == oracle_project_rig(sets)


_PROBABILITY = st.one_of(st.floats(1e-6, 1 - 1e-6), st.sampled_from([1e-12, 0.5, 1 - 1e-12]))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sample_rig_matches_per_feature_sampler(data):
    # n = 1, tiny n where most features hold every vertex (they draw no
    # uniforms) or collide in Floyd's rule, and larger n
    n = data.draw(st.one_of(st.just(1), st.integers(2, 6), st.integers(7, 300)))
    values = data.draw(st.lists(_PROBABILITY, min_size=1, max_size=40))
    _assert_matches_per_feature_sampler(n, values, Seed(data.draw(st.integers(0, 2**64 - 1))))


def test_sample_rig_matches_per_feature_sampler_on_explicit_profile():
    # the two-level profile of the conn-sweep benchmark workload
    config = ExperimentConfig(
        theorem="connectivity", n=2000, m=2000, c_grid=(-1.0, 1.0), trials_per_point=1,
        master_seed=0, profile={"kind": "explicit", "values": [1.0, 4.0] * 1000})
    for i, c in enumerate(config.c_grid):
        point = plan_point(config, c, i)
        for t in range(3):
            _assert_matches_per_feature_sampler(
                point.n_vertices, point.probabilities.values, Seed(17).child("explicit", i, t))


def test_sample_streams_are_pinned():
    # sha256 of one sampled incidence and of one sweep's results.csv; a change
    # to the sample_rig stream changes them, and must be versioned, not silent
    inst = sample_rig(300, FeatureProbabilities((0.01, 0.05, 0.3) * 100),
                      Seed(2024).child("stream-pin"))
    text = "".join(f"{i} {v}\n" for i, s in enumerate(inst.feature_sets) for v in sorted(s))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "af1ae63375ffad14db729a9a4b78f4f78255318c68d34e1e692769abfa232b32")
    config = ExperimentConfig(theorem="connectivity", n=300, m=300, c_grid=(-1.0, 1.0),
                              trials_per_point=20, master_seed=2024, experiment_id="stream-pin")
    csv = render_results_csv(run_sweep(config))
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "ec3c0994a9910d2983f8a4ed6f1a25c5b1a5f4dcfe4389b258fa7fc0f69a2e42")


_LAW_PINS = [  # (law, n, m, c_grid, trials, sha256 of results.csv, sha256 of summary.json)
    ("connectivity", 80, 80, (-1.0, 1.0), 10,
     "186e5492372a5a67c6533bc6fcd6ad80fedb2ecc3203c5e91b6618f97668c72a",
     "64f0bae3076cdefc93db3d93d8ddcf3f3649f33c61026e40cbd144fe57e40d83"),
    ("perfect-matching", 40, 60, (-1.0, 1.0), 10,
     "b4754746214dd861916715f44c040c1d3659fb4643ebf330b74bb2e821d59520",
     "ba271cb1229c44508e455a4d8f7a6159e3140a824b0c2ece592cee79ab4a6e6f"),
    ("hamiltonicity", 40, 40, (-2.0, 2.0), 8,
     "a3d50b35723c24f4e94a1cd4c65c3a3517cc4a81e89040c7e660d6adfc6d4a7d",
     "4daf273fee00b572129a1ded54e1bed06798398d5c450ee26788304161adfb47"),
    ("k-connectivity(1)", 80, 80, (-1.0, 1.0), 10,
     "845aec982a05deadd1fce8e8eabb9341d6abf4449abc420b572928ca26cd99a6",
     "38a283d372adce3e6e7de0cb314ba0327c9b2b43dee464957fe59fa184008c13"),
    ("k-connectivity(2)", 60, 60, (-1.0, 1.0), 8,
     "9adcd53ca657c363d1789d956c732cb19244b8e56a7b913ed82179ff9cdf3000",
     "27f44154ee99a6da984f3743790a033e764e111635c98c104c235fcdda324272"),
    ("k-connectivity(3)", 50, 50, (-3.0, 1.0), 6,
     "0d3bf042dbbf98616e69b3fbba47b0218b5fff5c7e2c6dace8d30c0320809860",
     "ba616c026737b3b819e27d35357199b7125ec99c85b6fe7f7bc3e6495bc47d6a"),
    ("hamiltonicity-refined", 100, 40, (-1.0, 1.0), 8,
     "ad2093c0e4ee95c7e4848d6db923c0e34e4cbc16a26395ed51bc2347f501ab57",
     "e8867ba197dd670c5f4453aecce902327e9e57cd5cec007156c622688e21065a"),
    ("k-connectivity-refined(2)", 100, 40, (-1.0, 1.0), 10,
     "4fcf59070b4cc09d973422edf5cb0ad3f0bc2e3bb38598e4848036549f3a9574",
     "4408d1aef1ffb43c28c7e41bd343b4866ec7c6fecec447541ebca22e60d65acb"),
    # m >> n: short disjoint paths leave cut pairs, and the common-neighbor closure joins them all
    ("k-connectivity(3)", 60, 600, (-1.0, 1.0), 8,
     "1cc86ba7421a9efe115623f834a4af5cbb2cc6744522d20324a2de4aa2d20b13",
     "8b2e868d287b9a6afa712f25ac29d8605f81ee1a666e21f043a490eaaaacc00e"),
]


@pytest.mark.parametrize("law, n, m, c_grid, trials, results_digest, summary_digest", _LAW_PINS,
                         ids=[law if m <= 2 * n else f"{law}-m{m}" for law, n, m, *_ in _LAW_PINS])
def test_law_sweep_outputs_are_pinned(law, n, m, c_grid, trials, results_digest, summary_digest):
    # one small sweep per law: its verdicts and min-degree shares may not change
    # with the way a trial is judged, only with a versioned stream change
    config = ExperimentConfig(theorem=law, n=n, m=m, c_grid=c_grid, trials_per_point=trials,
                              master_seed=2024, experiment_id="law-pin")
    result = run_sweep(config)
    assert hashlib.sha256(render_results_csv(result).encode()).hexdigest() == results_digest
    assert hashlib.sha256(render_summary_json(result).encode()).hexdigest() == summary_digest
    if m > 2 * n:  # the pin covers the closure: timings.csv's last column counts the pairs it left
        assert int(render_timings_csv(result).splitlines()[1].split(",")[-1]) == 0


_OUTPUT_PINS = [
    (["couple", "--n", "300", "--m", "300", "--p", "0.019", "--trials", "5", "--seed", "7"],
     "3133c653ab56358fb0b18ef0c11764e72c80ca0cba7a26f502c70340a633b8c6"),
    (["couple", "--n", "300", "--m", "300", "--p", "0.019", "--omega", "0.5", "--trials", "5",
      "--seed", "7"],
     "5ef3120778a9d55b9e318b4d086a0b5c623a982ac34f0a77dfc2b81bdae30882"),
    (["collector", "--n", "300", "--m", "300", "--p", "0.019", "--trials", "5", "--seed", "7"],
     "0380a93fffd8aab98369e07ea4c9dd6747398a11afe56a0fef2df8cda91b4b67"),
    (["gen", "--model", "draws", "--n", "40", "--arity", "2", "--draws", "300", "--hypergraph",
      "--seed", "7"],
     "c172762a5ec53fef973405af243ba33e06c9134009131aa7b4f8021467f35058"),
    (["gen", "--model", "draws", "--n", "100000", "--arity", "3", "--draws", "300",
      "--hypergraph", "--seed", "7"],
     "0ca49da0e294e6c3fae498a7c4e300294610d7bd96cc4029140517db2e18248c"),
    (["gen", "--model", "independent", "--n", "40", "--arity", "2", "--phat", "0.2",
      "--hypergraph", "--seed", "7"],
     "4359266cd10e0af571ca22e06da5f0438ee9cae627439ffdc33aaac5eeca9bf4"),
    (["gen", "--model", "independent", "--n", "100000", "--arity", "3", "--phat", "1e-12",
      "--hypergraph", "--seed", "7"],
     "90a600fab9a3ec190405290fd82541c38bc209ce5bb67b5a3fdf809c22bd8fdc"),
    (["gen", "--model", "poisson", "--n", "30", "--arity", "3", "--lam", "50", "--hypergraph",
      "--seed", "7"],
     "f4d87cc05618b3c9667ac3cd4ce260c03b1e5273401a9f83fbacac52e37a90f9"),
]


@pytest.mark.parametrize("argv, digest", _OUTPUT_PINS)
def test_coupling_and_gen_outputs_are_pinned(argv, digest):
    # sha256 of the stdout of the couple, collector and gen commands: the
    # pair, triple, padding, Poisson and coupon streams and the draw and
    # independent hypergraph samplers, at sizes where the ranks need int64
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_h_independent_trivial_cases():
    assert len(sample_h_independent(20, 3, 0.0, Seed(1).child("h0")).ranks) == 0
    for phat in (1e-300, 1e-19):  # the skips saturate at the int64 top
        assert len(sample_h_independent(8, 2, phat, Seed(1)).ranks) == 0
    full = sample_h_independent(4, 3, 1.0, Seed(1).child("h1"))
    assert full.ranks.tolist() == [0, 1, 2, 3]
    assert sorted(map(tuple, full.rows().tolist())) == list(itertools.combinations(range(4), 3))
    with pytest.raises(UnsupportedArity):
        sample_h_independent(10, 4, 0.5, Seed(1))
    with pytest.raises(ValidationError):
        sample_h_independent(10, 2, 1.5, Seed(1))


def test_h_independent_mean_edge_count():
    n, phat = 30, 0.1
    expected = math.comb(n, 2) * phat
    trials = 10_000
    seed = Seed(77).child("hmean")
    total = sum(
        len(sample_h_independent(n, 2, phat, seed.child(t)).ranks) for t in range(trials)
    )
    mean = total / trials
    se = math.sqrt(math.comb(n, 2) * phat * (1 - phat) / trials)
    assert abs(mean - expected) < 3 * se


def test_g_star_trivial_cases():
    assert len(sample_g_star(10, 2, 0, Seed(1).child("g0")).ranks) == 0
    only = sample_g_star(3, 3, 5, Seed(1).child("g1"))
    assert only.ranks.tolist() == [0] and only.rows().tolist() == [[0, 1, 2]]


def test_g_star_collision_probability():
    # two uniform draws from the 6 pairs of K4 collide with probability 1/6
    trials = 100_000
    seed = Seed(31).child("collide")
    hits = sum(
        1 for t in range(trials)
        if len(sample_g_star(4, 2, 2, seed.child(t)).ranks) == 1
    )
    freq = hits / trials
    se = math.sqrt((1 / 6) * (5 / 6) / trials)
    assert abs(freq - 1 / 6) < 3 * se


def test_g_star_poisson_trivial_and_saturated():
    assert len(sample_g_star_poisson(10, 3, 0.0, Seed(1).child("p0")).ranks) == 0
    sat = sample_g_star_poisson(4, 2, 1e6, Seed(1).child("p1"))
    assert sat.ranks.tolist() == list(range(6))
    assert sorted(map(tuple, sat.rows().tolist())) == list(itertools.combinations(range(4), 2))
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            sample_g_star_poisson(4, 2, lam, Seed(1).child("p2"))


def test_g_star_poisson_matches_independent_frequency():
    # both models put each of the 20 triples in with prob 1 - exp(-3/20)
    n, lam, trials = 6, 3.0, 4000
    q = -math.expm1(-lam / math.comb(n, 3))
    seed = Seed(13).child("pz")
    count_a = 0
    count_b = 0
    for t in range(trials):
        count_a += len(sample_g_star_poisson(n, 3, lam, seed.child("a", t)).ranks)
        count_b += len(sample_h_independent(n, 3, q, seed.child("b", t)).ranks)
    expect = 20 * q * trials
    sd = math.sqrt(20 * q * (1 - q) * trials)
    assert abs(count_a - expect) < 4 * sd
    assert abs(count_b - expect) < 4 * sd


def test_h_independent_scales_with_hits_not_universe():
    # C(10^6, 2) is half a trillion pair slots; only the ~500 expected hits
    # cost anything, which is the point of the skip sampler
    n, phat = 1_000_000, 1e-9
    expected = math.comb(n, 2) * phat
    h = sample_h_independent(n, 2, phat, Seed(55).child("huge"))
    count = len(h.ranks)
    assert abs(count - expected) < 5 * math.sqrt(expected)
    assert all(0 <= a < b < n for a, b in h.rows().tolist())
    # at the largest arity-3 universe the rank sums of one chunk pass 2**63
    n = 3_810_779
    h = sample_h_independent(n, 3, 50 / math.comb(n, 3), Seed(55).child("wide"))
    assert 20 < len(h.ranks) < 100 and all(0 <= a < b < c < n for a, b, c in h.rows().tolist())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_subset_rank_unrank_round_trip(data):
    arity = data.draw(st.sampled_from([2, 3]))
    rank = data.draw(st.integers(0, 10_000))
    sub = tuple(unrank_subsets(np.array([rank]), 1000, arity)[0].tolist())
    assert len(sub) == arity and all(a < b for a, b in zip(sub, sub[1:]))
    assert subset_rank(sub) == rank
    assert rank_subsets(np.array([sub])).tolist() == [rank]


def test_unrank_enumerates_all_subsets():
    for n, arity in ((5, 2), (7, 3), (300, 2), (60, 3)):
        rows = unrank_subsets(np.arange(math.comb(n, arity)), n, arity)
        colex = sorted(itertools.combinations(range(n), arity), key=lambda sub: sub[::-1])
        assert [tuple(row) for row in rows.tolist()] == colex


def _unrank_probes(n, arity):
    """Ranks 0, C(v, j) - 1, C(v, j) and C(n, arity) - 1 for v at the ends of
    [arity, n) and spread between them, for every position j <= arity."""
    total = math.comb(n, arity)
    vs = {arity, arity + 1, n - 2, n - 1, *np.geomspace(arity, n - 1, 40).astype(np.int64).tolist()}
    ranks = {0, total - 1}
    for v in vs:
        for j in range(1, arity + 1):
            ranks.update(r for r in (math.comb(v, j) - 1, math.comb(v, j)) if 0 <= r < total)
    return sorted(ranks)


@pytest.mark.parametrize("n, arity", [(3, 2), (4, 2), (3000, 2), (10**6, 2), (2**32, 2),
                                      (3, 3), (4, 3), (3000, 3), (3_810_779, 3)])
def test_vectorized_unrank_matches_scalar_oracle(n, arity):
    # 2**32 and 3,810,779 are the largest n whose C(n, arity) is an int64 rank bound
    ranks = _unrank_probes(n, arity)
    rows = unrank_subsets(np.array(ranks, dtype=np.int64), n, arity)
    assert rows.dtype == np.int64 and rows.shape == (len(ranks), arity)
    assert [tuple(row) for row in rows.tolist()] == [subset_unrank(r, arity) for r in ranks]
    assert rows.max() < n
    assert rank_subsets(rows).tolist() == ranks  # the inverse, up to C(n, arity) - 1


@pytest.mark.parametrize("n, arity", [(2**32, 2), (3_810_779, 3)])
def test_draw_subsets_at_the_largest_rank_range(n, arity):
    rng = Seed(9).child("wide").rng()
    ranks = Seed(9).child("wide").rng().integers(0, math.comb(n, arity), size=500)
    rows = draw_subsets(n, arity, 500, rng)
    assert [tuple(row) for row in rows.tolist()] == [subset_unrank(int(r), arity) for r in ranks]
    with pytest.raises(ValidationError):
        draw_subsets(n + 1, arity, 1, rng)  # C(n + 1, arity) is past the int64 ranks


def test_sample_subset_uniformity():
    rng = Seed(3).child("floyd").rng()
    indptr, values = _floyd_rows(np.full(6000, 2), np.full(6000, 6), rng)
    assert indptr[-1] == 12000 and (values[1::2] > values[::2]).all()  # sorted 2-subsets
    counts = np.bincount(values, minlength=6)
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 1 / 6) < 0.01)


def _floyd_rows_by_oracle(counts, sizes, rng):
    """Each row of ``_floyd_rows`` from the scalar rule, one row at a time on
    its slice of the same uniforms block; a full row holds every value."""
    draws = [k if k < size else 0 for k, size in zip(counts, sizes)]
    u = rng.random(sum(draws))
    ends = np.cumsum(draws).tolist()
    return [list(range(size)) if k == size else _oracle_floyd(u[end - k:end], size, k)
            for k, size, end in zip(counts, sizes, ends)]


def _assert_floyd_rows_match_oracle(counts, sizes, seed):
    rng, oracle_rng = Seed(seed).rng(), Seed(seed).rng()
    indptr, values = _floyd_rows(np.array(counts), np.array(sizes), rng)
    rows = [values[a:b].tolist() for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    assert rows == _floyd_rows_by_oracle(counts, sizes, oracle_rng)
    assert rng.random() == oracle_rng.random()  # the same number of uniforms drawn


class _FixedUniforms:
    """Stands in for a Generator whose one ``random`` call returns given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u


@pytest.mark.parametrize("n", range(1, 9))
def test_floyd_rows_match_scalar_rule_exhaustively(n):
    # every candidate sequence of every k < n, one row each: step j's candidate
    # t_j is any of 0..n-k+j, fed as the uniform (t_j + 1/2) / (n - k + 1 + j)
    for k in range(n):
        tops = np.arange(n - k + 1, n + 1)
        candidates = np.array(list(itertools.product(*map(range, tops))), dtype=np.int64)
        u = ((candidates + 0.5) / tops).ravel()
        rows = len(candidates)
        indptr, values = _floyd_rows(np.full(rows, k), np.full(rows, n), _FixedUniforms(u))
        assert values.reshape(rows, k).tolist() == [_oracle_floyd(u[i * k:(i + 1) * k], n, k)
                                                    for i in range(rows)]


def test_floyd_rows_match_scalar_rule_with_uneven_sizes():
    # rows of every size and count side by side, as the coupling padding draws them
    pairs = [(k, size) for size in range(9) for k in range(size + 1)] * 20
    order = np.random.default_rng(31).permutation(len(pairs))
    for seed in range(6):
        mixed = [pairs[i] for i in np.roll(order, 97 * seed)]
        _assert_floyd_rows_match_oracle([k for k, _ in mixed], [size for _, size in mixed], seed)
    _assert_floyd_rows_match_oracle([0, 0], [0, 0], 7)  # no row has a value
    _assert_floyd_rows_match_oracle([3, 40, 2], [3, 60, 1000], 8)


def test_draw_subsets_validation():
    rng = Seed(0).child("d").rng()
    with pytest.raises(UnsupportedArity):
        draw_subsets(5, 4, 1, rng)
    with pytest.raises(ValidationError):
        draw_subsets(2, 3, 1, rng)
    with pytest.raises(ValidationError):
        draw_subsets(5, 2, -1, rng)
    with pytest.raises(ValidationError):
        draw_subsets(5, 2, MAX_DRAWS + 1, rng)  # rejected before any allocation
    assert draw_subsets(2, 3, 0, rng).shape == (0, 3)  # zero draws need no vertices
