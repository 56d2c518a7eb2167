"""Clustering metric tests.

Each metric gets an independent oracle: ACC against exhaustive permutation
search, ARI against direct pair counting (2(ad-bc) / ((a+b)(b+d)+(a+c)(c+d))),
NMI against a Counter-based entropy computation. Hand-worked values cover the
small cases, hypothesis covers the relabeling invariances. The matching solver
behind ACC is also checked on raw rectangular tables (permutation search, a
planted optimum) and for its memory on many truth labels.
"""

import itertools
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mice.cli import cli_main
from mice.data import Dataset, save_dataset
from mice.errors import EmptyInputError, LengthMismatchError
from mice.metrics import acc, ari, contingency_table, max_matching, nmi
from mice.numcore import make_rng
from mice.report import load_report

V1_CHECKPOINT = Path(__file__).parent / "data" / "v1_tiny.ckpt"  # 3 clusters, 4 inputs

label_pairs = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=40
)


def acc_brute(truth, pred):
    """Best one-to-one cluster matching by trying every permutation."""
    t_vals = sorted(set(truth))
    p_vals = sorted(set(pred))
    size = max(len(t_vals), len(p_vals))
    p_index = {v: i for i, v in enumerate(p_vals)}
    best = 0
    for perm in itertools.permutations(range(size)):
        matches = 0
        for tv, pv in zip(truth, pred):
            mapped = perm[p_index[pv]]
            if mapped < len(t_vals) and t_vals[mapped] == tv:
                matches += 1
        best = max(best, matches)
    return best / len(truth)


def ari_brute(truth, pred):
    """Pair-count ARI: a/b/c/d tallied over all unordered point pairs."""
    a = b = c = d = 0
    n = len(truth)
    for i in range(n):
        for j in range(i + 1, n):
            same_t = truth[i] == truth[j]
            same_p = pred[i] == pred[j]
            if same_t and same_p:
                a += 1
            elif same_t:
                b += 1
            elif same_p:
                c += 1
            else:
                d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0
    return 2.0 * (a * d - b * c) / denom


def nmi_brute(truth, pred):
    n = len(truth)

    def entropy(labels):
        return -sum(
            (cnt / n) * math.log(cnt / n) for cnt in Counter(labels).values()
        )

    h_t, h_p = entropy(truth), entropy(pred)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    joint = Counter(zip(truth, pred))
    ct, cp = Counter(truth), Counter(pred)
    info = sum(
        (cnt / n) * math.log(cnt * n / (ct[tv] * cp[pv]))
        for (tv, pv), cnt in joint.items()
    )
    return info / ((h_t + h_p) / 2.0)


def random_labelings(seed, trials, n=40, k=5):
    rng = make_rng(seed)
    for _ in range(trials):
        yield (
            list(rng.integers(0, k, size=n)),
            list(rng.integers(0, k, size=n)),
        )


class TestContingency:
    def test_hand_table(self):
        table = contingency_table([1, 1, 1, 2, 2, 2], [1, 1, 2, 2, 3, 3])
        np.testing.assert_array_equal(table, [[2, 1, 0], [0, 1, 2]])

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            contingency_table([], [])
        with pytest.raises(LengthMismatchError):
            contingency_table([1, 2], [1])


class TestNmi:
    def test_hand_case(self):
        """3+3 truth split vs 2+2+2 predicted split: MI = (2/3) ln 2, mean entropy
        (ln 2 + ln 3)/2, so NMI = 4 ln 2 / (3 ln 6)."""
        value = nmi([1, 1, 1, 2, 2, 2], [1, 1, 2, 2, 3, 3])
        np.testing.assert_allclose(value, 4 * math.log(2) / (3 * math.log(6)), rtol=1e-14)

    def test_perfect_and_trivial(self):
        assert nmi([1, 2, 3], [7, 8, 9]) == 1.0
        assert nmi([1, 1, 1], [1, 1, 1]) == 1.0
        assert nmi([1, 1, 1, 1], [1, 1, 2, 2]) == 0.0
        assert nmi([1, 1, 2, 2], [3, 3, 3, 3]) == 0.0

    def test_matches_counter_oracle(self):
        for truth, pred in random_labelings(seed=60, trials=50):
            np.testing.assert_allclose(nmi(truth, pred), nmi_brute(truth, pred), rtol=1e-12)

    def test_bounded(self):
        for truth, pred in random_labelings(seed=61, trials=50, n=25, k=4):
            assert -1e-12 <= nmi(truth, pred) <= 1.0 + 1e-12


class TestAcc:
    def test_perfect_under_relabeling(self):
        assert acc([1, 1, 2, 2], [5, 5, 3, 3]) == 1.0

    def test_extra_predicted_clusters(self):
        assert acc([1, 1, 1, 1], [1, 2, 3, 4]) == 0.25
        assert acc([1, 2, 3, 4], [1, 1, 1, 1]) == 0.25

    def test_hand_majority(self):
        # best matching pairs truth 1 with pred 1 (2 hits) and truth 2 with pred 2 (1 hit)
        assert acc([1, 1, 1, 2], [1, 1, 2, 2]) == 0.75

    def test_matches_permutation_search(self):
        for truth, pred in random_labelings(seed=62, trials=50):
            np.testing.assert_allclose(acc(truth, pred), acc_brute(truth, pred), rtol=1e-14)

    def test_six_cluster_search(self):
        for truth, pred in random_labelings(seed=63, trials=10, n=60, k=6):
            np.testing.assert_allclose(acc(truth, pred), acc_brute(truth, pred), rtol=1e-14)


def matching_brute(table):
    """Best one-to-one matching total of a table: every injection of the smaller side."""
    t = np.asarray(table)
    if t.shape[0] > t.shape[1]:
        t = t.T
    rows = np.arange(t.shape[0])
    injections = itertools.permutations(range(t.shape[1]), t.shape[0])
    return max(int(t[rows, list(cols)].sum()) for cols in injections)


def labels_of(table):
    """Truth/predicted labels (1-based) whose contingency counts are `table`."""
    t = np.asarray(table)
    cells = np.repeat(np.arange(t.size), t.ravel())
    return cells // t.shape[1] + 1, cells % t.shape[1] + 1


@st.composite
def count_tables(draw):
    """1-7 x 1-7 counts in 0..3, so ties are common, with some lines zeroed."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    flat = draw(st.lists(st.integers(0, 3), min_size=rows * cols, max_size=rows * cols))
    table = np.array(flat, dtype=np.int64).reshape(rows, cols)
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        table[i] = 0
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        table[:, j] = 0
    return table


class TestMatching:
    @settings(max_examples=300, deadline=None)
    @given(count_tables())
    def test_rectangular_matches_permutation_search(self, table):
        best = matching_brute(table)
        assert max_matching(table) == best
        assert max_matching(table.T) == best
        if table.sum() > 0:  # zero lines drop out of the labels' table
            assert acc(*labels_of(table)) == best / int(table.sum())

    def test_planted_optimum_60x60(self):
        """t[i, j] = a_i + b_j - s_ij with s = 0 on a hidden permutation and >= 1 elsewhere:
        every other matching loses its slack, so the optimum is sum(a) + sum(b)."""
        rng = make_rng(70)
        n = 60
        a = rng.integers(20, 40, size=n)
        b = rng.integers(20, 40, size=n)
        slack = rng.integers(1, 31, size=(n, n))
        hidden = rng.permutation(n)
        slack[np.arange(n), hidden] = 0
        table = a[:, None] + b[None, :] - slack
        table = table[rng.permutation(n)][:, rng.permutation(n)]
        best = int(a.sum() + b.sum())
        assert max_matching(table) == best
        assert max_matching(table.T) == best
        assert acc(*labels_of(table)) == best / int(table.sum())

    def test_many_truth_labels_stay_small(self):
        """3000 truth labels against 4 clusters: no 3000 x 3000 square is built."""
        truth = np.arange(3000) + 1
        pred = truth % 4 + 1
        tracemalloc.start()
        try:
            value = acc(truth, pred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == 4 / 3000
        assert peak < 1 << 20

    def test_eval_cli_on_many_truth_labels(self, tmp_path):
        points = make_rng(71).standard_normal((3000, 4))
        save_dataset(Dataset(points, np.arange(3000) + 1), tmp_path / "data.csv")
        report = tmp_path / "eval.json"
        assert cli_main([
            "eval", "--ckpt", str(V1_CHECKPOINT), "--data", str(tmp_path / "data.csv"),
            "--report", str(report),
        ]) == 0
        final = load_report(report)["final"]
        assert final["acc"] == sum(count > 0 for count in final["occupancy"]) / 3000


class TestAri:
    def test_hand_case_is_minus_half(self):
        """Crossed 2x2 case: a=0, b=c=2, d=2 gives 2(0*2 - 4)/((2)(4)+(2)(4)) = -1/2."""
        np.testing.assert_allclose(ari([1, 1, 2, 2], [1, 2, 1, 2]), -0.5, rtol=1e-15)

    def test_perfect_and_degenerate(self):
        assert ari([1, 1, 2, 2], [4, 4, 9, 9]) == 1.0
        assert ari([1, 1, 1], [2, 2, 2]) == 1.0
        assert ari([1], [1]) == 1.0

    def test_matches_pair_counting(self):
        for truth, pred in random_labelings(seed=64, trials=50):
            np.testing.assert_allclose(ari(truth, pred), ari_brute(truth, pred), rtol=1e-12)


class TestInvariances:
    @settings(max_examples=150, deadline=None)
    @given(label_pairs, st.permutations(list(range(5))), st.permutations(list(range(5))))
    def test_relabeling_invariance(self, pairs, t_perm, p_perm):
        truth = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        truth2 = [t_perm[t] for t in truth]
        pred2 = [p_perm[p] for p in pred]
        for metric in (nmi, acc, ari):
            np.testing.assert_allclose(
                metric(truth, pred), metric(truth2, pred2), rtol=1e-12, atol=1e-12
            )

    @settings(max_examples=100, deadline=None)
    @given(label_pairs, st.randoms(use_true_random=False))
    def test_point_order_invariance(self, pairs, rnd):
        truth = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        truth2 = [truth[i] for i in order]
        pred2 = [pred[i] for i in order]
        for metric in (nmi, acc, ari):
            np.testing.assert_allclose(
                metric(truth, pred), metric(truth2, pred2), rtol=1e-12, atol=1e-12
            )

    def test_symmetry_of_nmi_and_ari(self):
        for truth, pred in random_labelings(seed=65, trials=20):
            np.testing.assert_allclose(nmi(truth, pred), nmi(pred, truth), rtol=1e-12)
            np.testing.assert_allclose(ari(truth, pred), ari(pred, truth), rtol=1e-12)
