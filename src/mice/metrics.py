"""Clustering agreement metrics, all derived from one contingency table.

Label values are arbitrary hashable integers; every metric is invariant to
relabeling. NMI uses arithmetic-mean normalization; ARI is the pair-counting
adjusted index. ACC is the optimal one-to-one matching of the r x c table,
solved exactly in integers by `max_matching`: the shortest-augmenting-path
Hungarian method (Jonker & Volgenant 1987; Crouse 2016) on the rectangular
table itself, assigning the smaller side, in O(min(r, c)^2 max(r, c)) time
and O(r c) memory. The table is never padded to a square.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInputError, LengthMismatchError


def contingency_table(truth, predicted) -> np.ndarray:
    """Counts[i, j] = #points with truth label i and predicted label j (labels sorted)."""
    t = np.asarray(truth).ravel()
    p = np.asarray(predicted).ravel()
    if t.size == 0:
        raise EmptyInputError("metrics need at least one point")
    if t.size != p.size:
        raise LengthMismatchError(f"lengths {t.size} and {p.size} differ")
    t_values, t_idx = np.unique(t, return_inverse=True)
    p_values, p_idx = np.unique(p, return_inverse=True)
    table = np.zeros((t_values.size, p_values.size), dtype=np.int64)
    np.add.at(table, (t_idx, p_idx), 1)
    return table


def _entropy(counts: np.ndarray, total: int) -> float:
    probs = counts[counts > 0] / total
    return float(-np.sum(probs * np.log(probs)))


def nmi(truth, predicted) -> float:
    """Mutual information normalized by the arithmetic mean of the two label entropies.

    Both partitions trivial (zero entropy) gives 1.0; exactly one trivial gives 0.0.
    """
    table = contingency_table(truth, predicted)
    n = int(table.sum())
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    h_t = _entropy(row, n)
    h_p = _entropy(col, n)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    nz = table > 0
    joint = table[nz] / n
    outer = np.outer(row, col)[nz] / (n * n)
    info = float(np.sum(joint * np.log(joint / outer)))
    return info / ((h_t + h_p) / 2.0)


def max_matching(table) -> int:
    """Largest sum of entries of a nonnegative integer table, no two in one row or column.

    The smaller side is matched one line at a time: a Dijkstra search over the
    other side's lines with int64 potentials u, v finds the shortest augmenting
    path, which is flipped. Costs are doubled so the low bit of the search key
    can prefer an unmatched line among ties, which ends a search early.
    """
    w = np.asarray(table, dtype=np.int64)
    if w.shape[0] > w.shape[1]:
        w = w.T
    rows, cols = w.shape
    cost = 2 * (w.max(initial=0) - w)  # minimizing cost maximizes the matched sum
    big = np.int64(1) << 60
    u = np.zeros(rows, np.int64)
    v = np.zeros(cols, np.int64)
    row_of = np.full(cols, -1)
    col_of = np.full(rows, -1)
    dist = np.empty(cols, np.int64)
    via = np.empty(cols, np.intp)
    for start in range(rows):
        dist.fill(big)
        key_bias = (row_of >= 0).astype(np.int64)  # 1 on matched columns, big once settled
        path = []
        i, reach = start, 0
        while True:
            r = cost[i] - v
            r += reach - u[i]
            # Reduced costs are >= 0, so settled columns never improve here.
            np.copyto(via, i, where=r < dist)
            np.minimum(dist, r, out=dist)
            j = int((dist + key_bias).argmin())
            path.append(j)
            reach = int(dist[j])
            key_bias[j] = big
            i = row_of[j]
            if i < 0:
                break
        u[start] += reach
        if len(path) > 1:
            slack = reach - dist[path]
            v[path] -= slack
            u[row_of[path[:-1]]] += slack[:-1]
        while True:
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return int(w[np.arange(rows), col_of].sum())


def acc(truth, predicted) -> float:
    """Clustering accuracy: the share of points on the best one-to-one label matching."""
    table = contingency_table(truth, predicted)
    return float(max_matching(table)) / float(table.sum())


def ari(truth, predicted) -> float:
    """Adjusted Rand index via pair counting; 1.0 when the denominator degenerates
    (both partitions trivial in the same way)."""
    table = contingency_table(truth, predicted)
    n = int(table.sum())
    if n < 2:
        return 1.0

    def pairs(x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(np.sum(x * (x - 1.0) / 2.0))

    index = pairs(table)
    sum_rows = pairs(table.sum(axis=1))
    sum_cols = pairs(table.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = sum_rows * sum_cols / total
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)
