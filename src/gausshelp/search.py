"""Exact row-wise maximum inner-product search, screened in float32.

`ScreenedSearch(b).argmax(a)` returns, for every row of a, the index and the
value of the largest entry of a @ b.T: the helper's closest base point and
the exhaustive decoder's best candidate.  Indices are exactly those of the
float64 scan (`_argmax_f64`), ties included; values are float64.

Grouped rows.  b may instead be a stack of G codebooks (G, N, d), and
`argmax(a, group)` searches row i of a in b[group[i]].  The rows are sorted
by group; per tile of N, one float32 GEMM per group present writes that
group's rows of one score buffer, and the reductions and the screen below
run once per tile, as for one codebook.  One scale s = 1/max ||b_gj|| serves
every group, so the bound holds unchanged; a row the screen cannot decide
goes to the float64 scan of its own codebook.  The float32 copy keeps b's
memory layout, so a caller can store the codebooks (d, G, N) and have each
group's GEMM read rows N long.

Screen.  Each query row a_i is scaled by c_i = 1/||a_i|| and b by the one
positive scalar s = 1/max_j ||b_j||; neither changes any row's argmax.  The
scaled operands are rounded to float32 and scored tile by tile, keeping each
row's best and runner-up.  Let T_ij = c_i s (a_i . b_j) in exact arithmetic.
With u = 2^-24, v = u + 2^-52 (one float64 product, then one float32
rounding, per input entry), eta = 2^-149 (float32's smallest subnormal) and
gamma_d(u) = d u / (1 - d u) for rows of length d, every float32 score
obeys |S32_ij - T_ij| <= E32 and every float64 score of the plain scan obeys
|c_i s fl64(a_i . b_j) - T_ij| <= E64, where, with r = (1 + u)(1 + v):

* the scaled rows have norms at most 1 + u, their float32 copies at most r
  (the norms are accurate to about d 2^-53, far below u, once they lie in
  [2^-500, 2^500], where no square over- or underflows);
* rounding the inputs moves a score by at most (2v + v^2) r^2 relative, plus
  2 d eta absolute for entries that land in float32's subnormal range;
* a d-term float32 dot product in any summation order, fused or not, errs by
  at most gamma_d(u) r^2, plus d eta absolute for products that underflow
  (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1);
* the float64 scan errs by at most gamma_d(2^-53) (1 + u)^2, whether a
  score comes from its GEMM or from the math.fsum rescoring that settles
  its near ties (`_argmax_f64`).

So E = r^2 (2v + v^2 + gamma_d(u) + gamma_d(2^-53)) + 8 d eta covers
E32 + E64.  If a row's float32 best S32_iw beats its runner-up by more than
2E, then for every j != w, c_i s fl64(a_i . b_w) >= S32_iw - E >
S32_ij + E >= c_i s fl64(a_i . b_j): the float64 scan picks w too, strictly.
Such a row keeps w, and its score a_i . b_w is recomputed in float64.  Any
other row (a near tie, including exact ties, or a norm outside
[2^-500, 2^500], such as a zero or non-finite row) goes to the float64 scan,
which breaks ties to the smallest index on scores that do not depend on the
other query rows; a zero row gives index 0, value 0.
"""

from __future__ import annotations

import math

import numpy as np

# Floats in one score tile, about 2 MB in float64.
TILE_FLOATS = 1 << 18

_U32 = 2.0 ** -24
_V = _U32 + 2.0 ** -52
_ETA = 2.0 ** -149
# Row norms the screen accepts: inside it no square over- or underflows.
_NORM_LO, _NORM_HI = 2.0 ** -500, 2.0 ** 500


def _gamma(d: int, u: float) -> float:
    du = d * u
    return du / (1.0 - du) if du < 0.5 else math.inf


def score_bound(d: int) -> float:
    """Bound E on float32 plus float64 score error for rows of length d (module docstring)."""
    r2 = ((1.0 + _U32) * (1.0 + _V)) ** 2
    return r2 * (2 * _V + _V * _V + _gamma(d, _U32) + _gamma(d, 2.0 ** -53)) + 8 * d * _ETA


def _row_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _tile_rows(k: int) -> int:
    return max(1, TILE_FLOATS // k)


def _best_two(a: np.ndarray, b: np.ndarray, groups=None):
    """Row-wise argmax, max and runner-up of a @ b.T over tiles of b's rows.

    With `groups`, b is a stack of codebooks (G, N, d) and groups lists
    triples (g, lo, hi): rows lo:hi of a are scored against b[g], one GEMM
    per group into one tile buffer.  Scores stay in the operands' common
    dtype.  Ties break to the smallest index; a runner-up equal to the max
    marks a tie.
    """
    k, n_rows = a.shape[0], b.shape[-2]
    rows = np.arange(k)
    index = np.zeros(k, dtype=np.int64)
    best = np.full(k, -np.inf, dtype=np.result_type(a, b))
    second = np.full_like(best, -np.inf)
    tile = _tile_rows(k)
    if groups is not None:
        buffer = np.empty(k * min(tile, n_rows), dtype=best.dtype)
    for lo in range(0, n_rows, tile):
        if groups is None:
            scores = a @ b[lo:lo + tile].T
        else:
            scores = buffer[:k * min(tile, n_rows - lo)].reshape(k, -1)
            for g, r0, r1 in groups:
                np.matmul(a[r0:r1], b[g, lo:lo + tile].T, out=scores[r0:r1])
        i = scores.argmax(axis=1)
        v = scores[rows, i]
        scores[rows, i] = -np.inf
        runner_up = scores.max(axis=1)
        better = v > best
        second = np.where(better, np.maximum(best, runner_up), np.maximum(second, v))
        index[better] = i[better] + lo
        best[better] = v[better]
    return index, best, second


def _argmax_f64(a: np.ndarray, b: np.ndarray, top: float | None = None):
    """Row-wise argmax and max of a @ b.T in float64, over tiles of b's rows.

    Ties break to the smallest index.  A float64 GEMM score depends on the
    shape of the call and on the entry's place in it, so two equal rows of b
    may score an ulp apart, one way in one call and the other way in another.
    Every GEMM score, and math.fsum of the float64 products a_ik b_jk, lies
    within F = gamma_d(2^-53) ||a_i|| ||b_j|| of the exact a_i . b_j (plus
    d 2^-1074 for products that underflow); err below doubles it to cover the
    rounding of the norms.  A row whose GEMM lead exceeds 4 err keeps its
    GEMM winner, which is then the strict fsum winner too.  Any other finite
    row is settled on fsum scores, which depend on a_i and b_j alone: every
    row j whose GEMM score lies within 4 err of the best is rescored, and the
    largest fsum score wins, the smallest index among equals.  So the index
    is the same whatever rows a holds besides a_i.  top is max_j ||b_j||,
    computed if not given.
    """
    k, d = a.shape
    best_index, best, second = _best_two(a, b)
    if top is None:
        top = float(_row_norms(b).max(initial=0.0))
    norms = _row_norms(a)
    slack = 4.0 * (2.0 * _gamma(d, 2.0 ** -53) * norms * top + 2 * d * 2.0 ** -1074)
    # A zero row or a zero b scores exactly 0 everywhere; a non-finite one has no bound.
    near = np.flatnonzero(~(best - second > slack) & (norms > 0) & (top > 0)
                          & np.isfinite(slack) & np.isfinite(best))
    if near.size:
        threshold = (best[near] - slack[near])[:, None]
        cand_row, cand_col = [], []
        tile = _tile_rows(k)
        for lo in range(0, b.shape[0], tile):
            r, j = np.nonzero(a[near] @ b[lo:lo + tile].T >= threshold)
            cand_row.append(r)
            cand_col.append(j + lo)
        r, j = np.concatenate(cand_row), np.concatenate(cand_col)
        exact = np.array([math.fsum(p) for p in a[near[r]] * b[j]])
        # Per row: the largest fsum score first, then the smallest index.
        order = np.lexsort((j, -exact, r))
        first = order[np.r_[True, r[order][1:] != r[order][:-1]]]
        best_index[near[r[first]]] = j[first]
        best[near[r[first]]] = exact[first]
    return best_index, best


class ScreenedSearch:
    """Rows b to search by inner product, with their scaled float32 copy built once.

    b is one codebook (N, d), or a stack of G codebooks (G, N, d) that
    argmax searches per query row, row i against b[group[i]].
    """

    def __init__(self, b: np.ndarray):
        self.b = b
        self.top = top = math.sqrt(np.einsum("...j,...j->...", b, b).max())
        self.b32 = None
        if _NORM_LO <= top <= _NORM_HI:
            self.b32 = np.empty_like(b, dtype=np.float32)
            np.multiply(b, 1.0 / top, out=self.b32, casting="unsafe")
        self.bound = score_bound(b.shape[-1])

    def argmax(self, a: np.ndarray, group=None):
        """Row-wise (argmax, max) of a @ self.b.T: int64 indices, float64 values.

        For a stack of codebooks, group[i] names the codebook of row i.
        """
        k = a.shape[0]
        norms = _row_norms(a)
        ok = (norms >= _NORM_LO) & (norms <= _NORM_HI) & (self.b32 is not None)
        index = np.zeros(k, dtype=np.int64)
        value = np.zeros(k)
        if ok.any():
            index[ok], gap = self._screen(a[ok] / norms[ok, None],
                                          None if group is None else group[ok])
            ok[ok] = gap > 2.0 * self.bound
            won = self.b[index[ok]] if group is None else self.b[group[ok], index[ok]]
            value[ok] = np.einsum("ij,ij->i", a[ok], won)
        if group is None and not ok.all():
            index[~ok], value[~ok] = _argmax_f64(a[~ok], self.b, self.top)
        elif not ok.all():
            for g in np.unique(group[~ok]):
                rows = np.flatnonzero(~ok & (group == g))
                index[rows], value[rows] = _argmax_f64(a[rows], self.b[g], self.top)
        return index, value

    def _screen(self, unit: np.ndarray, group):
        """float32 argmax of each unit row against its codebook, and its lead over the runner-up.

        Rows are sorted by group so that each group's rows are one block of the tile.
        """
        if group is None:
            index, best, second = _best_two(unit.astype(np.float32), self.b32)
            return index, best.astype(np.float64) - second
        order = np.argsort(group, kind="stable")
        present, starts = np.unique(group[order], return_index=True)
        ends = np.append(starts[1:], len(order))
        found, best, second = _best_two(unit[order].astype(np.float32), self.b32,
                                        list(zip(present, starts, ends)))
        index, gap = np.empty_like(found), np.empty(len(order))
        index[order], gap[order] = found, best.astype(np.float64) - second
        return index, gap
