"""Exact row-wise maximum inner-product search, screened in float32.

`ScreenedSearch(b).argmax(a, group)` returns, for every row a_i of a, the
index and the value of the largest entry of a_i @ b[group[i]].T: the helper's
closest base point and the exhaustive decoder's best candidate.  b is a stack
of G codebooks (G, N, d); one codebook (N, d) is a stack of one, and a
missing group is all zeros.  Indices are exactly those of the float64 scan of
each row's own codebook (`_argmax_f64`), ties included; each value is the
row's own float64 dot product a_i . b_w, so neither index nor value depends
on the other query rows.
The rows are sorted by group (unless there is one codebook); per tile of N,
one float32 GEMM per group present writes that group's rows of one score
buffer, and the reductions and the screen below run once per tile.  A
tile's reductions are one argmax and a gather of each row's tile maximum,
which is the new runner-up of every row whose running best it does not
beat.  Only a row whose best moves needs the tile's own runner-up (the
tile's argmax with the winner masked): on the tile in place when more than
k/8 of its k rows moved (the first few tiles), else on a copy of just those
rows.  One
scale s = 1/max ||b_gj|| serves every group, so the bound below holds
unchanged.  The float32 copy keeps b's memory layout, so a caller can store
the codebooks (d, G, N) and have each group's GEMM read rows N long.

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
Such a row keeps w.  Any other row (a near tie, including exact ties, or a
norm outside [2^-500, 2^500], such as a zero or non-finite row) goes to the
float64 scan, which breaks ties to the smallest index on scores that do not
depend on the other query rows, against its own codebook; a zero row gives
index 0.  Either way a row's value is a_i . b_w, recomputed in float64 from
that row alone.
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


def _copied_rows(k: int) -> int:
    """Most rows of a k-row score tile whose runner-up _best_two finds on a copy."""
    return k // 8


def tile_floats(k: int, n_rows: int) -> int:
    """Scores _best_two holds for k query rows against n_rows: its tile and its runner-up copy."""
    return (k + _copied_rows(k)) * min(_tile_rows(k), n_rows)


def _best_two(a: np.ndarray, b: np.ndarray, groups):
    """Row-wise argmax, max and runner-up of each row's scores, over tiles of b's rows.

    b is a stack of codebooks (G, N, d) and groups lists triples (g, lo, hi):
    rows lo:hi of a are scored against b[g], one GEMM per group into one tile
    buffer.  Scores stay in the operands' common dtype.  Ties break to the
    smallest index; a runner-up equal to the max marks a tie.  Every row
    takes its tile maximum into its runner-up; only a row whose tile maximum
    beats its running best needs the tile's own runner-up (the tile's argmax
    with the winner masked).  Those rows are masked in place on the tile when
    more than k/8 of the k rows moved, else on a copy of just those rows.
    """
    k, n_rows = a.shape[0], b.shape[1]
    index = np.zeros(k, dtype=np.int64)
    best = np.full(k, -np.inf, dtype=np.result_type(a, b))
    second = np.full_like(best, -np.inf)
    top = np.empty_like(best)
    tile = _tile_rows(k)
    buffer = np.empty(k * min(tile, n_rows), dtype=best.dtype)
    spare = np.empty(_copied_rows(k) * min(tile, n_rows), dtype=best.dtype)
    for lo in range(0, n_rows, tile):
        cols = min(tile, n_rows - lo)
        scores = buffer[:k * cols].reshape(k, cols)
        for g, r0, r1 in groups:
            np.matmul(a[r0:r1], b[g, lo:lo + cols].T, out=scores[r0:r1])
        column = scores.argmax(axis=1)
        np.take(buffer, column + np.arange(0, k * cols, cols), out=top)
        moved = np.flatnonzero(top > best)
        np.maximum(second, top, out=second)
        if moved.size:
            column = column[moved]
            if moved.size > _copied_rows(k):
                rest, rows = scores, moved
            else:
                rest = spare[:moved.size * cols].reshape(-1, cols)
                np.take(scores, moved, axis=0, out=rest)
                rows = np.arange(moved.size)
            rest[rows, column] = -np.inf
            # argmax and a gather: max(axis=1) costs about 0.2 us more per row.
            runner_up = rest[rows, rest.argmax(axis=1)[rows]]
            second[moved] = np.maximum(best[moved], runner_up)
            index[moved] = column + lo
            best[moved] = top[moved]
    return index, best, second


def _argmax_f64(a: np.ndarray, b: np.ndarray, top: float | None = None):
    """Row-wise argmax w of a @ b.T in float64, over tiles of b's rows, and a_i . b_w.

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
    is the same whatever rows a holds besides a_i.  So is the value: the
    row's own float64 dot product with b_w, not the GEMM's score (which
    depends on the other rows of the call).  top is max_j ||b_j||, computed
    if not given.
    """
    k, d = a.shape
    best_index, best, second = _best_two(a, b[None], [(0, 0, k)])
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
    return best_index, np.einsum("ij,ij->i", a, b[best_index])


class ScreenedSearch:
    """Codebooks b to search by inner product, with their scaled float32 copy built once.

    b is a stack of G codebooks (G, N, d), or one codebook (N, d), kept as
    b[None]; argmax searches row i of its queries against b[group[i]].
    """

    def __init__(self, b: np.ndarray):
        self.b = b = b if b.ndim == 3 else b[None]
        self.top = top = math.sqrt(np.einsum("...j,...j->...", b, b).max())
        self.b32 = None
        if _NORM_LO <= top <= _NORM_HI:
            self.b32 = np.empty_like(b, dtype=np.float32)
            np.multiply(b, 1.0 / top, out=self.b32, casting="unsafe")
        self.bound = score_bound(b.shape[-1])

    def argmax(self, a: np.ndarray, group=None):
        """Row-wise (argmax, max) of a_i @ self.b[group[i]].T: int64 indices, float64 values.

        group[i] names the codebook of row i; None searches codebook 0.
        """
        k = a.shape[0]
        if group is None:
            group = np.zeros(k, dtype=np.int64)
        norms = _row_norms(a)
        ok = (norms >= _NORM_LO) & (norms <= _NORM_HI) & (self.b32 is not None)
        index = np.zeros(k, dtype=np.int64)
        value = np.zeros(k)
        if ok.any():
            index[ok], gap = self._screen(a[ok] / norms[ok, None], group[ok])
            ok[ok] = gap > 2.0 * self.bound
            value[ok] = np.einsum("ij,ij->i", a[ok], self.b[group[ok], index[ok]])
        for g in set(group[~ok].tolist()):
            rows = np.flatnonzero(~ok & (group == g))
            index[rows], value[rows] = _argmax_f64(a[rows], self.b[g], self.top)
        return index, value

    def _screen(self, unit: np.ndarray, group):
        """float32 argmax of each unit row against its codebook, and its lead over the runner-up.

        Rows are sorted by group so that each group's rows are one block of
        the tile; with one codebook they already are.
        """
        order, groups = slice(None), [(0, 0, len(unit))]
        if len(self.b) > 1:
            order = np.argsort(group, kind="stable")
            present, starts = np.unique(group[order], return_index=True)
            groups = list(zip(present, starts, np.append(starts[1:], len(unit))))
        found, best, second = _best_two(unit[order].astype(np.float32), self.b32, groups)
        index, gap = np.empty_like(found), np.empty(len(unit))
        index[order], gap[order] = found, best.astype(np.float64) - second
        return index, gap
