"""Brute-force cross-checks at desk scale.

Everything here is deliberately independent of the compressed-spectrum
algorithms: spectra get expanded to explicit eigenvalue lists, the smoothed
collision entropy is minimized numerically as a constrained convex program
(and exhaustively over the two-sided flat family), and the single-copy
states are assembled as explicit matrices from the purification's
inner-product data and diagonalized numerically.  Floating point is used on
purpose -- this is the independent check, not the product, so it lives
with the tests (imported as ``from oracle import ...``) and the installed
package never imports it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

__all__ = [
    "expand",
    "brute_s0",
    "brute_s2",
    "brute_h0",
    "waterfill_scan",
    "single_copy_states",
    "conditional_string_probs",
]

_EXPAND_CAP = 10**5
_S2_CAP = 10**3
_EXHAUSTIVE_CAP = 12


def expand(spec) -> list[Fraction]:
    """Explicit ascending eigenvalue list (with repetition)."""
    if spec.total_dim > _EXPAND_CAP:
        raise ValueError(
            f"total dimension {spec.total_dim} too large to expand (cap {_EXPAND_CAP})"
        )
    out: list[Fraction] = []
    for v, mult in spec.levels:
        out.extend([v] * mult)
    return out


def brute_s0(dense, eps) -> int:
    """Minimum surviving count after removing eigenvalue mass <= eps.

    Greedy removal of the smallest entries; for short inputs additionally
    confirmed against every removal subset.  Zeros get removed for free, so
    the result is the minimum rank.
    """
    if len(dense) > _EXPAND_CAP:
        raise ValueError("dense spectrum too large for the rank oracle")
    eps = Fraction(eps)
    vals = sorted(Fraction(v) for v in dense)
    acc = Fraction(0)
    removed = 0
    for v in vals[:-1]:  # keep at least one entry
        if acc + v <= eps:
            acc += v
            removed += 1
        else:
            break
    survive = len(vals) - removed
    if len(vals) <= _EXHAUSTIVE_CAP:
        full = (1 << len(vals)) - 1
        best = 0
        for mask in range(full):  # `full` itself excluded: keep >= 1
            s = Fraction(0)
            cnt = 0
            for i, v in enumerate(vals):
                if (mask >> i) & 1:
                    s += v
                    cnt += 1
            if s <= eps and cnt > best:
                best = cnt
        assert len(vals) - best == survive, "greedy disagrees with exhaustive"
    return survive


def waterfill_scan(levels, eps) -> Fraction:
    """Exact minimum purity over two-sided flat deformations.

    Tries every pair (i lowest levels raised to a common x, j highest
    lowered to a common y) with the moved mass capped at min(eps, mass that
    flattens the two groups into each other); candidates whose x or y land
    on the wrong side of their own group (the mass accounting would be
    signed) or break the sorted interleaving with the untouched middle are
    skipped.  The no-move candidate is always included, so a uniform
    spectrum returns its own purity for any budget.
    """
    eps = Fraction(eps)
    lv = [(Fraction(v), int(c)) for v, c in levels]
    m = len(lv)
    cnt = [0] * (m + 1)
    mass = [Fraction(0)] * (m + 1)
    sq = [Fraction(0)] * (m + 1)
    for i, (v, c) in enumerate(lv):
        cnt[i + 1] = cnt[i] + c
        mass[i + 1] = mass[i] + c * v
        sq[i + 1] = sq[i] + c * v * v
    best = sq[m]
    for i in range(m):
        for j in range(m):
            if i + j > m - 2:  # raised and lowered sets must stay disjoint
                continue
            cb, low = cnt[i + 1], mass[i + 1]
            ct, top = cnt[m] - cnt[m - 1 - j], mass[m] - mass[m - 1 - j]
            flatten = (cb * top - ct * low) / (cb + ct)
            delta = min(eps, flatten)
            x = (low + delta) / cb
            y = (top - delta) / ct
            if x < lv[i][0] or y > lv[m - 1 - j][0]:
                continue
            if i + 1 <= m - 2 - j:  # untouched middle exists
                if x > lv[i + 1][0] or y < lv[m - 2 - j][0]:
                    continue
            cand = cb * x * x + (sq[m - 1 - j] - sq[i + 1]) + ct * y * y
            if cand < best:
                best = cand
    return best


def _project_feasible(v: np.ndarray, lam: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1, sum |w-lam| <= radius}.

    KKT structure: w_i = max(0, lam_i + soft(v_i - mu - lam_i, t)) with mu
    the trace multiplier and t >= 0 the l1 multiplier.  For fixed t, sum w
    is continuous, non-increasing and piecewise linear in mu, so mu is
    solved exactly on the segment where it crosses 1; the l1 deviation is
    monotone in t, so a bisection pins t to machine precision.
    """
    if radius <= 0:
        return lam.copy()
    size = v.size
    # each w_i has slope -1 below v_i - lam_i - t, 0 up to v_i - lam_i + t,
    # -1 up to v_i + t and 0 beyond: the slope changes by +1, -1, +1
    kinks = np.repeat([1.0, -1.0, 1.0], size)

    def w_of(mu: float, t: float) -> np.ndarray:
        z = v - mu - lam
        soft = np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
        return np.maximum(0.0, lam + soft)

    def solve_mu(t: float) -> float:
        x = np.concatenate([v - lam - t, v - lam + t, v + t])
        order = np.argsort(x, kind="stable")
        x = x[order]
        slope = np.cumsum(kinks[order]) - size  # on [x_k, x_k+1]
        f = w_of(x[0], t).sum() + np.concatenate(
            ([0.0], np.cumsum(slope[:-1] * np.diff(x)))
        )
        if f[0] < 1.0:  # every w_i is on its first slope-(-1) piece
            return x[0] - (1.0 - f[0]) / size
        k = int(np.argmax(f < 1.0))  # f falls to 0 at the last breakpoint
        return x[k - 1] + (f[k - 1] - 1.0) / -slope[k - 1]

    w = w_of(solve_mu(0.0), 0.0)  # t = 0: plain simplex projection
    if np.abs(w - lam).sum() <= radius:
        return w
    t_lo, t_hi = 0.0, float(np.abs(v - lam).max()) + 1.0
    while np.abs(w_of(solve_mu(t_hi), t_hi) - lam).sum() > radius:
        t_hi *= 2.0
    for _ in range(70):
        t = 0.5 * (t_lo + t_hi)
        if np.abs(w_of(solve_mu(t), t) - lam).sum() <= radius:
            t_hi = t
        else:
            t_lo = t
    return w_of(solve_mu(t_hi), t_hi)

def _projected_descent(lam: np.ndarray, radius: float) -> float:
    """min sum(mu^2) over the simplex cap {sum|mu-lam| <= radius}."""
    rng = np.random.default_rng(20240817)
    size = lam.size
    starts = [lam.copy(), np.full(size, 1.0 / size)]
    for _ in range(3):
        starts.append(0.5 * (lam + rng.dirichlet(np.ones(size))))
    best = None
    for s in starts:
        mu = _project_feasible(s, lam, radius)
        for _ in range(500):
            # step 1/4 on grad(2*mu): strictly inside the 1/L stability bound
            nxt = _project_feasible(0.5 * mu, lam, radius)
            delta = np.abs(nxt - mu).max()
            mu = nxt
            if delta < 1e-13:
                val = float(mu @ mu)
                best = val if best is None else min(best, val)
                break
    if best is None:
        raise RuntimeError(
            "projected descent failed to converge from every start; the "
            "problem is convex, so this indicates a bug"
        )
    return best


def brute_s2(dense, eps) -> float:
    """Minimum purity within total-variation radius 2*eps of the spectrum.

    Numeric projected descent from several starts and the exact water-level
    scan run independently; the smaller wins.
    """
    if len(dense) > _S2_CAP:
        raise ValueError("dense spectrum too large for the purity oracle")
    eps = Fraction(eps)
    vals = sorted(Fraction(v) for v in dense)
    grouped = [(v, len(list(g))) for v, g in itertools.groupby(vals)]
    exact = waterfill_scan(grouped, eps)
    lam = np.array([float(v) for v in vals])
    numeric = _projected_descent(lam, 2.0 * float(eps))
    return min(float(exact), numeric)


def conditional_string_probs(d: int, n: int, beta0) -> list[Fraction]:
    """P(x | y) for every string x against a fixed reference y, by direct
    enumeration of the product distribution (any y gives the same multiset)."""
    beta0 = Fraction(beta0)
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    if d**n > _EXPAND_CAP:
        raise ValueError("string space too large to enumerate")
    beta1 = (1 - beta0) / (d - 1)
    probs = []
    for x in itertools.product(range(d), repeat=n):
        p = Fraction(1)
        for sym in x:
            p *= beta0 if sym == 0 else beta1
        probs.append(p)
    return probs


def brute_h0(probs, eps) -> int:
    """Smallest number of strings whose total probability reaches 1 - eps."""
    eps = Fraction(eps)
    vals = sorted((Fraction(p) for p in probs), reverse=True)
    if sum(vals) != 1:
        raise ValueError("probabilities must sum to 1")
    need = 1 - eps
    acc = Fraction(0)
    k = 0
    for v in vals:
        if acc >= need:
            break
        acc += v
        k += 1
    return max(k, 1)


def _check_density(mat: np.ndarray) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] > 64:
        raise ValueError("density oracle handles square matrices up to 64x64")
    if np.abs(mat - mat.conj().T).max() > 1e-12:
        raise ValueError("matrix is not Hermitian")
    tr = complex(np.trace(mat))
    if abs(tr - 1) > 1e-12:
        raise ValueError(f"trace is {tr}, not 1")
    if np.linalg.eigvalsh(mat).min() < -1e-10:
        raise ValueError("matrix is not positive semidefinite")


def single_copy_states(d: int, beta0) -> tuple[np.ndarray, np.ndarray]:
    """Explicit (rho_E, rho_XE) at n=1 from the purification's geometry.

    The d overlapping vectors |E_kk> (pairwise inner product 1 - beta1/beta0)
    are realized through the Cholesky factor of their Gram matrix -- any
    isometry works, Cholesky is canonical -- and the d(d-1) vectors |E_kl>,
    k != l, as fresh orthonormal directions.  rho_E mixes them with weights
    beta0/d and beta1/d; rho_XE keeps the X label as a block index.
    """
    if not isinstance(d, int) or not 2 <= d <= 4:
        raise ValueError("d must be an integer in 2..4")
    beta0 = Fraction(beta0)
    if not Fraction(1, d) < beta0 <= 1:
        raise ValueError(f"beta0 must lie in (1/{d}, 1]")
    beta1 = (1 - beta0) / (d - 1)
    dim_e = d * d
    if beta0 == 1:
        kk = np.zeros((d, d))
        kk[:, 0] = 1.0  # all |E_kk> coincide; the Gram matrix is singular
    else:
        overlap = float(1 - beta1 / beta0)
        gram = np.full((d, d), overlap) + (1.0 - overlap) * np.eye(d)
        kk = np.linalg.cholesky(gram)  # row k holds the coordinates of |E_kk>
    vecs = np.zeros((d, d, dim_e), dtype=complex)
    free = d
    for k in range(d):
        for l in range(d):
            if k == l:
                vecs[k, k, :d] = kk[k]
            else:
                vecs[k, l, free] = 1.0
                free += 1
    b0, b1 = float(beta0), float(beta1)
    blocks = []
    for k in range(d):
        blk = np.zeros((dim_e, dim_e), dtype=complex)
        for l in range(d):
            v = vecs[k, l]
            blk += (b0 if k == l else b1) * np.outer(v, v.conj())
        blocks.append(blk / d)
    rho_e = np.zeros((dim_e, dim_e), dtype=complex)
    rho_xe = np.zeros((d * dim_e, d * dim_e), dtype=complex)
    for k, blk in enumerate(blocks):
        rho_e += blk
        rho_xe[k * dim_e : (k + 1) * dim_e, k * dim_e : (k + 1) * dim_e] = blk
    _check_density(rho_e)
    _check_density(rho_xe)
    return rho_e, rho_xe
