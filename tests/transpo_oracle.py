"""Full-scan references for the transpo checks, used only by the tests.

Each scan visits every point (or every row) of a plain permutation
table, with no use of orbits.  They are the scans `transpo` ran before it
checked one point per orbit of a checked SigmaTable, kept as they were.
`pair_product` is the one-pair Griess product as `GriessAlgebra.product`
computed it before its partners were stacked, and `product_sigma_image` is
the one-pair sigma rule through it and `GriessAlgebra.inner`, as `griess`
computed it before its rows were stacked; neither shares product
arithmetic with `griess`.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from voacensus import transpo as tp
from voacensus.census import GRAM_32ND, GRAM_ZERO
from voacensus.griess import GriessElement, GriessError, _guard


def pair_product(alg, a, b):
    """The product a b, one pair at a time, from the structure constants."""
    _guard(alg.product_gain * a.mag * b.mag)
    s2 = alg.s2
    P = alg.pairs
    cart = 2 * s2 * (a.cart @ b.cart + b.cart @ a.cart)
    w = a.xv * b.xv
    if w.any():
        cart = cart + 2 * s2 * s2 * np.einsum("p,pij->ij", w, alg._pair_outer)
    xv = np.zeros(alg.npairs, dtype=np.int64)
    if a.cart.any() and b.xv.any():
        quad = 2 * np.einsum("pi,ij,pj->p", P, a.cart, P)
        xv += quad * b.xv
    if b.cart.any() and a.xv.any():
        quad = 2 * np.einsum("pi,ij,pj->p", P, b.cart, P)
        xv += quad * a.xv
    if a.xv.any() and b.xv.any():
        contrib = s2 * s2 * a.xv[alg._tp] * b.xv[alg._tq]
        np.add.at(xv, alg._tr, contrib)
    return GriessElement(alg, cart, xv, a.den * b.den * s2 * s2)


def product_sigma_image(alg, e, f):
    """sigma_e(f) = e + f - 4 e f from one Griess product, with its checks."""
    if e == f:
        return f
    ip = alg.inner(e, f)
    if ip == 0:
        return f
    if ip != Fraction(1, 32):
        raise GriessError(f"inner product {ip} admits no involution rule")
    g = e + f - 4 * pair_product(alg, e, f)
    if 2 * alg.inner(g, g) != Fraction(1, 2):
        raise GriessError("sigma image is not a central-charge-1/2 candidate")
    return g


def perm_order(p: np.ndarray) -> int:
    n = len(p)
    seen = np.zeros(n, dtype=bool)
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = int(p[j])
            ln += 1
        if ln > 1:
            order = lcm(order, ln)
    return order


def brute_force_order(perms, limit: int = 2 * 10 ** 6) -> int:
    """Closure order by breadth-first multiplication (small groups only)."""
    perms = [np.asarray(p, dtype=np.int32) for p in perms]
    seen = {tp.identity_perm(len(perms[0])).tobytes()}
    frontier = [tp.identity_perm(len(perms[0]))]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tp.mul(g, p)
                k = q.tobytes()
                if k not in seen:
                    if len(seen) >= limit:
                        raise tp.TranspoError("closure exceeded limit")
                    seen.add(k)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def consistency_failure(table: np.ndarray):
    """First (derived row, point, conjugating point) with
    table[table[x][y]] != table[x] table[y] table[x], over every x; None if
    there is none."""
    for x in range(len(table)):
        sx = table[x]
        bad = np.flatnonzero((table[sx] != sx[table[:, sx]]).any(axis=1))
        if len(bad):
            return int(sx[bad[0]]), int(bad[0]), x
    return None


def is_3transposition(sigmas: np.ndarray):
    """Check that all pairwise products of the involution rows have order <= 3."""
    k, n = sigmas.shape
    ident = np.arange(n, dtype=sigmas.dtype)
    for i in range(k):
        r = sigmas[i][sigmas]            # rows: sigma_i after sigma_j
        r2 = np.take_along_axis(r, r, axis=1)
        r3 = np.take_along_axis(r, r2, axis=1)
        ok = ((r == ident).all(axis=1) | (r2 == ident).all(axis=1)
              | (r3 == ident).all(axis=1))
        if not ok.all():
            return False, (i, int(np.nonzero(~ok)[0][0]))
    return True, None


def fischer_lines(census, sigmas: np.ndarray) -> tuple:
    """The lines {x, y, sigma_x(y)} over all 1/32 pairs, sorted."""
    lines = set()
    for i, j in np.argwhere(np.triu(census.gram == GRAM_32ND, k=1)):
        k = int(sigmas[i, j])
        lines.add(tuple(sorted((int(i), int(j), k))))
    return tuple(sorted(lines))


def is_symplectic_type(space, sigmas: np.ndarray) -> bool:
    """Every pair of intersecting lines generates exactly six points."""
    by_point: dict[int, list[tuple[int, int]]] = {}
    for (a, b, c) in space.lines:
        by_point.setdefault(a, []).append((b, c))
        by_point.setdefault(b, []).append((a, c))
        by_point.setdefault(c, []).append((a, b))
    X, A, B, C, D = [], [], [], [], []
    for x, rest in by_point.items():
        for s in range(len(rest)):
            for t in range(s + 1, len(rest)):
                X.append(x)
                A.append(rest[s][0]); B.append(rest[s][1])
                C.append(rest[t][0]); D.append(rest[t][1])
    if not X:
        return True
    X = np.array(X, dtype=np.int32); A = np.array(A, dtype=np.int32)
    B = np.array(B, dtype=np.int32); C = np.array(C, dtype=np.int32)
    D = np.array(D, dtype=np.int32)
    for lo in range(0, len(X), 250000):
        sl = slice(lo, lo + 250000)
        x, a, b, c, d = X[sl], A[sl], B[sl], C[sl], D[sl]
        cross = np.stack([sigmas[a, c], sigmas[a, d],
                          sigmas[b, c], sigmas[b, d]], axis=1)
        known = np.stack([x, a, b, c, d], axis=1)
        is_old = (cross[:, :, None] == known[:, None, :]).any(axis=2)
        new_vals = np.where(is_old, -1, cross)
        zmax = new_vals.max(axis=1)
        # every new value must agree (single sixth point) and exist
        bad_multi = ((new_vals >= 0) & (new_vals != zmax[:, None])).any(axis=1)
        no_new = zmax < 0
        if bad_multi.any() or no_new.any():
            return False
        six = np.concatenate([known, zmax[:, None]], axis=1)
        for i in range(6):
            for j in range(6):
                img = sigmas[six[:, i], six[:, j]]
                inside = (img[:, None] == six).any(axis=1)
                if not inside.all():
                    return False
    return True


def check_fischer_hypotheses(space, census, sigmas: np.ndarray) -> dict:
    """(1) common orthogonal point; (2) perp of perp of a collinear pair is the line."""
    n = space.npoints
    orth = (census.gram == GRAM_ZERO)
    common = orth.astype(np.int32) @ orth.astype(np.int32)
    off = ~np.eye(n, dtype=bool)
    cond1 = bool((common[off] > 0).all())
    # bitset rows: orthogonality with self counted as compatible
    bits = []
    for i in range(n):
        row = 0
        for j in np.nonzero(orth[i])[0]:
            row |= 1 << int(j)
        row |= 1 << i
        bits.append(row)
    cond2 = True
    fullmask = (1 << n) - 1
    for (a, b, c) in space.lines:
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            members = np.nonzero(orth[x] & orth[y])[0]
            perp = fullmask
            for w in members:
                perp &= bits[int(w)]
            got = {i for i in range(n) if (perp >> i) & 1}
            if got != {x, y, z}:
                cond2 = False
                break
        if not cond2:
            break
    return {"common_perp_nonempty": cond1, "perp_of_perp_is_line": cond2}
