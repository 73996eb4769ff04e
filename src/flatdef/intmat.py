"""Small exact integer-matrix routines: Hermite form, Smith form, kernels.

Everything here is naive O(n^3)-with-big-ints, which is plenty at the
desk scale of homology frames (tens of edges).
"""

from __future__ import annotations

__all__ = ["hermite_form", "smith_form", "integer_kernel", "det_int"]


def _clone(m):
    return [list(r) for r in m]


def hermite_form(mat):
    """Row-style Hermite normal form H of `mat`.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced, and U @ mat = H for a unimodular U.  U is not returned:
    it is the tail of `hermite_form([mat | I])`, whose row operations
    act on I as they act on mat.
    """
    h = _clone(mat)
    n = len(h)
    m = len(h[0]) if n else 0
    row = 0
    for col in range(m):
        # find a nonzero entry at/below `row` and reduce the column by gcds
        piv = None
        for i in range(row, n):
            if h[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        while True:
            nz = [i for i in range(row + 1, n) if h[i][col] != 0]
            if not nz:
                break
            for i in nz:
                q = h[i][col] // h[row][col]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                if h[i][col] != 0:
                    h[row], h[i] = h[i], h[row]
        if h[row][col] < 0:
            h[row] = [-a for a in h[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[row])]
        row += 1
        if row == n:
            break
    return h


def smith_form(mat):
    """Smith normal form with transforms.

    Returns (d, U, V, Vinv) where U @ mat @ V = D, D diagonal with the
    nonzero entries d (divisibility not enforced), U and V unimodular,
    and Vinv = V^{-1} tracked alongside.
    """
    a = _clone(mat)
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    vinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j  (V tracks; Vinv gets inverse row op)
        for r in range(n):
            a[r][i] -= q * a[r][j]
        for r in range(m):
            v[r][i] -= q * v[r][j]
        vinv[j] = [x + q * y for x, y in zip(vinv[j], vinv[i])]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(m):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    diag = []
    t = 0
    while True:
        piv = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        row_swap(t, pi)
        col_swap(t, pj)
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        diag.append(a[t][t])
        t += 1
        if t == n or t == m:
            break
    return diag, u, v, vinv


def integer_kernel(mat):
    """A lattice basis of {x in Z^n : x @ mat = 0} (row-vector kernel)."""
    n = len(mat)
    if n == 0:
        return []
    m = len(mat[0])
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    h = hermite_form(aug)
    out = []
    for row in h:
        if all(x == 0 for x in row[:m]):
            tail = row[m:]
            if any(x != 0 for x in tail):
                out.append(tail)
    return out


def det_int(mat):
    """Determinant of a square integer matrix (fraction-free Gauss-Bareiss)."""
    a = _clone(mat)
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    piv = i
                    break
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
