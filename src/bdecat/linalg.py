"""Exact integer linear algebra: determinants (closed forms up to 3 x 3,
Bareiss above), the inverse of a unimodular matrix, Smith normal form and
unimodular column reduction.  Every entry stays a Python int."""

from __future__ import annotations

from math import gcd


def det_int(rows: list[list[int]] | tuple[list[int], ...]) -> int:
    """Determinant of a square integer matrix, given as a list or tuple of
    rows: the cofactor expansion up to 3 x 3, where every diagram minor of
    genus k <= 3 falls, and the Bareiss fraction-free elimination above."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return sign * a[-1][-1]


def inverse_unimodular(rows: list[list[int]]) -> list[list[int]]:
    """The integer inverse of a square matrix with determinant +-1: its
    adjugate times the determinant (fine for the 2k <= 6 of a circle)."""
    n = len(rows)
    det = det_int(rows)
    if det not in (1, -1):
        raise ValueError(f"determinant {det} is not +-1")

    def minor(i: int, j: int) -> int:
        return det_int([row[:j] + row[j + 1:] for r, row in enumerate(rows) if r != i])

    return [[det * minor(j, i) * (-1 if (i + j) % 2 else 1) for j in range(n)]
            for i in range(n)]


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form, nonnegative with divisibility."""
    a = [row[:] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    top = 0
    while top < min(m, n):
        # find a nonzero pivot
        piv = next(((r, c) for r in range(top, m) for c in range(top, n)
                    if a[r][c] != 0), None)
        if piv is None:
            break
        r0, c0 = piv
        a[top], a[r0] = a[r0], a[top]
        for row in a:
            row[top], row[c0] = row[c0], row[top]
        while True:
            # clear the pivot column with row operations
            for r in range(m):
                if r != top and a[r][top] != 0:
                    if a[r][top] % a[top][top] == 0:
                        q = a[r][top] // a[top][top]
                        a[r] = [x - q * y for x, y in zip(a[r], a[top])]
                    else:
                        g, x, y = _xgcd(a[top][top], a[r][top])
                        p, q = a[top][top] // g, a[r][top] // g
                        rt, rr = a[top], a[r]
                        a[top] = [x * u + y * v for u, v in zip(rt, rr)]
                        a[r] = [-q * u + p * v for u, v in zip(rt, rr)]
            if any(a[r][top] != 0 for r in range(m) if r != top):
                continue
            # clear the pivot row with column operations
            for c in range(n):
                if c != top and a[top][c] != 0:
                    if a[top][c] % a[top][top] == 0:
                        q = a[top][c] // a[top][top]
                        for row in a:
                            row[c] -= q * row[top]
                    else:
                        g, x, y = _xgcd(a[top][top], a[top][c])
                        p, q = a[top][top] // g, a[top][c] // g
                        for row in a:
                            u, v = row[top], row[c]
                            row[top] = x * u + y * v
                            row[c] = -q * u + p * v
            if all(a[r][top] == 0 for r in range(m) if r != top) and \
               all(a[top][c] == 0 for c in range(n) if c != top):
                break
        diag.append(abs(a[top][top]))
        top += 1
    # enforce the divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[i] and diag[j] % diag[i] != 0:
                g = gcd(diag[i], diag[j])
                diag[j] = diag[i] * diag[j] // g
                diag[i] = g
    return diag


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def column_echelon(rows: list[list[int]], top_rows: int):
    """Unimodular column reduction making the first top_rows rows echelon.

    Returns (reduced matrix, pivot columns, eps), eps = +-1 the determinant
    of the column operations: a swap flips it, a shear keeps it.  The pivots
    are the first columns, so independent top rows reduce to [H | 0] with H
    lower triangular.  The other columns vanish on the top rows, so they
    span the sublattice of the column lattice supported below.
    """
    a = [row[:] for row in rows]
    n = len(a[0]) if a else 0
    pivots = []
    eps = 1
    col = 0
    for r in range(top_rows):
        piv = next((c for c in range(col, n) if a[r][c] != 0), None)
        if piv is None:
            continue
        if piv != col:
            eps = -eps
            for row in a:
                row[col], row[piv] = row[piv], row[col]
        # gcd-reduce the remaining columns against the pivot column
        for c in range(col + 1, n):
            while a[r][c] != 0:
                if abs(a[r][col]) > abs(a[r][c]):
                    eps = -eps
                    for row in a:
                        row[col], row[c] = row[c], row[col]
                q = a[r][c] // a[r][col]
                for row in a:
                    row[c] -= q * row[col]
        pivots.append(col)
        col += 1
    return a, pivots, eps
