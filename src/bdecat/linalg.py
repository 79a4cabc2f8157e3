"""Exact integer linear algebra: determinants (closed forms up to 3 x 3,
Bareiss above), the inverse of a unimodular matrix and unimodular column
reduction.  Every entry stays a Python int."""

from __future__ import annotations


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
