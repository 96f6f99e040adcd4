"""Small dense exact linear algebra over Q or F_p (RREF, kernel bases, matrix products)."""

from functools import reduce
from operator import add, mul


def rref(field, rows):
    """Reduced row echelon form in place; returns the list of pivot columns.

    The entries are coerced first, and every row operation is coerced where
    it is made, so the rows hold canonical elements throughout.
    """
    if not rows:
        return []
    rows[:] = [[field.coerce(v) for v in row] for row in rows]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.coerce(inv * v) for v in rows[r]]
        for i in range(len(rows)):
            factor = rows[i][c]
            if i == r or not factor:
                continue
            rows[i] = [field.coerce(v - factor * w) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def kernel_basis(field, rows, ncols):
    """Basis of the right kernel of the matrix (list of coefficient vectors)."""
    mat = list(rows)
    pivots = rref(field, mat)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.coerce(-mat[r][fc])
        basis.append(vec)
    return basis


def mat_mul(A, B):
    """Matrix product for entries of any ring (Fraction, RatFun, TruncSeries)."""
    return [[reduce(add, map(mul, row, col)) for col in zip(*B)] for row in A]
