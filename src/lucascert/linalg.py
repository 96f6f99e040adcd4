"""Small dense exact linear algebra over Q or F_p: the kernel basis of a matrix."""


def kernel_basis(field, rows, ncols):
    """Basis of the right kernel of the matrix (list of coefficient vectors).

    A copy of the rows is brought to reduced row echelon form.  The entries
    are coerced first, and every row operation is coerced where it is made,
    so the rows hold canonical elements throughout.
    """
    mat = [[field.coerce(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(mat):
            break
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.coerce(inv * v) for v in mat[r]]
        for i in range(len(mat)):
            factor = mat[i][c]
            if i == r or not factor:
                continue
            mat[i] = [field.coerce(v - factor * w) for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
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
