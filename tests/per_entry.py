"""Per-entry reference versions of the maps :mod:`modkit.datum` reads off a
datum's character table, the rows of a world (dimensions, Gauss sums, twist
laws), the lift and Galois action on a matrix, the exact rank of a matrix,
the two sides of each identity the check suites compare, the JSON objects
of a datum file, the descent of a value to a smaller conductor by linear
algebra over Q, the split-prime tables as a reduced inverse DFT, the
matching of lines of slices and the reading of a signed permutation, and
the duality and fermion action read off a fusion tensor one entry at a
time, and the fold of a fusion row through the quotient by sVect^-.  It
also holds the fusion-ring laws (unit, duality, associativity) a tensor is
tested against.

Each builds the characters ``S[X, Y] / dim_r(X)`` one ``CycNum`` at a time and
matches rows or columns as tuples of entries, keyed by their coordinates (the
entries of one line share a conductor), the way the maps were computed before
the table existed.  They raise the same errors in the same order, so a
test can compare whole outcomes, messages included.
"""

import math
from fractions import Fraction

import numpy as np

from modkit._kernel import euler_phi, max_row, reduce
from modkit.cyclotomic import CycNum, root_of_unity
from modkit.datum import KIND_BOLD, DegeneracyError, ModularDatum
from modkit.io import KIND_NORMALIZED, _cyc, _matrix, _Ratios, _ratio_text
from modkit.matrix import _root_of_order, with_bound


def from_coeffs(n, coeffs):
    """The element sum_k coeffs[k] zeta_n^k of Q(zeta_n), from its rational
    coordinates in the power basis."""
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    return CycNum(n, tuple(int(f * den) for f in fracs), den)


def cyc_from_json(obj):
    """The scalar of one JSON scalar object, read as a datum file reads it."""
    return _cyc(obj, _Ratios())


def matrix_from_json(obj):
    """The matrix of one JSON matrix object, read as a datum file reads it."""
    return _matrix(obj, _Ratios())


def key(line):
    return tuple((e.conductor, e.num, e.den) for e in line)


def characters(raw):
    s = raw.s_matrix
    n = raw.size
    out = []
    for x in range(n):
        dx = s[raw.unit, x]
        if dx.is_zero():
            raise DegeneracyError(f"dim_r({raw.labels[x]}) = 0")
        inv = dx.inv()
        out.append(tuple(s[x, y] * inv for y in range(n)))
    return out


def column(chars, x):
    return tuple(row[x] for row in chars)


def unique(raw, lines):
    out = {}
    for x, line in enumerate(map(key, lines)):
        if line in out:
            raise DegeneracyError(
                f"labels {raw.labels[out[line]]} and {raw.labels[x]} have identical characters")
        out[line] = x
    return out


def center(raw):
    s, n = raw.s_matrix, raw.size
    dim = [s[raw.unit, y] for y in range(n)]
    return tuple(x for x in range(n) if all(s[x, y] == dim[x] * dim[y] for y in range(n)))


def duality(raw):
    chars = characters(raw)
    n = raw.size
    cols = unique(raw, [column(chars, x) for x in range(n)])
    dual, signs = [], []
    for x in range(n):
        conj = key(e.conj() for e in column(chars, x))
        neg = key(-e.conj() for e in column(chars, x))
        if conj in cols:
            dual.append(cols[conj])
            signs.append(1)
        elif raw.kind == KIND_BOLD and neg in cols:
            dual.append(cols[neg])
            signs.append(-1)
        else:
            raise DegeneracyError(f"no dual found for label {raw.labels[x]}")
    if any(dual[dual[x]] != x for x in range(n)):
        raise DegeneracyError("derived duality is not an involution")
    return tuple(dual), tuple(signs)


def epsilon_action(raw):
    s, n = raw.s_matrix, raw.size
    rows = {key(s.row(x)): x for x in range(n)}
    act = []
    for x in range(n):
        hit = rows.get(key(-e for e in s.row(x)))
        if hit is None:
            raise DegeneracyError(f"no label with the negated S-row of {raw.labels[x]}")
        act.append(hit)
    if any(act[act[x]] != x for x in range(n)):
        raise DegeneracyError("row negation does not define an involution")
    for x in range(n):
        if act[x] == x:
            raise DegeneracyError(f"fermion action fixes {raw.labels[x]}")
    return tuple(act)


def bar(raw):
    """On a datum whose duality (and, on a bold datum, signs) is present."""
    chars = characters(raw)
    n = raw.size
    rows = unique(raw, chars)
    signs = raw.duality_signs or (1,) * n
    out = []
    for x in range(n):
        target = key(chars[x][raw.duality[y]] * signs[y] for y in range(n))
        if target not in rows:
            raise DegeneracyError(f"no bar partner for label {raw.labels[x]}")
        out.append(rows[target])
    if any(out[out[x]] != x for x in range(n)):
        raise DegeneracyError("bar is not an involution")
    return tuple(out), out[raw.unit]


def tensor_by_invertible(raw, g):
    chars = characters(raw)
    n = raw.size
    cols = {key(column(chars, x)): x for x in range(n)}
    out = []
    for x in range(n):
        prod = key(a * b for a, b in zip(column(chars, x), column(chars, g)))
        if prod not in cols:
            raise DegeneracyError(
                f"{raw.labels[x]} (x) {raw.labels[g]} does not match any label")
        out.append(cols[prod])
    return tuple(out)


def lift(m, n):
    """The entries of ``m`` lifted to conductor n, one at a time."""
    return [e.lift(n) for e in m.entries]


def galois(m, j):
    """The entries of ``m`` conjugated by zeta -> zeta^j, one at a time."""
    return [e.galois(j) for e in m.entries]


def project(y, m):
    """y at conductor m (m | y.conductor), or None when it is not in
    Q(zeta_m): a dense Gauss-Jordan solve over Fraction of
    sum_i x_i zeta_m^i = y, with the zeta_m^i written at y's conductor."""
    n = y.conductor
    phi_m, rows = euler_phi(m), len(y.num)
    cols = [root_of_unity(n, i * (n // m)).num for i in range(phi_m)]
    aug = [[Fraction(cols[c][r]) for c in range(phi_m)] + [Fraction(y.num[r], y.den)]
           for r in range(rows)]
    pr = 0
    for pc in range(phi_m):
        piv = next((r for r in range(pr, rows) if aug[r][pc]), None)
        if piv is None:
            continue
        aug[pr], aug[piv] = aug[piv], aug[pr]
        inv = 1 / aug[pr][pc]
        aug[pr] = [v * inv for v in aug[pr]]
        for r in range(rows):
            if r != pr and aug[r][pc]:
                f = aug[r][pc]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[pr])]
        pr += 1
    # the columns are linearly independent, so row c holds x_c
    if any(aug[r][-1] for r in range(phi_m, rows)):
        return None
    cand = from_coeffs(m, [aug[c][-1] for c in range(phi_m)])
    return cand if cand.lift(n) == y else None


def minimal(y):
    """y at the smallest divisor of its conductor whose field holds it."""
    n = y.conductor
    return next(p for d in range(1, n + 1) if n % d == 0 and (p := project(y, d)) is not None)


def rank(m):
    """Rank over Q(zeta_N) by exact Gaussian elimination (first nonzero pivot)."""
    work = [list(m.row(i)) for i in range(m.rows)]
    out = 0
    for col in range(m.cols):
        piv = next((r for r in range(out, m.rows) if work[r][col]), None)
        if piv is None:
            continue
        work[out], work[piv] = work[piv], work[out]
        inv = work[out][col].inv()
        work[out] = [v * inv for v in work[out]]
        for r in range(out + 1, m.rows):
            f = work[r][col]
            if f:
                work[r] = [a - f * b for a, b in zip(work[r], work[out])]
        out += 1
        if out == m.rows:
            break
    return out


def matrix_to_json(m):
    """The JSON object of a matrix, built one scalar object per entry."""
    n, den, cols = m.conductor, m.den, m.cols
    flat = m.num.reshape(m.num.shape[0], m.rows * cols).T.tolist()
    entries = [{"conductor": n, "coeffs": [_ratio_text(v, den) for v in c]} for c in flat]
    return {"rows": m.rows, "cols": cols,
            "entries": [entries[i * cols:(i + 1) * cols] for i in range(m.rows)]}


def cyc_to_json(x):
    return {"conductor": x.conductor, "coeffs": [_ratio_text(v, x.den) for v in x.num]}


def datum_to_json(datum):
    """The JSON object of a datum file; ``json.dumps(obj, indent=1)`` of it is
    the file's text."""
    if isinstance(datum, ModularDatum):
        return {"labels": list(datum.labels), "unit": datum.unit,
                "conductor": datum.s_matrix.conductor, "kind": KIND_NORMALIZED,
                "S": matrix_to_json(datum.s_matrix),
                "T": [cyc_to_json(t) for t in datum.t_diag]}
    out = {"labels": list(datum.labels), "unit": datum.unit,
           "conductor": datum.s_matrix.conductor, "kind": datum.kind,
           "S": matrix_to_json(datum.s_matrix),
           "twists": [cyc_to_json(t) for t in datum.twists]}
    if datum.duality is not None:
        out["duality"] = list(datum.duality)
    if datum.duality_signs is not None:
        out["duality_signs"] = list(datum.duality_signs)
    return out


def inverses(values):
    """The inverse of each value, one ``CycNum.inv`` (a Galois norm) at a time."""
    return [v.inv() for v in values]


def dims(raw):
    """dim_r, dim_l, the squared norms and their sum D, one scalar at a time,
    on a datum whose duality is present."""
    dim_r = raw.s_matrix.row(raw.unit)
    signs = raw.duality_signs or (1,) * raw.size
    dim_l = tuple(dim_r[raw.duality[x]] if signs[x] == 1 else -dim_r[raw.duality[x]]
                  for x in range(raw.size))
    sqnorm = tuple(r * l for r, l in zip(dim_r, dim_l))
    return dim_r, dim_l, sqnorm, sum(sqnorm, CycNum.from_rational(0))


def gauss(raw):
    """tau_plus = sum theta |X|^2 and tau_minus = sum theta^-1 |X|^2, one
    scalar at a time."""
    sqnorm = dims(raw)[2]
    zero = CycNum.from_rational(0)
    return (sum((q * t for q, t in zip(sqnorm, raw.twists)), zero),
            sum((q * t for q, t in zip(sqnorm, inverses(raw.twists))), zero))


def twist_laws(raw):
    """For each of the checks twist_dual_dim, twist_bar, twist_tau_plus_rows
    and twist_tau_minus_rows, the labels at which it fails, in label order,
    one scalar at a time."""
    dim_r, dim_l, _, _ = dims(raw)
    t = raw.twists
    t_inv = inverses(t)
    tau_plus, tau_minus = gauss(raw)
    bar_of, unit_bar = bar(raw)
    tb = t[unit_bar]
    s, labels = raw.s_matrix, range(raw.size)

    def row_sum(weights, y):
        return sum((weights[x] * s[x, y] for x in labels), CycNum.from_rational(0))

    plus = [t[x] * dim_l[x] for x in labels]
    minus = [t_inv[x] * dim_r[x] for x in labels]
    return {
        "twist_dual_dim": [x for x in labels if t[raw.duality[x]] * dim_r[x] != t[x] * dim_l[x]],
        "twist_bar": [x for x in labels if t[bar_of[x]] != t[x] * tb],
        "twist_tau_plus_rows": [y for y in labels
                                if row_sum(plus, y) != t_inv[y] * dim_r[y] * tau_plus],
        "twist_tau_minus_rows": [y for y in labels
                                 if row_sum(minus, y) != tb * t[y] * dim_r[y] * tau_minus],
    }


def rows(m):
    """The entries of a matrix as a list of rows of scalars."""
    return [list(m.row(i)) for i in range(m.rows)]


def matmul(a, b):
    """The product of two lists of rows of scalars, one scalar at a time."""
    zero = CycNum.from_rational(0)
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
            for i in range(len(a))]


def scalar_identity(n, c):
    """c Id as a list of rows of scalars."""
    zero = CycNum.from_rational(0)
    return [[c if i == j else zero for j in range(n)] for i in range(n)]


def first_difference(lhs, rhs):
    """The first (i, j), in row-major order, at which two lists of rows of
    scalars differ, compared one scalar at a time; None when none does."""
    return next(((i, j) for i, (a, b) in enumerate(zip(lhs, rhs))
                 for j, (x, y) in enumerate(zip(a, b)) if x != y), None)


def world_sides(raw, tensor=None):
    """The two sides of each matrix and row identity of the world suite on a
    datum whose duality is present, as lists of rows of scalars, one scalar
    at a time: raw_unitarity, sl2_st_cubed, sl2_s_fourth, sl2_st_inv_cubed,
    twist_tau_plus_rows, twist_tau_minus_rows and, given the structure
    constants ``tensor``, balancing."""
    n, s = raw.size, rows(raw.s_matrix)
    labels = range(n)
    dim_r, dim_l, _, d = dims(raw)
    t = raw.twists
    t_inv = inverses(t)
    tau_plus, tau_minus = gauss(raw)
    unit_bar = bar(raw)[1]
    u, tb = dim_r[unit_bar], t[unit_bar]
    s2 = matmul(s, s)

    def cube(m):
        return matmul(matmul(m, m), m)

    sides = {
        "raw_unitarity": (matmul(s, [[e.conj() for e in col] for col in zip(*s)]),
                          scalar_identity(n, d)),
        "sl2_st_cubed": (cube([[s[x][y] * t_inv[y] for y in labels] for x in labels]),
                         [[tau_minus * e for e in row] for row in s2]),
        "sl2_s_fourth": (matmul(s2, s2), scalar_identity(n, d * u * d * u)),
        "sl2_st_inv_cubed": (cube([[s[x][y] * t[y] for y in labels] for x in labels]),
                             scalar_identity(n, tau_plus * d * u * u)),
        "twist_tau_plus_rows": (matmul([[t[x] * dim_l[x] for x in labels]], s),
                                [[t_inv[y] * dim_r[y] * tau_plus for y in labels]]),
        "twist_tau_minus_rows": (matmul([[t_inv[x] * dim_r[x] for x in labels]], s),
                                 [[tb * t[y] * dim_r[y] * tau_minus for y in labels]]),
    }
    if tensor is not None:
        zero = CycNum.from_rational(0)
        sides["balancing"] = (
            [[t[x] * t[y] * s[x][y] for y in labels] for x in labels],
            [[sum((int(tensor[x, y, z]) * (dim_r[z] * t[z]) for z in labels if tensor[x, y, z]),
                  zero) for y in labels] for x in labels])
    return sides


def axiom_sides(datum):
    """The two sides of each matrix identity of the axiom suite, as lists of
    rows of scalars, one scalar at a time: s_symmetric, s_unitary,
    s_fourth_identity, st_cubed_scalar ((S T)^3 against its first entry
    times Id) and s_squared_t_commute."""
    n, s, t = datum.size, rows(datum.s_matrix), datum.t_diag
    labels = range(n)
    s2 = matmul(s, s)
    st = [[s[x][y] * t[y] for y in labels] for x in labels]
    st3 = matmul(matmul(st, st), st)
    one = CycNum.from_rational(1)
    return {
        "s_symmetric": (s, [list(col) for col in zip(*s)]),
        "s_unitary": (matmul(s, [[e.conj() for e in col] for col in zip(*s)]),
                      scalar_identity(n, one)),
        "s_fourth_identity": (matmul(s2, s2), scalar_identity(n, one)),
        "st_cubed_scalar": (st3, scalar_identity(n, st3[0][0])),
        "s_squared_t_commute": ([[s2[x][y] * t[y] for y in labels] for x in labels],
                                [[t[x] * s2[x][y] for y in labels] for x in labels]),
    }


def basic_failures(raw):
    """For each of the checks s_raw_symmetric, dims_nonzero and
    twists_nonzero, where it fails, in row-major resp. label order: the
    (i, j) with S[i, j] != S[j, i], the labels x with S[unit, x] = 0 and the
    labels with twist 0."""
    s, labels = raw.s_matrix, range(raw.size)
    return {"s_raw_symmetric": [(i, j) for i in labels for j in labels if s[i, j] != s[j, i]],
            "dims_nonzero": [x for x in labels if s[raw.unit, x].is_zero()],
            "twists_nonzero": [x for x in labels if raw.twists[x].is_zero()]}


def split_tables(n, p):
    """The evaluation matrix of the roots w^e of Phi_n modulo p (e the units
    mod n) and its inverse.  The polynomial with the value 1 at w^e and 0 at
    the other n-th roots of unity is the inverse DFT sum_t n^-1 w^(-e t) x^t;
    its remainder modulo Phi_n, column e of the inverse, takes the same values
    at the roots of Phi_n."""
    w = _root_of_order(n, p)
    powers = [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * w % p)
    powers = np.array(powers, dtype=np.int64)
    units = np.array([e for e in range(n) if math.gcd(e, n) == 1])
    ev = powers[np.outer(units, np.arange(len(units))) % n]
    back = powers[np.outer(np.arange(n), -units) % n] * pow(n, -1, p) % p
    iv = reduce(with_bound(back, n * p * max_row(n)), n) % p
    return ev, iv.astype(np.int64)


def match_lines(src, dst):
    """For each line i of ``dst``, the first line j of ``src`` whose values,
    read one Python integer at a time, equal those of line i; None when none
    does."""
    lines = [src[:, j].ravel().tolist() for j in range(src.shape[1])]
    return [next((j for j, line in enumerate(lines) if line == dst[:, i].ravel().tolist()), None)
            for i in range(dst.shape[1])]


def signed_permutation(m):
    """(perm, signs) read off the square matrix ``m`` one row at a time: a
    single nonzero entry per row, 1 or -1, in columns that form a
    permutation; None otherwise."""
    n = len(m)
    hits = [[j for j in range(n) if m[i, j] != 0] for i in range(n)]
    if any(len(h) != 1 or m[i, h[0]] not in (1, -1) for i, h in enumerate(hits)):
        return None
    perm = tuple(h[0] for h in hits)
    if sorted(perm) != list(range(n)):
        return None
    return perm, tuple(int(m[i, perm[i]]) for i in range(n))


def tensor_duality(table, unit):
    """The duality read off N_{i,j}^unit one row at a time: one entry +-1 per
    row, forming a permutation; None otherwise."""
    n = table.shape[0]
    out = []
    for i in range(n):
        hits = [j for j in range(n) if table[i, j, unit]]
        if len(hits) != 1 or abs(table[i, hits[0], unit]) != 1:
            return None
        out.append(hits[0])
    if sorted(out) != list(range(n)):
        return None
    return tuple(out)


def epsilon_action_from_fusion(fusion, eps):
    """X -> eps (x) X read off N_{eps,X} one row at a time: a single 1 per
    row, and the rows' labels form a permutation."""
    n = len(fusion.labels)
    act = []
    for x in range(n):
        hits = [z for z in range(n) if fusion.table[eps, x, z]]
        if len(hits) != 1 or fusion.table[eps, x, hits[0]] != 1:
            raise ValueError(f"label {fusion.labels[eps]} does not tensor invertibly")
        act.append(hits[0])
    if sorted(act) != list(range(n)):
        raise ValueError(f"label {fusion.labels[eps]} does not tensor invertibly")
    return tuple(act)


def fold(row, signed):
    """A row N_{X,Y}^- of a fusion tensor on the full labels pushed through the
    quotient by sVect^-, one label at a time: the coefficient of each label Z,
    times its sign, added at the index of its orbit.  ``signed`` gives each
    label's (index, sign), as :meth:`SlightlyDegenerateData.signed_reps` does."""
    out = [0] * (len(signed) // 2)
    for z, m in enumerate(row):
        i, sign = signed[z]
        out[i] += sign * int(m)
    return out


def unit_law_holds(fusion):
    n = len(fusion.labels)
    eye = np.eye(n, dtype=fusion.table.dtype)
    return bool(np.array_equal(fusion.table[fusion.unit], eye)
                and np.array_equal(fusion.table[:, fusion.unit, :], eye))


def duality_law_holds(fusion):
    n = len(fusion.labels)
    want = np.zeros((n, n), dtype=fusion.table.dtype)
    for i, d in enumerate(fusion.duality):
        want[i, d] = 1
    return bool(np.array_equal(fusion.table[:, :, fusion.unit], want))


def is_associative(fusion):
    # sum_m N_{ij}^m N_{mk}^l == sum_m N_{jk}^m N_{im}^l for all i,j,k,l
    t = fusion.table
    lhs = np.einsum("ijm,mkl->ijkl", t, t)
    rhs = np.einsum("jkm,iml->ijkl", t, t)
    return bool(np.array_equal(lhs, rhs))


def fusion_law_failures(fusion):
    """The fusion-ring laws a tensor breaks, by name; empty when it is one."""
    problems = []
    if not unit_law_holds(fusion):
        problems.append("unit law fails")
    if not duality_law_holds(fusion):
        problems.append("duality law fails")
    if not is_associative(fusion):
        problems.append("associativity fails")
    return problems
