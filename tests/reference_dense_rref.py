"""The dense-row integer RREF of exact_linalg, kept as a reference.

exact_linalg._rref now scales each row's nonzeros straight into an integer
dict {j: m_j}, eliminates those dicts and returns its pivot rows as dicts
of Fractions.  Before that, _integer_rows expanded every row into a dense
integer list of length ncols, and _rref eliminated the dense lists and
returned dense Fraction rows.  Both are kept here verbatim.
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _integer_rows(m, ncols: int) -> list[list[int]]:
    # Row scaling by the denominator lcm preserves rank, null space and RREF.
    out = []
    for row in m:
        pairs = row.items() if isinstance(row, dict) else enumerate(row)
        nonzero = [(j, e) for j, e in pairs if e]
        scale = lcm(*(e.denominator for _, e in nonzero))
        ints = [0] * ncols
        for j, e in nonzero:
            ints[j] = e.numerator * (scale // e.denominator)
        out.append(ints)
    return out


def _rref(m, ncols: int):
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Gauss-Jordan over the integers: rows are scaled to integers, and every
    updated row is divided by the gcd of its entries, so it stays primitive
    and coefficients stay bounded.  Each row of m is a dense tuple of
    length ncols or a dict {j: m_j} of its nonzero entries; entries are
    Fraction or int.  Fractions are built for the returned pivot rows only.
    """
    rows = _integer_rows(m, ncols)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                new = [piv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new) or 1
                rows[i] = [x // g for x in new]
        pivots.append(c)
        r += 1
    return [
        [Fraction(e, row[c]) if e else _ZERO for e in row] for row, c in zip(rows, pivots)
    ], pivots
