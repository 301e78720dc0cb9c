"""Matrix arithmetic on entry dicts, for the tests.

A matrix is its entry dict {(row, col): value} and a vector its entry dict
{label: value}, as in the package, which itself needs only
``exactla.apply``.
Every result here is stored as the package stores it: each value through
``scalar``, the zeros dropped.
"""

from rootgraded.exactla import add_scaled, scalar


def lin(*terms):
    """sum c * x over the (c, x) pairs of entry dicts."""
    out = {}
    for c, x in terms:
        add_scaled(out, x, c)
    return {key: scalar(v) for key, v in out.items()}


def unit(j, k):
    """The matrix unit e_{j,k}: v_k -> v_j."""
    return {(j, k): 1}


def product(x, y):
    """The matrix product x y."""
    rows = {}
    for (t, c), w in y.items():
        rows.setdefault(t, []).append((c, w))
    out = {}
    for (r, t), v in x.items():
        for c, w in rows.get(t, ()):
            out[r, c] = out.get((r, c), 0) + v * w
    return {key: scalar(s) for key, s in out.items() if s}


def commutator(x, y):
    """[x, y] = x y - y x."""
    return lin((1, product(x, y)), (-1, product(y, x)))


def transpose(x):
    return {(c, r): v for (r, c), v in x.items()}


def trace(x):
    return sum((v for (r, c), v in x.items() if r == c), 0)
