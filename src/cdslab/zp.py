"""Reduced row echelon form over Z_p, the one elimination ``protocols``' coset
kernel and ``algebra``'s span membership share; it imports nothing, so a
span build loads it without ``protocols`` and a pad route without ``algebra``.
"""


def echelon(rows, p: int) -> tuple:
    """Reduced row echelon form over Z_p (p prime) of equal-length ``rows``.

    Returns (basis, pivots): the nonzero reduced rows, as tuples, and the
    column of each one's leading 1; every other basis row is 0 there. Pivots
    are taken column by column, each from the first unused row with a nonzero
    entry, so the result depends only on ``rows`` and their order.
    """
    rows = [[v % p for v in row] for row in rows]
    width = len(rows[0]) if rows else 0
    pivots = []
    for col in range(width):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(v - factor * w) % p for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
    return [tuple(row) for row in rows[:len(pivots)]], pivots
