"""Reference integer sequences and prefix identification.

Each sequence is computed from its own defining rule (binomials or an
integer recurrence), independently of the path oracles and of the
series solver, so that agreement between a family count or a solved
series and its reference sequence is evidence rather than circularity.
"""

from __future__ import annotations

from enum import Enum
from math import comb

from .series import Poly


class SeqId(Enum):
    CATALAN = "CATALAN"
    MOTZKIN = "MOTZKIN"
    GEN_CATALAN = "GEN_CATALAN"
    POWERS_OF_TWO = "POWERS_OF_TWO"
    PARITY_BINOM = "PARITY_BINOM"
    ALL_ONES = "ALL_ONES"


def _motzkin(n: int) -> int:
    m = [1, 1]
    for k in range(2, n + 1):  # (k+2) M_k = (2k+1) M_{k-1} + 3(k-1) M_{k-2}; the division is exact
        m.append(((2 * k + 1) * m[k - 1] + 3 * (k - 1) * m[k - 2]) // (k + 2))
    return m[n]


def _gen_catalan(n: int) -> int:
    # G_m = G_{m-1} + sum G_k G_{m-2-k} (k = 1..m-2) as a linear recurrence, exact for k >= 4:
    # (k+2) G_k = (2k+1) G_{k-1} + (k-1) G_{k-2} + (2k-5) G_{k-3} - (k-4) G_{k-4}
    g = [1, 1, 1, 2]
    for k in range(4, n + 1):
        g.append(((2 * k + 1) * g[k - 1] + (k - 1) * g[k - 2] + (2 * k - 5) * g[k - 3]
                  - (k - 4) * g[k - 4]) // (k + 2))
    return g[n]


GEN_CATALAN_IDENTITY = (Poly.z(2) * Poly.var("G", 2)
                        - (Poly.const(1) - Poly.z() + Poly.z(2)) * Poly.var("G") + Poly.const(1))
"""z^2 G^2 - c G + 1 with c = 1 - z + z^2: zero at the GEN_CATALAN terms.

It encodes the radical form G = (c - sqrt(D)) / 2z^2, where
D = 1 - 2z - z^2 - 2z^3 + z^4: clearing the root gives
4z^4 G^2 - 4z^2 c G + c^2 - D = 0, and c^2 - D = 4z^2.  Coefficient n
reads G_n = G_(n-1) - G_(n-2) + [z^(n-2)] G^2, plus 1 at n = 0, so the
identity fixes every term from the ones below it: a residual zero to
order N says the same as the radical form to order N.
"""


def reference(seq: SeqId, n: int) -> int:
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if seq is SeqId.CATALAN:
        return comb(2 * n, n) // (n + 1)
    if seq is SeqId.MOTZKIN:
        return _motzkin(n)
    if seq is SeqId.GEN_CATALAN:
        return _gen_catalan(n)
    if seq is SeqId.POWERS_OF_TWO:
        return 1 if n == 0 else 2 ** (n - 1)
    if seq is SeqId.PARITY_BINOM:
        # count of even-height-free paths of semilength n: the empty path,
        # then C(2k-1, k) at n = 2k and C(2k, k) at n = 2k + 1
        if n == 0:
            return 1
        return comb(n - 1, n // 2) if n % 2 == 0 else comb(n - 1, (n - 1) // 2)
    if seq is SeqId.ALL_ONES:
        return 1
    raise ValueError(f"unknown sequence {seq!r}")


def identify(prefix) -> list[SeqId]:
    """All sequences whose initial terms equal the given prefix (offset 0)."""
    terms = list(prefix)
    if len(terms) < 4:
        raise ValueError(f"need at least 4 terms to identify, got {len(terms)}")
    return [sid for sid in SeqId
            if all(reference(sid, i) == t for i, t in enumerate(terms))]
