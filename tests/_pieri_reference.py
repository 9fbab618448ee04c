"""The deformed family in the Q basis by the Pieri rule: the reference that
the bar-rule columns of `symfunc._g_tilde_vector` are checked against.

Each one-part function g-tilde_(r) is a combination of two-row Q-functions,
and those are quadratic in the q_r, so g-tilde_mu = prod_i g-tilde_(mu_i) is
built as a vector over strict partitions by Pieri steps Q_mu q_r, with
integer polynomials in v, held as ascending int sequences, as coefficients.
"""

from spinhecke.scalars import _poly_add, _poly_mul


def _strips(mu: tuple, r: int) -> list:
    """(lambda, e) with Q_mu q_r = sum 2^e Q_lambda (Macdonald III (8.15)).

    lambda runs over the strict partitions with lambda_1 >= mu_1 >= lambda_2
    >= mu_2 >= ... and r more boxes, i.e. lambda/mu is a horizontal strip, and
    e = a(lambda/mu) + len(mu) - len(lambda), where a(lambda/mu) counts the
    columns i of the unshifted diagrams that hold a box of the strip while
    column i + 1 holds none.  Row i of the strip fills the columns
    mu_i + 1 .. lambda_i, so a counts its runs: one per non-empty row, less
    one wherever lambda_i = mu_(i-1) joins row i to a non-empty row above.

    >>> _strips((2,), 2)
    [((3, 1), 1), ((4,), 1)]
    """
    low = mu + (0,)
    out = []

    def grow(i, left, parts, runs):
        if i == len(low):
            if not left:
                lam = parts if parts[-1] else parts[:-1]
                out.append((lam, runs + len(mu) - len(lam)))
            return
        top = low[i] + left if i == 0 else min(low[i - 1], low[i] + left)
        for part in range(low[i], top + 1):
            if i and part == parts[-1]:
                continue  # lambda_i = lambda_(i-1) = mu_(i-1): not strict
            joined = i and part == low[i - 1] and parts[-1] > low[i - 1]
            run = part > low[i] and not joined
            grow(i + 1, left - part + low[i], parts + (part,), runs + run)

    grow(0, r, (), 0)
    return out


def _times_q(vec: dict, r: int) -> dict:
    """vec * q_r by the Pieri rule; q_0 = 1."""
    if not r:
        return vec
    out: dict = {}
    for mu, coeff in vec.items():
        for lam, e in _strips(mu, r):
            term = [c << e for c in coeff] if e else coeff
            cur = out.get(lam)
            out[lam] = term if cur is None else _poly_add(cur, term)
    return out


def _one_part_pairs(r: int) -> list:
    """(y, d_y) with g-tilde_(r) = sum_y d_y q_(r-y) q_y.

    g-tilde_(r) = sum over a > b >= 0, a + b = r of
    c_b Q_(a,b), c_b = (-1)^(r-1) (-v)^b [a-b]_(-v), where
    [k]_x = 1 + x + ... + x^(k-1); substituting
    Q_(a,b) = q_a q_b + 2 sum_{k=1..b} (-1)^k q_(a+k) q_(b-k) (Macdonald
    III (8.2')) gives d_y = c_y + 2 sum_{b>y} (-1)^(b-y) c_b.
    """
    top = (r - 1) // 2
    c = []
    for b in range(top + 1):
        poly = [0] * (r - b)
        for j in range(r - 2 * b):
            poly[b + j] = -1 if (r - 1 + b + j) % 2 else 1
        c.append(poly)
    pairs = []
    for y in range(top + 1):
        d = c[y]
        for b in range(y + 1, top + 1):
            factor = -2 if (b - y) % 2 else 2
            d = _poly_add(d, [factor * x for x in c[b]])
        pairs.append((y, d))
    return pairs


def _times_g_tilde_one_part(vec: dict, r: int) -> dict:
    out: dict = {}
    for y, d in _one_part_pairs(r):
        for lam, coeff in _times_q(_times_q(vec, y), r - y).items():
            term = _poly_mul(d, coeff)
            cur = out.get(lam)
            out[lam] = term if cur is None else _poly_add(cur, term)
    return {lam: coeff for lam, coeff in out.items() if any(coeff)}


def _g_tilde_vector(mu: tuple, memo: dict) -> dict:
    vec = memo.get(mu)
    if vec is None:
        if mu:
            vec = _times_g_tilde_one_part(_g_tilde_vector(mu[1:], memo), mu[0])
        else:
            vec = {(): [1]}
        memo[mu] = vec
    return vec
