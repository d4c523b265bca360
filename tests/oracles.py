"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately written with plain Python loops over
``itertools.product`` and the ``math`` module, so it shares no code path
with the package's vectorised implementations.
"""

import itertools
import math


def dist_entropy(probs):
    """Shannon entropy of a finite distribution, bits."""
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def binary_entropy(p):
    return dist_entropy([p, 1.0 - p])


def markov_word_prob(stationary, transition, n, k, word):
    """P(word) for an order-k chain straight from its raw tables."""
    word = list(word)
    head = min(len(word), k)
    if head:
        total = 0.0
        for tail in itertools.product(range(n), repeat=k - head):
            idx = 0
            for sym in word[:head] + list(tail):
                idx = idx * n + sym
            total += stationary[idx]
    else:
        total = 1.0
    state = 0
    for sym in word[:head]:
        state = state * n + sym
    prob = total
    for sym in word[head:]:
        prob *= transition[state][sym]
        state = (state * n + sym) % (n**k) if k else 0
    return prob


def _block_prob(model, word):
    """P(word) under a package model, from its raw tables."""
    return markov_word_prob(
        model.stationary.tolist(), model.transition.tolist(),
        model.alphabet_size, model.order, word,
    )


def posterior_table(xm, ym, n, z):
    """(dict word -> P(x|z), log2 P(z)) by exhaustive enumeration, mod-n cipher."""
    t = len(z)
    joint = {}
    for x in itertools.product(range(n), repeat=t):
        y = [(int(zi) - xi) % n for xi, zi in zip(x, z)]
        joint[x] = _block_prob(xm, list(x)) * _block_prob(ym, y)
    total = sum(joint.values())
    return {x: p / total for x, p in joint.items()}, math.log2(total)


def log_marginal(xm, ym, spec, z):
    """log2 P(z) under any cipher, summed over every key word.

    Each key word y deciphers z to exactly one plaintext x_i = d(z_i, y_i), so
    P(z) is the sum of P_X(x) P_Y(y) over the n**t key words; -inf when zero.
    """
    n = spec.alphabet_size
    decoder = spec.decoder.tolist()
    tables = [
        (m.stationary.tolist(), m.transition.tolist(), m.order) for m in (xm, ym)
    ]
    (pi_x, tx, kx), (pi_y, ty, ky) = tables
    z = [int(v) for v in z]
    total = 0.0
    for y in itertools.product(range(n), repeat=len(z)):
        x = [decoder[zi][yi] for zi, yi in zip(z, y)]
        total += markov_word_prob(pi_x, tx, n, kx, x) * markov_word_prob(
            pi_y, ty, n, ky, list(y)
        )
    return math.log2(total) if total > 0.0 else -math.inf


def hm_joint_pair_blocks(xm, ym, n, m):
    """h_m(X, Z) by enumerating every (plaintext block, ciphertext block) pair."""
    length = m + 1
    total = 0.0
    for x in itertools.product(range(n), repeat=length):
        px = _block_prob(xm, list(x))
        for z in itertools.product(range(n), repeat=length):
            y = [(zi - xi) % n for xi, zi in zip(x, z)]
            p = px * _block_prob(ym, y)
            if p > 0.0:
                total -= p * math.log2(p)
    return total / length


def hm_z_pair_blocks(xm, ym, n, m):
    """h_m(Z) by accumulating the ciphertext block law over all pairs."""
    length = m + 1
    law = {}
    for x in itertools.product(range(n), repeat=length):
        px = _block_prob(xm, list(x))
        for z in itertools.product(range(n), repeat=length):
            y = [(zi - xi) % n for xi, zi in zip(x, z)]
            law[z] = law.get(z, 0.0) + px * _block_prob(ym, y)
    return -sum(p * math.log2(p) for p in law.values() if p > 0.0) / length


def context_matrix(transition, n, k):
    """Dense transition matrix over the n**k packed contexts of an order-k table."""
    size = n**k
    matrix = [[0.0] * size for _ in range(size)]
    for s in range(size):
        for a in range(n):
            matrix[s][(s * n + a) % size] += transition[s][a]
    return matrix


def product_operators(xm, ym, spec):
    """Per-ciphertext-symbol operators of the (plaintext, key) context chain.

    ``ops[v][s][s2]`` sums ``T_X[sx][a] * T_Y[sy][b]`` over every symbol pair
    (a, b) the cipher maps to v, from state ``s = sx * Sy + sy`` to the pair of
    successor contexts.
    """
    n = spec.alphabet_size
    tx, ty = xm.transition.tolist(), ym.transition.tolist()
    sx_count, sy_count = len(tx), len(ty)
    size = sx_count * sy_count
    ops = [[[0.0] * size for _ in range(size)] for _ in range(n)]
    for sx, sy, a, b in itertools.product(
        range(sx_count), range(sy_count), range(n), range(n)
    ):
        target = ((sx * n + a) % sx_count) * sy_count + (sy * n + b) % sy_count
        v = int(spec.coder[a][b])
        ops[v][sx * sy_count + sy][target] += tx[sx][a] * ty[sy][b]
    return ops


def closed_class_count(matrix):
    """Closed communicating classes of a chain, by Warshall's transitive closure."""
    size = len(matrix)
    reach = [[i == j or matrix[i][j] > 0.0 for j in range(size)] for i in range(size)]
    for mid in range(size):
        for i in range(size):
            if reach[i][mid]:
                for j in range(size):
                    reach[i][j] = reach[i][j] or reach[mid][j]
    # a state lies in a closed class when every state it reaches reaches it back;
    # the class is then exactly the set of states it reaches
    classes = set()
    for i in range(size):
        reached = [j for j in range(size) if reach[i][j]]
        if all(reach[j][i] for j in reached):
            classes.add(tuple(reached))
    return len(classes)


def chi_square_stat(counts, expected):
    return sum((c - e) ** 2 / e for c, e in zip(counts, expected) if e > 0.0)


def z_block_entropies(xm, ym, spec, length):
    """(H(Z^j), H(Z^j | S_1)) for j = 0..length, under any cipher.

    Enumerates every start state (plaintext context, key context) with its
    stationary weight, then every plaintext word and key word from it,
    symbol pair by symbol pair; the ciphertext symbol is ``coder[a][b]``.
    H(Z^j | S_1) is the weighted mean of the per-state block entropies.
    """
    n = spec.alphabet_size
    coder = spec.coder.tolist()
    tx, ty = xm.transition.tolist(), ym.transition.tolist()
    sx_count, sy_count = len(tx), len(ty)
    plain = [{} for _ in range(length + 1)]
    conditional = [0.0] * (length + 1)

    def walk(given, depth, p, sx, sy, z):
        for a, b in itertools.product(range(n), repeat=2):
            q = p * tx[sx][a] * ty[sy][b]
            if q == 0.0:
                continue
            word = z + (coder[a][b],)
            given[depth + 1][word] = given[depth + 1].get(word, 0.0) + q
            if depth + 1 < length:
                walk(given, depth + 1, q, (sx * n + a) % sx_count,
                     (sy * n + b) % sy_count, word)

    for cx, cy in itertools.product(range(sx_count), range(sy_count)):
        weight = float(xm.stationary[cx]) * float(ym.stationary[cy])
        if weight <= 0.0:
            continue
        given = [{} for _ in range(length + 1)]
        walk(given, 0, 1.0, cx, cy, ())
        for j in range(1, length + 1):
            conditional[j] += weight * dist_entropy(given[j].values())
            for z, p in given[j].items():
                plain[j][z] = plain[j].get(z, 0.0) + weight * p
    return [dist_entropy(law.values()) for law in plain], conditional
