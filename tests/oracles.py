"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately written with plain Python loops over
``itertools.product`` and the ``math`` module, so it shares no code path
with the package's vectorised implementations.  The exceptions are the
package's former code kept as references: ``markov_walk``, the
per-step walk (a bit-identical log-probability needs the same numpy
arithmetic), ``posterior_csv``, the per-row posterior CSV writer, and
``typical_set_by_enumeration``, the typical set reduced from the sequential
joint table of every plaintext; and ``solved_stationary_law``, one dense
numpy solve, which shares no step with the package's elimination or power
iteration.
"""

import itertools
import math

import numpy as np


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


def solved_stationary_law(chain):
    """Stationary law of a chain with one closed class, by one dense linear solve.

    ``pi (I - P + 1 1^T) = 1^T`` has the stationary law as its only solution.
    """
    size = len(chain)
    return np.linalg.solve((np.eye(size) - np.asarray(chain) + 1.0).T, np.ones(size))


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


def model_file_text(n, k, table, header_lines=()):
    """The model-file text of a (n**k, n) table, formatted entry by entry.

    This is the writer ``save_model`` had before it formatted each distinct
    value once: every probability is ``%.17g`` of its own float.
    """
    lines = [f"# {line}" for line in header_lines] + [f"n {n}", f"order {k}"]
    for state, row in enumerate(table.tolist()):
        symbols = []
        for _ in range(k):
            state, sym = divmod(state, n)
            symbols.insert(0, str(sym))
        label = ",".join(symbols) or "-"
        lines.append(f"row {label} " + " ".join("%.17g" % p for p in row))
    return "\n".join(lines) + "\n"


def markov_walk(model, uniforms):
    """``(words, log2_probs)`` of ``sources._walk_batch``, one row gather per step.

    This is the walk ``_walk_batch`` had before its transposed thresholds and
    packed (context, symbol) index: each step gathers the batch's rows of the
    full cumulative table, counts the entries <= u and clips the count at
    n - 1.  Words are (batch, t) in row order.
    """
    n, k = model.alphabet_size, model.order
    states = model.num_states
    batch, width = uniforms.shape
    t = width - 1

    def log2_safe(p):
        return np.log2(p, out=np.full_like(p, -np.inf), where=p > 0.0)

    cum_init = np.cumsum(model.stationary)
    state = np.minimum(np.searchsorted(cum_init, uniforms[:, 0], side="right"), states - 1)
    log_t = log2_safe(model.transition)
    if k == 0:
        cum = np.cumsum(model.transition[0])
        words = np.minimum(np.searchsorted(cum, uniforms[:, 1:], side="right"), n - 1)
        words = words.astype(np.int64)
        return words, log_t[0][words].sum(axis=1)
    cum_t = np.cumsum(model.transition, axis=1)
    words = np.empty((batch, t), dtype=np.int64)
    log_probs = np.zeros(batch)
    head_state = np.zeros(batch, dtype=np.int64)
    for i in range(t):
        u = uniforms[:, i + 1]
        sym = (cum_t[state] <= u[:, None]).sum(axis=1)
        np.minimum(sym, n - 1, out=sym)
        words[:, i] = sym
        if i >= k:
            log_probs += log_t[state, sym]
        state = (state * n + sym) % states
        if i == k - 1:
            head_state = state.copy()
    if t >= k:
        log_probs += log2_safe(model.stationary)[head_state]
    else:
        # one value a row, also for words of no symbols
        index = np.ravel_multi_index(words.T, (n,) * t) if t else np.zeros(batch, int)
        log_probs = model._log2_marginal(t)[index]
    return words, log_probs


def word_text(word, n):
    """A word's text, built without the package's symbol table.

    One character of ``0-9a-z`` a symbol for n <= 36, else the decimal
    symbols joined by commas.
    """
    symbols = "0123456789abcdefghijklmnopqrstuvwxyz"
    if n <= len(symbols):
        return "".join(symbols[s] for s in word)
    return ",".join(map(str, word))


def posterior_csv(n, t, blocks):
    """The posterior CSV text of ``(start, values)`` blocks, one row at a time.

    The package's former per-row writer kept as a reference, with each
    plaintext's text built here in plain Python: :func:`word_text` of its
    base-n digits, quoted when it holds a comma; each value is
    ``f"{v:.12g}"``.
    """
    lines = ["plaintext,log2_posterior\n"]
    for start, block in blocks:
        for index, value in enumerate(block.tolist(), start):
            word = [0] * t
            for pos in range(t - 1, -1, -1):
                index, word[pos] = divmod(index, n)
            text = word_text(word, n)
            if "," in text:
                text = f'"{text}"'
            lines.append(f"{text},{value:.12g}\n")
    return "".join(lines)


def typical_set_by_enumeration(xm, ym, spec, z, epsilon, h_ref):
    """``(count, mass, spread, members)`` of the typical set over all n**t plaintexts.

    The package's former construction kept as a reference: the posterior of
    every plaintext, the sequential sums of ``joint_log2_table`` minus the
    forward's log2 P(z) (not the posterior's two halves, which the typical set
    shares), reduced to the strict band ``|-(1/t) log2 P(x|z) - h_ref| < eps/2``.
    """
    from runkey import inference

    t = len(z)
    table = (inference.joint_log2_table(xm, ym, spec, z)
             - inference.log_marginal_forward(xm, ym, spec, z))
    band = np.abs(-table / t - h_ref) < 0.5 * epsilon
    selected = table[band]
    count = selected.size
    mass = float(np.exp2(selected).sum())
    spread = float((selected.max() - selected.min()) / t) if count >= 2 else 0.0
    return count, mass, spread, np.flatnonzero(band)


def bias_loss_expansion(p, delta):
    """Second-order loss h(Z) - h(Y) of an additive cipher whose key law is 1/n + delta.

    ``p`` is the plaintext's one-symbol (stationary) law and ``delta`` sums
    to 0.  To first order in delta, P(z^t) - n**-t is a sum of one-position
    terms of mean 0 whose cross terms vanish, so h(Y) = log2 n - n|delta|^2 /
    (2 ln 2) and h(Z) = log2 n - n|p * delta|^2 / (2 ln 2), * the cyclic
    convolution, each up to O(|delta|^3); the plaintext's memory does not
    enter.  For a binary key (1/2 - eps, 1/2 + eps) it is 8 eps**2 p0 p1 / ln 2.
    """
    p, delta = np.asarray(p, dtype=float), np.asarray(delta, dtype=float)
    n = delta.size
    shifted = delta[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]  # [z, x]: delta[z - x]
    convolved = shifted @ p
    return n * (delta @ delta - convolved @ convolved) / (2.0 * math.log(2.0))
