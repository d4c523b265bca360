"""Exact posterior and entropy analysis of the (plaintext, ciphertext) pair.

For independent sources X (plaintext) and Y (key) pushed through a
key-recoverable running-key cipher, the joint probability of a plaintext
word and an observed ciphertext factorises as ``P_X(x) * P_Y(y(x, z))``
with ``y(x, z)`` the unique key word mapping x to z.  Everything here is
built on that identity:

- :func:`posterior` enumerates all ``n**t`` plaintexts of an observed
  ciphertext exactly (log-space throughout, at most ``DEFAULT_WORD_CAP``
  words);
- :func:`log_marginal_forward` computes ``log2 P(z)`` in time linear in t by
  a scaled forward recursion.  Given z, one source's symbols follow from the
  other's, so the recursion runs over the last K symbols of one source, the
  driver (one stacked matmul a step, over at most max(S, n) states for a
  key-recoverable cipher when the product chain has S), not over the
  product chain itself;
- :func:`z_block_entropies` and the brackets enumerate the ciphertext
  prefix tree on the same step, depth first: its rows are prefixes (paired
  with the hidden start state for the lower end) and its columns the
  driver's last K symbols.  No computation uses the product chain's S x S
  operators;
- :func:`hm_conditional` evaluates the m-order conditional entropy
  ``h_m(X|Z) = h_m(X) + h_m(Y) - h_m(Z)`` (the joint block law of (X, Z) is
  a bijective re-indexing of the independent (X, Y) law);
- :func:`hz_bracket` / :func:`hxz_bracket` sandwich the entropy rate of the
  ciphertext process, which is a function of a hidden Markov chain and has
  no closed form, between the standard monotone conditional-entropy bounds
  ``H(Z_{m+1} | Z_1..Z_m, S_1) <= h(Z) <= H(Z_{m+1} | Z_1..Z_m)``.  The
  lower end is the joint-entropy difference
  ``H(Z_1..Z_{m+1}, S_1) - H(Z_1..Z_m, S_1)`` (the ``H(S_1)`` terms
  cancel), so one enumeration gives both ends for every order up to m,
  and that trail is certified monotone.

Enumerations run over fixed-size index blocks, one after another in index
order, so their working memory stays bounded.  The caps are module constants
checked where the memory is allocated, not arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cipher import CipherSpec
from .errors import (
    CertificationError,
    EnumerationCapError,
    StateCapError,
    UnsupportedCipherError,
)
from .sources import DEFAULT_WORD_CAP, SourceModel, _log2_safe, _open_for, xlog2x
from .words import as_word, digits, render, word_to_index

# stored entries of the product-chain operators, n * n * S before the build
# sums duplicates; a byte-alphabet pair with S = 256 contexts is exactly at it
DEFAULT_ENTRY_CAP = 1 << 24

# float64 cells (32 MiB) per joint-table block, per dense operator and per
# forward batch; it exists to bound working memory
_CELL = 1 << 22

# float64 cells (128 KiB) per block of the ciphertext block enumeration; it
# bounds working memory, and larger blocks measured no faster
_ENUM_CELL = 1 << 14

# float jitter allowed where a bracket end crosses the other or its trail
# moves the wrong way; more is a CertificationError
_BRACKET_TOL = 1e-9


def log2sumexp(values: np.ndarray) -> float:
    """log2 of a sum of 2**values, stable against underflow."""
    values = np.asarray(values, dtype=float)
    top = float(values.max()) if values.size else -np.inf
    if top == -np.inf:
        return -np.inf
    return top + float(np.log2(np.exp2(values - top).sum()))


def _recovered(recover: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Packed words of the source that ``recover`` gives from the other one.

    ``recover[d, v]`` is the recovered symbol for symbol d and cipher symbol
    v (``key_table``, or the transposed decoder).  For q cipher words of
    length L in the rows of ``columns`` the result is (n**L, q): row u holds
    the recovered words under the packed word u, most significant first.
    """
    n, q = recover.shape[0], columns.shape[0]
    words = np.zeros((1, q), dtype=np.int64)
    for column in columns.T:
        symbols = np.take(recover, column, axis=1)
        words = (words[:, None, :] * n + symbols).reshape(-1, q)
    return words


def _check_alphabets(xm: SourceModel, ym: SourceModel, spec: CipherSpec) -> int:
    n = spec.alphabet_size
    if xm.alphabet_size != n or ym.alphabet_size != n:
        raise ValueError(
            "plaintext model, key model and cipher must share one alphabet"
        )
    return n


class _DriverStep:
    """One step of a recursion given z over the driver's last K symbols.

    Given z, the key symbol is a function of the plaintext symbol
    (``key_table[a, z]``, key-recoverable ciphers) and the plaintext symbol
    one of the key symbol (``decoder[z, b]``, every cipher).  So only one
    source, the driver, is summed over; the other one's symbols follow
    (``recover[d, z]``).  The driver is the higher-order source (on a tie
    the plaintext, if the cipher is key-recoverable).  A state is the
    driver's last ``K = max(k_D, k_O + 1)`` symbols, packed; for a
    key-recoverable cipher n**K is at most max(S, n), and always at most
    n * S.  Fronts are state-major, ``(n**K, batch)``.

    A step is :meth:`mix`, one stacked (n, n) matmul of the driver's table,
    times the other source's factor.  That factor depends only on the
    state's last ``k_O + 1`` driver symbols and the row's last ``k_O + 1``
    ciphertext symbols, so it is one ``lookup`` table of ``n**(2 k_O + 2)``
    entries, checked against ``DEFAULT_ENTRY_CAP``: column ``c`` holds the
    factor for the packed cipher window c.
    """

    def __init__(self, xm: SourceModel, ym: SourceModel, spec: CipherSpec):
        n = spec.alphabet_size
        self.x_drives = spec.key_table is not None and xm.order >= ym.order
        if self.x_drives:
            drive, other, recover = xm, ym, spec.key_table
        else:
            drive, other, recover = ym, xm, spec.decoder.T
        self.n, self.drive, self.other, self.recover = n, drive, other, recover
        self.k = k = max(drive.order, other.order + 1)
        self.window, self.keep = n ** (other.order + 1), n**other.order
        if self.window * self.window > DEFAULT_ENTRY_CAP:
            raise StateCapError(
                f"forward factor table of {self.window}*{self.window} entries is "
                f"over cap {DEFAULT_ENTRY_CAP}"
            )
        # stack[r, d, d0]: the driver emits d after the state d0*rest + r, whose
        # context is its last k_D symbols (a view of the table when K = k_D)
        contexts, rest = drive.num_states, n ** (k - 1)
        tiled = np.broadcast_to(drive.transition, (n**k // contexts, contexts, n))
        self.stack = tiled.reshape(n, rest, n).transpose(1, 2, 0)
        # lookup[w, v]: the other source's factor for driver window w and cipher
        # window v, from the context its first k_O symbols give and its last one
        prefix = _recovered(recover, digits(n, other.order))
        self.lookup = other.transition[
            prefix[:, None, :, None], recover[None, :, None, :]
        ].reshape(self.window, self.window)

    def mix(self, front: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The driver's transition applied to a (n**K, batch) front, into ``out``."""
        rest, n, batch = self.stack.shape[0], self.n, front.shape[1]
        np.matmul(
            self.stack,
            front.reshape(n, rest, batch).transpose(1, 0, 2),
            out=out.reshape(rest, n, batch),
        )
        return out


class _ProductChain:
    """The hidden Markov chain driving the ciphertext process.

    States are pairs (plaintext context, key context) packed as
    ``sx * Sy + sy``, with the stationary law ``alpha0``.  Construction
    checks the entry cap (n * n * S) and stores only ``alpha0``; the
    forward and the block enumeration both run on :attr:`step`, over the
    driver's last K symbols, never over the S states.

    ``A`` (for each ciphertext symbol v, ``A[v][s, s']`` is the probability
    of emitting v from state s while moving to s'; a dense (n, S, S) stack
    for small chains, ``scipy.sparse`` CSR matrices, imported only then, for
    large ones, as ``dense`` says) is built on first read.  Nothing in the
    package reads it: it is kept only for the benchmark's stored-entries
    counter.
    """

    def __init__(self, xm: SourceModel, ym: SourceModel, spec: CipherSpec):
        n = _check_alphabets(xm, ym, spec)
        self.xm, self.ym, self.spec = xm, ym, spec
        sx, sy = xm.num_states, ym.num_states
        size = sx * sy
        if n * n * size > DEFAULT_ENTRY_CAP:
            raise StateCapError(
                f"product chain of {sx}*{sy} states needs {n}*{n}*{size} "
                f"operator entries, over cap {DEFAULT_ENTRY_CAP}"
            )
        self.n = n
        self.size = size
        self.alpha0 = np.outer(xm.stationary, ym.stationary).ravel()
        self.dense = n * size * size <= _CELL

    @cached_property
    def A(self):
        """The per-symbol operators: an (n, S, S) stack or n CSR matrices."""
        n, size, xm, ym, spec = self.n, self.size, self.xm, self.ym, self.spec
        sx, sy = xm.num_states, ym.num_states
        next_x = (np.arange(sx)[:, None] * n + np.arange(n)) % sx
        next_y = (np.arange(sy)[:, None] * n + np.arange(n)) % sy
        rows = np.arange(size).reshape(sx, sy, 1)
        indptr = np.arange(0, size * n + 1, n)
        if self.dense:
            operators = np.zeros((n, size, size))
        else:
            import scipy.sparse as sp

            operators = []
        for v in range(n):
            a, b = np.nonzero(spec.coder == v)
            cols = next_x[:, None, a] * sy + next_y[None, :, b]
            data = xm.transition[:, None, a] * ym.transition[None, :, b]
            if self.dense:
                np.add.at(operators[v], (rows, cols), data)
            else:
                matrix = sp.csr_matrix(
                    (data.ravel(), cols.ravel(), indptr), shape=(size, size)
                )
                matrix.sum_duplicates()
                operators.append(matrix)
        return operators

    @cached_property
    def step(self) -> _DriverStep:
        """The recursion step over the driver's last K symbols (lookup cap checked)."""
        return _DriverStep(self.xm, self.ym, self.spec)

    def forward_log2(self, observations: np.ndarray) -> np.ndarray:
        """Scaled forward pass: log2 P(z) for each row of a (batch, t) array.

        Linear in t.  The front holds the joint mass of the driver's last K
        symbols (see :class:`_DriverStep`); the first K symbols come from the
        block laws, as in :func:`joint_log2_table`, and each later one is a
        :meth:`_DriverStep.mix` times the lookup column of the row's rolling
        cipher window.

        Identical arguments give identical results.  A row's value does not
        depend on the other rows, but the batch width can move it by float
        rounding (the GEMM's blocking and the order of the per-row sums).
        """
        step = self.step
        n, k, window, keep = step.n, step.k, step.window, step.keep
        obs = np.atleast_2d(np.asarray(observations, dtype=np.int64))
        batch, t = obs.shape

        head = min(t, k)
        recovered = _recovered(step.recover, obs[:, :head])
        log_head = (
            step.drive.log2_block_prob_array(head)[:, None]
            + step.other.log2_block_prob_array(head)[recovered]
        )
        top = log_head.max(axis=0)
        top[top == -np.inf] = 0.0
        log_head -= top
        alpha = np.ascontiguousarray(np.exp2(log_head, out=log_head))  # state-major
        scale = alpha.sum(axis=0)
        dead = ~(scale > 0.0)
        scale[dead] = 1.0
        acc = top + np.log2(scale)
        if t > k:
            # each row's cipher window, its last k_O + 1 symbols
            order = step.other.order
            powers = n ** np.arange(order, -1, -1)
            recent = obs[:, k - order - 1 : k] @ powers
            fresh = np.empty_like(alpha)
            for j in range(k, t):
                recent = recent % keep * n + obs[:, j]
                factor = np.take(step.lookup, recent, axis=1)
                factor /= scale  # the front carries the previous step's mass
                step.mix(alpha, fresh)
                windows = fresh.reshape(-1, window, batch)
                windows *= factor
                scale = fresh.sum(axis=0)
                bad = ~(scale > 0.0)
                if bad.any():
                    dead |= bad
                    scale[bad] = 1.0
                acc += np.log2(scale)
                alpha, fresh = fresh, alpha
        acc[dead] = -np.inf
        return acc


def log_marginal_forward(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    ciphertext,
) -> float:
    """Exact ``log2 P(z)`` by the forward recursion, linear in ``len(z)``.

    Works for every cipher, key-recoverable or not; -inf for a ciphertext of
    probability zero.  The product chain's entry cap is checked; no operators
    are built.
    """
    z = as_word(ciphertext, spec.alphabet_size)
    chain = _ProductChain(xm, ym, spec)
    return float(chain.forward_log2(z[None, :])[0])


def joint_log2_table(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    ciphertext,
) -> np.ndarray:
    """log2 of ``P_X(x) * P_Y(y(x, z))`` for every plaintext word x.

    The returned array is indexed by the packed plaintext word; entries are
    -inf for plaintexts of probability zero (or with no consistent key).
    Computed by extending all plaintext prefixes one position at a time; the
    per-position term depends on the prefix only through its last
    ``max(k_X, k_Y)`` symbols, so each level is a single vectorised pass.
    """
    n = _check_alphabets(xm, ym, spec)
    z = as_word(ciphertext, n)
    t = z.size
    if n**t > DEFAULT_WORD_CAP:
        raise EnumerationCapError(
            f"enumerating {n}**{t} plaintexts exceeds cap {DEFAULT_WORD_CAP}"
        )
    key_table = spec.key_table
    if key_table is None:
        raise UnsupportedCipherError(
            "posterior enumeration needs a key-recoverable cipher"
        )
    kx, ky = xm.order, ym.order
    log_tx = _log2_safe(xm.transition)
    log_ty = _log2_safe(ym.transition)
    max_k = max(kx, ky)
    period = n**max_k
    head = min(t, max_k)

    if head == 0:
        arr = np.zeros(1)
    else:
        keys = _recovered(key_table, z[None, :head])[:, 0]
        arr = xm.log2_block_prob_array(head) + ym.log2_block_prob_array(head)[keys]
    if t == head:
        return arr

    sx_of = np.arange(period) % xm.num_states
    r2_of = np.arange(period) % ym.num_states

    def level_terms(j: int) -> np.ndarray:
        """(period, n) additive log-terms for extending prefixes of length j."""
        sy = _recovered(key_table, z[None, j - ky : j])
        ty = log_ty[sy, key_table[:, z[j]][None, :]]
        return log_tx[sx_of] + ty[r2_of]

    def grow(block: np.ndarray, terms: np.ndarray) -> np.ndarray:
        return (block.reshape(-1, period)[:, :, None] + terms[None, :, :]).reshape(-1)

    j = head
    while j < t and n ** (j + 1) <= _CELL:
        arr = grow(arr, level_terms(j))
        j += 1
    if j == t:
        return arr

    remaining = t - j
    tail = n**remaining
    all_terms = [level_terms(jj) for jj in range(j, t)]
    out = np.empty(n**t)
    block_size = max(period, (_CELL // tail) // period * period)
    for start in range(0, arr.shape[0], block_size):
        sub = arr[start : start + block_size]
        for terms in all_terms:
            sub = grow(sub, terms)
        out[start * tail : (start + block_size) * tail] = sub
    return out


@dataclass(frozen=True)
class PosteriorTable:
    """Exact conditional law over all plaintexts of a fixed ciphertext.

    ``log_posterior[u]`` is ``log2 P(x | z)`` for the plaintext word with
    packed index u; ``log_marginal`` is ``log2 P(z)``.
    """

    ciphertext: np.ndarray
    log_posterior: np.ndarray
    log_marginal: float
    alphabet_size: int

    def __post_init__(self):
        finite = self.log_posterior[np.isfinite(self.log_posterior)]
        total = float(np.exp2(finite).sum()) if finite.size else 0.0
        if abs(total - 1.0) > 1e-9:
            raise CertificationError(
                f"posterior mass {total!r} deviates from 1 beyond 1e-9"
            )

    @property
    def length(self) -> int:
        return int(self.ciphertext.size)

    def log2_prob(self, plaintext) -> float:
        word = as_word(plaintext, self.alphabet_size)
        if word.size != self.length:
            raise ValueError("plaintext length does not match the ciphertext")
        return float(self.log_posterior[word_to_index(word, self.alphabet_size)])

    def to_csv(self, target) -> None:
        """Write (plaintext, log2_posterior) rows, the plaintext as base-n text.

        A plaintext with commas (n > 36) is quoted, as RFC 4180 asks.
        """
        n, t, values = self.alphabet_size, self.length, self.log_posterior
        chunk = 1 << 16
        with _open_for(target, "w") as fh:
            fh.write("plaintext,log2_posterior\n")
            for start in range(0, values.size, chunk):
                texts = render(digits(n, t, start, min(start + chunk, values.size)), n)
                if "," in texts[0]:
                    texts = [f'"{text}"' for text in texts]
                fh.writelines(
                    f"{text},{value:.12g}\n"
                    for text, value in zip(texts, values[start : start + chunk].tolist())
                )


def posterior(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    ciphertext,
) -> PosteriorTable:
    """Exhaustive posterior ``P(x | z)`` over all plaintexts of length ``len(z)``.

    Normalises the joint table :func:`joint_log2_table`; the log-marginal is
    the log-sum-exp of the numerators.
    """
    n = _check_alphabets(xm, ym, spec)
    z = as_word(ciphertext, n)
    numerators = joint_log2_table(xm, ym, spec, z)
    log_marginal = log2sumexp(numerators)
    if log_marginal == -np.inf:
        raise ValueError("ciphertext has probability zero under these models")
    return PosteriorTable(
        ciphertext=z,
        log_posterior=numerators - log_marginal,
        log_marginal=log_marginal,
        alphabet_size=n,
    )


# -- ciphertext block entropies and brackets -----------------------------------


def z_block_entropies(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    length: int,
) -> np.ndarray:
    """Block entropies ``H(Z_1..Z_j)`` in bits for all ``j <= length``.

    Index 0 of the returned array is 0 by convention.
    """
    chain = _ProductChain(xm, ym, spec)
    return _entropies_for_chain(chain, length, with_start=False)[0]


def _pushed_law(model: SourceModel, length: int) -> np.ndarray:
    """P(x_1..x_length) for every packed word, the context at time 1 stationary.

    The chain itself moves the stationary vector along, as the product
    chain moves ``alpha0``; the block law instead reads the vector's
    marginals, which differ from that by its stationarity residual.
    """
    n, k, table = model.alphabet_size, model.order, model.transition
    law = model.stationary
    for _ in range(min(length, k)):
        # context (first symbol, rest) -> context (rest, next symbol)
        law = (law.reshape(n, -1, 1) * table.reshape(n, -1, n)).sum(axis=0).ravel()
    law = law.reshape(-1, n ** min(length, k)).sum(axis=0)
    for _ in range(k, length):
        law = (law.reshape(-1, model.num_states, 1) * table).ravel()
    return law


def _entropies_for_chain(
    chain: _ProductChain, length: int, with_start: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """``H(Z^j)`` and ``H(Z^j, S_1)`` in bits for all ``j <= length``.

    S_1 is the product state at time 1, drawn from ``alpha0``; index 0
    holds 0 and ``H(S_1)``.  The second is computed only ``with_start``
    (else None).  Each is a depth-first descent of the ciphertext prefix
    tree: rows are prefixes, for ``H(Z^j, S_1)`` paired with every start
    state of positive weight, and columns the driver's last K symbols, so a
    level is one :meth:`_DriverStep.mix` of which child v takes
    ``lookup[:, recent * n + v]``.  The first ``min(length, K)`` levels are
    built directly, as ``P_X(x) P_Y(y)`` from :func:`_pushed_law` for
    ``H(Z^j)`` and as ``alpha0(s) P_X(x | s) P_Y(y | s)`` for
    ``H(Z^j, S_1)``.

    Rows go in blocks whose children hold at most ``_ENUM_CELL`` cells (one
    row at least: n * n**K cells, which the entry cap bounds by n * n * S).
    Row terms are added child after child and head row after head row, in
    an order the blocks do not change, so the block size moves a result
    only through the matmul's rounding.
    """
    n = chain.n
    if length < 1:
        raise ValueError("block length must be >= 1")
    if n**length > DEFAULT_WORD_CAP:
        raise EnumerationCapError(
            f"enumerating {n}**{length} ciphertext blocks exceeds cap "
            f"{DEFAULT_WORD_CAP}"
        )
    step = chain.step
    xm, ym, recover, window = chain.xm, chain.ym, step.recover, step.window
    head = min(length, step.k)
    rows = max(1, _ENUM_CELL // (n * n**step.k))
    spread = np.arange(n)

    def below(front, recent, depth):
        """Entropy terms of the descendants of a (n**K, r) block at ``depth``.

        ``recent`` holds each column's packed ciphertext prefix, of which
        only the last k_O symbols are read.  Row i of the (length - depth, r)
        result sums each column's descendants i + 1 levels down, child after
        child in symbol order.
        """
        r = front.shape[1]
        codes = spread[:, None] + recent % step.keep * n  # children (v, row)
        level = step.mix(front, np.empty_like(front)).reshape(-1, window, 1, r)
        level = (level * np.take(step.lookup, codes, axis=1)).reshape(-1, n * r)
        terms = -xlog2x(level.sum(axis=0))[None, :]  # n * r > 1 columns: row by row
        if depth + 1 < length:
            codes = codes.ravel()
            deeper = [
                below(np.ascontiguousarray(level[:, s : s + rows]), codes[s : s + rows],
                      depth + 1)
                for s in range(0, n * r, rows)
            ]
            terms = np.vstack([terms, np.hstack(deeper)])
        return np.add.accumulate(terms.reshape(-1, n, r), axis=1)[:, -1]

    def enumerate_from(count, head_block, totals):
        """Levels 1..head from ``head_block(j, start, stop)``, the rest below them.

        Head rows are added one after another in index order.
        """
        for j in range(1, head + 1):
            for start in range(0, count(j), rows):
                front, prefixes = head_block(j, start, min(start + rows, count(j)))
                terms = -xlog2x(np.add.accumulate(front, axis=0)[-1])[None, :]
                if j == head < length:
                    terms = np.vstack([terms, below(front, prefixes, j)])
                levels = slice(j, j + terms.shape[0])
                added = np.column_stack([totals[levels], terms])
                totals[levels] = np.add.accumulate(added, axis=1)[:, -1]
        return totals

    laws = [(_pushed_law(step.drive, j), _pushed_law(step.other, j))
            for j in range(head + 1)]

    def stationary_block(j, start, stop):
        drive, other = laws[j]
        recovered = _recovered(recover, digits(n, j, start, stop))
        return drive[:, None] * other[recovered], np.arange(start, stop)

    plain = enumerate_from(lambda j: n**j, stationary_block, np.zeros(length + 1))
    if not with_start:
        return plain, None

    states = np.flatnonzero(chain.alpha0 > 0.0)
    count = states.size

    def start_block(j, start, stop):
        # rows are (prefix, start state), prefix-major
        prefix, state = np.divmod(np.arange(start, stop), count)
        ciphertext = digits(n, j, prefix[0], prefix[-1] + 1)[prefix - prefix[0]]
        state = states[state]
        cx, cy = np.divmod(state, ym.num_states)
        front = np.repeat(chain.alpha0[state][None, :], n**j, axis=0)
        words = np.arange(n**j)[:, None]  # the driver's, packed
        for i in range(j):
            # symbol i of each driver word and of the other source's, per row
            d = words // n ** (j - 1 - i) % n
            e = recover[d, ciphertext[:, i]]
            a, b = (d, e) if step.x_drives else (e, d)
            front *= xm.transition[cx, a] * ym.transition[cy, b]
            cx = (cx * n + a) % xm.num_states
            cy = (cy * n + b) % ym.num_states
        return front, prefix

    joint = np.zeros(length + 1)
    joint[0] = -xlog2x(chain.alpha0).sum()
    return plain, enumerate_from(lambda j: n**j * count, start_block, joint)


@dataclass(frozen=True)
class EntropyBracket:
    """Two-sided estimate of an entropy rate, in bits/symbol."""

    lower: float
    upper: float
    order_used: int

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if self.lower > self.upper + _BRACKET_TOL:
            raise CertificationError(
                f"bracket lower {self.lower!r} exceeds upper {self.upper!r}"
            )
        if self.lower > self.upper:  # collapse float jitter at equality
            object.__setattr__(self, "lower", self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def as_dict(self) -> dict:
        return {"m": self.order_used, "lower": self.lower, "upper": self.upper}


def hz_bracket(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    m: int,
) -> EntropyBracket:
    """Sandwich bounds on the ciphertext entropy rate h(Z).

    Upper: ``H(Z_{m+1} | Z_1..Z_m) = H(Z^{m+1}) - H(Z^m)``, non-increasing
    in m.  Lower: the same conditional entropy given additionally the hidden
    product state S_1 at time 1, non-decreasing in m, read as
    ``H(Z^{m+1}, S_1) - H(Z^m, S_1)``.  One call of
    :func:`_entropies_for_chain` gives both ends for every order m' <= m;
    an upper end that rises, a lower end that falls or a lower end above its
    upper anywhere on that trail, beyond float jitter, raises
    CertificationError.  For i.i.d. X and Y both ends already coincide at
    m = 0 with the entropy of the convolved symbol law.
    """
    if m < 0:
        raise ValueError("bracket order must be >= 0")
    chain = _ProductChain(xm, ym, spec)
    plain, joint = _entropies_for_chain(chain, m + 1)
    uppers, lowers = np.diff(plain), np.diff(joint)
    trail = f"upper ends {uppers.tolist()}, lower ends {lowers.tolist()}"
    if (np.diff(uppers) > _BRACKET_TOL).any():
        raise CertificationError(f"upper bracket ends increase with m: {trail}")
    if (np.diff(lowers) < -_BRACKET_TOL).any():
        raise CertificationError(f"lower bracket ends decrease with m: {trail}")
    if (lowers > uppers + _BRACKET_TOL).any():
        raise CertificationError(f"a lower bracket end exceeds its upper: {trail}")
    log_n = float(np.log2(chain.n))
    lower = min(max(lowers[m], 0.0), log_n)
    upper = min(max(uppers[m], 0.0), log_n)
    return EntropyBracket(lower=lower, upper=upper, order_used=m)


def hm_conditional(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    m: int,
) -> float:
    """m-order conditional entropy ``h_m(X|Z) = h_m(X,Z) - h_m(Z)`` in bits.

    Since (x, z) and (x, y) are in measure-preserving bijection and X, Y are
    independent, ``h_m(X,Z) = h_m(X) + h_m(Y)`` exactly.
    """
    _check_alphabets(xm, ym, spec)
    if spec.key_table is None:
        raise UnsupportedCipherError(
            "conditional entropies need a key-recoverable cipher"
        )
    totals = z_block_entropies(xm, ym, spec, m + 1)
    hm_z = totals[m + 1] / (m + 1)
    return xm.block_entropy(m) + ym.block_entropy(m) - hm_z


def hxz_bracket(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    m: int,
) -> EntropyBracket:
    """Bracket for the equivocation rate ``h(X|Z) = h(X) + h(Y) - h(Z)``.

    Subtracts :func:`hz_bracket` from the exact ``h(X) + h(Y)``; ends are
    clamped to [0, log2 n].  The lower end always dominates the simple bound
    ``h(X) + h(Y) - log2 n`` because the upper h(Z) bound never exceeds
    log2 n.
    """
    n = _check_alphabets(xm, ym, spec)
    z_bracket = hz_bracket(xm, ym, spec, m)
    base = xm.entropy_rate() + ym.entropy_rate()
    log_n = float(np.log2(n))
    lower = min(max(base - z_bracket.upper, 0.0), log_n)
    upper = min(max(base - z_bracket.lower, 0.0), log_n)
    return EntropyBracket(lower=lower, upper=upper, order_used=m)
