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
  other's, so the recursion runs over the last few symbols of one source
  (one stacked matmul a step, and for a key-recoverable cipher at most as
  many states as the product chain), not over the product chain of X and Y;
- the product chain's per-symbol operators serve the ciphertext block
  enumeration behind the brackets, and only it builds them.  They hold at
  most ``DEFAULT_ENTRY_CAP`` stored entries, checked before anything is
  allocated (a dense numpy stack for small chains, ``scipy.sparse`` CSR
  matrices, and their import, only for large ones);
- :func:`hm_conditional` evaluates the m-order conditional entropy
  ``h_m(X|Z) = h_m(X) + h_m(Y) - h_m(Z)`` (the joint block law of (X, Z) is
  a bijective re-indexing of the independent (X, Y) law);
- :func:`hz_bracket` / :func:`hxz_bracket` sandwich the entropy rate of the
  ciphertext process, which is a function of a hidden Markov chain and has
  no closed form, between the standard monotone conditional-entropy bounds
  ``H(Z_{m+1} | Z_1..Z_m, S_1) <= h(Z) <= H(Z_{m+1} | Z_1..Z_m)``.

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
from .words import as_word, index_to_word, word_to_index, word_to_text

# stored entries of the product-chain operators, n * n * S before the build
# sums duplicates; a byte-alphabet pair with S = 256 contexts is exactly at it
DEFAULT_ENTRY_CAP = 1 << 24

# float64 cells (32 MiB) per enumeration block, per dense operator and per
# forward batch; it exists to bound working memory
_CELL = 1 << 22


def log2sumexp(values: np.ndarray) -> float:
    """log2 of a sum of 2**values, stable against underflow."""
    values = np.asarray(values, dtype=float)
    top = float(values.max()) if values.size else -np.inf
    if top == -np.inf:
        return -np.inf
    return top + float(np.log2(np.exp2(values - top).sum()))


def _digit_matrix(
    n: int, width: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Digits (most significant first) of the base-n integers in [start, stop).

    ``stop`` defaults to ``n**width``, which gives every width-digit integer.
    """
    idx = np.arange(start, n**width if stop is None else stop, dtype=np.int64)
    digits = np.empty((idx.size, width), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        idx, digits[:, pos] = np.divmod(idx, n)
    return digits


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


class _ProductChain:
    """The hidden Markov chain driving the ciphertext process.

    States are pairs (plaintext context, key context) packed as
    ``sx * Sy + sy``.  For each ciphertext symbol v, ``A[v][s, s']`` is the
    probability of emitting v from state s while moving to s'; summing A[v]
    over v gives the product-chain transition matrix.  Each key symbol b
    permutes the plaintext symbols, so v comes from exactly n pairs (a, b)
    and every row of A[v] holds n entries ``T_X[sx, a] * T_Y[sy, b]``, in
    (a, b) order, summed where they share a column (only when both models
    are order 0, S = 1).  Small state spaces add these entries into a dense
    (n, S, S) stack; larger ones store each A[v] as a ``scipy.sparse`` CSR
    matrix, imported only then.  Both are applied the same way, one symbol's
    matrix at a time, by :meth:`extend` for the block enumeration.

    Construction only checks the entry cap and fixes the representation;
    ``A`` is built on first use, the first :meth:`extend`, once per chain.
    :meth:`forward_log2` does not use it: it reads only the two models and
    the cipher the chain was made from, so the forward allocates no operators.
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

    def extend(self, arr: np.ndarray) -> np.ndarray:
        """One prefix-tree level: (Np, S) joint mass -> (Np*n, S)."""
        prefixes = arr.shape[0]
        out = np.empty((prefixes, self.n, self.size))
        for v in range(self.n):
            out[:, v, :] = arr @ self.A[v]
        return out.reshape(-1, self.size)

    def forward_log2(self, observations: np.ndarray) -> np.ndarray:
        """Scaled forward pass: log2 P(z) for each row of a (batch, t) array.

        Linear in t, and it does not use the operators.  Given z, the key
        symbol is a function of the plaintext symbol (``key_table[a, z]``,
        key-recoverable ciphers) and the plaintext symbol one of the key
        symbol (``decoder[z, b]``, every cipher).  So only one source, the
        driver, is summed over; the other one's symbols follow.  The driver
        is the higher-order source (on a tie the plaintext, if the cipher is
        key-recoverable).  The front holds the joint mass of its last
        ``K = max(k_D, k_O + 1)`` symbols, state-major as ``(n**K, batch)``;
        n**K never exceeds S for a key-recoverable cipher.  A step is one
        stacked (n, n) matmul of the driver's table, times the other
        source's factor.  That factor depends only on the state's last
        ``k_O + 1`` driver symbols and the row's last ``k_O + 1`` ciphertext
        symbols (a rolling index), so it is one lookup table of
        ``n**(2 k_O + 2)`` entries, checked against ``DEFAULT_ENTRY_CAP``.
        The first K symbols come from the block laws, as in
        :func:`joint_log2_table`.

        Identical arguments give identical results.  A row's value does not
        depend on the other rows, but the batch width can move it by float
        rounding (the GEMM's blocking and the order of the per-row sums).
        """
        n, xm, ym, spec = self.n, self.xm, self.ym, self.spec
        obs = np.atleast_2d(np.asarray(observations, dtype=np.int64))
        batch, t = obs.shape
        if spec.key_table is not None and xm.order >= ym.order:
            drive, other, recover = xm, ym, spec.key_table
        else:
            drive, other, recover = ym, xm, spec.decoder.T
        k = max(drive.order, other.order + 1)
        rest, window, keep = n ** (k - 1), n ** (other.order + 1), n**other.order
        if window * window > DEFAULT_ENTRY_CAP:
            raise StateCapError(
                f"forward factor table of {window}*{window} entries is over cap "
                f"{DEFAULT_ENTRY_CAP}"
            )

        head = min(t, k)
        log_head = (
            drive.log2_block_prob_array(head)[:, None]
            + other.log2_block_prob_array(head)[_recovered(recover, obs[:, :head])]
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
            # stack[r, d, d0]: the driver emits d after the state d0*rest + r, whose
            # context is its last k_D symbols (a view of the table when K = k_D)
            contexts = drive.num_states
            tiled = np.broadcast_to(drive.transition, (n**k // contexts, contexts, n))
            stack = tiled.reshape(n, rest, n).transpose(1, 2, 0)
            # lookup[w, v]: the other source's factor for driver window w and cipher
            # window v, from the context its first k_O symbols give and its last one
            prefix = _recovered(recover, _digit_matrix(n, other.order))
            lookup = other.transition[
                prefix[:, None, :, None], recover[None, :, None, :]
            ].reshape(window, window)
            # each row's cipher window, its last k_O + 1 symbols
            powers = n ** np.arange(other.order, -1, -1)
            recent = obs[:, k - other.order - 1 : k] @ powers
            fresh = np.empty_like(alpha)
            for j in range(k, t):
                recent = recent % keep * n + obs[:, j]
                factor = np.take(lookup, recent, axis=1)
                factor /= scale  # the front carries the previous step's mass
                np.matmul(
                    stack,
                    alpha.reshape(n, rest, batch).transpose(1, 0, 2),
                    out=fresh.reshape(rest, n, batch),
                )
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
        """Write (plaintext-as-base-n-string, log2_posterior) rows."""
        n, t = self.alphabet_size, self.length
        with _open_for(target, "w") as fh:
            fh.write("plaintext,log2_posterior\n")
            if n <= 36:
                alphabet = np.frombuffer(
                    b"0123456789abcdefghijklmnopqrstuvwxyz"[:n], dtype=np.uint8
                )
                chunk = 1 << 16
                for start in range(0, self.log_posterior.size, chunk):
                    stop = min(start + chunk, self.log_posterior.size)
                    digits = _digit_matrix(n, t, start, stop)
                    texts = alphabet[digits].view(f"S{t}").ravel()
                    for text, value in zip(texts, self.log_posterior[start:stop]):
                        fh.write(f"{text.decode('ascii')},{value:.12g}\n")
            else:
                for u, value in enumerate(self.log_posterior):
                    text = word_to_text(index_to_word(u, n, t), n)
                    fh.write(f"{text},{value:.12g}\n")


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
    *,
    start_state: int | None = None,
) -> np.ndarray:
    """Block entropies ``H(Z_1..Z_j)`` in bits for all ``j <= length``.

    ``start_state`` conditions the hidden product chain on a fixed state at
    time 1 instead of its stationary law (used by the bracket lower bound).
    Index 0 of the returned array is 0 by convention.
    """
    chain = _ProductChain(xm, ym, spec)
    return _entropies_for_chain(chain, length, start_state)


def _entropies_for_chain(
    chain: _ProductChain, length: int, start_state: int | None
) -> np.ndarray:
    n, size = chain.n, chain.size
    if length < 1:
        raise ValueError("block length must be >= 1")
    if n**length > DEFAULT_WORD_CAP:
        raise EnumerationCapError(
            f"enumerating {n}**{length} ciphertext blocks exceeds cap "
            f"{DEFAULT_WORD_CAP}"
        )
    if start_state is None:
        front = chain.alpha0[None, :].copy()
    else:
        front = np.zeros((1, size))
        front[0, start_state] = 1.0
    totals = np.zeros(length + 1)
    # depth first over blocks of rows: one block of at most _CELL cells per level
    rows = max(1, _CELL // (n * size))

    def descend(block: np.ndarray, depth: int) -> None:
        level = chain.extend(block)
        totals[depth + 1] += -xlog2x(level.sum(axis=1)).sum()
        if depth + 1 < length:
            for start in range(0, level.shape[0], rows):
                descend(level[start : start + rows], depth + 1)

    descend(front, 0)
    return totals


@dataclass(frozen=True)
class EntropyBracket:
    """Two-sided estimate of an entropy rate, in bits/symbol."""

    lower: float
    upper: float
    order_used: int

    def __post_init__(self):
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if self.lower > self.upper + 1e-9:
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

    Upper: ``H(Z_{m+1} | Z_1..Z_m)``, non-increasing in m.  Lower: the same
    conditional entropy given additionally the hidden product state at time
    1, non-decreasing in m.  For i.i.d. X and Y both ends already coincide
    at m = 0 with the entropy of the convolved symbol law.
    """
    if m < 0:
        raise ValueError("bracket order must be >= 0")
    chain = _ProductChain(xm, ym, spec)
    totals = _entropies_for_chain(chain, m + 1, None)
    upper = totals[m + 1] - totals[m]
    lower = 0.0
    for state in range(chain.size):
        weight = chain.alpha0[state]
        if weight <= 0.0:
            continue
        cond = _entropies_for_chain(chain, m + 1, state)
        lower += weight * (cond[m + 1] - cond[m])
    log_n = float(np.log2(chain.n))
    lower = min(max(lower, 0.0), log_n)
    upper = min(max(upper, 0.0), log_n)
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
