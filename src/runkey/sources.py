"""Finite-alphabet stationary ergodic source models.

The concrete model family is the order-k Markov chain over contexts of k
symbols (k = 0 gives an i.i.d. source).  A model owns its symbol-emission
table, the stationary law over contexts, and everything derived from them:
exact block probabilities, exact entropy rate, per-letter block entropies,
redundancy, reproducible sampling, and corpus training with additive
smoothing.

Conventions used throughout:

- all logarithms are base 2 and ``0 * log 0 == 0``;
- contexts of k symbols are packed as base-n integers, first symbol most
  significant, so emitting ``a`` from context ``s`` leads to
  ``(s*n + a) % n**k``;
- the stationary vector is the law of any k consecutive symbols, which makes
  block probabilities position-independent;
- the stationary law of up to ``_SOLVE_CONTEXTS`` contexts is the GTH
  (Grassmann-Taksar-Heyman) elimination on the dense context matrix, which
  is exact however slowly the chain mixes;
- beyond that the context chain P is never stored: one step ``pi P`` is a
  closed-form contraction of ``pi`` with the table.  It drives the power
  iteration for the stationary law (undamped for a positive table, which
  is aperiodic; half-lazy for one with a zero) and, at every size, the
  ``pi = pi P`` residual certificate; only a table with a zero entry builds
  the chain's edge list, for the strong-component search of the ergodicity
  check.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from array import array
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    EnumerationCapError,
    InvalidDistributionError,
    ModelFormatError,
    NotErgodicError,
)
from .words import as_word, digits, word_to_index

# exhaustive enumerations (words, blocks, plaintexts) stop at this many entries
DEFAULT_WORD_CAP = 1 << 24

_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10
# power iteration stops at this L1 step residual, or fails after this many steps
_POWER_TOL = 1e-12
_POWER_STEPS = 10**6
# up to this many contexts the stationary law is the GTH elimination, whose
# cost grows as the cube of the contexts: 3-4 ms at 128, 17-19 ms at 256 and
# 0.14 s at 512 on a 2-vCPU machine, against ~5 ms of power iteration for a
# trained 256-context byte model
_SOLVE_CONTEXTS = 128
# save_model formats each distinct value once when at most this share of the
# table's entries are distinct; an all-distinct table formats faster per entry
_SAVE_DISTINCT_SHARE = 0.25
# load_model parses each distinct token once until its cache holds more tokens
# than this share of the table's entries; a cached token takes ~110 bytes,
# against its table entry's 8
_LOAD_CACHE_SHARE = 1 / 32
# in front of it, load_model copies a repeated row from the first state that had
# the same text, until it holds more distinct rows than this share of the
# table's rows; a cached row's text takes ~2.6 times its table row's bytes
_LOAD_ROW_SHARE = 1 / 2


def xlog2x(p: np.ndarray) -> np.ndarray:
    """Elementwise ``p * log2(p)`` with the convention ``0 * log2(0) == 0``."""
    p = np.asarray(p, dtype=float)
    positive = p > 0.0
    out = np.log2(p, out=np.zeros_like(p), where=positive)
    return np.multiply(out, p, out=out, where=positive)


def entropy_bits(dist) -> float:
    """Shannon entropy of a probability vector, in bits."""
    return float(-xlog2x(np.asarray(dist, dtype=float)).sum())


def _log2_safe(p: np.ndarray) -> np.ndarray:
    """log2 with zeros mapped to -inf instead of a warning."""
    p = np.asarray(p, dtype=float)
    return np.log2(p, out=np.full_like(p, -np.inf), where=p > 0.0)


def _check_cap(n: int, k: int, what: str) -> None:
    """Raise EnumerationCapError when ``n**k`` exceeds ``DEFAULT_WORD_CAP``.

    For n >= 2 any k above the cap's bit length is already over it, so the
    power is computed only when it is small, on Python ints, which cannot
    wrap as numpy integers would.  The message spells out only an n within
    the cap and a k of at most 20 digits: ``--n``, ``--m`` or a model file
    may give either thousands of digits.
    """
    n, k = int(n), int(k)
    if n >= 2 and (k > DEFAULT_WORD_CAP.bit_length() or n**k > DEFAULT_WORD_CAP):
        power = f"{n if n <= DEFAULT_WORD_CAP else 'n'}**{k if k < 10**20 else 'k'}"
        raise EnumerationCapError(f"enumerating {power} {what} exceeds cap {DEFAULT_WORD_CAP}")


def _validate_rows(table: np.ndarray) -> None:
    if np.any(table < 0.0) or not np.all(np.isfinite(table)):
        raise InvalidDistributionError("probabilities must be finite and >= 0")
    sums = table.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
        worst = float(np.abs(sums - 1.0).max())
        raise InvalidDistributionError(
            f"probability rows must sum to 1 (worst deviation {worst:.3e})"
        )


def _step(pi: np.ndarray, table: np.ndarray) -> np.ndarray:
    """One step ``pi P`` of the context chain of a (n**k, n) emission table.

    Emitting a from context (s0, rest) leads to ``rest*n + a``, so the step
    sums out s0.  A square matrix M is the order-1 table over its own size,
    for which this is ``pi @ M``.
    """
    n = table.shape[1]
    if table.shape[0] < n:  # order 0: the one context leads to itself
        return pi
    return np.einsum("ij,ijk->jk", pi.reshape(n, -1), table.reshape(n, -1, n)).ravel()


def _closed_class(table: np.ndarray) -> np.ndarray:
    """Boolean mask of the states in the context chain's one closed class.

    Raises NotErgodicError unless the chain has exactly one closed class.  A
    positive table needs no search: every context then reaches every other
    within k steps; nor does an order-0 table, whose one context is the
    class.  Only the others pay for the edge list, the strong-component
    search and its import.  A class is closed when no edge leaves it.
    """
    if table.all() or table.shape[0] == 1:
        return np.ones(table.shape[0], dtype=bool)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    size, n = table.shape
    rows, syms = np.nonzero(table)
    cols = (rows * n + syms) % size
    graph = csr_matrix((table[rows, syms], (rows, cols)), shape=(size, size))
    count, labels = connected_components(graph, connection="strong")
    leaving = labels[rows] != labels[cols]
    closed = np.setdiff1d(np.arange(count), labels[rows[leaving]])
    if closed.size != 1:
        raise NotErgodicError("the chain has more than one closed class")
    return labels == closed[0]


def _power_iteration(table: np.ndarray) -> np.ndarray:
    """Stationary law of the context chain of ``table`` by power iteration.

    A positive table is aperiodic (the context a...a leads to itself), so
    it steps ``pi <- pi @ P``; a table with a zero takes the half-lazy step
    ``(pi + pi @ P) / 2``, which has the same fixed point and converges even
    for periodic chains.  The returned vector satisfies
    ``||pi @ P - pi||_1 < _POWER_TOL``.
    """
    size = table.shape[0]
    lazy = not table.all()
    pi = np.full(size, 1.0 / size)
    for _ in range(_POWER_STEPS):
        nxt = _step(pi, table)
        if np.abs(nxt - pi).sum() < _POWER_TOL:
            pi = np.maximum(pi, 0.0)
            return pi / pi.sum()
        pi = 0.5 * (nxt + pi) if lazy else nxt
    raise ConvergenceError(
        f"power iteration did not reach residual {_POWER_TOL:g} "
        f"in {_POWER_STEPS} steps"
    )


def _gth(chain: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible stochastic matrix by GTH elimination.

    The Grassmann-Taksar-Heyman elimination censors the states out from the
    last.  A state's pivot is the censored chain's mass from it to the
    states before it, and each update adds products of non-negative
    numbers, so nothing cancels however slowly the chain mixes.  A zero
    pivot means entries too small to survive those products (two
    subnormal-sized factors) split the chain numerically, and raises
    NotErgodicError.  The back substitution keeps the largest entry at 1,
    so no ratio of the law overflows.
    """
    # the law does not change when the matrix is scaled, and a power of 2
    # scales exactly: 2**600 keeps products with a subnormal probability
    # from underflowing, far below where sums of 128 entries would overflow
    a = chain * 2.0**600
    size = a.shape[0]
    pivots = np.empty(size)
    for k in range(size - 1, 0, -1):
        pivots[k] = a[k, :k].sum()
        if not pivots[k] > 0.0:
            raise NotErgodicError(
                "the chain is numerically reducible: transition probabilities "
                "too small to survive elimination split its closed class"
            )
        a[k, :k] /= pivots[k]
        a[:k, :k] += np.multiply.outer(a[:k, k], a[k, :k])
    pi = np.ones(size)
    for k in range(1, size):
        flow = (pi[:k] * a[:k, k]).sum()
        if flow > pivots[k]:  # pi[k] stays 1 and the rest shrink
            pi[:k] *= pivots[k] / flow
        else:
            pi[k] = flow / pivots[k]
    return pi / pi.sum()


def _stationary_law(table: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """Stationary law of the context chain of a (n**k, n) emission table.

    ``closed`` is the chain's one closed class, as :func:`_closed_class`
    gives it.  Up to ``_SOLVE_CONTEXTS`` contexts the law is exact: GTH
    elimination on the dense context matrix of the closed class, with mass
    0 on the transient states.  Larger chains use power iteration, whose
    result is clipped at 0 and renormalised.
    """
    size, n = table.shape
    if size > _SOLVE_CONTEXTS:
        return _power_iteration(table)
    rows = np.repeat(np.arange(size), n)
    cols = (rows * n + np.tile(np.arange(n), size)) % size
    chain = np.bincount(rows * size + cols, table.ravel(), size * size).reshape(size, size)
    pi = np.zeros(size)
    pi[closed] = _gth(chain[np.ix_(closed, closed)])
    return pi


class SourceModel:
    """A stationary ergodic order-k Markov source over ``{0..n-1}``.

    Parameters
    ----------
    alphabet_size : int
        Alphabet size n >= 2.
    order : int
        Context length k >= 0; k = 0 is an i.i.d. source.
    transition : ndarray, shape (n**k, n)
        ``transition[s, a]`` is the probability of emitting ``a`` from the
        packed context ``s``.  Rows must be probability vectors.
    The context chain P moves context s to ``(s*n + a) % n**k`` with
    probability ``transition[s, a]``; it is applied from the table, never
    stored.  Its stationary law over contexts is solved (GTH elimination up
    to 128 contexts, power iteration beyond; exactly ``[1.0]`` for k = 0)
    and certified.  Construction raises EnumerationCapError when the table's
    ``n**(k+1)`` entries exceed ``DEFAULT_WORD_CAP``, NotErgodicError unless
    P has exactly one closed class, and InvalidDistributionError unless the
    law satisfies ``pi = pi P`` to within 1e-10 in L1.

    Instances are immutable (arrays are frozen) and safe to share between
    threads; sampling takes an explicit seed.
    """

    def __init__(self, alphabet_size, order, transition):
        n = int(alphabet_size)
        k = int(order)
        if n < 2:
            raise InvalidDistributionError("alphabet size must be at least 2")
        if k < 0:
            raise InvalidDistributionError("order must be non-negative")
        _check_cap(n, k + 1, "model table entries")
        table = np.array(transition, dtype=float)
        if table.ndim != 2 or table.shape != (n**k, n):
            raise InvalidDistributionError(
                f"transition table must have shape ({n**k}, {n}), got {table.shape}"
            )
        _validate_rows(table)
        pi = _stationary_law(table, _closed_class(table))
        residual = float(np.abs(_step(pi, table) - pi).sum())
        if residual > _STATIONARY_TOL:
            raise InvalidDistributionError(
                f"stationary vector fails pi = pi P (residual {residual:.3e})"
            )
        table.flags.writeable = False
        pi.flags.writeable = False
        self._n = n
        self._k = k
        self._transition = table
        self._stationary = pi
        self._rate = None

    # -- basic structure --------------------------------------------------
    @property
    def alphabet_size(self) -> int:
        return self._n

    @property
    def order(self) -> int:
        return self._k

    @property
    def num_states(self) -> int:
        return self._transition.shape[0]

    @property
    def transition(self) -> np.ndarray:
        return self._transition

    @property
    def stationary(self) -> np.ndarray:
        return self._stationary

    def __repr__(self) -> str:
        kind = "iid" if self._k == 0 else f"order-{self._k} Markov"
        return f"SourceModel({kind}, n={self._n}, h={self.entropy_rate():.6g} bits)"

    # -- entropies ---------------------------------------------------------
    def entropy_rate(self) -> float:
        """Exact entropy rate in bits/symbol: -sum_s pi(s) sum_a T[s,a] log T[s,a].

        Computed on first use, not at construction, and kept.
        """
        if self._rate is None:
            row_terms = xlog2x(self._transition).sum(axis=1)
            self._rate = float(max(0.0, -np.dot(self._stationary, row_terms)))
        return self._rate

    def redundancy(self) -> float:
        """log2(n) minus the entropy rate, in [0, log2 n]."""
        return float(np.log2(self._n) - self.entropy_rate())

    def block_entropy(self, m: int) -> float:
        """Per-letter entropy of length-(m+1) blocks, in closed form.

        Blocks of L = m+1 <= k symbols follow the stationary marginal law;
        longer ones satisfy the chain rule ``H(X^L) = H(pi_k) + (L-k) h``.
        Non-increasing in m and lower-bounded by the entropy rate.
        """
        if m < 0:
            raise ValueError("block entropy order must be >= 0")
        length = m + 1
        head = min(length, self._k)
        logp = self._log2_marginal(head) if head else np.zeros(1)
        finite = np.isfinite(logp)
        total = -float(np.sum(np.exp2(logp[finite]) * logp[finite]))
        return (total + (length - head) * self.entropy_rate()) / length

    # -- block probabilities ------------------------------------------------
    def _log2_marginal(self, length: int) -> np.ndarray:
        """log2 of the stationary law of ``length <= k`` consecutive symbols."""
        n, k = self._n, self._k
        pi = self._stationary.reshape((n,) * k) if k else self._stationary
        if length < k:
            pi = pi.sum(axis=tuple(range(length, k)))
        return _log2_safe(np.asarray(pi, dtype=float).reshape(-1))

    def log2_block_prob_array(self, length: int) -> np.ndarray:
        """log2 probabilities of all ``n**length`` words of the given length.

        Words are indexed as packed base-n integers.  Raises
        EnumerationCapError when ``n**length`` exceeds ``DEFAULT_WORD_CAP``.
        """
        if length < 1:
            raise ValueError("block length must be >= 1")
        n, k = self._n, self._k
        _check_cap(n, length, "words")
        if length <= k:
            return self._log2_marginal(length)
        logp = self._log2_marginal(k) if k else np.zeros(1)
        log_t = _log2_safe(self._transition)
        states = n**k
        for _ in range(k, length):
            # context of every prefix is its packed last k symbols, which
            # tiles the index space with period n**k
            logp = (logp.reshape(-1, states)[:, :, None] + log_t[None, :, :]).reshape(-1)
        return logp

    def log2_block_prob(self, word) -> float:
        """log2 probability that the source emits ``word``."""
        word = as_word(word, self._n)
        n, k = self._n, self._k
        head = min(len(word), k)
        state = word_to_index(word[:head], n) if head else 0
        total = float(self._log2_marginal(head)[state]) if head else 0.0
        log_t = _log2_safe(self._transition)
        for sym in word[head:].tolist():
            total += float(log_t[state, sym])
            state = (state * n + sym) % (n**k) if k else 0
        return total

    # -- sampling ------------------------------------------------------------
    def sample(self, length: int, seed) -> np.ndarray:
        """Draw a word of the given length, deterministically in ``seed``.

        The initial context is drawn from the stationary law, so the sampled
        word follows exactly the block law of :meth:`log2_block_prob`.
        """
        if length < 1:
            raise ValueError("sample length must be >= 1")
        rng = np.random.default_rng(seed)
        uniforms = rng.random((1, length + 1))
        words, _ = _walk_batch(self, uniforms)
        return words[0].astype(np.int64)


class _Walk:
    """A batch's walk between calls of :func:`_walk_batch`, on rows of t + 1 uniforms.

    It carries each row's context, running log-probability and head context
    (the one after the first k symbols; for order 0, the initial one), and
    the model's step tables.
    """

    def __init__(self, t: int):
        self.t, self.drawn = int(t), 0
        self.state = self.head = self.log_probs = self.tables = None


def _walk_batch(model: SourceModel, uniforms: np.ndarray, walk: _Walk | None = None):
    """Vectorised Markov walk for a batch of words, whole or a time segment at a time.

    ``uniforms`` has shape (batch, t+1): column 0 picks the initial context
    from the stationary law and column i+1 picks symbol i.  Returns
    ``(words, log2_probs)`` where ``log2_probs[b]`` is the exact marginal
    log2-probability of word b (initial context marginalised out).  Each row
    depends only on its own uniforms, so results are independent of how
    samples are grouped into batches.

    With ``walk`` (a :class:`_Walk` of the rows' t), ``uniforms`` holds the
    rows' next columns, any number of them: the walk carries each row's
    context, running log-probability and head context from call to call,
    ``words`` are the segment's symbols and ``log2_probs`` is None until the
    last column is in.  One loop steps every order a position at a time and
    adds each row's log terms in sequence, so the results are bit for bit
    those of one call on the whole rows, however the rows are cut, and the
    working memory of a long walk is one segment's uniforms and words.

    From context s, uniform u emits the number of the row's first n-1
    cumulative probabilities that are <= u; an order-0 model, with one such
    row, finds it by a binary search.  The last one is left out: the
    cumulative sums never decrease, so it could only raise a count of n-1 to
    n.  The words are written time-major, one contiguous row per position,
    and returned as that array's transpose: a (batch, t) view in Fortran
    order, whose columns, read one position at a time by the forward
    recursion, are contiguous.  Words are of the smallest unsigned type that
    holds n - 1 (one byte up to n = 256), which the coder and the forward
    take as they are; arithmetic on them must widen first, as a one-byte sum
    wraps.  :meth:`SourceModel.sample` returns int64.
    """
    n, k = model.alphabet_size, model.order
    states = model.num_states
    batch = uniforms.shape[0]
    if walk is None:
        walk = _Walk(uniforms.shape[1] - 1)
    if not walk.drawn:
        cum_init = np.cumsum(model.stationary)
        walk.state = walk.head = np.minimum(
            np.searchsorted(cum_init, uniforms[:, 0], side="right"), states - 1
        )
        walk.log_probs = np.zeros(batch)
        # a step's thresholds, and its log term and next context by state * n + symbol
        walk.tables = (np.ascontiguousarray(np.cumsum(model.transition, axis=1)[:, :-1].T),
                       _log2_safe(model.transition).ravel(), np.arange(states * n) % states)
        uniforms, walk.drawn = uniforms[:, 1:], 1
    t, first, width = walk.t, walk.drawn - 1, uniforms.shape[1]
    walk.drawn += width
    thresholds, log_terms, successor = walk.tables
    words = np.empty((width, batch), dtype=np.min_scalar_type(n - 1))
    state = walk.state
    for j in range(width):
        i = first + j
        if k:
            sym = (np.take(thresholds, state, axis=1) <= uniforms[:, j]).sum(axis=0)
            index = state * n + sym
            state = successor.take(index)
        else:  # one context, which leads to itself, and one threshold row
            sym = index = np.searchsorted(thresholds[:, 0], uniforms[:, j], side="right")
        words[j] = sym
        if i >= k:
            walk.log_probs += log_terms.take(index)
        if i == k - 1:
            walk.head = state
    walk.state = state
    words = words.T
    if walk.drawn <= t:
        return words, None
    if t >= k:
        walk.log_probs += _log2_safe(model.stationary)[walk.head]
        return words, walk.log_probs
    # word shorter than the context: its marginal law, as in log2_block_prob;
    # the context's last t symbols are the word
    return words, model._log2_marginal(t)[state % n**t]


# -- constructors -------------------------------------------------------------


def make_bernoulli(probs: Sequence[float]) -> SourceModel:
    """I.i.d. source with the given symbol distribution."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise InvalidDistributionError("need a probability vector of length >= 2")
    return SourceModel(p.size, 0, p.reshape(1, -1))


def make_uniform(alphabet_size: int) -> SourceModel:
    """Uniform i.i.d. source (the perfect key-stream model)."""
    return make_bernoulli(np.full(alphabet_size, 1.0 / alphabet_size))


def make_markov(alphabet_size: int, order: int, transition) -> SourceModel:
    """Order-k Markov source from a (n**k, n) symbol-emission table.

    The stationary context law is solved and certified against ``pi = pi P``;
    the table must give exactly one closed class (see :class:`SourceModel`).
    """
    return SourceModel(alphabet_size, order, transition)


def train_markov(
    stream,
    alphabet_size: int,
    order: int,
    alpha: float = 0.5,
) -> SourceModel:
    """Fit an order-k model to a symbol stream by smoothed frequency counts.

    Every (context, next symbol) transition gets ``alpha`` pseudo-counts, so
    any ``alpha > 0`` yields strictly positive rows.  Contexts that never
    occur in the stream (possible only with ``alpha = 0``) get uniform rows.
    A negative order or a negative or non-finite ``alpha`` raises
    InvalidDistributionError, and a table of more than ``DEFAULT_WORD_CAP``
    entries EnumerationCapError, before anything is counted.
    """
    n = int(alphabet_size)
    k = int(order)
    if k < 0:
        raise InvalidDistributionError("order must be non-negative")
    _check_cap(n, k + 1, "model table entries")
    if not 0.0 <= alpha < np.inf:
        raise InvalidDistributionError("smoothing constant must be finite and >= 0")
    if np.asarray(stream).size <= k:
        raise InvalidDistributionError(
            f"stream of {np.asarray(stream).size} symbols is too short for order {k}"
        )
    symbols = as_word(stream, n)
    counts = np.zeros((n**k, n))
    context = np.zeros(symbols.size - k, dtype=np.int64)
    for j in range(k):
        context = context * n + symbols[j : symbols.size - k + j]
    np.add.at(counts, (context, symbols[k:]), 1.0)
    totals = counts.sum(axis=1, keepdims=True) + alpha * n
    counts += alpha
    seen = totals > 0.0
    rows = np.divide(counts, totals, out=counts, where=seen)
    rows[~seen[:, 0]] = 1.0 / n
    return SourceModel(n, k, rows)


# -- model files ---------------------------------------------------------------


def save_model(model: SourceModel, path, header_lines: Sequence[str] = ()) -> None:
    """Write a model as the key-value text format (one probability row per line).

    A row is labelled by its context's k symbols, comma-separated decimals
    for every n, or ``-`` for order 0, and holds its n probabilities, each
    written as ``%.17g`` of its float, which reads back to the same float.

    The format does not change with how the table is written: the cost
    grows with the number of distinct values, not of entries, and the bytes
    are those of formatting every entry on its own.  The table's bit
    patterns are sorted once (so ``-0.0`` stays apart from ``0.0``); when at
    most a quarter of the entries are distinct, as in a trained table, each
    distinct value is formatted once and the rows are joined from those
    strings.  A table with more distinct values is formatted entry by entry,
    which is then faster.
    """
    n, k = model.alphabet_size, model.order
    table = model.transition
    label = ",".join(["%d"] * k) or "-"
    bits = table.view(np.uint64)
    # one sort: np.unique took 0.69 s on an all-distinct 9216x96 table, this 10 ms
    keys = np.sort(bits, axis=None)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    if keys.size <= _SAVE_DISTINCT_SHARE * table.size:
        texts = np.array(["%.17g" % v for v in keys.view(np.float64).tolist()], dtype=object)
        row_format = f"row {label} %s\n"
        rows = ([" ".join(row)] for row in texts[np.searchsorted(keys, bits)].tolist())
    else:
        row_format = f"row {label} " + " ".join(["%.17g"] * n) + "\n"
        rows = table.tolist()
    with _open_for(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"n {n}\n")
        fh.write(f"order {k}\n")
        for context, row in zip(digits(n, k).tolist(), rows):
            fh.write(row_format % (*context, *row))


class _Floats(dict):
    """Token -> float cache: each distinct token is parsed by ``float`` once."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def load_model(path) -> SourceModel:
    """Parse a model file in the (unchanged) format :func:`save_model` writes.

    A header whose table of ``n**k * n`` entries would exceed
    ``DEFAULT_WORD_CAP`` raises EnumerationCapError naming the line that
    completes it.  Each row is converted as it is read and written straight
    into the table, which is allocated at the first row.  The cost grows
    with the number of distinct rows and values while they are few.  A row
    whose text (everything after its label) repeats an earlier row's is
    copied from that row's table entries instead of being parsed again,
    until more distinct rows are cached than half the table's rows.  The rows that are parsed send their tokens
    through a per-file cache, so each distinct one is parsed once; when the
    cache outgrows 1/32 of the table's entries, the file is mostly distinct
    values, so the cache is dropped and the rest is parsed token by token.
    Either cache, once dropped, is not rebuilt.  Malformed input raises
    ModelFormatError naming its line: a bad header value, row label or
    token, and the first row in the file holding a negative or non-finite
    probability (found by one check of the whole table once it is read).
    Missing headers or rows name no line, and row sums are checked by
    :class:`SourceModel`.
    """
    return SourceModel(*_read_table(path))


def _read_table(path) -> tuple[int, int, np.ndarray]:
    """``(n, k, table)`` of a model file; see :func:`load_model`."""
    header: dict[str, int] = {}
    table = lines = None  # lines[state]: the line of the state's row, 0 before it
    labels = None  # while rows come in state order, the labels of the rows to come
    count = 0
    rows: dict[str, int] | None = {}  # a row's text (after its label) -> its first state
    tokens = _Floats()
    convert = tokens.__getitem__
    with _open_for(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            key = parts[0]
            try:
                if key in ("n", "order"):
                    if len(parts[1]) > 20:  # past the cap's 8 digits; int() refuses 4300
                        raise EnumerationCapError(f"{key} of {len(parts[1])} characters "
                                                  f"exceeds cap {DEFAULT_WORD_CAP}")
                    value = int(parts[1])
                    if table is not None and value != header[key]:
                        raise ModelFormatError(f"line {lineno}: {key!r} changed after rows")
                    if key == "n" and value < 2:
                        raise ValueError("alphabet size must be at least 2")
                    if key == "order" and value < 0:
                        raise ValueError("order must be non-negative")
                    header[key] = value
                    if len(header) == 2:
                        _check_cap(header["n"], header["order"] + 1, "model table entries")
                elif key == "row":
                    if len(header) < 2:
                        raise ModelFormatError(
                            f"line {lineno}: rows must follow 'n' and 'order'"
                        )
                    n, k = header["n"], header["order"]
                    if labels is not None and parts[1] == next(labels, None):
                        state = count  # the label save_model writes for the next state
                    else:
                        labels = None  # off that order: parse this and every later label
                        state = _parse_state_label(parts[1], n, k)
                    if table is None:
                        table, lines = np.empty((n**k, n)), array("q", [0]) * n**k
                        if k and state == 0:  # save_model's order: the labels after 0,...,0
                            symbols = map(str, range(n))
                            labels = map(",".join, itertools.product(symbols, repeat=k))
                            next(labels)
                    if lines[state]:
                        raise ModelFormatError(f"line {lineno}: duplicate row")
                    text = parts[2] if len(parts) > 2 else ""
                    first = -1 if rows is None else rows.get(text, -1)
                    if first >= 0:  # a repeated row: copy the one parsed first
                        table[state] = table[first]
                    else:
                        probs = list(map(convert, text.split()))
                        if len(probs) != n:
                            raise ModelFormatError(
                                f"line {lineno}: expected {n} probabilities"
                            )
                        table[state] = probs
                        if rows is not None:
                            rows[text] = state
                            if len(rows) > _LOAD_ROW_SHARE * n**k:
                                rows = None
                        if len(tokens) > _LOAD_CACHE_SHARE * table.size:
                            tokens.clear()
                            convert = float
                    lines[state] = lineno
                    count += 1
                else:
                    raise ModelFormatError(f"line {lineno}: unknown key {key!r}")
            except EnumerationCapError as exc:
                raise EnumerationCapError(f"line {lineno}: {exc}") from exc
            except (ValueError, IndexError, OverflowError) as exc:
                if isinstance(exc, ModelFormatError):
                    raise
                raise ModelFormatError(f"line {lineno}: {exc}") from exc
    if len(header) < 2:
        raise ModelFormatError("model file must declare 'n' and 'order'")
    n, k = header["n"], header["order"]
    if count != n**k:
        raise ModelFormatError(
            f"model file has {count} rows, expected {n**k}"
        )
    # one pass over the whole table; row sums are SourceModel's check
    bad = ~((table >= 0.0) & (table < np.inf)).all(axis=1)
    if bad.any():
        first = min(lines[state] for state in np.flatnonzero(bad).tolist())
        raise ModelFormatError(f"line {first}: probabilities must be finite and >= 0")
    return n, k, table


def _parse_state_label(label: str, n: int, k: int) -> int:
    if k == 0:
        if label != "-":
            raise ValueError(f"order-0 rows use label '-', got {label!r}")
        return 0
    parts = label.split(",")
    if len(parts) != k:
        raise ValueError(f"state label {label!r} needs {k} symbols")
    state = 0
    for part in parts:
        symbol = int(part)
        if not 0 <= symbol < n:
            raise ValueError(f"symbols out of range for alphabet size {n}")
        state = state * n + symbol
    return state


@contextlib.contextmanager
def _open_for(target, mode: str):
    """Open a path (text as utf-8), or pass an already-open file through unclosed."""
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    else:
        yield target
