"""Exact posterior and entropy analysis of the (plaintext, ciphertext) pair.

For independent sources X (plaintext) and Y (key) pushed through a
key-recoverable running-key cipher, the joint probability of a plaintext
word and an observed ciphertext factorises as ``P_X(x) * P_Y(y(x, z))``
with ``y(x, z)`` the unique key word mapping x to z.  Everything here is
built on that identity:

- :func:`posterior` enumerates all ``n**t`` plaintexts of an observed
  ciphertext exactly (log-space throughout, at most ``DEFAULT_WORD_CAP``
  words) and normalises them by ``log2 P(z)`` from the forward below; the
  posterior mass must come to 1, which checks the enumeration against the
  forward.  The one plaintext enumeration, ``_joint_blocks``, meets in the
  middle: a block is the outer sum of left words (the first h symbols) and
  their right halves (the rest, given a left word's last K symbols), each
  half one sequential ``_joint_table``.  ``_posterior_blocks`` is the one
  path to the posterior: the CLI's posterior report (CSV and JSON) reduces
  it block by block, holding one block and the halves, and
  :func:`posterior` is its concatenation.  The typical set reads the same
  halves (see :func:`runkey.secrecy.build_typical_set`);
- :func:`log_marginal_forward` computes ``log2 P(z)`` in time linear in t by
  a scaled forward recursion.  Given z, one source's symbols follow from the
  other's, so the recursion runs over the last K symbols of one source, the
  driver (one stacked matmul a step, over at most max(S, n) states for a
  key-recoverable cipher when the product chain has S), not over the
  product chain itself;
- the brackets' ciphertext block entropies descend the ciphertext suffix
  tree depth first, backward: a word's law given each product state, over
  the S states, gives a child's at n * S multiply-adds, for every cipher.
  Successor states are read by reshaping a block, as in the sources' step;
  no step table and none of the product chain's S x S operators is built;
- :func:`hz_bracket` / :func:`hxz_bracket` sandwich the entropy rate of the
  ciphertext process, which is a function of a hidden Markov chain and has
  no closed form, between the standard monotone conditional-entropy bounds
  ``H(Z_{m+1} | Z_1..Z_m, S_1) <= h(Z) <= H(Z_{m+1} | Z_1..Z_m)``.  The
  lower end is the joint-entropy difference
  ``H(Z_1..Z_{m+1}, S_1) - H(Z_1..Z_m, S_1)`` (the ``H(S_1)`` terms
  cancel), so one enumeration gives both ends for every order up to m,
  and that trail is certified monotone.

Enumerations run over bounded blocks, one after another, so their
working memory stays bounded.  The caps are module constants
checked where the memory is allocated, not arguments.

The posterior CSV is written ``_CSV_ROWS`` rows at a time, each chunk one
byte matrix of plaintext texts (looked up a group of digits at a time) and
``.12g`` values (digits from integer arithmetic, exact; Python formats only
near-ties and values outside [1, 1e12)), so no Python code runs per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cipher import CipherSpec
from .errors import CertificationError, EnumerationCapError, UnsupportedCipherError
from .sources import (
    DEFAULT_WORD_CAP,  # noqa: F401 (re-exported; tests read it here)
    SourceModel,
    _check_cap,
    _log2_safe,
    _open_for,
    entropy_bits,
    xlog2x,
)
from .words import as_word, digits, text_bytes, word_to_index

# float64 cells (32 MiB) per dense operator and per forward batch; it exists
# to bound working memory
_CELL = 1 << 22

# plaintext words (512 KiB of float64) per block of the plaintext enumeration,
# or one left word's right half if longer; with the halves it bounds the
# working memory of the typical set and the posterior reports
_BLOCK_WORDS = 1 << 16

# posterior CSV rows formatted at a time: at the writer's peak a row holds
# some 155 bytes of arrays and text (tracemalloc, n = 2, t = 18), against 8
# for its value, so 2**13 rows take 1.3 MB; 2**14 put the writer and one
# enumeration block over 4 MB
_CSV_ROWS = 1 << 13

# distance from 1/2 of a scaled value's fraction within which _g12 leaves the
# rounding to Python: the scaled value is off by at most 2**-13
_TIE_WINDOW = 1e-3

_POW10 = 10.0 ** np.arange(13)  # exact: every power of ten up to 1e22 is a double
_TRIPLES = np.frombuffer(b"".join(b"%03d" % i for i in range(1000)), dtype="S3")

# float64 cells (128 KiB), S x words, in the children of one block of the
# ciphertext block enumeration; it bounds working memory whatever the depth
_ENUM_CELL = 1 << 14

# distance from 1 allowed for the posterior mass, the sum over the
# enumeration normalised by the forward; more is a CertificationError
_MASS_TOL = 1e-9

# float jitter allowed where a bracket end crosses the other or its trail
# moves the wrong way; more is a CertificationError
_BRACKET_TOL = 1e-9


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


class _Front:
    """A batch's forward between calls of :meth:`_ProductChain.forward_log2`,
    on rows of t symbols: the symbols in so far, the first K while they
    wait, and the front, its scale, accumulated log, dead mask and cipher
    windows once they are in, with a second front to step into."""

    def __init__(self, t: int):
        self.t, self.seen, self.head = int(t), 0, None
        self.alpha = self.fresh = self.scale = self.acc = self.dead = self.recent = None


class _ProductChain:
    """The hidden Markov chain driving the ciphertext process.

    States are pairs (plaintext context, key context) packed as
    ``sx * Sy + sy``.  Construction checks no cap and computes nothing: each
    kernel checks its own work (the bracket's in
    :func:`_entropies_for_chain`, the forward's below).

    The forward (:meth:`forward_log2`) runs over the driver's last K symbols
    instead.  Given z, the key symbol is a function of the plaintext symbol
    (``key_table[a, z]``, key-recoverable ciphers) and the plaintext symbol
    one of the key symbol (``decoder[z, b]``, every cipher).  So only one
    source, the driver, is summed over; the other one's symbols follow
    (``recover[d, z]``).  The driver is the higher-order source (on a tie
    the plaintext, if the cipher is key-recoverable).  A state is the
    driver's last ``K = max(k_D, k_O + 1)`` symbols, packed; for a
    key-recoverable cipher n**K is at most max(S, n), and always at most
    n * S.  Fronts are state-major, ``(n**K, batch)``.

    A step is one stacked (n, n) matmul of the driver's table, times the
    other source's factor.  That factor depends only on the state's last
    ``k_O + 1`` driver symbols and the row's last ``k_O + 1`` ciphertext
    symbols, so it is one ``lookup`` table of ``n**(2 k_O + 2)`` entries,
    within ``DEFAULT_WORD_CAP`` (checked before it is built): column ``c``
    holds the factor for the packed cipher window c.

    ``A`` (for each ciphertext symbol v, ``A[v][s, s']`` is the probability
    of emitting v from state s while moving to s'; a dense (n, S, S) stack
    for small chains, ``scipy.sparse`` CSR matrices, imported only then, for
    large ones, as ``dense`` says) is built on first read.  Nothing in the
    package reads it: it is kept only for the benchmark's stored-entries
    counter.
    """

    def __init__(self, xm: SourceModel, ym: SourceModel, spec: CipherSpec):
        self.n = _check_alphabets(xm, ym, spec)
        self.xm, self.ym, self.spec = xm, ym, spec
        self.size = xm.num_states * ym.num_states
        self.dense = self.n * self.size * self.size <= _CELL

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
    def _driver(self):
        """``(drive, other, recover, K, stack, lookup)`` of the forward (lookup cap checked)."""
        n, xm, ym, spec = self.n, self.xm, self.ym, self.spec
        if spec.key_table is not None and xm.order >= ym.order:
            drive, other, recover = xm, ym, spec.key_table
        else:
            drive, other, recover = ym, xm, spec.decoder.T
        k = max(drive.order, other.order + 1)
        _check_cap(n, 2 * other.order + 2, "forward factor table entries")
        window = n ** (other.order + 1)
        # stack[r, d, d0]: the driver emits d after the state d0*rest + r, whose
        # context is its last k_D symbols (a view of the table when K = k_D)
        contexts, rest = drive.num_states, n ** (k - 1)
        tiled = np.broadcast_to(drive.transition, (n**k // contexts, contexts, n))
        stack = tiled.reshape(n, rest, n).transpose(1, 2, 0)
        # lookup[w, v]: the other source's factor for driver window w and cipher
        # window v, from the context its first k_O symbols give and its last one
        prefix = _recovered(recover, digits(n, other.order))
        lookup = other.transition[
            prefix[:, None, :, None], recover[None, :, None, :]
        ].reshape(window, window)
        return drive, other, recover, k, stack, lookup

    def forward_log2(self, observations: np.ndarray, front: _Front | None = None):
        """Scaled forward pass: log2 P(z) for each row of a (batch, t) array.

        Linear in t.  The front holds the joint mass of the driver's last K
        symbols; the first K symbols come from the block laws, as in
        :func:`joint_log2_table`, and each later one is the driver's stacked
        matmul times the lookup column of the row's rolling cipher window.

        With ``front`` (a :class:`_Front` of the rows' t), ``observations``
        holds the rows' next symbols, any number of them: the front, its
        scale, accumulated log and dead mask and the cipher window carry
        from call to call, and the first K symbols wait until they are all
        in.  The result is None until the last symbol is in, and then bit
        for bit that of one call on the whole rows.

        The rows are read in their own integer type, so the walk's one-byte
        words are not copied; only the packed cipher windows are int64.
        Identical arguments give identical results.  A row's value does not
        depend on the other rows, but the batch width can move it by float
        rounding (the GEMM's blocking and the order of the per-row sums).
        """
        drive, other, recover, k, stack, lookup = self._driver
        n, rest, window = self.n, stack.shape[0], lookup.shape[0]
        obs = np.atleast_2d(observations)
        if front is None:
            front = _Front(obs.shape[1])
        batch, t = obs.shape[0], front.t

        if front.acc is None:
            head = min(t, k)
            part = obs[:, : head - front.seen]
            front.head = part if front.head is None else np.hstack([front.head, part])
            front.seen += part.shape[1]
            obs = obs[:, part.shape[1]:]
            if front.seen < head:
                return None
            recovered = _recovered(recover, front.head)
            log_head = (
                drive.log2_block_prob_array(head)[:, None]
                + other.log2_block_prob_array(head)[recovered]
            )
            top = log_head.max(axis=0)
            top[top == -np.inf] = 0.0
            log_head -= top
            front.alpha = np.ascontiguousarray(np.exp2(log_head, out=log_head))  # state-major
            front.scale = front.alpha.sum(axis=0)
            front.dead = ~(front.scale > 0.0)
            front.scale[front.dead] = 1.0
            front.acc = top + np.log2(front.scale)
            if t > k:
                # each row's cipher window, its last k_O + 1 symbols
                powers = n ** np.arange(other.order, -1, -1)
                front.recent = front.head[:, k - other.order - 1 : k] @ powers
            front.head = None
        if obs.shape[1] and front.fresh is None:
            front.fresh = np.empty_like(front.alpha)
        alpha, fresh, scale, acc, dead, recent = (
            front.alpha, front.fresh, front.scale, front.acc, front.dead, front.recent
        )
        for j in range(obs.shape[1]):
            recent = recent % (window // n) * n + obs[:, j]
            factor = np.take(lookup, recent, axis=1)
            factor /= scale  # the front carries the previous step's mass
            np.matmul(stack, alpha.reshape(n, rest, batch).transpose(1, 0, 2),
                      out=fresh.reshape(rest, n, batch))
            windows = fresh.reshape(-1, window, batch)
            windows *= factor
            scale = fresh.sum(axis=0)
            bad = ~(scale > 0.0)
            if bad.any():
                dead |= bad
                scale[bad] = 1.0
            acc += np.log2(scale)
            alpha, fresh = fresh, alpha
        front.seen += obs.shape[1]
        front.alpha, front.fresh, front.scale, front.recent = alpha, fresh, scale, recent
        if front.seen < t:
            return None
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
    probability zero.  The forward's factor table is checked against the cap
    before it is built; no operators are built.
    """
    z = as_word(ciphertext, spec.alphabet_size)
    chain = _ProductChain(xm, ym, spec)
    return float(chain.forward_log2(z[None, :])[0])


def _joint_table(xm, ym, spec, z: np.ndarray, laws=True) -> np.ndarray:
    """log2 of ``P_X(x) * P_Y(y(x, z))`` for every plaintext word x of the word z.

    The table grows one position at a time, broadcasting the position's
    terms over the prefixes' last K = max(k_X, k_Y) symbols, so an entry is
    the sequential sum of its terms.  The cap (n**t words) and the cipher
    are checked first.  With ``laws`` false the first min(t, K) positions
    add nothing: an entry is the log-probability of the later symbols given
    the first ones as both sources' context (a right half).
    """
    n, t = spec.alphabet_size, z.size
    _check_cap(n, t, "plaintexts")
    key_table = spec.key_table
    if key_table is None:
        raise UnsupportedCipherError("posterior enumeration needs a key-recoverable cipher")
    k, ky = max(xm.order, ym.order), ym.order
    head = min(t, k)
    if not laws or head == 0:
        table = np.zeros(n**head)
    else:
        keys = _recovered(key_table, z[None, :head])[:, 0]
        table = xm.log2_block_prob_array(head) + ym.log2_block_prob_array(head)[keys]
    contexts = np.arange(n**k)
    log_tx, log_ty = _log2_safe(xm.transition), _log2_safe(ym.transition)
    for j in range(head, t):
        # the key's log-term for plaintext symbol a after each last k_Y symbols
        key_terms = log_ty[_recovered(key_table, z[None, j - ky : j]), key_table[:, z[j]]]
        terms = log_tx[contexts % xm.num_states] + key_terms[contexts % ym.num_states]
        table = (table.reshape(-1, contexts.size, 1) + terms).reshape(-1)
    return table


def _split(n: int, k: int, t: int) -> int:
    """The split point h of a length-t enumeration, with K = ``k``; caps checked.

    h balances the left half's n**h words against the right half's
    n**(K + t - h) cells (K context symbols, then t - h); h >= max(K, 1),
    or h = t, with no right half, when t <= K + 1.  Each half must be within
    ``DEFAULT_WORD_CAP``, and the packed words' n**t below 2**63; all is
    checked without computing a large power, before anything is computed.
    """
    h = t if t <= k else (t + k + 1) // 2
    _check_cap(n, h, "left-half plaintexts")
    _check_cap(n, k + t - h if h < t else 0, "right-half cells")
    if n**t >= 1 << 63:  # both halves are within the cap, so n**t is small
        raise EnumerationCapError(f"packed plaintext indices {n}**{t} reach 2**63")
    return h


def _right_half(xm, ym, spec, z: np.ndarray, h: int) -> np.ndarray:
    """Entry ``[c, w]``: log2 of positions h.. being the packed word w, given
    c, the last min(h, K) symbols before them (0 when h = t)."""
    k = min(h, max(xm.order, ym.order))
    right = _joint_table(xm, ym, spec, z[h - k :], False)
    return right.reshape(-1, spec.alphabet_size ** (z.size - h))


def _joint_blocks(xm, ym, spec, ciphertext):
    """:func:`joint_log2_table` as ``(start, block)`` pairs, in index order.

    With h from :func:`_split`, a word's entry is L + R: L the joint table
    of its first h symbols, R its left word's row of :func:`_right_half`.
    A block, the packed words ``start, start + 1, ...``, is the raveled
    outer sum of at most ``_BLOCK_WORDS // n**(t - h)`` left words (one at
    least) with their rows, the same sums whatever the block size.  The cap
    (n**t words) and the cipher are checked, and the halves (n**h words and
    n**(K + t - h) cells) computed, before this returns.
    """
    n = _check_alphabets(xm, ym, spec)
    z = as_word(ciphertext, n)
    t = z.size
    _check_cap(n, t, "plaintexts")
    h = _split(n, max(xm.order, ym.order), t)
    left = _joint_table(xm, ym, spec, z[:h])
    right = _right_half(xm, ym, spec, z, h)
    contexts, width = right.shape
    rows = max(1, _BLOCK_WORDS // width)

    def blocks():
        for first in range(0, left.size, rows):
            values = left[first : first + rows, None]
            block = right[np.arange(first, first + values.size) % contexts]
            block += values
            yield first * width, block.ravel()

    return blocks()


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
    ``max(k_X, k_Y)`` symbols.  :func:`_joint_blocks` draws the same entries
    from two halves, up to rounding.
    """
    n = _check_alphabets(xm, ym, spec)
    return _joint_table(xm, ym, spec, as_word(ciphertext, n))


def _certify_mass(total: float) -> None:
    if not abs(total - 1.0) <= _MASS_TOL:
        raise CertificationError(
            f"posterior mass {total!r} deviates from 1 beyond {_MASS_TOL}"
        )


def _log_marginal(xm, ym, spec, ciphertext) -> float:
    """The forward's ``log2 P(z)``; a ciphertext of probability zero is a ValueError."""
    log_marginal = log_marginal_forward(xm, ym, spec, ciphertext)
    if log_marginal == -np.inf:
        raise ValueError("ciphertext has probability zero under these models")
    return log_marginal


def _posterior_blocks(xm, ym, spec, ciphertext):
    """``(log2 P(z), blocks)``: the posterior of every plaintext, block by block.

    ``blocks`` yields ``(start, log2 P(x | z))`` pairs: the blocks of
    :func:`_joint_blocks` minus the forward's ``log2 P(z)`` (within 2.9e-14
    of :func:`joint_log2_table`'s on four certify workloads).  Once the last
    block is drawn, their total mass must be 1 within ``_MASS_TOL``, or
    CertificationError: the enumeration is checked against the forward, an
    independent computation.  The cap, the cipher and a zero ``P(z)`` are
    checked before this returns.
    """
    joint = _joint_blocks(xm, ym, spec, ciphertext)
    log_marginal = _log_marginal(xm, ym, spec, ciphertext)

    def blocks():
        total = 0.0
        for start, block in joint:
            block = block - log_marginal
            total += float(np.exp2(block).sum())
            yield start, block
        _certify_mass(total)

    return log_marginal, blocks()


def _g12(values: np.ndarray) -> np.ndarray:
    """``f"{v:.12g}"`` of each value, as rows of ASCII bytes padded with NULs.

    A value with 1 <= |v| < 1e12 has e = floor(log10 |v|) (exact, by
    comparison with the powers of ten) and the 12 digits of
    d = rint(|v| * 10**(11 - e)): the power is exact, so the product is
    rounded once, off by at most 2**-13, and rint rounds it as Python rounds
    |v| unless its fraction lies within ``_TIE_WINDOW`` of 1/2.  The digits
    come from a table of digit triples; trailing fraction zeros and a bare
    point are dropped.  -inf is written as such.  Python formats the rest:
    near-ties, a d rounded up to 1e12, and |v| outside [1, 1e12) (in a
    posterior, only the one plaintext that can have P(x | z) > 1/2).  Rows
    are 14 bytes wide, or as wide as the longest text Python wrote.
    """
    size = np.abs(values)
    exponent = np.searchsorted(_POW10, size, side="right") - 1  # nan sorts last
    fast = (exponent >= 0) & (exponent < 12)
    exponent = exponent.clip(0, 11)
    scaled = np.where(fast, size, 1.0) * _POW10[11 - exponent]
    rounded = np.rint(scaled)
    fast &= (np.abs(scaled - np.floor(scaled) - 0.5) >= _TIE_WINDOW) & (rounded < 1e12)
    rest = np.flatnonzero(~fast & (values != -np.inf))
    texts = [f"{v:.12g}".encode("ascii") for v in values[rest].tolist()]
    out = np.zeros((values.size, max([14, *map(len, texts)])), dtype=np.uint8)
    # the other rows get digits of 1e11, then are overwritten
    d = np.where(fast, rounded, 1e11).astype(np.int64)
    high, low = np.divmod(d, 1000000)
    triples = np.stack([high // 1000, high % 1000, low // 1000, low % 1000], axis=1)
    digits12 = _TRIPLES[triples].view(np.uint8).reshape(-1, 12)
    out[:, 0] = np.where(values < 0, ord("-"), 0)
    counts = np.bincount(exponent, minlength=12)
    for e in np.flatnonzero(counts).tolist():
        rows = slice(None) if counts[e] == values.size else np.flatnonzero(exponent == e)
        out[rows, 1 : e + 2] = digits12[rows, : e + 1]
        if e < 11:
            out[rows, e + 2] = ord(".")
            out[rows, e + 3 : 14] = digits12[rows, e + 1 :]
    ends = np.flatnonzero(d % 10 == 0)  # the rows with trailing zeros
    if ends.size:
        e = exponent[ends, None]
        last = 11 - np.argmax(digits12[ends, ::-1] != ord("0"), axis=1)[:, None]
        out[ends, 1:14] *= np.arange(13) <= np.where(last > e, last + 1, e)
    out[values == -np.inf] = np.frombuffer(b"-inf".ljust(out.shape[1], b"\0"), np.uint8)
    if texts:
        out[rest] = np.array(texts, dtype=f"S{out.shape[1]}")[:, None].view(np.uint8)
    return out


def _write_posterior(fh, n: int, t: int, blocks, json: bool = False) -> None:
    """Write the (plaintext, log2_posterior) rows of ``blocks``, CSV or JSON.

    ``blocks`` yields ``(start, values)`` pairs in index order; a plaintext is
    written as base-n text and a value as ``.12g``.  CSV is a header line and
    a line a row, the text quoted when it has commas (n > 36, t >= 2), as RFC
    4180 asks.  JSON is an array of ``{"plaintext": ..., "log2_posterior":
    ...}`` objects joined by ", ", as ``cli._json_value`` writes the list:
    ``-inf`` and ``nan``, which JSON has no literals for, are quoted.  Each
    ``_CSV_ROWS`` rows are one byte matrix, with NUL bytes where a text is
    shorter or a quote absent; the NULs are dropped and the rest written at
    once.
    """
    if json:
        lead, middle, end = b', {"plaintext": "', b'", "log2_posterior": ', b"}"
        fh.write("[")
    else:
        lead, middle, end = b"", b",", b"\n"
        fh.write("plaintext,log2_posterior\n")
    skip = 2 if json else 0  # the first row has no ", " before it

    def fixed(part, size):  # the same bytes in every row
        return np.broadcast_to(np.frombuffer(part, np.uint8), (size, len(part)))

    for start, block in blocks:
        for first in range(0, block.size, _CSV_ROWS):
            values = block[first : first + _CSV_ROWS]
            size = values.size
            text = text_bytes(n, t, start + first, start + first + size)
            quote = b'"' if not json and (text[0] == ord(",")).any() else b""
            marks = np.zeros((size, 1), dtype=np.uint8)
            if json:
                marks[~np.isfinite(values)] = ord('"')
            rows = np.concatenate([fixed(lead + quote, size), text, fixed(quote + middle, size),
                                   marks, _g12(values), marks, fixed(end, size)], axis=1)
            fh.write(rows[rows != 0].tobytes()[skip:].decode("ascii"))
            skip = 0
    if json:
        fh.write("]")


@dataclass(frozen=True)
class PosteriorTable:
    """Exact conditional law over all plaintexts of a fixed ciphertext.

    ``log_posterior[u]`` is ``log2 P(x | z)`` for the plaintext word with
    packed index u; ``log_marginal`` is ``log2 P(z)``.  Construction
    certifies that the table's mass is 1 within ``_MASS_TOL``; with
    ``log_marginal`` from the forward recursion, as :func:`posterior` gives
    it, that compares two independent computations.
    """

    ciphertext: np.ndarray
    log_posterior: np.ndarray
    log_marginal: float
    alphabet_size: int

    def __post_init__(self):
        _certify_mass(float(np.exp2(self.log_posterior).sum()))

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
        with _open_for(target, "w") as fh:
            _write_posterior(fh, self.alphabet_size, self.length, [(0, self.log_posterior)])


def posterior(
    xm: SourceModel,
    ym: SourceModel,
    spec: CipherSpec,
    ciphertext,
) -> PosteriorTable:
    """Exhaustive posterior ``P(x | z)`` over all plaintexts of length ``len(z)``.

    The concatenation of :func:`_posterior_blocks`: the joint table
    normalised by ``log2 P(z)`` from :func:`log_marginal_forward`, so the
    mass check compares the enumeration with the forward.  This holds the
    whole ``n**t`` table; the CLI's posterior report draws the same values
    block by block instead.  A ciphertext of
    probability zero is a ValueError.
    """
    n = _check_alphabets(xm, ym, spec)
    z = as_word(ciphertext, n)
    log_marginal, blocks = _posterior_blocks(xm, ym, spec, z)
    return PosteriorTable(
        ciphertext=z,
        log_posterior=np.concatenate([block for _, block in blocks]),
        log_marginal=log_marginal,
        alphabet_size=n,
    )


# -- ciphertext block entropies and brackets -----------------------------------


def _entropies_for_chain(chain: _ProductChain, length: int) -> tuple[np.ndarray, np.ndarray]:
    """``H(Z^j)`` and ``H(Z^j, S_1)`` in bits for all ``j <= length``.

    S_1 is the product state at time 1, drawn from the stationary law
    ``alpha0``; index 0 holds 0 and ``H(S_1)``.  Both come from one
    backward, depth-first descent of the ciphertext suffix tree, which works
    for every cipher.  With ``beta_w(s) = P(Z_1..Z_j = w | S_1 = s)``
    (``beta`` of the empty word is 1), a child prepends a symbol:
    ``beta_{a w}(s) = sum T_X(s_x, x) T_Y(s_y, y) beta_w(s')`` over the n
    pairs (x, y) that the cipher maps to a, s' the successor of s under the
    pair.  Then ``H(Z^j) = -sum_w xlog2x(alpha0 . beta_w)`` and
    ``H(Z^j, S_1) = -sum_{w, s} xlog2x(alpha0(s) beta_w(s))``; a word costs
    n * S multiply-adds.  A context (s0, rest) of either source leads to
    (rest, symbol) whatever s0 is, and an order-0 one to itself, so the
    successor rows are a reshaped view of the block: no table is built.

    One parent word's children cost n * n * S = n**(k_X + k_Y + 2)
    multiply-adds, which must be within ``DEFAULT_WORD_CAP``; that and the
    length are checked before anything is computed.  Blocks are (S, r)
    arrays of the words at one depth.  A block's children, word ``a w`` in
    column ``a * r + w``, hold at most ``_ENUM_CELL`` cells (one parent word
    at least: n * S cells).  They go on in blocks of at most
    ``_ENUM_CELL // (n * S)`` words, each descended before the next.  Every
    word's beta and terms are computed the same way in any block (sums over
    states row by row, over pairs and over children in symbol order), so
    the block size changes no bit.
    """
    n, size, xm, ym = chain.n, chain.size, chain.xm, chain.ym
    if length < 1:
        raise ValueError("block length must be >= 1")
    _check_cap(n, length, "ciphertext blocks")
    _check_cap(n, xm.order + ym.order + 2, "bracket multiply-adds per word")
    alpha0 = np.outer(xm.stationary, ym.stationary).ravel()
    plain_of = chain.spec.decoder.T  # [y, a]
    fx, fy = (n if model.order else 1 for model in (xm, ym))
    shape = (fx, xm.num_states // fx, fy, ym.num_states // fy, n)
    words = max(1, _ENUM_CELL // (n * size))

    def below(beta, depth):
        """Entropy terms of the descendants of the (S, r) block ``beta`` at ``depth``.

        Row i of each channel of the (2, length - depth, r) result
        sums each column's descendants i + 1 levels down.
        """
        r = beta.shape[1]
        after = beta.reshape(shape[1], fx, shape[3], fy, r)  # (rest, symbol) per source
        child = np.zeros((*shape, r))
        for y in range(n):
            # the key emits y and the plaintext plain_of[y, a] from (s_x, s_y)
            weight = xm.transition[:, None, plain_of[y]] * ym.transition[:, y, None]
            successors = after[:, :, :, y % fy][:, plain_of[y] % fx].transpose(0, 2, 1, 3)
            child += weight.reshape(shape)[..., None] * successors[None, :, None]
        child = child.reshape(size, n * r)  # word a w in column a * r + w
        mass = child * alpha0[:, None]
        # both channels' terms; n * r > 1 columns, so summed row by row
        terms = np.stack([-xlog2x(mass.sum(axis=0)), -xlog2x(mass).sum(axis=0)])[:, None]
        del mass
        if depth + 1 < length:
            deeper = [below(child[:, s : s + words], depth + 1)
                      for s in range(0, n * r, words)]
            terms = np.concatenate([terms, np.concatenate(deeper, axis=2)], axis=1)
        levels = terms.reshape(2, -1, n, r)
        return np.add.accumulate(levels, axis=2)[:, :, -1]

    totals = below(np.ones((size, 1)), 0)[:, :, 0]
    return (np.concatenate([[0.0], totals[0]]),
            np.concatenate([[entropy_bits(alpha0)], totals[1]]))


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
    log2 n.  The identity needs the key to follow from (x, z), so a cipher
    that is not key-recoverable is an UnsupportedCipherError (under z = x
    it would give h(Y), not 0).
    """
    n = _check_alphabets(xm, ym, spec)
    if spec.key_table is None:
        raise UnsupportedCipherError("the equivocation identity needs a key-recoverable cipher")
    z_bracket = hz_bracket(xm, ym, spec, m)
    base = xm.entropy_rate() + ym.entropy_rate()
    log_n = float(np.log2(n))
    lower = min(max(base - z_bracket.upper, 0.0), log_n)
    upper = min(max(base - z_bracket.lower, 0.0), log_n)
    return EntropyBracket(lower=lower, upper=upper, order_used=m)
