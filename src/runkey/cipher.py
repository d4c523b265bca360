"""Running-key ciphers: a symbol-wise coder over a shared alphabet.

A cipher is a coder table ``c(x, y) -> z`` in which ``x -> c(x, y)`` is a
bijection for each key symbol y, so that the decoder ``d(z, y) -> x`` with
``d(c(x, y), y) = x`` exists; it is derived from the coder, never given.
Under a uniformly random key the ciphertext law given x is
``P(z | x) = #{y : c(x, y) = z} / n``, uniform for every plaintext law iff
each row ``y -> c(x, y)`` is a permutation too, that is iff the key is
recoverable from (x, z) (``key_table`` is not None).  The identity
``c(x, y) = x`` is a cipher with no such row, and it gives z = x.  The
shipped family is the additive (mod-n) cipher, whose binary case is plain
XOR; arbitrary tables are accepted and validated.
"""

from __future__ import annotations

import numpy as np

from .words import as_word


def _inverse(table: np.ndarray, axis: int):
    """Invert each line of ``table`` along ``axis``, or None unless each is a permutation.

    Along axis 0 the result is ``inv[table[x, y], y] = x``, along axis 1
    ``inv[x, table[x, y]] = y``; it is read-only.
    """
    line = np.expand_dims(np.arange(table.shape[axis]), 1 - axis)
    line = np.broadcast_to(line, table.shape)
    if not np.array_equal(np.sort(table, axis=axis), line):
        return None
    inverse = np.empty_like(table)
    np.put_along_axis(inverse, table, line, axis=axis)
    inverse.flags.writeable = False
    return inverse


class CipherSpec:
    """A validated coder table over ``{0..n-1}`` and the inverses it determines.

    Parameters
    ----------
    alphabet_size : int
        Alphabet size n >= 2.
    coder : ndarray, shape (n, n)
        ``coder[x, y]`` is the ciphertext symbol.  Every column
        ``x -> coder[x, y]`` must be a permutation of the alphabet.

    Attributes
    ----------
    decoder : ndarray
        ``decoder[z, y]`` is the plaintext symbol x with ``c(x, y) = z``.
    key_table : ndarray or None
        ``key_table[x, z]`` is the unique key symbol y with ``c(x, y) = z``;
        every row is a permutation of the alphabet.  ``None`` when some
        (x, z) pair is reachable through several keys; posterior computations
        require a key-recoverable cipher and reject those tables.
    """

    def __init__(self, alphabet_size: int, coder):
        n = int(alphabet_size)
        if n < 2:
            raise ValueError("alphabet size must be at least 2")
        c = np.array(coder, dtype=np.int64)  # a copy: the caller's array stays writeable
        if c.shape != (n, n):
            raise ValueError(f"coder table must have shape ({n}, {n})")
        self._decoder = _inverse(c, axis=0)
        if self._decoder is None:
            raise ValueError("coder is not a bijection x -> c(x, y) for every key symbol y")
        self._key_table = _inverse(c, axis=1)
        self._n = n
        self._coder = c
        c.flags.writeable = False

    @property
    def alphabet_size(self) -> int:
        return self._n

    @property
    def coder(self) -> np.ndarray:
        return self._coder

    @property
    def decoder(self) -> np.ndarray:
        return self._decoder

    @property
    def key_table(self):
        return self._key_table

    def encrypt(self, plaintext, key) -> np.ndarray:
        """Apply the coder symbol-wise; plaintext and key must have equal length."""
        return self._apply(self._coder, plaintext, key, "plaintext")

    def decrypt(self, ciphertext, key) -> np.ndarray:
        """Apply the decoder symbol-wise; inverse of :meth:`encrypt`."""
        return self._apply(self._decoder, ciphertext, key, "ciphertext")

    def _apply(self, table, text, key, name: str) -> np.ndarray:
        a = as_word(text, self._n)
        y = as_word(key, self._n)
        if a.size != y.size:
            raise ValueError(f"{name} length {a.size} != key length {y.size}")
        return table[a, y]

    def __repr__(self) -> str:
        return f"CipherSpec(n={self._n})"


def additive_cipher(alphabet_size: int) -> CipherSpec:
    """The mod-n running-key cipher: c(x,y) = (x+y) mod n, d(z,y) = (z-y) mod n.

    For n = 2 the tables coincide with XOR.
    """
    n = int(alphabet_size)
    idx = np.arange(n)
    return CipherSpec(n, (idx[:, None] + idx[None, :]) % n)
