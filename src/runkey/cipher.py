"""Running-key ciphers: symbol-wise coder/decoder pairs over a shared alphabet.

A cipher is a pair of tables ``c(x, y) -> z`` and ``d(z, y) -> x`` satisfying
``d(c(x, y), y) = x`` for every plaintext symbol x and key symbol y.  That
identity forces ``x -> c(x, y)`` to be a bijection for each fixed key symbol,
which is what makes a uniformly random key stream produce a uniformly random
ciphertext.  The shipped family is the additive (mod-n) cipher, whose binary
case is plain XOR; arbitrary valid tables are accepted and validated.
"""

from __future__ import annotations

import numpy as np

from .words import as_word


class CipherSpec:
    """A validated coder/decoder table pair over ``{0..n-1}``.

    Parameters
    ----------
    alphabet_size : int
        Alphabet size n >= 2.
    coder, decoder : ndarray, shape (n, n)
        ``coder[x, y]`` is the ciphertext symbol, ``decoder[z, y]`` the
        recovered plaintext symbol.  Construction verifies the deciphering
        identity (and with it per-key bijectivity) exhaustively.

    Attributes
    ----------
    key_table : ndarray or None
        ``key_table[x, z]`` is the unique key symbol y with ``c(x, y) = z``;
        every row is a permutation of the alphabet.  ``None`` when some
        (x, z) pair is reachable through several keys; posterior computations
        require a key-recoverable cipher and reject those tables.
    """

    def __init__(self, alphabet_size: int, coder, decoder):
        n = int(alphabet_size)
        if n < 2:
            raise ValueError("alphabet size must be at least 2")
        c = np.asarray(coder, dtype=np.int64)
        d = np.asarray(decoder, dtype=np.int64)
        if c.shape != (n, n) or d.shape != (n, n):
            raise ValueError(f"coder/decoder tables must have shape ({n}, {n})")
        for name, table in (("coder", c), ("decoder", d)):
            if table.min() < 0 or table.max() >= n:
                raise ValueError(f"{name} table contains out-of-range symbols")
        xs = np.arange(n)[:, None]
        ys = np.arange(n)[None, :]
        if not np.array_equal(d[c[xs, ys], ys], np.broadcast_to(xs, (n, n))):
            raise ValueError("decoder does not invert coder: d(c(x,y),y) != x")
        # d(c(x,y),y) = x for all x forces x -> c(x,y) injective, hence bijective
        self._n = n
        self._coder = c
        self._decoder = d
        self._key_table = self._build_key_table()
        c.flags.writeable = False
        d.flags.writeable = False

    def _build_key_table(self):
        # key-recoverable iff every row c(x, .) is a permutation; then
        # table[x, c(x, y)] = y
        keys = np.broadcast_to(np.arange(self._n), (self._n, self._n))
        if not np.array_equal(np.sort(self._coder, axis=1), keys):
            return None
        table = np.empty_like(self._coder)
        np.put_along_axis(table, self._coder, keys, axis=1)
        table.flags.writeable = False
        return table

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
        x = as_word(plaintext, self._n)
        y = as_word(key, self._n)
        if x.size != y.size:
            raise ValueError(
                f"plaintext length {x.size} != key length {y.size}"
            )
        return self._coder[x, y]

    def decrypt(self, ciphertext, key) -> np.ndarray:
        """Apply the decoder symbol-wise; inverse of :meth:`encrypt`."""
        z = as_word(ciphertext, self._n)
        y = as_word(key, self._n)
        if z.size != y.size:
            raise ValueError(
                f"ciphertext length {z.size} != key length {y.size}"
            )
        return self._decoder[z, y]

    def __repr__(self) -> str:
        return f"CipherSpec(n={self._n})"


def additive_cipher(alphabet_size: int) -> CipherSpec:
    """The mod-n running-key cipher: c(x,y) = (x+y) mod n, d(z,y) = (z-y) mod n.

    For n = 2 the tables coincide with XOR.
    """
    n = int(alphabet_size)
    idx = np.arange(n)
    coder = (idx[:, None] + idx[None, :]) % n
    decoder = (idx[:, None] - idx[None, :]) % n
    return CipherSpec(n, coder, decoder)

