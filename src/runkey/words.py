"""Finite-alphabet words and their packed-integer indexing.

A word over the alphabet ``{0, .., n-1}`` is a 1-D integer array.  Exhaustive
enumerations index the ``n**t`` words of length ``t`` as base-``n`` integers
with the first symbol in the most significant position, so extending a word by
one symbol maps index ``u`` to ``u*n + a``.  Helpers here convert between the
array, integer-index, text and raw-byte representations; everything heavier
lives in the model and inference modules.

The codec comes in two forms.  :func:`digits` and :func:`render` are the
vectorized one: the digit rows of a range of indices, and the text of many
rows at once; every plaintext or ciphertext written as text goes through
them.  :func:`word_to_index` and :func:`index_to_word` are the exact scalar
pair on Python ints, which stay exact beyond int64 where ``digits`` would
overflow.
"""

from __future__ import annotations

import numpy as np

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_VALUE = {c: i for i, c in enumerate(_DIGITS)}


def as_word(symbols, alphabet_size: int) -> np.ndarray:
    """Validate and return ``symbols`` as an int64 word over ``{0..n-1}``.

    Raises ValueError for an empty word or out-of-range symbols.
    """
    word = np.atleast_1d(np.asarray(symbols, dtype=np.int64))
    if word.ndim != 1:
        raise ValueError("a word must be one-dimensional")
    if word.size == 0:
        raise ValueError("a word must be non-empty")
    if word.min() < 0 or word.max() >= alphabet_size:
        raise ValueError(
            f"symbols out of range for alphabet size {alphabet_size}"
        )
    return word


def word_to_index(word, alphabet_size: int) -> int:
    """Pack a word into its base-n integer index (first symbol most significant)."""
    word = as_word(word, alphabet_size)
    index = 0
    for sym in word.tolist():
        index = index * alphabet_size + sym
    return index


def index_to_word(index: int, alphabet_size: int, length: int) -> np.ndarray:
    """Unpack a base-n integer index into a word of the given length."""
    if not 0 <= index < alphabet_size**length:
        raise ValueError("index out of range for the given length")
    out = np.empty(length, dtype=np.int64)
    for pos in range(length - 1, -1, -1):
        index, out[pos] = divmod(index, alphabet_size)
    return out


def digits(
    n: int, width: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Digits (most significant first) of the base-n integers in [start, stop).

    ``stop`` defaults to ``n**width``, which gives every width-digit integer.
    """
    idx = np.arange(start, n**width if stop is None else stop, dtype=np.int64)
    out = np.empty((idx.size, width), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        idx, out[:, pos] = np.divmod(idx, n)
    return out


def render(rows, alphabet_size: int) -> list[str]:
    """The text of each row of a (count, width) array of words.

    For ``n <= 36`` each symbol becomes one character from ``0-9a-z`` (the
    representation used in posterior CSV exports); larger alphabets fall back
    to comma-separated decimal symbols.
    """
    rows = np.asarray(rows)
    if alphabet_size <= len(_DIGITS):
        table = np.frombuffer(_DIGITS.encode("ascii"), dtype=np.uint8)
        texts = table[rows].view(f"S{rows.shape[1]}").ravel().tolist()
        return [text.decode("ascii") for text in texts]
    return [",".join(map(str, row)) for row in rows.tolist()]


def word_to_text(word, alphabet_size: int) -> str:
    """Render one word as text; see :func:`render`."""
    return render(as_word(word, alphabet_size)[None, :], alphabet_size)[0]


def text_to_word(text: str, alphabet_size: int) -> np.ndarray:
    """Parse the output of :func:`word_to_text` back into a word."""
    text = text.strip()
    if alphabet_size <= len(_DIGITS):
        try:
            symbols = [_DIGIT_VALUE[c] for c in text]
        except KeyError as exc:
            raise ValueError(f"invalid word character {exc.args[0]!r}") from exc
    else:
        parts = text.split(",") if text else []
        if "" in parts:
            raise ValueError(f"empty symbol field in word {text!r}")
        symbols = [int(part) for part in parts]
    return as_word(symbols, alphabet_size)


def bytes_to_symbols(data: bytes, alphabet_size: int, bits: bool = False) -> np.ndarray:
    """Interpret raw bytes as a word.

    With ``bits=True`` each byte expands to 8 binary symbols, most significant
    bit first (requires a binary alphabet); otherwise each byte is one symbol
    and must be below ``alphabet_size``.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    if bits:
        if alphabet_size != 2:
            raise ValueError("bit expansion needs alphabet size 2")
        return np.unpackbits(raw).astype(np.int64)
    return as_word(raw, alphabet_size)


def symbols_to_bytes(word, alphabet_size: int, bits: bool = False) -> bytes:
    """Inverse of :func:`bytes_to_symbols`; bit mode requires a multiple of 8 symbols."""
    word = as_word(word, alphabet_size)
    if bits:
        if alphabet_size != 2:
            raise ValueError("bit packing needs alphabet size 2")
        if word.size % 8:
            raise ValueError("bit stream length must be a multiple of 8")
        return np.packbits(word.astype(np.uint8)).tobytes()
    if alphabet_size > 256:
        raise ValueError("byte output needs alphabet size <= 256")
    return word.astype(np.uint8).tobytes()
