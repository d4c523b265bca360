"""Finite-alphabet words and their packed-integer indexing.

A word over the alphabet ``{0, .., n-1}`` is a 1-D integer array.  Exhaustive
enumerations index the ``n**t`` words of length ``t`` as base-``n`` integers
with the first symbol in the most significant position, so extending a word by
one symbol maps index ``u`` to ``u*n + a``.  Helpers here convert between the
array, integer-index, text and raw-byte representations; everything heavier
lives in the model and inference modules.

One table, ``_cells``, defines the text of every symbol, and every
plaintext or ciphertext written as text is read off it:
:func:`word_to_text` for one word of any length, and :func:`text_bytes`
for an array of packed indices, as rows of bytes (the posterior reports).
:func:`digits` is the one array split of integers into base-n digits:
``text_bytes`` reads its rows from the digits of each index in base
``n**g``, and the posterior's ``.12g`` values take their twelve decimal
digits from ``text_bytes``.  :func:`word_to_index` and
:func:`index_to_word` are the exact scalar pair on Python ints, which
stay exact beyond int64 where ``digits`` would overflow.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_VALUE = {c: i for i, c in enumerate(_DIGITS)}

# entries of text_bytes' table of digit groups: a group of g digits has
# n**g <= this texts.  Both callers read such a table: the posterior's
# plaintext texts, and _g12's decimal digits (n = 10, the 1000 triples)
_GROUP_TEXTS = 1 << 12


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


def digits(n: int, width: int, index=None) -> np.ndarray:
    """Digits (most significant first) of the base-n integers ``index``.

    ``index`` is an array of int64 integers below ``n**width``, in any order
    and with repeats; it defaults to every width-digit integer in order.
    """
    idx = np.asarray(np.arange(n**width) if index is None else index, dtype=np.int64)
    out = np.empty((idx.size, width), dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        idx, out[:, pos] = np.divmod(idx, n)
    return out


@lru_cache(maxsize=4)
def _cells(n: int) -> np.ndarray:
    """(n, c) read-only ASCII bytes of each symbol's text; a NUL is no character.

    For ``n <= 36`` a symbol is one character of ``0-9a-z``.  Larger
    alphabets write a comma and the decimal symbol, right-aligned in the
    width of ``n - 1``; a word's first comma is then dropped.
    """
    if n <= len(_DIGITS):
        return np.frombuffer(_DIGITS[:n].encode("ascii"), dtype=np.uint8)[:, None]
    width = len(str(n - 1))
    text = b"".join(b",%*d" % (width, symbol) for symbol in range(n))
    cells = np.frombuffer(text, dtype=np.uint8).reshape(n, width + 1).copy()
    cells[cells == ord(" ")] = 0
    cells.flags.writeable = False
    return cells


@lru_cache(maxsize=4)
def _group_texts(n: int, group: int) -> np.ndarray:
    """The text of each group of ``group`` symbols, as a read-only byte table."""
    table = _cells(n)[digits(n, group)].reshape(n**group, -1)
    table.flags.writeable = False
    return table


def text_bytes(n: int, width: int, index) -> np.ndarray:
    """The text of the base-n integers ``index`` as rows of ASCII bytes.

    Row i, with its NUL bytes dropped, is the :func:`word_to_text` of the
    width-digit word with index ``index[i]``.  The word is split into
    groups of g digits (``n**g <= _GROUP_TEXTS``), so the index's
    :func:`digits` in base ``n**g`` pick each group's text from one table;
    the leading group's extra symbols, zeros, are sliced off.
    """
    group = 1
    while group < width and n ** (group + 1) <= _GROUP_TEXTS:
        group += 1
    groups = -(-width // group)
    table = _group_texts(n, group)
    c = table.shape[1] // group
    # each table row as one item: a text row is `groups` item copies, not a byte gather
    texts = np.take(table.view(f"V{table.shape[1]}"), digits(n**group, groups, index))
    out = texts.view(np.uint8)[:, (groups * group - width) * c :]
    if c > 1:
        out[:, 0] = 0
    return out


def word_to_text(word, alphabet_size: int) -> str:
    """The text of one word: its symbols' cells (see ``_cells``), NULs dropped.

    For ``n <= 36`` each symbol is one character of ``0-9a-z``; larger
    alphabets give comma-separated decimal symbols.
    """
    cells = _cells(alphabet_size)[as_word(word, alphabet_size)]
    if cells.shape[1] > 1:
        cells[0, 0] = 0  # the word's first comma
    return cells[cells != 0].tobytes().decode("ascii")


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
