"""Words over a finite alphabet, their numeric codes, and split sequences.

Words are nonempty strings of alphabet symbols (there is no empty word;
the words form a free semigroup under juxtaposition, not a monoid).  The
numeric encoding is the shortlex bijection onto the naturals: words are
ranked by length first, then lexicographically by symbol index, starting
from 0.

A partial sequence of arity n assigns a word code to every position
0..n; it denotes the word obtained by decoding the positions from n down
to 0 and joining the pieces.  Two sequences are equivalent when they
denote the same word; the class of a word of size s has representatives
of every arity up to s − 1 (cut the word into that many pieces) and none
beyond.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, Iterator

from .sets import _Frozen, _setattr


MAX_WORD_LENGTH = 10**6  # longest word ``decode`` builds
MAX_SPLIT_SYMBOLS = 10**6  # most symbols, commas included, a listing of splits may hold


class AlphabetMismatchError(ValueError):
    """Two values over different alphabets were combined."""


class Alphabet(_Frozen):
    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]) -> None:
        if not symbols:
            raise ValueError("an alphabet needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        _setattr(self, "symbols", symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index_of(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"symbol {symbol!r} is not in the alphabet") from None

    def word(self, text: str) -> "Word":
        """Parse a word from text; requires single-character symbols."""
        if any(len(s) != 1 for s in self.symbols):
            raise ValueError("text parsing needs single-character symbols")
        return Word(self, tuple(self.index_of(ch) for ch in text))


def alphabet(symbols: str) -> Alphabet:
    return Alphabet(tuple(symbols))


class Word(_Frozen):
    __slots__ = ("alphabet", "indices")

    def __init__(self, alphabet: Alphabet, indices: tuple[int, ...]) -> None:
        if not indices:
            raise ValueError("there is no empty word")
        if any(not 0 <= i < alphabet.size for i in indices):
            raise ValueError("symbol index out of range")
        _setattr(self, "alphabet", alphabet)
        _setattr(self, "indices", indices)

    @property
    def size(self) -> int:
        return len(self.indices)

    def text(self) -> str:
        return "".join(self.alphabet.symbols[i] for i in self.indices)

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"


def join_words(w1: Word, w2: Word) -> Word:
    if w1.alphabet != w2.alphabet:
        raise AlphabetMismatchError("words over different alphabets")
    return Word(w1.alphabet, w1.indices + w2.indices)


def encode(w: Word) -> int:
    """Shortlex rank: all shorter words first, then lexicographic order."""
    k = w.alphabet.size
    return _offset(k, w.size) + _value(w.indices, k, cache(lambda h: k**h))


def decode(alpha: Alphabet, code: int) -> Word:
    if code < 0:
        raise ValueError("codes are naturals")
    k = alpha.size
    length, offset = _length_and_offset(k, code)
    if length > MAX_WORD_LENGTH:
        shown = code if code.bit_length() <= 10_000 else f"of {code.bit_length()} bits"
        raise ValueError(f"code {shown} decodes to a word of {length} symbols; the bound is {MAX_WORD_LENGTH}")
    return Word(alpha, tuple(_digits(code - offset, length, k, cache(lambda h: k**h))))


_LEAF = 64  # the codec halves a word down to this many symbols; one loop over all is quadratic


def _value(digits: tuple[int, ...], k: int, power: Callable[[int], int]) -> int:
    """The number with base-k ``digits``, most significant first: left · kʰ + right,
    the right half of h digits, where ``power`` is h ↦ kʰ, memoised per call."""
    if len(digits) > _LEAF:
        h = len(digits) // 2
        return _value(digits[:-h], k, power) * power(h) + _value(digits[-h:], k, power)
    value = 0
    for digit in digits:
        value = value * k + digit
    return value


def _digits(value: int, length: int, k: int, power: Callable[[int], int]) -> list[int]:
    """The ``length`` base-k digits of value < kᴸ, most significant first:
    divmod by kʰ splits off the h low digits."""
    if length > _LEAF:
        h = length // 2
        high, low = divmod(value, power(h))
        return _digits(high, length - h, k, power) + _digits(low, h, k, power)
    digits = [0] * length
    for pos in range(length - 1, -1, -1):
        value, digits[pos] = divmod(value, k)
    return digits


def _offset(k: int, length: int) -> int:
    """The number of words of fewer than ``length`` symbols over k symbols:
    k + k² + … + kᴸ⁻¹ = (kᴸ − k)/(k − 1), or L − 1 when k = 1."""
    return length - 1 if k == 1 else (k**length - k) // (k - 1)


def _length_and_offset(k: int, code: int) -> tuple[int, int]:
    """The length L of the word with this code over k symbols and the number
    of shorter words, in closed form: there are (kᴸ⁺¹ − k)/(k − 1) words of
    at most L symbols, so kᴸ ≤ code·(k − 1) + k < kᴸ⁺¹."""
    if k == 1:
        return code + 1, code  # one word per length
    bound = code * (k - 1) + k
    length = int(math.log(bound, k))
    # The float logarithm may fall on either side of a power of k.
    length += k ** (length + 1) <= bound
    length -= k**length > bound
    return length, _offset(k, length)


class PartialSeq(_Frozen):
    """A total assignment of word codes to positions 0..arity.

    The denoted word reads the positions from the top down:
    decode(f(n)) · decode(f(n−1)) · … · decode(f(0)).
    """

    __slots__ = ("alphabet", "codes")

    def __init__(self, alphabet: Alphabet, codes: tuple[int, ...]) -> None:
        if not codes:
            raise ValueError("a partial sequence has at least position 0")
        if any(c < 0 for c in codes):
            raise ValueError("codes are naturals")
        _setattr(self, "alphabet", alphabet)
        _setattr(self, "codes", codes)

    @property
    def arity(self) -> int:
        return len(self.codes) - 1


def seq_of_word(w: Word) -> PartialSeq:
    """The arity-0 representative of a word."""
    return PartialSeq(w.alphabet, (encode(w),))


def seq_of_pieces(pieces: list[Word]) -> PartialSeq:
    """Sequence denoting the left-to-right join of the given pieces."""
    if not pieces:
        raise ValueError("at least one piece is required")
    alpha = pieces[0].alphabet
    for p in pieces:
        if p.alphabet != alpha:
            raise AlphabetMismatchError("pieces over different alphabets")
    return PartialSeq(alpha, tuple(encode(p) for p in reversed(pieces)))


def word_of_seq(f: PartialSeq) -> Word:
    word = decode(f.alphabet, f.codes[-1])
    for code in reversed(f.codes[:-1]):
        word = join_words(word, decode(f.alphabet, code))
    return word


def equivalent_seqs(f: PartialSeq, g: PartialSeq) -> bool:
    if f.alphabet != g.alphabet:
        raise AlphabetMismatchError("sequences over different alphabets")
    return word_of_seq(f) == word_of_seq(g)


class WordClass(_Frozen):
    __slots__ = ("canonical", "size")

    def __init__(self, canonical: Word, size: int) -> None:
        _setattr(self, "canonical", canonical)
        _setattr(self, "size", size)


def class_of(f: PartialSeq) -> WordClass:
    word = word_of_seq(f)
    return WordClass(word, word.size)


def decompositions(w: Word, k: int) -> Iterator[PartialSeq]:
    """All arity-k sequences denoting ``w``: k cut points among size−1 gaps.

    Cut-point sets are enumerated in ascending bitmask order (bit g set
    means a cut after symbol position g), stepping from one k-bit mask to
    the next (Gosper's hack) rather than scanning all 2^(size−1) masks.
    """
    gaps = w.size - 1
    if not 0 <= k <= gaps:
        raise ValueError(f"arity must lie in 0..{gaps}")
    mask = (1 << k) - 1
    while mask >> gaps == 0:
        cuts = [g for g in range(gaps) if mask >> g & 1]
        pieces = []
        start = 0
        for cut in cuts:
            pieces.append(Word(w.alphabet, w.indices[start : cut + 1]))
            start = cut + 1
        pieces.append(Word(w.alphabet, w.indices[start:]))
        yield seq_of_pieces(pieces)
        if mask == 0:
            return
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((ripple ^ mask) >> 2) // low


def count_decompositions(w: Word, k: int | None = None) -> int:
    """Number of arity-k decompositions, or of all arities when k is None."""
    gaps = w.size - 1
    if k is None:
        return 1 << gaps
    if not 0 <= k <= gaps:
        raise ValueError(f"arity must lie in 0..{gaps}")
    return math.comb(gaps, k)
