"""Word encoding, joins, partial sequences, and decompositions.

The shortlex encoding is checked against an independently generated
shortlex listing (itertools.product by increasing length), and the
decomposition counts against binomial coefficients.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tarski_lab.words import (
    MAX_WORD_LENGTH,
    Alphabet,
    AlphabetMismatchError,
    PartialSeq,
    Word,
    _length_and_offset,
    alphabet,
    class_of,
    count_decompositions,
    decode,
    decompositions,
    encode,
    equivalent_seqs,
    join_words,
    seq_of_pieces,
    seq_of_word,
    word_of_seq,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402


def shortlex_listing(alpha: Alphabet, max_len: int) -> list[Word]:
    """Independent oracle: all words by length, lexicographic within."""
    out = []
    for length in range(1, max_len + 1):
        for combo in itertools.product(range(alpha.size), repeat=length):
            out.append(Word(alpha, combo))
    return out


MATH = Alphabet(tuple(sorted(set("mathematics"))))

SRC = Path(__file__).resolve().parent.parent / "src"


def counted_length(k, code):
    """The length of the word with this code and the number of shorter words,
    by the literal count: add the kᴸ words of each length L until the code
    falls among them."""
    length, offset = 1, 0
    while code >= offset + k**length:
        offset += k**length
        length += 1
    return length, offset


def counted_lengths(k, stop):
    """``counted_length`` of every code below ``stop``, counted in one walk."""
    length, offset = 1, 0
    for code in range(stop):
        while code >= offset + k**length:
            offset += k**length
            length += 1
        yield length, offset


class TestEncoding:
    def test_two_symbol_examples(self):
        ab = alphabet("ab")
        assert encode(ab.word("a")) == 0
        assert encode(ab.word("b")) == 1
        assert encode(ab.word("aa")) == 2

    def test_codes_enumerate_shortlex_order(self):
        for symbols in ("ab", "abc", "abcd"):
            alpha = alphabet(symbols)
            listing = shortlex_listing(alpha, 3)
            assert [encode(w) for w in listing] == list(range(len(listing)))

    @pytest.mark.parametrize("symbols", ["ab", "abc", "abcd"])
    def test_round_trip_exhaustive(self, symbols):
        alpha = alphabet(symbols)
        for w in shortlex_listing(alpha, 5):
            assert decode(alpha, encode(w)) == w

    def test_decode_is_total_on_naturals(self):
        alpha = alphabet("abc")
        for code in range(200):
            assert encode(decode(alpha, code)) == code

    def test_unary_alphabet(self):
        one = alphabet("a")
        assert [encode(one.word("a" * n)) for n in (1, 2, 3)] == [0, 1, 2]
        assert decode(one, 5).text() == "aaaaaa"

    def test_unary_decode_up_to_the_bound(self):
        assert decode(alphabet("a"), MAX_WORD_LENGTH - 1).text() == "a" * MAX_WORD_LENGTH

    def test_unary_decode_over_the_bound_refused(self):
        with pytest.raises(ValueError, match=f"the bound is {MAX_WORD_LENGTH}"):
            decode(alphabet("a"), MAX_WORD_LENGTH)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_closed_form_length_matches_the_count_below_10_5(self, k):
        stop = 10**5
        assert [_length_and_offset(k, code) for code in range(stop)] == list(counted_lengths(k, stop))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_closed_form_length_matches_the_count_at_every_boundary(self, k):
        shorter = 0  # the words of fewer than L + 1 symbols
        for length in range(1, 201):
            shorter += k**length
            for code in (shorter - 1, shorter):
                assert _length_and_offset(k, code) == counted_length(k, code)
            assert _length_and_offset(k, shorter - 1)[0] == length

    def test_refused_past_the_bound_before_the_work(self):
        # Counting the lengths one by one to a code past the bound takes minutes.
        script = (
            "from tarski_lab.words import MAX_WORD_LENGTH, alphabet, decode\n"
            "for k in range(2, 6):\n"
            "    first = (k ** (MAX_WORD_LENGTH + 1) - k) // (k - 1)  # of MAX_WORD_LENGTH + 1 symbols\n"
            "    try:\n"
            "        decode(alphabet('abcde'[:k]), first)\n"
            "    except ValueError as error:\n"
            "        print(first.bit_length(), error)\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        lines = result.stdout.splitlines()
        assert len(lines) == 4
        for line in lines:
            bits, message = line.split(" ", 1)
            assert message == (
                f"code of {bits} bits decodes to a word of {MAX_WORD_LENGTH + 1} symbols; "
                f"the bound is {MAX_WORD_LENGTH}"
            )

    @pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
    def test_encode_decode_round_trip_small_codes(self, symbols):
        alpha = alphabet(symbols)
        for code in range(501):
            assert encode(decode(alpha, code)) == code

    @pytest.mark.parametrize("k", range(1, 6))
    def test_encode_matches_the_literal_sum_of_powers(self, k):
        symbols = "abcde"[:k]
        rng = random.Random(k)
        for length in [*range(1, 61), 200, 1000]:
            text = "".join(rng.choice(symbols) for _ in range(length))
            assert encode(alphabet(symbols).word(text)) == oracle.word_code(text, symbols)

    def test_long_word_encodes_in_time(self):
        # An offset summed power by power is quadratic: about 47 s on this word.
        script = (
            "import random\n"
            "from tarski_lab.words import alphabet, encode\n"
            "rng = random.Random(1)\n"
            "text = ''.join(rng.choice('abc') for _ in range(10**5))\n"
            "print(encode(alphabet('abc').word(text)).bit_length())\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        # Every word of 10⁵ symbols over three letters has a code of about 10⁵·log2(3) bits.
        assert abs(int(result.stdout) - 10**5 * math.log2(3)) < 2

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_halving_codec_matches_the_oracle(self, k):
        # Lengths on both sides of each split into 64-symbol leaves.
        symbols = "abcde"[:k]
        rng = random.Random(100 + k)
        for length in [*range(1, 300), 1000, 5000]:
            text = "".join(rng.choice(symbols) for _ in range(length))
            code = encode(alphabet(symbols).word(text))
            assert code == oracle.word_code(text, symbols)
            assert decode(alphabet(symbols), code).text() == oracle.word_of_code(code, symbols) == text

    def test_longest_word_decodes_in_time(self):
        # One divmod per symbol is quadratic: about 84 s on this word.
        script = (
            "from tarski_lab.words import MAX_WORD_LENGTH, alphabet, decode\n"
            "word = decode(alphabet('ab'), 2 ** (MAX_WORD_LENGTH + 1) - 3)\n"
            "print(word.size, set(word.indices))\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        # The last word of MAX_WORD_LENGTH symbols: every symbol is b.
        assert result.stdout.split(None, 1) == [str(MAX_WORD_LENGTH), "{1}\n"]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            alphabet("ab").word("")


class TestJoin:
    def test_mathematics(self):
        assert join_words(MATH.word("math"), MATH.word("ematics")).text() == "mathematics"

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            join_words(alphabet("ab").word("a"), alphabet("cd").word("c"))

    words3 = st.builds(
        lambda idx: Word(alphabet("abc"), tuple(idx)),
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
    )

    @given(words3, words3, words3)
    def test_associative(self, w1, w2, w3):
        assert join_words(join_words(w1, w2), w3) == join_words(w1, join_words(w2, w3))

    @given(words3, words3)
    def test_length_additive(self, w1, w2):
        assert join_words(w1, w2).size == w1.size + w2.size

    @given(words3, words3, words3)
    def test_cancellative(self, w, w1, w2):
        if join_words(w, w1) == join_words(w, w2):
            assert w1 == w2
        if join_words(w1, w) == join_words(w2, w):
            assert w1 == w2


class TestPartialSequences:
    def test_descending_positions_denote_left_to_right(self):
        pieces = [MATH.word(p) for p in ("math", "e", "mat", "ics")]
        f = seq_of_pieces(pieces)
        assert f.arity == 3
        assert f.codes[3] == encode(MATH.word("math"))
        assert f.codes[0] == encode(MATH.word("ics"))
        assert word_of_seq(f).text() == "mathematics"

    def test_arity_zero(self):
        w = MATH.word("mathematics")
        assert word_of_seq(seq_of_word(w)) == w

    def test_reversed_pieces_change_the_word(self):
        ab = alphabet("ab")
        forward = seq_of_pieces([ab.word("a"), ab.word("b")])
        backward = seq_of_pieces([ab.word("b"), ab.word("a")])
        assert word_of_seq(forward) != word_of_seq(backward)

    def test_equivalence_examples(self):
        split = seq_of_pieces([MATH.word("math"), MATH.word("ematics")])
        whole = seq_of_word(MATH.word("mathematics"))
        assert equivalent_seqs(split, whole)
        ab = alphabet("ab")
        assert not equivalent_seqs(seq_of_word(ab.word("ab")), seq_of_word(ab.word("ba")))
        assert equivalent_seqs(split, split)

    def test_equivalence_relation_laws_exhaustively(self):
        ab = alphabet("ab")
        word = ab.word("abab")
        population = [
            seq for k in range(word.size) for seq in decompositions(word, k)
        ]
        for f in population:
            assert equivalent_seqs(f, f)
        for f, g in itertools.product(population, repeat=2):
            assert equivalent_seqs(f, g) == equivalent_seqs(g, f)
            assert equivalent_seqs(f, g) == (word_of_seq(f) == word_of_seq(g))
        # All decompositions of one word are mutually equivalent, so
        # transitivity is immediate on this population; check a mixed one.
        other = ab.word("ba")
        mixed = population + [seq_of_word(other)]
        for f, g, h in itertools.product(mixed, repeat=3):
            if equivalent_seqs(f, g) and equivalent_seqs(g, h):
                assert equivalent_seqs(f, h)


class TestClasses:
    def test_size_of_mathematics(self):
        cls = class_of(seq_of_word(MATH.word("mathematics")))
        assert cls.size == 11

    def test_single_symbol_split(self):
        abc = alphabet("abc")
        f = next(decompositions(abc.word("abc"), 2))
        cls = class_of(f)
        assert cls.size == 3
        assert cls.canonical == abc.word("abc")

    def test_equivalent_sequences_share_the_class(self):
        split = seq_of_pieces([MATH.word("math"), MATH.word("ematics")])
        whole = seq_of_word(MATH.word("mathematics"))
        assert class_of(split) == class_of(whole)


class TestDecompositions:
    def test_all_splits_of_abc(self):
        abc = alphabet("abc")
        word = abc.word("abc")
        seqs = [seq for k in range(3) for seq in decompositions(word, k)]
        texts = [
            ",".join(decode(abc, code).text() for code in reversed(seq.codes)) for seq in seqs
        ]
        assert texts == ["abc", "a,bc", "ab,c", "a,b,c"]

    def test_mathematics_counts(self):
        word = MATH.word("mathematics")
        assert count_decompositions(word) == 2**10 == 1024
        assert count_decompositions(word, 3) == math.comb(10, 3) == 120
        assert sum(1 for _ in decompositions(word, 3)) == 120

    def test_published_split_appears(self):
        word = MATH.word("mathematics")
        target = seq_of_pieces([MATH.word(p) for p in ("math", "e", "mat", "ics")])
        assert target in list(decompositions(word, 3))

    def test_every_arity_matches_the_filter_over_all_cut_masks(self):
        word = alphabet("ab").word("abbabaab")
        gaps = word.size - 1
        for k in range(word.size):
            literal = []
            for mask in range(1 << gaps):
                if bin(mask).count("1") == k:
                    bounds = [0] + [g + 1 for g in range(gaps) if mask >> g & 1] + [word.size]
                    pieces = [Word(word.alphabet, word.indices[a:b]) for a, b in zip(bounds, bounds[1:])]
                    literal.append(seq_of_pieces(pieces))
            assert list(decompositions(word, k)) == literal

    def test_long_word_single_cut(self):
        word = alphabet("ab").word("a" * 60)
        assert sum(1 for _ in decompositions(word, 1)) == 59

    def test_arity_bounds(self):
        abc = alphabet("abc")
        with pytest.raises(ValueError):
            list(decompositions(abc.word("abc"), 3))
        with pytest.raises(ValueError):
            count_decompositions(abc.word("abc"), -1)

    @given(st.integers(min_value=1, max_value=8))
    def test_counts_sum_to_power_of_two(self, size):
        ab = alphabet("ab")
        word = Word(ab, tuple(i % 2 for i in range(size)))
        per_k = [count_decompositions(word, k) for k in range(size)]
        assert per_k == [math.comb(size - 1, k) for k in range(size)]
        assert sum(per_k) == 2 ** (size - 1)
        assert sum(per_k) == count_decompositions(word)

    def test_every_split_is_equivalent_to_the_word(self):
        word = MATH.word("mathematic")
        base = seq_of_word(word)
        for k in (0, 2, 5):
            for seq in decompositions(word, k):
                assert equivalent_seqs(seq, base)


def theta(alpha, code):
    """The word class addressed by a code: classes inherit the encoding."""
    return class_of(PartialSeq(alpha, (code,)))


class TestTheta:
    def test_theta_of_ab(self):
        ab = alphabet("ab")
        cls = theta(ab, encode(ab.word("ab")))
        assert cls.size == 2
        assert cls.canonical == ab.word("ab")

    def test_injective_on_initial_codes(self):
        abc = alphabet("abc")
        classes = [theta(abc, code) for code in range(50)]
        assert len(set(classes)) == 50

    def test_single_symbol_has_one_arity(self):
        ab = alphabet("ab")
        cls = theta(ab, encode(ab.word("a")))
        assert cls.size == 1
        assert count_decompositions(cls.canonical) == 1
