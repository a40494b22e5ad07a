"""Fixed combinational circuits over encrypted machine words.

A word is a tuple of ciphertext bits, most significant first. Every
function here evaluates the same gate sequence regardless of the plaintext
under the encryption: no early exits, no data-dependent branching. Word
widths are part of the public schema, so width checks on plaintext ints
are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

from hequel.crypto import ClientKeys, PublicKey, encrypt_bit
from hequel.errors import ValueOverflow, WidthMismatch

DEFAULT_WIDTH = 8


@dataclass(frozen=True)
class CipherWord:
    """An unsigned integer as encrypted bits, MSB first."""

    bits: tuple

    def __post_init__(self):
        if not self.bits:
            raise WidthMismatch("a word needs at least one bit")

    @property
    def width(self) -> int:
        return len(self.bits)

    def __repr__(self):
        return f"CipherWord(width={self.width})"


def _context(*words: CipherWord):
    """Kernel state, module, and working epoch for a word operation.

    Constants minted inside a circuit use the highest epoch present in the
    operands so that only the stale operand bits get bootstrapped up."""
    state = words[0].bits[0]._state
    epoch = max(b.epoch for w in words for b in w.bits)
    return state, state.impl, epoch


def _check_width(a: CipherWord, b: CipherWord):
    if a.width != b.width:
        raise WidthMismatch(f"word widths differ: {a.width} vs {b.width}")


def encrypt_word(pk: PublicKey, value: int, width: int = DEFAULT_WIDTH) -> CipherWord:
    if width < 1:
        raise WidthMismatch("width must be >= 1")
    if not 0 <= value < (1 << width):
        raise ValueOverflow(f"{value} does not fit in {width} unsigned bits")
    return CipherWord(tuple(
        encrypt_bit(pk, (value >> (width - 1 - i)) & 1) for i in range(width)))


def decrypt_word(keys: ClientKeys, word: CipherWord) -> int:
    value = 0
    for bit in word.bits:
        value = (value << 1) | keys.decrypt_bit(bit)
    return value


def const_word(state, value: int, width: int, epoch: int) -> CipherWord:
    """Server-side encryption of a public literal (public keys are known
    to the evaluator, so this is always available)."""
    if not 0 <= value < (1 << width):
        raise ValueOverflow(f"{value} does not fit in {width} unsigned bits")
    k = state.impl
    return CipherWord(tuple(
        k.fresh_bit(state, (value >> (width - 1 - i)) & 1, epoch)
        for i in range(width)))


def bit_mux(f, x, y):
    """Encrypted bit select: x when f is 1, else y."""
    k = f._state.impl
    return k.xor(k.and_(x, f), k.and_(y, k.not_(f)))


def word_eq(a: CipherWord, b: CipherWord):
    """1 iff the words are equal: AND of per-bit XNORs."""
    _check_width(a, b)
    state, k, epoch = _context(a, b)
    result = k.fresh_bit(state, 1, epoch)
    for x, y in zip(a.bits, b.bits):
        result = k.and_(result, k.not_(k.xor(x, y)))
    return result


def word_gt(a: CipherWord, b: CipherWord):
    """1 iff a > b (unsigned). MSB-first scan with an encrypted done flag:
    the first differing bit decides, later bits are masked out."""
    _check_width(a, b)
    state, k, epoch = _context(a, b)
    result = k.fresh_bit(state, 0, epoch)
    done = k.fresh_bit(state, 0, epoch)
    for x, y in zip(a.bits, b.bits):
        t1 = k.and_(x, k.not_(y))
        t2 = k.and_(y, k.not_(x))
        nd = k.not_(done)
        result = k.xor(k.and_(done, result), k.and_(nd, t1))
        done = k.xor(done, k.and_(nd, k.or_(t1, t2)))
    return result


def _ripple(k, abits, bbits, carry):
    """Ripple-carry add of two MSB-first bit tuples; carry-out discarded,
    so results wrap modulo 2^width."""
    out = []
    for x, y in zip(reversed(abits), reversed(bbits)):
        axb = k.xor(x, y)
        out.append(k.xor(axb, carry))
        carry = k.xor(k.and_(x, y), k.and_(carry, axb))
    return tuple(reversed(out))


def word_add(a: CipherWord, b: CipherWord) -> CipherWord:
    _check_width(a, b)
    state, k, epoch = _context(a, b)
    return CipherWord(_ripple(k, a.bits, b.bits, k.fresh_bit(state, 0, epoch)))


def _sub_bits(k, state, epoch, abits, bbits):
    # a - b = a + ~b + 1 in two's complement; correct when a >= b
    nb = tuple(k.not_(y) for y in bbits)
    return _ripple(k, abits, nb, k.fresh_bit(state, 1, epoch))


def word_mux(f, a: CipherWord, b: CipherWord) -> CipherWord:
    """Word select: a when the encrypted bit f is 1, else b."""
    _check_width(a, b)
    k = f._state.impl
    nf = k.not_(f)
    return CipherWord(tuple(
        k.xor(k.and_(x, f), k.and_(y, nf)) for x, y in zip(a.bits, b.bits)))


def word_and_bit(a: CipherWord, f) -> CipherWord:
    """AND every bit of the word with one encrypted bit (zeroes the word
    when f is 0)."""
    k = f._state.impl
    return CipherWord(tuple(k.and_(x, f) for x in a.bits))


def word_add_bit(a: CipherWord, f) -> CipherWord:
    """Add a single encrypted bit to a word: the bit is widened to a word
    (zeros above, f in the LSB) and ripple-added."""
    state, k, epoch = _context(a)
    bnum = tuple(
        k.fresh_bit(state, 0, epoch) for _ in range(a.width - 1)) + (f,)
    return CipherWord(_ripple(k, a.bits, bnum, k.fresh_bit(state, 0, epoch)))


def word_div(num: CipherWord, den: CipherWord) -> CipherWord:
    """Unsigned restoring division, quotient only. A zero divisor yields a
    zero quotient (no exception: the evaluator cannot see the divisor).

    The working remainder and divisor are extended by one bit so the trial
    subtraction and comparison stay exact after the shift-in.
    """
    _check_width(num, den)
    state, k, epoch = _context(num, den)
    w = num.width
    den_x = CipherWord((k.fresh_bit(state, 0, epoch),) + den.bits)
    rem = tuple(k.fresh_bit(state, 0, epoch) for _ in range(w + 1))
    qbits = []
    for i in range(w):
        rem = rem[1:] + (num.bits[i],)
        fits = k.not_(word_gt(den_x, CipherWord(rem)))
        diff = _sub_bits(k, state, epoch, rem, den_x.bits)
        rem = word_mux(fits, CipherWord(diff), CipherWord(rem)).bits
        qbits.append(fits)
    quotient = CipherWord(tuple(qbits))
    zero = const_word(state, 0, w, epoch)
    return word_and_bit(quotient, k.not_(word_eq(den, zero)))
