"""Fixed combinational circuits over encrypted machine words.

A word is a tuple of ciphertext bits, most significant first. Every
function here evaluates the same gate sequence regardless of the plaintext
under the encryption: no early exits, no data-dependent branching. Word
widths are part of the public schema, so width checks on plaintext ints
are allowed, and so is ``settled``'s test of a bit's public depth.

The circuits take the minimum number of ANDs known for their function
(Boyar, Peralta and Pochuev, TCS 2000): one per bit for compare, select
and compare-swap, one per carry for addition, and w - 1 for equality. An
AND is the gate that costs depth, and so refreshes; XOR is free. None of
them calls the kernel's ``not_``, which mints a fresh encryption, except
``word_eq``'s single final NOT and ``word_div``'s negated divisor.
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


def settled(bit):
    """``bit``, refreshed once if it sits at the depth budget. The kernel
    refreshes an AND's operands, not the caller's copy, so a bit at the
    budget that feeds several ANDs would otherwise be refreshed by each
    of them, and XORs with it would carry its depth forward. The test
    reads public metadata only."""
    s = bit._state
    if s.auto_refresh and bit.depth >= s.depth_budget:
        return s.impl.refresh(bit)
    return bit


def lifted(bit, epoch: int):
    """``bit`` refreshed up to key ``epoch``. The kernel lifts a stale
    operand inside the gate and keeps no copy, so a bit that meets newer
    bits in several gates would be lifted again by each of them; a caller
    that reuses it lifts it once. Reads public metadata only, and is the
    identity in circular mode, where every bit has the same epoch."""
    refresh = bit._state.impl.refresh
    while bit.epoch < epoch:
        bit = refresh(bit)
    return bit


def bit_mux(f, x, y):
    """Encrypted bit select: x when f is 1, else y. One AND and no NOT:
    y ⊕ (f ∧ (x ⊕ y))."""
    k = f._state.impl
    return k.xor(y, k.and_(f, k.xor(x, y)))


def bit_swap(f, x, y):
    """(y, x) when the encrypted bit f is 1, else (x, y). One AND serves
    both outputs: d = f ∧ (x ⊕ y), then x ⊕ d and y ⊕ d."""
    k = f._state.impl
    d = k.and_(f, k.xor(x, y))
    return k.xor(x, d), k.xor(y, d)


def bit_or(a, b):
    """a ∨ b = a ⊕ b ⊕ (a ∧ b): one AND and no fresh encryption."""
    k = a._state.impl
    a, b = settled(a), settled(b)
    return k.xor(k.xor(a, b), k.and_(a, b))


def bit_and_not(a, b):
    """a ∧ ¬b = a ⊕ (a ∧ b): one AND and no NOT, so no fresh encryption."""
    k = a._state.impl
    return k.xor(a, k.and_(a, b))


def any_bit(bits):
    """OR of a non-empty sequence of bits as a balanced tree of ``bit_or``:
    len - 1 ANDs at depth ceil(log2 len)."""
    bits = list(bits)
    while len(bits) > 1:
        paired = [bit_or(a, b) for a, b in zip(bits[::2], bits[1::2])]
        bits = paired + bits[len(paired) * 2:]
    return bits[0]


def word_ne(a: CipherWord, b: CipherWord):
    """1 iff the words differ: OR tree of the per-bit XORs, w - 1 ANDs."""
    _check_width(a, b)
    k = a.bits[0]._state.impl
    return any_bit(k.xor(x, y) for x, y in zip(a.bits, b.bits))


def word_eq(a: CipherWord, b: CipherWord):
    """1 iff the words are equal: NOT of ``word_ne``, w - 1 ANDs and one
    fresh encryption."""
    return a.bits[0]._state.impl.not_(word_ne(a, b))


def word_gt(a: CipherWord, b: CipherWord):
    """1 iff a > b (unsigned), one AND per bit and no constants."""
    _check_width(a, b)
    k = a.bits[0]._state.impl
    return gt_chain(a.bits, tuple(k.xor(x, y) for x, y in zip(a.bits, b.bits)))


def gt_chain(xs, ts):
    """1 iff a > b, given a's bits ``xs`` and the XORs ``ts`` = a ⊕ b,
    both MSB first; b itself is not read, so a caller that already holds
    the XORs feeds each bit of b into one gate only.

    LSB first, g is "a > b on the bits seen so far". Where t = 0 it keeps;
    where t = 1 it becomes x. Both cases are g ⊕ (t ∧ (x ⊕ g)), and the
    lowest bit seeds g = t ∧ x."""
    k = ts[0]._state.impl
    g = k.and_(ts[-1], xs[-1])
    for x, t in zip(xs[-2::-1], ts[-2::-1]):
        g = settled(g)
        g = k.xor(g, k.and_(t, k.xor(x, g)))
    return g


def _ripple(k, abits, bbits, carry=None):
    """Ripple-carry add of two MSB-first bit tuples with an optional
    carry-in (None is 0). Each carry is one AND, the majority
    maj(x, y, c) = x ⊕ ((x ⊕ y) ∧ (x ⊕ c)) sharing x ⊕ y with the sum bit.
    No carry leaves the top bit, so results wrap modulo 2^width. Below
    the top, x, x ⊕ y and the carry each feed two gates or more, so x, y
    and the carry are lifted to one epoch first."""
    xs, ys = abits[::-1], bbits[::-1]
    out = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        last = i + 1 == len(xs)
        if carry is not None and not last:
            carry = settled(carry)
            top = max(x.epoch, y.epoch, carry.epoch)
            x, y, carry = lifted(x, top), lifted(y, top), lifted(carry, top)
        axb = k.xor(x, y)
        if last:
            out.append(axb if carry is None else k.xor(axb, carry))
        elif carry is None:
            out.append(axb)
            carry = k.and_(x, y)
        else:
            out.append(k.xor(axb, carry))
            carry = k.xor(x, k.and_(axb, k.xor(x, carry)))
    return tuple(reversed(out))


def word_add(a: CipherWord, b: CipherWord) -> CipherWord:
    """a + b modulo 2^width: w - 1 ANDs, no constants."""
    _check_width(a, b)
    return CipherWord(_ripple(a.bits[0]._state.impl, a.bits, b.bits))


def word_mux(f, a: CipherWord, b: CipherWord) -> CipherWord:
    """Word select: a when the encrypted bit f is 1, else b. One AND per
    bit (``bit_mux``)."""
    _check_width(a, b)
    f = settled(f)
    return CipherWord(tuple(bit_mux(f, x, y) for x, y in zip(a.bits, b.bits)))


def word_swap(f, a: CipherWord, b: CipherWord):
    """(b, a) when the encrypted bit f is 1, else (a, b): ``bit_swap`` per
    bit, one AND per bit for both outputs."""
    _check_width(a, b)
    f = settled(f)
    swapped = [bit_swap(f, x, y) for x, y in zip(a.bits, b.bits)]
    return (CipherWord(tuple(x for x, _ in swapped)),
            CipherWord(tuple(y for _, y in swapped)))


def word_and_bit(a: CipherWord, f) -> CipherWord:
    """AND every bit of the word with one encrypted bit (zeroes the word
    when f is 0)."""
    k = f._state.impl
    f = settled(f)
    return CipherWord(tuple(k.and_(x, f) for x in a.bits))


def word_add_bit(a: CipherWord, f) -> CipherWord:
    """Add a single encrypted bit to a word modulo 2^width: a half-adder
    chain with f as the carry-in, w - 1 ANDs and no constants."""
    k = f._state.impl
    out = []
    carry = f
    for i, x in enumerate(reversed(a.bits)):
        out.append(k.xor(x, carry))
        if i + 1 < a.width:
            carry = k.and_(x, carry)
    return CipherWord(tuple(reversed(out)))


def bit_count(bits, width: int) -> CipherWord:
    """The number of 1s in a non-empty sequence of bits, modulo 2^width, as
    a carry-save compressor (Wallace, IEEE TEC 1964).

    Column j holds the bits of weight 2^j, reduced oldest first so that
    its depth grows as a tree. Below the top column a full adder takes
    three bits to the sum x ⊕ y ⊕ z and the carry
    maj(x, y, z) = x ⊕ ((x ⊕ y) ∧ (x ⊕ z)), one column up; the last pair
    takes a half adder. Each costs one AND, at most len(bits) - 1 in all.
    The top column is reduced by XOR alone, so no carry leaves the word.
    A fresh zero fills only an empty column."""
    state = bits[0]._state
    k = state.impl
    epoch = max(b.epoch for b in bits)
    column, out = list(bits), []
    for j in range(width):
        carries = []
        while len(column) > 1:
            x, y = column.pop(0), column.pop(0)
            xy = k.xor(x, y)
            if j + 1 == width:
                column.append(xy)
            elif column:
                z = column.pop(0)
                column.append(k.xor(xy, z))
                carries.append(k.xor(x, k.and_(xy, k.xor(x, z))))
            else:
                column.append(xy)
                carries.append(k.and_(x, y))
        out.append(column[0] if column else k.fresh_bit(state, 0, epoch))
        column = carries
    return CipherWord(tuple(reversed(out)))


def word_div(num: CipherWord, den: CipherWord) -> CipherWord:
    """Unsigned restoring division, quotient only. A zero divisor yields a
    zero quotient (no exception: the evaluator cannot see the divisor).

    The remainder is kept in w + 1 bits so the shift-in cannot overflow.
    Each trial subtraction rem - den = rem + ¬den + 1 runs over w + 2 bits,
    and the top bit of the difference is the borrow: 1 exactly when den
    does not fit. The borrow keeps the old remainder, and the quotient bit
    is its negation, folded into the final zero-divisor mask.

    In leveled mode the subtraction climbs epochs, so each iteration first
    lifts the bits it reuses (the constants, the negated divisor and the
    remainder) to its top epoch, once, instead of in every gate; the
    zero-divisor mask climbs with the borrows the same way.
    """
    _check_width(num, den)
    state, k, epoch = _context(num, den)
    w = num.width
    zero = k.fresh_bit(state, 0, epoch)
    one = k.fresh_bit(state, 1, epoch)
    nden = (one, one) + tuple(k.not_(y) for y in den.bits)
    rem = (zero,) * (w + 1)
    borrows = []
    for i in range(w):
        rem = rem[1:] + (num.bits[i],)
        top = max(b.epoch for b in rem + nden)
        zero, one = lifted(zero, top), lifted(one, top)
        nden = tuple(lifted(b, top) for b in nden)
        rem = tuple(lifted(b, top) for b in rem)
        diff = _ripple(k, (zero,) + rem, nden, one)
        rem = word_mux(diff[0], CipherWord(rem), CipherWord(diff[1:])).bits
        borrows.append(diff[0])
    nonzero = any_bit(den.bits)
    quotient = []
    for b in borrows:
        nonzero = lifted(nonzero, b.epoch)
        quotient.append(bit_and_not(nonzero, b))
    return CipherWord(tuple(quotient))
