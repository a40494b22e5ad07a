"""Fixed combinational circuits over encrypted machine words.

A word is a tuple of ciphertext bits, most significant first. Every
function here evaluates the same gate sequence regardless of the plaintext
under the encryption: no early exits, no data-dependent branching. Word
widths are part of the public schema, so width checks on plaintext ints
are allowed, and so are the kernel's ``settle`` and ``lift``, which read
a bit's public depth and epoch.

The circuits take the minimum number of ANDs known for their function
(Boyar, Peralta and Pochuev, TCS 2000): one per bit for compare, select
and compare-swap, one per carry for addition, and w - 1 for equality. An
AND is the gate that costs depth, and so refreshes; XOR is free. None of
them calls the kernel's ``not_``, which mints a fresh encryption, except
``word_eq``'s single final NOT and ``word_div``'s negated divisor.

The loops over whole words are the kernel's word primitives, which build
only their output bits: ``bits_differ`` (``word_ne``), ``bits_xor`` and
``bits_gt`` (``word_gt``'s operand XORs and its comparator chain) and
``bits_mux`` (``word_mux``). The other one-AND steps call the kernel's
fused one-AND primitive ``bit_mux`` (the carries of addition and
``bit_count``), ``bit_or`` (``any_bit``), the select ``bit_mux(a, a, b)``
on settled operands, or ``bit_and_not``, the two gates a ⊕ (a ∧ b).
``pairwise`` and these are imported here, so ``circuits.bit_mux`` and
the others name the kernel's functions.
"""

from __future__ import annotations

from hequel import kernel
from hequel.crypto import ClientKeys, PublicKey
from hequel.errors import ValueOverflow, WidthMismatch
from hequel.kernel import (and_, bit_and_not, bit_mux, bit_or, bits_differ,
                           bits_gt, bits_mux, bits_xor, fresh_bit,
                           fresh_word, lift, not_, pairwise, settle, xor)

DEFAULT_WIDTH = 8


class CipherWord:
    """An unsigned integer as encrypted bits, MSB first.

    ``CipherWord(bits)`` holds bits already built. A decoded word is made
    by ``from_parts`` and holds its wire parts instead: its kernel state,
    its payloads packed LSB first in bit order, and per-bit epochs, depths
    and wire nonces. The first read of ``.bits`` builds its bits once
    through ``kernel.word_from_parts``, keeps them and drops the parts, so
    every later read returns the same bit objects. ``.width`` builds
    nothing, and neither does ``decrypt_word``, which decrypts the parts.
    Building moves no counter and no nonce stream, so when a word is built
    changes no count; which words a query builds follows from the public
    plan, the columns its gates read.
    """

    # ``bits`` stays unset on a word built from parts until its first
    # read, which lands in ``__getattr__``; a set slot is read directly
    __slots__ = ("bits", "_parts")

    def __init__(self, bits: tuple):
        if not bits:
            raise WidthMismatch("a word needs at least one bit")
        self.bits = bits
        self._parts = None

    @classmethod
    def from_parts(cls, state, payload: int, epochs, depths,
                   nonces) -> CipherWord:
        """A word of ``len(epochs)`` bits, built from these parts (as
        ``kernel.word_from_parts`` takes them) when first read."""
        word = cls.__new__(cls)
        word._parts = (state, payload, epochs, depths, nonces)
        return word

    def __getattr__(self, name: str):
        if name != "bits" or self._parts is None:
            raise AttributeError(name)
        self.bits = kernel.word_from_parts(*self._parts)
        self._parts = None
        return self.bits

    @property
    def width(self) -> int:
        parts = self._parts
        return len(self.bits) if parts is None else len(parts[2])

    def __repr__(self):
        return f"CipherWord(width={self.width})"


def _check_width(a: CipherWord, b: CipherWord):
    if a.width != b.width:
        raise WidthMismatch(f"word widths differ: {a.width} vs {b.width}")


def encrypt_word(pk: PublicKey, value: int, width: int = DEFAULT_WIDTH) -> CipherWord:
    return const_word(pk.ladder.state, value, width, pk.epoch)


def decrypt_word(keys: ClientKeys, word: CipherWord) -> int:
    """The value of ``word``. A word whose bits were never built is
    decrypted from its parts (``ClientKeys.decrypt_parts``) and stays
    unbuilt; either way every bit passes ``ClientKeys.decrypt_bit``'s
    checks."""
    parts = word._parts
    if parts is not None:
        return keys.decrypt_parts(*parts[:4])
    value = 0
    for bit in word.bits:
        value = (value << 1) | keys.decrypt_bit(bit)
    return value


def const_word(state, value: int, width: int, epoch: int) -> CipherWord:
    """Encryption of a public constant under ``state``'s key of ``epoch``:
    the client's ``encrypt_word``, and on the server the constants its
    circuits need (sort indices, zero counts and sums). Query literals are
    not public and never come through here on the server."""
    if width < 1:
        raise WidthMismatch("width must be >= 1")
    if not 0 <= value < (1 << width):
        raise ValueOverflow(f"{value} does not fit in {width} unsigned bits")
    return CipherWord(fresh_word(state, value, width, epoch))


def any_bit(bits):
    """OR of a non-empty sequence of bits as a ``pairwise`` tree of
    ``bit_or``: len - 1 ANDs at depth ceil(log2 len)."""
    return pairwise(bit_or, bits)


def word_ne(a: CipherWord, b: CipherWord):
    """1 iff the words differ: OR tree of the per-bit XORs, w - 1 ANDs."""
    _check_width(a, b)
    return bits_differ(a.bits, b.bits)


def word_eq(a: CipherWord, b: CipherWord):
    """1 iff the words are equal: NOT of ``word_ne``, w - 1 ANDs and one
    fresh encryption."""
    return not_(word_ne(a, b))


def word_gt(a: CipherWord, b: CipherWord):
    """1 iff a > b (unsigned), one AND per bit and no constants."""
    _check_width(a, b)
    return bits_gt(a.bits, bits_xor(a.bits, b.bits))


def _ripple(abits, bbits, carry=None):
    """Ripple-carry add of two MSB-first bit tuples with an optional
    carry-in (None is 0). Each carry is one AND, the majority
    maj(x, y, c) = x ⊕ ((x ⊕ y) ∧ (x ⊕ c)), that is c where x and y
    differ and x where they agree: ``bit_mux(x ⊕ y, c, x)``, sharing
    x ⊕ y with the sum bit.
    No carry leaves the top bit, so results wrap modulo 2^width. Below
    the top, x, x ⊕ y and the carry each feed two gates or more, so x, y
    and the carry are lifted to one epoch first."""
    xs, ys = abits[::-1], bbits[::-1]
    out = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        last = i + 1 == len(xs)
        if carry is not None and not last:
            carry = settle(carry)
            top = max(x.epoch, y.epoch, carry.epoch)
            x, y, carry = lift(x, top), lift(y, top), lift(carry, top)
        axb = xor(x, y)
        if last:
            out.append(axb if carry is None else xor(axb, carry))
        elif carry is None:
            out.append(axb)
            carry = and_(x, y)
        else:
            out.append(xor(axb, carry))
            carry = bit_mux(axb, carry, x)
    return tuple(reversed(out))


def word_add(a: CipherWord, b: CipherWord) -> CipherWord:
    """a + b modulo 2^width: w - 1 ANDs, no constants."""
    _check_width(a, b)
    return CipherWord(_ripple(a.bits, b.bits))


def word_mux(f, a: CipherWord, b: CipherWord) -> CipherWord:
    """Word select: a when the encrypted bit f is 1, else b. One AND per
    bit (``bit_mux``)."""
    _check_width(a, b)
    return CipherWord(bits_mux(settle(f), a.bits, b.bits))


def word_and_bit(a: CipherWord, f) -> CipherWord:
    """AND every bit of the word with one encrypted bit (zeroes the word
    when f is 0)."""
    f = settle(f)
    return CipherWord(tuple(and_(x, f) for x in a.bits))


def word_add_bit(a: CipherWord, f) -> CipherWord:
    """Add a single encrypted bit to a word modulo 2^width: a half-adder
    chain with f as the carry-in, w - 1 ANDs and no constants."""
    out = []
    carry = f
    for i, x in enumerate(reversed(a.bits)):
        if i + 1 == a.width:
            out.append(xor(x, carry))
        else:
            # x and the carry each feed this sum bit and the next carry
            x, carry = settle(x), settle(carry)
            out.append(xor(x, carry))
            carry = and_(x, carry)
    return CipherWord(tuple(reversed(out)))


def bit_count(bits, width: int) -> CipherWord:
    """The number of 1s in a non-empty sequence of bits, modulo 2^width, as
    a carry-save compressor (Wallace, IEEE TEC 1964).

    Column j holds the bits of weight 2^j, reduced oldest first so that
    its depth grows as a tree. Below the top column a full adder takes
    three bits to the sum x ⊕ y ⊕ z and the carry
    maj(x, y, z) = ``bit_mux(x ⊕ y, z, x)``, one column up; the last pair
    takes a half adder. Each costs one AND, at most len(bits) - 1 in all.
    The top column is reduced by XOR alone, so no carry leaves the word.
    A fresh zero fills only an empty column."""
    state = bits[0]._state
    epoch = max(b.epoch for b in bits)
    column, out = list(bits), []
    for j in range(width):
        carries = []
        while len(column) > 1:
            x, y = column.pop(0), column.pop(0)
            xy = xor(x, y)
            if j + 1 == width:
                column.append(xy)
            elif column:
                z = column.pop(0)
                column.append(xor(xy, z))
                carries.append(bit_mux(xy, z, x))
            else:
                column.append(xy)
                carries.append(and_(x, y))
        out.append(column[0] if column else fresh_bit(state, 0, epoch))
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
    # constants start at the operands' top epoch, so only stale operand
    # bits are bootstrapped up
    state = num.bits[0]._state
    epoch = max(b.epoch for b in num.bits + den.bits)
    w = num.width
    zero = fresh_bit(state, 0, epoch)
    one = fresh_bit(state, 1, epoch)
    nden = (one, one) + tuple(not_(y) for y in den.bits)
    rem = (zero,) * (w + 1)
    borrows = []
    for i in range(w):
        rem = rem[1:] + (num.bits[i],)
        top = max(b.epoch for b in rem + nden)
        zero, one = lift(zero, top), lift(one, top)
        nden = tuple(lift(b, top) for b in nden)
        rem = tuple(lift(b, top) for b in rem)
        diff = _ripple((zero,) + rem, nden, one)
        rem = word_mux(diff[0], CipherWord(rem), CipherWord(diff[1:])).bits
        borrows.append(diff[0])
    nonzero = any_bit(den.bits)
    quotient = []
    for b in borrows:
        nonzero = lift(nonzero, b.epoch)
        quotient.append(bit_and_not(nonzero, b))
    return CipherWord(tuple(quotient))
