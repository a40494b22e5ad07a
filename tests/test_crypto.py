"""Key lifecycle: ladders, encrypt/decrypt, epoch rules, noise overflow,
the server/client separation contract, and decryption of a decoded word
from its wire parts."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hequel import kernel
from hequel.circuits import CipherWord, bit_or, decrypt_word
from hequel.crypto import (MAX_EPOCHS, ClientKeys, SecurityContext,
                           encrypt_bit, keygen)
from hequel.errors import (EpochMismatch, HequelError, LadderExhausted,
                           LadderMismatch, NoiseOverflow)
from hequel.protocol import ServerStore


def test_keygen_circular_shape():
    ladder, keys = keygen(SecurityContext(mode="circular"), seed=b"a")
    # the client's half is the ladder id and its epoch count, nothing else
    assert [f.name for f in dataclasses.fields(ClientKeys)] == [
        "ladder_id", "epochs"]
    assert keys == ClientKeys(ladder.ladder_id, 1)
    assert ladder.public_key().epoch == 1


def test_keygen_leveled_shape():
    ctx = SecurityContext(mode="leveled", epochs=3)
    ladder, keys = keygen(ctx, seed=b"a")
    assert keys == ClientKeys(ladder.ladder_id, 3)
    assert [ladder.public_key(e).epoch for e in (1, 2, 3)] == [1, 2, 3]
    _, keys1 = keygen(SecurityContext(mode="leveled", epochs=1), seed=b"a")
    assert keys1 == ClientKeys(ladder.ladder_id, 1)


def test_context_validation():
    with pytest.raises(ValueError):
        SecurityContext(mode="circular", epochs=2)
    with pytest.raises(ValueError):
        SecurityContext(depth_budget=0)
    with pytest.raises(ValueError):
        SecurityContext(mode="leveled", epochs=0)


def test_context_refuses_more_epochs_than_the_wire_holds():
    # the wire mask packs an epoch in two bytes; the context is refused
    # before any key is built, and the largest ladder is only described
    assert MAX_EPOCHS == 65535
    assert SecurityContext(mode="leveled", epochs=MAX_EPOCHS).epochs == 65535
    with pytest.raises(ValueError, match="epochs must be in 1..65535"):
        SecurityContext(mode="leveled", epochs=65536)


def test_round_trip_both_bits():
    ladder, keys = keygen(SecurityContext(), seed=b"rt")
    pk = ladder.public_key()
    for b in (0, 1):
        c = encrypt_bit(pk, b)
        assert (c.epoch, c.depth) == (1, 0)
        assert keys.decrypt_bit(c) == b
    with pytest.raises(ValueError):
        encrypt_bit(pk, 2)


def test_decrypt_needs_matching_epoch():
    ctx = SecurityContext(mode="leveled", epochs=3)
    ladder, keys = keygen(ctx, seed=b"ep")
    c1 = encrypt_bit(ladder.public_key(1), 1)
    c2 = kernel.refresh(c1)
    c3 = kernel.refresh(c2)
    assert [(c.epoch, keys.decrypt_bit(c)) for c in (c1, c2, c3)] == [
        (1, 1), (2, 1), (3, 1)]
    # an epoch outside the ladder, as a forged bit off the wire would carry
    for epoch in (0, 4):
        forged = kernel.CipherBit(ladder.state, 1, epoch, 0, c3._nonce)
        with pytest.raises(EpochMismatch):
            keys.decrypt_bit(forged)


def test_decrypt_rejects_foreign_ladder():
    _, keys_a = keygen(SecurityContext(), seed=b"a")
    ladder_b, _ = keygen(SecurityContext(), seed=b"b")
    c = encrypt_bit(ladder_b.public_key(), 1)
    with pytest.raises(LadderMismatch):
        keys_a.decrypt_bit(c)


def test_decrypt_refuses_bit_past_depth_budget():
    # gates refresh before they pass the budget, so an over-deep bit can
    # only be rebuilt from its parts, as a forged one off the wire would be
    ladder, keys = keygen(SecurityContext(depth_budget=2), seed=b"no")
    c = encrypt_bit(ladder.public_key(), 1)

    def at_depth(depth):
        return kernel.CipherBit(ladder.state, kernel._reveal(c), c.epoch,
                                depth, c._nonce)

    assert keys.decrypt_bit(at_depth(2)) == 1
    with pytest.raises(NoiseOverflow):
        keys.decrypt_bit(at_depth(3))


def test_gate_wrappers():
    ladder, keys = keygen(SecurityContext(), seed=b"gw")
    pk = ladder.public_key()
    one, zero = encrypt_bit(pk, 1), encrypt_bit(pk, 0)
    assert keys.decrypt_bit(kernel.xor(one, one)) == 0
    assert keys.decrypt_bit(kernel.and_(one, zero)) == 0
    assert keys.decrypt_bit(bit_or(one, zero)) == 1
    assert keys.decrypt_bit(kernel.not_(zero)) == 1


def test_deep_circuit_refreshes_in_circular_mode():
    ladder, keys = keygen(SecurityContext(depth_budget=4), seed=b"deep")
    pk = ladder.public_key()
    acc = encrypt_bit(pk, 1)
    for _ in range(5):  # depth 5 > budget 4
        acc = kernel.and_(acc, encrypt_bit(pk, 1))
    assert keys.decrypt_bit(acc) == 1
    assert ladder.state.refresh_count >= 1


def test_deep_circuit_exhausts_single_level_ladder():
    ctx = SecurityContext(mode="leveled", depth_budget=4, epochs=1)
    ladder, _ = keygen(ctx, seed=b"deep")
    pk = ladder.public_key()
    acc = encrypt_bit(pk, 1)
    with pytest.raises(LadderExhausted):
        for _ in range(5):
            acc = kernel.and_(acc, encrypt_bit(pk, 1))


def test_keygen_deterministic_per_seed():
    l1, _ = keygen(SecurityContext(), seed="same")
    l2, _ = keygen(SecurityContext(), seed="same")
    l3, _ = keygen(SecurityContext(), seed="other")
    assert l1.ladder_id == l2.ladder_id
    assert l1.ladder_id != l3.ladder_id
    assert l1.mask_key == l2.mask_key


def test_server_visible_material_has_no_plaintext_secret():
    ladder, keys = keygen(SecurityContext(mode="leveled", epochs=3), seed=b"s")
    # computation needs only the ladder; decryption needs ClientKeys
    pk = ladder.public_key()
    c = kernel.and_(encrypt_bit(pk, 1), encrypt_bit(pk, 1))
    assert keys.decrypt_bit(c) == 1
    assert not hasattr(ladder, "secret_keys")
    assert not hasattr(ladder, "decrypt_bit")
    server = ServerStore(ladder)
    assert not any(isinstance(v, ClientKeys) for v in vars(server).values())


def test_epoch_out_of_range():
    for ctx in (SecurityContext(), SecurityContext(mode="leveled", epochs=3)):
        ladder, _ = keygen(ctx, seed=b"e")
        for epoch in (0, ctx.epochs + 1):
            with pytest.raises(EpochMismatch):
                ladder.public_key(epoch)


PARTS_CTX = SecurityContext(mode="leveled", depth_budget=3, epochs=4)
PARTS_LADDER, PARTS_KEYS = keygen(PARTS_CTX, seed=b"parts")
# bit edits that each break one check of decryption: the (epoch, depth)
# they give a bit, None keeping its own
BREAKS = {"epoch 0": (0, None), "epoch past the ladder": (5, None),
          "depth past the budget": (None, 4)}


def _decrypted(keys, word):
    """The value ``decrypt_word`` gives, or its refusal's class and text."""
    try:
        return decrypt_word(keys, word)
    except HequelError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_decrypting_parts_matches_decrypting_built_bits(data):
    # a decoded word decrypted from its parts gives the value, or the
    # refusal, that decrypting its built bits one by one gives, and
    # builds no bit
    width = data.draw(st.integers(1, 6))
    payload = data.draw(st.integers(0, (1 << width) - 1))
    epochs = data.draw(st.lists(st.integers(1, 4), min_size=width,
                                max_size=width))
    depths = data.draw(st.lists(st.integers(0, 3), min_size=width,
                                max_size=width))
    nonces = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=width,
                                max_size=width))
    for at, name in data.draw(st.lists(st.tuples(
            st.integers(0, width - 1), st.sampled_from(sorted(BREAKS))),
            max_size=3)):
        epoch, depth = BREAKS[name]
        epochs[at] = epochs[at] if epoch is None else epoch
        depths[at] = depths[at] if depth is None else depth
    foreign = data.draw(st.booleans())
    keys = ClientKeys("another ladder", 4) if foreign else PARTS_KEYS
    parts = (PARTS_LADDER.state, payload, epochs, depths, nonces)
    lazy = CipherWord.from_parts(*parts)
    built = CipherWord(kernel.word_from_parts(*parts))
    assert _decrypted(keys, lazy) == _decrypted(keys, built)
    assert lazy._parts is not None


@pytest.mark.parametrize("epochs, depths, error", [
    ([1, 0, 1], [0, 0, 0], EpochMismatch),
    ([1, 5, 1], [0, 0, 0], EpochMismatch),
    ([1, 1, 1], [0, 4, 0], NoiseOverflow),
    # the first bad bit in order decides, as bit-by-bit decryption meets it
    ([1, 1, 5], [0, 4, 0], NoiseOverflow),
    ([1, 5, 1], [0, 0, 4], EpochMismatch)])
def test_decrypting_parts_refuses_what_decrypt_bit_refuses(epochs, depths,
                                                           error):
    # each refusal of the property above, drawn or not
    parts = (PARTS_LADDER.state, 5, epochs, depths, [7, 8, 9])
    for word in (CipherWord.from_parts(*parts),
                 CipherWord(kernel.word_from_parts(*parts))):
        with pytest.raises(error):
            decrypt_word(PARTS_KEYS, word)
    with pytest.raises(LadderMismatch):
        decrypt_word(ClientKeys("another ladder", 4),
                     CipherWord.from_parts(PARTS_LADDER.state, 5, [1] * 3,
                                           [0] * 3, [7, 8, 9]))
