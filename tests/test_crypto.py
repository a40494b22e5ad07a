"""Key lifecycle: ladders, encrypt/decrypt, epoch rules, noise overflow,
and the server/client separation contract."""

from __future__ import annotations

import pytest

from hequel.circuits import bit_or
from hequel.crypto import (ClientKeys, SecurityContext, decrypt_bit,
                           encrypt_bit, keygen)
from hequel.errors import (EpochMismatch, LadderExhausted, LadderMismatch,
                           NoiseOverflow)


def test_keygen_circular_shape():
    ladder, keys = keygen(SecurityContext(mode="circular"), seed=b"a")
    assert len(ladder.public_keys) == 1
    assert len(ladder.wrapped_secret_keys) == 1
    assert len(keys.secret_keys) == 1


def test_keygen_leveled_shape():
    ctx = SecurityContext(mode="leveled", epochs=3)
    ladder, keys = keygen(ctx, seed=b"a")
    assert len(ladder.public_keys) == 3
    assert len(ladder.wrapped_secret_keys) == 2
    assert len(keys.secret_keys) == 3
    ladder1, _ = keygen(SecurityContext(mode="leveled", epochs=1), seed=b"a")
    assert len(ladder1.public_keys) == 1
    assert len(ladder1.wrapped_secret_keys) == 0


def test_context_validation():
    with pytest.raises(ValueError):
        SecurityContext(mode="circular", epochs=2)
    with pytest.raises(ValueError):
        SecurityContext(depth_budget=0)
    with pytest.raises(ValueError):
        SecurityContext(mode="leveled", epochs=0)


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
    ctx = SecurityContext(mode="leveled", epochs=2)
    ladder, keys = keygen(ctx, seed=b"ep")
    c = encrypt_bit(ladder.public_key(1), 1)
    with pytest.raises(EpochMismatch):
        decrypt_bit(keys.secret_key(2), c)
    r = ladder.kernel.refresh(c)
    assert decrypt_bit(keys.secret_key(2), r) == 1


def test_decrypt_rejects_foreign_ladder():
    _, keys_a = keygen(SecurityContext(), seed=b"a")
    ladder_b, _ = keygen(SecurityContext(), seed=b"b")
    c = encrypt_bit(ladder_b.public_key(), 1)
    with pytest.raises(LadderMismatch):
        keys_a.decrypt_bit(c)


def test_noise_overflow_when_auto_refresh_disabled():
    ladder, keys = keygen(SecurityContext(depth_budget=2), seed=b"no")
    ladder.state.auto_refresh = False
    pk = ladder.public_key()
    c = encrypt_bit(pk, 1)
    for _ in range(3):
        c = ladder.kernel.and_(c, encrypt_bit(pk, 1))
    assert c.depth == 3
    with pytest.raises(NoiseOverflow):
        keys.decrypt_bit(c)


def test_gate_wrappers():
    ladder, keys = keygen(SecurityContext(), seed=b"gw")
    pk = ladder.public_key()
    one, zero = encrypt_bit(pk, 1), encrypt_bit(pk, 0)
    assert keys.decrypt_bit(ladder.kernel.xor(one, one)) == 0
    assert keys.decrypt_bit(ladder.kernel.and_(one, zero)) == 0
    assert keys.decrypt_bit(bit_or(one, zero)) == 1
    assert keys.decrypt_bit(ladder.kernel.not_(zero)) == 1


def test_deep_circuit_refreshes_in_circular_mode():
    ladder, keys = keygen(SecurityContext(depth_budget=4), seed=b"deep")
    pk = ladder.public_key()
    acc = encrypt_bit(pk, 1)
    for _ in range(5):  # depth 5 > budget 4
        acc = ladder.kernel.and_(acc, encrypt_bit(pk, 1))
    assert keys.decrypt_bit(acc) == 1
    assert ladder.state.refresh_count >= 1


def test_deep_circuit_exhausts_single_level_ladder():
    ctx = SecurityContext(mode="leveled", depth_budget=4, epochs=1)
    ladder, _ = keygen(ctx, seed=b"deep")
    pk = ladder.public_key()
    acc = encrypt_bit(pk, 1)
    with pytest.raises(LadderExhausted):
        for _ in range(5):
            acc = ladder.kernel.and_(acc, encrypt_bit(pk, 1))


def test_keygen_deterministic_per_seed():
    l1, _ = keygen(SecurityContext(), seed="same")
    l2, _ = keygen(SecurityContext(), seed="same")
    l3, _ = keygen(SecurityContext(), seed="other")
    assert l1.ladder_id == l2.ladder_id
    assert l1.ladder_id != l3.ladder_id
    assert l1.mask_key == l2.mask_key


def test_server_visible_material_has_no_plaintext_secret():
    ladder, keys = keygen(SecurityContext(mode="leveled", epochs=3), seed=b"s")
    tokens = {sk.token for sk in keys.secret_keys}
    for wrapped in ladder.wrapped_secret_keys:
        assert wrapped not in tokens
    # computation needs only the ladder; decryption needs ClientKeys
    pk = ladder.public_key()
    c = ladder.kernel.and_(encrypt_bit(pk, 1), encrypt_bit(pk, 1))
    assert keys.decrypt_bit(c) == 1
    assert not hasattr(ladder, "secret_keys")


def test_epoch_out_of_range():
    ladder, _ = keygen(SecurityContext(), seed=b"e")
    with pytest.raises(EpochMismatch):
        ladder.public_key(2)
    _, keys = keygen(SecurityContext(), seed=b"e")
    with pytest.raises(EpochMismatch):
        keys.secret_key(9)
