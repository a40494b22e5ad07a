"""Key management and the bit-level encrypt/decrypt API. Gates are
evaluated by ``hequel.kernel``.

A key ladder is a chain of keypairs (sk_1, pk_1) .. (sk_D, pk_D). The server
holds the public keys plus *wrapped* secret keys: in leveled mode each sk_i
is encrypted under pk_{i+1} (so a bit can be bootstrapped upward D-1 times
and then the ladder is exhausted); in circular mode sk_1 is encrypted under
its own pk_1 and refreshing never changes epoch. The wrapped keys here are
opaque hash commitments: the simulation tracks epochs and depth exactly,
but the lattice math they stand in for is not reproduced.

The client keeps the unwrapped secret keys and is the only party that can
decrypt. Depth past the budget at decryption time means the noise fiction
has been violated, and decryption refuses.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from hequel import kernel
from hequel.errors import EpochMismatch, LadderMismatch, NoiseOverflow

MODE_NAMES = {"circular": kernel.MODE_CIRCULAR, "leveled": kernel.MODE_LEVELED}

# the wire mask packs each ciphertext's epoch in two bytes
MAX_EPOCHS = 0xFFFF


@dataclass(frozen=True)
class SecurityContext:
    """Public parameters a ladder is generated from."""

    mode: str = "circular"
    depth_budget: int = 8
    epochs: int = 1

    def __post_init__(self):
        if self.mode not in MODE_NAMES:
            raise ValueError(f"mode must be 'circular' or 'leveled', got {self.mode!r}")
        if self.depth_budget < 1:
            raise ValueError("depth_budget must be >= 1")
        if not 1 <= self.epochs <= MAX_EPOCHS:
            raise ValueError(f"epochs must be in 1..{MAX_EPOCHS}")
        if self.mode == "circular" and self.epochs != 1:
            raise ValueError("circular mode has a single epoch")


@dataclass(frozen=True)
class PublicKey:
    ladder: "KeyLadder"
    epoch: int

    def __repr__(self):
        return f"PublicKey(ladder={self.ladder.ladder_id[:8]}, epoch={self.epoch})"


@dataclass(frozen=True)
class SecretKey:
    ladder_id: str
    epoch: int
    token: bytes

    def __repr__(self):
        return f"SecretKey(ladder={self.ladder_id[:8]}, epoch={self.epoch})"


class KeyLadder:
    """Server-side half of a keypair ladder: public keys, wrapped secret
    keys, and the kernel evaluation state."""

    def __init__(self, ctx: SecurityContext, seed: bytes):
        self.ctx = ctx
        self.seed = seed
        self.ladder_id = hashlib.sha256(b"ladder:" + seed).hexdigest()
        # keys the serialized-ciphertext payload mask; one-way derived so it
        # cannot recover secret-key tokens
        self.mask_key = hashlib.sha256(b"mask:" + seed).digest()
        nonce_seed = int.from_bytes(hashlib.sha256(b"nonce:" + seed).digest()[:8], "big")
        self.state = kernel.KernelState(
            MODE_NAMES[ctx.mode], ctx.depth_budget, ctx.epochs,
            nonce_seed, self.ladder_id)
        self.public_keys = tuple(
            PublicKey(self, e) for e in range(1, ctx.epochs + 1))
        self.wrapped_secret_keys = self._wrap_keys()

    def _sk_token(self, epoch: int) -> bytes:
        return hashlib.sha256(b"sk:%d:" % epoch + self.seed).digest()

    def _wrap_keys(self) -> tuple[bytes, ...]:
        # wrap(sk_i, pk_j) is a commitment, never unwrapped by the server
        def wrap(inner: int, outer: int) -> bytes:
            return hashlib.sha256(
                b"wrap:" + self._sk_token(inner) + b":under:%d" % outer).digest()

        if self.ctx.mode == "circular":
            return (wrap(1, 1),)
        return tuple(wrap(e, e + 1) for e in range(1, self.ctx.epochs))

    def public_key(self, epoch: int = 1) -> PublicKey:
        if not 1 <= epoch <= self.ctx.epochs:
            raise EpochMismatch(f"epoch {epoch} outside ladder of {self.ctx.epochs}")
        return self.public_keys[epoch - 1]

    def inject_gate_fault(self, gate_index: int) -> None:
        """Flip the output of the N-th gate evaluated from now on (1-based,
        counted over XOR and AND together). Testing hook."""
        self.state.fault_gate = self.state.gate_total() + gate_index

    def clear_gate_fault(self) -> None:
        self.state.fault_gate = -1


@dataclass(frozen=True)
class ClientKeys:
    """Client-side half: the actual secret keys, one per epoch."""

    ladder_id: str
    secret_keys: tuple[SecretKey, ...] = field(repr=False)

    def secret_key(self, epoch: int) -> SecretKey:
        for sk in self.secret_keys:
            if sk.epoch == epoch:
                return sk
        raise EpochMismatch(f"no secret key for epoch {epoch}")

    def decrypt_bit(self, c) -> int:
        return decrypt_bit(self.secret_key(c.epoch), c)


def keygen(ctx: SecurityContext,
           seed: bytes | str | None = None) -> tuple[KeyLadder, ClientKeys]:
    if seed is None:
        seed = os.urandom(32)
    elif isinstance(seed, str):
        seed = seed.encode("utf-8")
    ladder = KeyLadder(ctx, seed)
    sks = tuple(
        SecretKey(ladder.ladder_id, e, ladder._sk_token(e))
        for e in range(1, ctx.epochs + 1))
    return ladder, ClientKeys(ladder.ladder_id, sks)


def encrypt_bit(pk: PublicKey, bit: int):
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return kernel.fresh_bit(pk.ladder.state, bit, pk.epoch)


def decrypt_bit(sk: SecretKey, c) -> int:
    state = c._state
    if sk.ladder_id != state.ladder_id:
        raise LadderMismatch("secret key belongs to a different ladder")
    if c.epoch != sk.epoch:
        raise EpochMismatch(
            f"ciphertext is at epoch {c.epoch}, secret key at {sk.epoch}")
    if c.depth > state.depth_budget:
        raise NoiseOverflow(
            f"depth {c.depth} exceeds budget {state.depth_budget}")
    return kernel._reveal(c)
