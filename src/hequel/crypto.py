"""Key management and the bit-level encrypt/decrypt API. Gates are
evaluated by ``hequel.kernel``.

A key ladder stands for a chain of keypairs (sk_1, pk_1) .. (sk_D, pk_D):
in leveled mode sk_i is encrypted under pk_{i+1}, so a bit can be
bootstrapped upward D-1 times; in circular mode sk_1 is encrypted under
pk_1 and a refresh keeps the epoch. The simulation keeps only what its
checks read: the ladder id, a public key per epoch, the epoch count and
the mask key of serialized payloads. A refresh is the kernel's and uses
no key material; the lattice math is not reproduced.

Only the client holds ``ClientKeys`` and decrypts. It refuses a bit from
another ladder, at an epoch outside the ladder, or past the depth budget,
with one check whether the bit was built or a decoded word still holds it
as wire parts.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

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


class KeyLadder:
    """Server-side half of a key ladder: its public keys and the kernel
    evaluation state."""

    def __init__(self, ctx: SecurityContext, seed: bytes):
        self.ctx = ctx
        self.seed = seed
        self.ladder_id = hashlib.sha256(b"ladder:" + seed).hexdigest()
        # keys the serialized-ciphertext payload mask
        self.mask_key = hashlib.sha256(b"mask:" + seed).digest()
        nonce_seed = int.from_bytes(hashlib.sha256(b"nonce:" + seed).digest()[:8], "big")
        self.state = kernel.KernelState(
            MODE_NAMES[ctx.mode], ctx.depth_budget, ctx.epochs,
            nonce_seed, self.ladder_id)

    def public_key(self, epoch: int = 1) -> PublicKey:
        if not 1 <= epoch <= self.ctx.epochs:
            raise EpochMismatch(f"epoch {epoch} outside ladder of {self.ctx.epochs}")
        return PublicKey(self, epoch)

    def inject_gate_fault(self, gate_index: int) -> None:
        """Flip the output of the N-th gate evaluated from now on (1-based,
        counted over XOR and AND together). Testing hook."""
        self.state.fault_gate = self.state.gate_total() + gate_index

    def clear_gate_fault(self) -> None:
        self.state.fault_gate = -1


@dataclass(frozen=True)
class ClientKeys:
    """Client-side half: decrypts the bits of one ladder."""

    ladder_id: str
    epochs: int

    def _check(self, state, epochs, depths) -> None:
        """The checks of every decryption: refuse bits of another ladder
        than this one, then, at the first bit in order that fails either,
        an epoch outside the ladder or a depth past ``state``'s budget."""
        if state.ladder_id != self.ladder_id:
            raise LadderMismatch("ciphertext belongs to a different ladder")
        budget = state.depth_budget
        if min(epochs) >= 1 and max(epochs) <= self.epochs and \
                max(depths) <= budget:
            return
        for epoch, depth in zip(epochs, depths):
            if not 1 <= epoch <= self.epochs:
                raise EpochMismatch(
                    f"ciphertext epoch {epoch} outside ladder of {self.epochs}")
            if depth > budget:
                raise NoiseOverflow(f"depth {depth} exceeds budget {budget}")

    def decrypt_bit(self, c) -> int:
        self._check(c._state, (c.epoch,), (c.depth,))
        return kernel._reveal(c)

    def decrypt_parts(self, state, payload: int, epochs, depths) -> int:
        """The value of a word held as its wire parts (``circuits.
        CipherWord.from_parts``): bit i of ``payload`` is bit i of the
        word, most significant first, at ``epochs[i]`` and ``depths[i]``.
        Each bit passes ``decrypt_bit``'s checks, and no bit is built."""
        self._check(state, epochs, depths)
        return int(f"{payload:0{len(epochs)}b}"[::-1], 2)


def keygen(ctx: SecurityContext,
           seed: bytes | str | None = None) -> tuple[KeyLadder, ClientKeys]:
    if seed is None:
        seed = os.urandom(32)
    elif isinstance(seed, str):
        seed = seed.encode("utf-8")
    ladder = KeyLadder(ctx, seed)
    return ladder, ClientKeys(ladder.ladder_id, ctx.epochs)


def encrypt_bit(pk: PublicKey, bit: int):
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return kernel.fresh_bit(pk.ladder.state, bit, pk.epoch)
