"""Exception types shared across the package."""


class HequelError(Exception):
    """Base class for all hequel errors."""


# -- key / noise layer --------------------------------------------------------

class LadderMismatch(HequelError):
    """Ciphertexts or keys from different key ladders were combined."""


class EpochMismatch(HequelError):
    """An epoch outside the key ladder was asked for or decrypted."""


class NoiseOverflow(HequelError):
    """Ciphertext exceeded the multiplicative depth budget; decryption is no
    longer guaranteed correct."""


class LadderExhausted(HequelError):
    """A refresh was needed past the last key epoch of a leveled ladder."""


# -- word layer ----------------------------------------------------------------

class WidthMismatch(HequelError):
    """Operands of a word circuit have different bit widths."""


class ValueOverflow(HequelError):
    """Plaintext value does not fit the declared bit width."""


# -- table layer ---------------------------------------------------------------

class SchemaMismatch(HequelError):
    """Operator applied to tables with incompatible schemas."""


class UnknownColumn(HequelError):
    """Referenced column is not part of the schema."""


class DuplicateColumn(HequelError):
    """Operation would produce a schema with repeated column names."""


class UnknownTable(HequelError):
    """Referenced table is not registered in the catalog."""


# -- plans / parsing -----------------------------------------------------------

class ParseError(HequelError):
    """Plan text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class PlanTypeError(HequelError):
    """Plan is structurally valid but ill-typed against the catalog."""


# -- protocol ------------------------------------------------------------------

class ProtocolError(HequelError):
    """Malformed or out-of-sequence protocol message."""


class FetchTooLarge(HequelError):
    """Client requested more rows than the result table holds."""


class VerificationFailure(HequelError):
    """Fetched rows do not match the previously decrypted result count."""
