"""hequel: relational algebra over a simulated bit-level FHE backend.

Queries run on a server that sees only ciphertext: every table cell and
every row-presence flag is an encrypted bit vector, operators are fixed
gate circuits with no data-dependent control flow, and results come back
through a compact two-step fetch the client can verify.
"""
