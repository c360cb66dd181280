"""Counter-collusion in two-cloud verifiable computing: simulator + checker.

Subpackages
-----------
crypto      Pedersen commitments and Fiat-Shamir (in)equality proofs.
ledger      Deterministic in-memory ledger, clock, and monetary parameters.
contracts   Executable state machines for the three escrow contracts.
protocol    Party drivers that play full scenarios against the contracts.
gametheory  Extensive-form games, assessments, equilibrium verification.
cli         Command-line front end (``countercollusion ...``).
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = ["__version__", "CodedError"]


class CodedError(Exception):
    """Base of every package error; ``code`` is a stable identifier."""

    def __init__(self, code: str, message: str = "") -> None:
        super().__init__(message or code)
        self.code = code
