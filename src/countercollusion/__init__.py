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

from collections import namedtuple

__version__ = "0.1.0"

__all__ = ["__version__", "CodedError", "Record"]


class CodedError(Exception):
    """Base of every package error; ``code`` is a stable identifier."""

    def __init__(self, code: str, message: str = "") -> None:
        super().__init__(message or code)
        self.code = code


class _RecordType(type):
    """The type of ``Record``: ``class Name(Record)`` builds a
    ``collections.namedtuple``, as ``typing.NamedTuple`` does, without
    importing ``typing``.  The fields are the body's annotated names, in
    order, and their class-level values the defaults; the annotations are
    read as strings, never evaluated.  The rest of the body (``__module__``,
    ``__qualname__``, the docstring, methods and properties) is copied onto
    the namedtuple."""

    def __new__(mcls, name, bases, body):
        fields = tuple(body["__annotations__"])
        defaults = {field: body[field] for field in fields if field in body}
        for field in fields[len(fields) - len(defaults):]:
            if field not in defaults:
                raise TypeError(f"field {field} without a default follows default field "
                                f"{next(iter(defaults))}")
        made = namedtuple(name, fields, defaults=defaults.values())
        for key, value in body.items():
            if key not in defaults:
                setattr(made, key, value)
        return made


#: Base of the package's records (see ``_RecordType``).
Record = type.__new__(_RecordType, "Record", (), {})
