"""Pedersen commitments and Fiat-Shamir (in)equality proofs over prime-order groups.

Two interchangeable backends share one additive-notation interface, ``mul``,
``diff``, ``is_member``, ``encode``/``decode`` and ``hash_to_group``, plus an
``add`` that is there only for the benchmark's traced run:

* ``toy`` -- the order-509 subgroup of quadratic residues of Z_1019^*.
  Small enough for exhaustive binding checks and hand-derived known-answer
  vectors; soundness is only 1/509 per forged proof, and any party can take
  discrete logs there by table lookup and so forge any proof, so it is a
  test oracle, not a production group.
* ``secp256k1`` -- the 256-bit curve, pure-Python Jacobian arithmetic.

``mul(k, a, k2, a2, ...)`` returns ``k*a + k2*a2 + ...`` in one call: on toy
a product of ``pow``s, on secp256k1 one interleaved NAF pass whose terms
share their doublings.  The secp256k1 pass uses the GLV endomorphism
``lambda*(x, y) = (beta*x, y)`` (Gallant-Lambert-Vanstone, CRYPTO 2001; the
constants and lattice basis are the standard secp256k1 ones, see
Hankerson-Menezes-Vanstone, Guide to ECC, section 3.5): each scalar splits
into two halves of at most 128 bits, so the shared chain is about 128
doublings instead of 256, with no extra point additions.  Each base adds
from a row of true-affine odd multiples and their negations, and its
``(beta*x, y)`` image.  A row is a co-Z chain (Meloni, WAIFI 2007): one
doubling, then one co-Z addition of ``2a`` per odd multiple, made affine
with one field inversion for all the rows a call builds.  For the
generators ``P`` and ``Q`` those rows are built once, by ``setup``, at
width 8 (64 multiples each; Guide to ECC, section 3.3) and kept in
``GroupParams.tables``; ``GroupParams.mul`` passes them in.  Every other
base (in the protocol only ``D = C1 - C2``, which stays in Jacobian
coordinates) gets width-5 rows (8 multiples) per call; the result's ``Z``
is the call's only other field inversion.  A term of scalar 1 or -1 is
added once, with no rows: a verifier adds ``-t`` that way and checks for
the identity, which is never made affine, so an accepted proof costs one
inversion.  One flat loop adds the row points of the nonzero NAF digits
only, with the point formulas inline over local ints.  Calls per operation are the same on both
groups: ``commit`` 1, ``prove_eq`` and ``prove_neq`` 3 each (two of them
re-open the commitments), ``verify_eq`` and ``verify_neq`` 1 each.

Commitments are ``Com_s(m) = m*P + s*Q`` where ``P`` and ``Q`` are both
derived by hash-to-group from a public seed (nobody knows a discrete log
relating them).  Both proofs are one proof of knowledge of a representation
(Schnorr, J. Cryptology 1991; Camenisch-Stadler, CRYPTO 1997): with
``D = C1 - C2``, the equality proof shows ``D = w*Q`` (same message), the
inequality proof shows ``P = a*D + b*Q``, which for equal messages would
need ``log_Q P``.  Both are made non-interactive with a SHA-256 challenge
over ``tag | group-name | enc(P) enc(Q) enc(C1) enc(C2) enc(t)``.

Encodings are fixed width.  Toy: 2-byte elements / 2-byte scalars.
secp256k1: 64-byte uncompressed elements (x || y) / 32-byte scalars, giving
512-bit commitments, 768-bit equality proofs and 1024-bit inequality proofs.

All randomness comes from caller-supplied ``random.Random`` instances, so
every artifact is reproducible bit for bit.

Every hash of the package is this module's ``sha256``: the interpreter's
built-in SHA-256 (``_sha2`` on Python 3.12+, ``_sha256`` on 3.10-3.11), or
``hashlib.sha256`` where neither is built.  All give the same digests, and
the built-in module spares each CLI process ``hashlib``, which loads
OpenSSL's ``_hashlib``: about 3.5 ms and 3.5 MB of a cold start.
"""

from __future__ import annotations

from . import CodedError, Record

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

__all__ = [
    "CryptoError",
    "GroupParams",
    "Scalar",
    "Commitment",
    "Opening",
    "EqProof",
    "NeqProof",
    "setup",
    "commit",
    "open_commitment",
    "digest",
    "rand_scalar",
    "prove_eq",
    "verify_eq",
    "prove_neq",
    "verify_neq",
    "serialize_commitment",
    "deserialize_commitment",
    "serialize_eq_proof",
    "deserialize_eq_proof",
    "serialize_neq_proof",
    "deserialize_neq_proof",
]

HTG_TAG = b"countercollusion/htg/v1"
EQ_TAG = b"countercollusion/nizk-eq/v1"
NEQ_TAG = b"countercollusion/nizk-neq/v2"

#: A scalar is a plain int in ``[0, q)``; helpers reduce on entry.
Scalar = int

#: The ``tables`` of a group without precomputed generator rows.
_NO_TABLES: dict = {}


class CryptoError(CodedError):
    """Cryptographic precondition failure."""


# ---------------------------------------------------------------------------
# Group backends
# ---------------------------------------------------------------------------


class _ToyGroup:
    """Order-509 subgroup (quadratic residues) of Z_1019^*, written additively.

    Elements are ints in [1, 1019); the identity is 1.  "Addition" is field
    multiplication, "scalar multiplication" is exponentiation.
    """

    name = "toy"
    wire_name = b"toy1019"
    p = 1019
    q = 509
    elem_size = 2

    @property
    def identity(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        """``a + b``.  Nothing in the package calls it; it stays because the
        benchmark's traced run (``perfbench/spans.py``) wraps it."""
        return (a * b) % self.p

    def diff(self, a: int, b: int) -> int:
        """``a - b`` as a ``mul`` base."""
        return a * pow(b, -1, self.p) % self.p

    def mul(self, k: int, a: int, *more: int, tables=_NO_TABLES) -> int:
        """``k*a + k2*a2 + ...`` for ``more = (k2, a2, ...)``; toy has no
        generator rows, so ``tables`` is ignored."""
        if len(more) % 2:
            raise ValueError("mul takes (scalar, element) pairs")
        p, q = self.p, self.q
        r = pow(a, k % q, p)
        for i in range(0, len(more), 2):
            r = r * pow(more[i + 1], more[i] % q, p) % p
        return r

    def is_member(self, a: object) -> bool:
        return (
            isinstance(a, int)
            and 1 <= a < self.p
            and pow(a, self.q, self.p) == 1
        )

    def encode(self, a: int) -> bytes:
        return a.to_bytes(self.elem_size, "big")

    def decode(self, raw: bytes) -> int:
        if len(raw) != self.elem_size:
            raise CryptoError("bad-encoding", "wrong element length")
        a = int.from_bytes(raw, "big")
        if not self.is_member(a):
            raise CryptoError("bad-encoding", "not a subgroup element")
        return a

    def hash_to_group(self, tag: bytes, seed: bytes) -> int:
        counter = 0
        while True:
            h = sha256(
                HTG_TAG + b"|" + self.wire_name + b"|" + tag + b"|" + seed
                + b"|" + counter.to_bytes(4, "big")
            ).digest()
            x = int.from_bytes(h, "big") % self.p
            e = (x * x) % self.p  # squaring lands in the QR subgroup
            if e not in (0, 1):
                return e
            counter += 1


#: NAF width of the rows ``mul`` builds per call: digits odd in ``[-15, 15]``,
#: 8 odd multiples per base.
_WNAF_WIDTH = 5

#: NAF width of the generator tables ``setup`` builds: 64 odd multiples per
#: row, digits odd in ``[-127, 127]``.  Each GLV half of ``P`` or ``Q`` then
#: takes about 128/9, 14.2, additions where width 7 took 16.  The co-Z rows
#: of ``_odd_multiples`` build width 8 for about a tenth more than width 7
#: cost with Jacobian additions.
_FIXED_WIDTH = 8

#: Bit positions of ``mul``'s schedule: NAFs of GLV halves (< 2^128) end by 128.
_SCHEDULE_LEN = 129


class _Secp256k1Group:
    """secp256k1 with Jacobian-coordinate arithmetic.

    Affine points are ``(x, y)`` tuples; the identity is ``None``.  The
    64-byte encoding is x || y uncompressed (the identity, never produced by
    honest protocol runs, encodes as 64 zero bytes).
    """

    name = "secp256k1"
    wire_name = b"secp256k1"
    p = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
    q = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
    elem_size = 64

    @property
    def identity(self) -> Optional[tuple[int, int]]:
        return None

    # -- Jacobian helpers ---------------------------------------------------

    def _jdouble(self, pt):
        X, Y, Z = pt
        p = self.p
        if Y == 0:
            return None
        Y2 = (Y * Y) % p
        S = (4 * X * Y2) % p
        M = (3 * X * X) % p
        X3 = (M * M - 2 * S) % p
        Y3 = (M * (S - X3) - 8 * Y2 * Y2) % p
        Z3 = (2 * Y * Z) % p
        return (X3, Y3, Z3)

    def _to_affine(self, pt):
        X, Y, Z = pt
        p = self.p
        zinv = pow(Z, -1, p)
        z2 = (zinv * zinv) % p
        return ((X * z2) % p, (Y * z2 * zinv) % p)

    # -- group interface ----------------------------------------------------

    def add(self, a, b):
        """``a + b``, by ``mul``.  Nothing in the package calls it; it stays
        because the benchmark's traced run (``perfbench/spans.py``) wraps it."""
        return self.mul(1, a, 1, b)

    def diff(self, a, b):
        """``a - b`` as a ``mul`` base: Jacobian ``(X, Y, Z)``, or ``None``
        for the identity.  ``mul`` makes it affine in the batch inversion
        of its rows, so the difference costs no inversion of its own.  Two
        affine points add by the affine+affine formula (4M+2S, the result's
        ``Z`` is the difference of their ``x``), where a general Jacobian
        addition would spend 16 multiplications on ``Z1 = Z2 = 1``."""
        p = self.p
        if b is None:
            return None if a is None else (a[0], a[1], 1)
        if a is None:
            return (b[0], p - b[1], 1)
        x1, y1 = a
        H = (b[0] - x1) % p
        R = (-b[1] - y1) % p
        if not H:
            # b = a gives the identity; b = -a gives 2a (never of order 2: q is odd)
            return None if R else self._jdouble((x1, y1, 1))
        H2 = H * H % p
        H3 = H * H2 % p
        V = x1 * H2 % p
        X = (R * R - H3 - 2 * V) % p
        return (X, (R * (V - X) - y1 * H3) % p, H)

    def _odd_multiples(self, bases, w):
        """``(w, row, lambda_row)`` per base ``a``, affine ``(x, y)`` or
        Jacobian ``(X, Y, Z)``: ``row`` holds the odd multiples
        ``a, 3a, ..., (2^(w-1) - 1)*a`` followed by their negations in
        reverse order, so that a NAF digit ``d`` of either sign reads
        ``d*a`` as ``row[d >> 1]``; ``lambda_row`` holds their images
        ``(beta*x, y)`` under the endomorphism in the same order, all true
        affine.

        Each row is a co-Z chain (Meloni, WAIFI 2007; Longa-Miri, PKC 2008).
        One doubling gives ``2a`` at ``Z = 2*Y*Z``, and ``a`` at that ``Z``
        for free, as ``(X*(2Y)^2, Y*(2Y)^3)``.  Each next odd multiple is
        then one co-Z addition of ``2a`` (ZADDU, 5M+2S), which also gives
        ``2a`` again at the sum's ``Z``: the old ``Z`` times the factor
        ``F``, the difference of the two points' ``X``.  The factors are
        kept, so the inverse of a row's last ``Z``, walked back multiplying
        by them, makes the whole row affine.  That ``Z`` is not tracked:
        ``2a`` is ``(TX0, TY0)`` at the first ``Z`` and ``(TX, TY)`` at the
        last, so the last is ``Z * TX0 * TY / (TY0 * TX)``.  The rows'
        denominators share one Montgomery batch inversion, the call's only
        one.  No exceptional case occurs.  Adding ``2a`` to ``i*a`` with
        equal ``X`` would need ``(i -+ 2)*a`` to be the identity for an odd
        ``i < 2^(w-1)``, far below the prime order ``q``; the curve has no
        point of order 2, so no ``Y`` is 0, and none with ``x = 0`` (7 is
        not a square mod ``p``), so no ``X`` is 0; and no base is the identity
        (``mul`` skips a ``None`` base, such as ``D = O``)."""
        p, n = self.p, 1 << (w - 2)
        chains, nums, dens = [], [], []
        for a in bases:
            X, Y, Z = a if len(a) == 3 else (a[0], a[1], 1)
            Y2 = Y * Y % p
            S = 4 * X * Y2 % p
            M = 3 * X * X % p
            TX = (M * M - 2 * S) % p
            TY = (M * (S - TX) - 8 * Y2 * Y2) % p
            Z = 2 * Y * Z % p
            X, Y, TX0, TY0 = S, 8 * Y2 * Y2 % p, TX, TY
            # each odd multiple with the factor F that took the previous Z to its own
            chain = [(X, Y, 1)]
            for _ in range(n - 1):
                F = X - TX
                A = F * F % p
                B = TX * A % p
                C = X * A % p
                R = Y - TY
                TX, TY = B, TY * (C - B) % p
                X = (R * R - B - C) % p
                Y = (R * (B - X) - TY) % p
                chain.append((X, Y, F))
            chains.append(chain)
            nums.append(TY0 * TX % p)
            dens.append(Z * TX0 * TY % p)
        # prefix[j] = dens[0] * ... * dens[j-1]; walking back, inv = 1/(dens[0] * ... * dens[j])
        prefix, ds = [], 1
        for d in dens:
            prefix.append(ds)
            ds = ds * d % p
        inv, out = pow(ds, -1, p), [None] * len(chains)
        for j in range(len(chains) - 1, -1, -1):
            zinv = prefix[j] * inv * nums[j] % p
            inv = inv * dens[j] % p
            chain, row, lambda_row = chains[j], [None] * (2 * n), [None] * (2 * n)
            for i in range(n - 1, -1, -1):
                X, Y, F = chain[i]
                z2 = zinv * zinv % p
                x, y = X * z2 % p, Y * z2 * zinv % p
                zinv = zinv * F % p
                bx, ny = _GLV_BETA * x % p, p - y
                row[i], row[~i] = (x, y), (x, ny)
                lambda_row[i], lambda_row[~i] = (bx, y), (bx, ny)
            out[j] = (w, row, lambda_row)
        return out

    def fixed_base_tables(self, *bases) -> dict:
        """Width-``_FIXED_WIDTH`` rows of each base, keyed by the base, for
        ``mul``'s ``tables``."""
        return dict(zip(bases, self._odd_multiples(bases, _FIXED_WIDTH)))

    def mul(self, k, a, *more, tables=_NO_TABLES):
        """``k*a + k2*a2 + ...`` for ``more = (k2, a2, ...)``, by interleaved
        NAF (Straus) with the GLV endomorphism: all terms share one chain of
        about 128 doublings.

        Each scalar is split as ``k = k1 + k2*lambda (mod q)`` with halves of
        at most 128 bits (``_glv_split``), and ``lambda*(x, y)`` is
        ``(beta*x, y)``, so a base contributes two width-``w`` NAF digit
        streams: ``k1`` over its row of odd multiples and ``k2`` over the
        same row with every ``x`` times ``beta``.  A row holds both signs,
        so a digit of either sign reads its point with no branch.

        A base is affine ``(x, y)`` or Jacobian ``(X, Y, Z)`` (``diff``).
        A term whose scalar is 1 or -1 on an affine base adds the base or
        its negation once, at bit position 0, with no rows.  A base found in
        ``tables`` (``GroupParams.tables``: the generators ``P`` and ``Q``,
        built once by ``setup``) reads both rows from there, at width
        ``_FIXED_WIDTH``.  Every other base gets width-5 rows
        ``a, 3a, ..., 15a`` and their negations, built for this call as
        co-Z chains and made affine with one field inversion
        (``_odd_multiples``).  The schedule lists, per bit position, the row
        points of the nonzero digits (``_naf_digits``); the loop walks it
        from the top over a Jacobian ``X, Y, Z`` in local ints (``Z == 0``:
        the identity), with the doubling and the mixed Jacobian+affine
        addition written inline.  The result's ``Z`` is the call's only
        other field inversion, and a sum that is the identity needs none.
        """
        p, q = self.p, self.q
        terms = [(k % q, a) for k, a in _terms(k, a, more)]
        # the affine points to add at each bit position, least significant first
        steps = [[] for _ in range(_SCHEDULE_LEN)]
        multiples = []
        for k, a in terms:
            if not k or a is None:
                continue
            if len(a) == 2 and (k == 1 or k == q - 1):
                steps[0].append(a if k == 1 else (a[0], p - a[1]))
            else:
                multiples.append((k, a))
        fresh = [a for _, a in multiples if a not in tables]
        rows = tables
        if fresh:
            rows = dict(zip(fresh, self._odd_multiples(fresh, _WNAF_WIDTH))) | tables
        for k, a in multiples:
            w, row, lambda_row = rows[a]
            for half, r in zip(_glv_split(k), (row, lambda_row)):
                for i, d in _naf_digits(half, w):
                    steps[i].append(r[d >> 1])
        X = Y = Z = 0
        for pts in reversed(steps):
            if Z:
                Y2 = Y * Y % p
                S = 4 * X * Y2 % p
                M = 3 * X * X % p
                X = (M * M - 2 * S) % p
                Z = 2 * Y * Z % p
                Y = (M * (S - X) - 8 * Y2 * Y2) % p
            for x, y in pts:
                if not Z:
                    X, Y, Z = x, y, 1
                    continue
                ZZ = Z * Z % p
                H = (x * ZZ - X) % p
                R = (y * Z * ZZ - Y) % p
                if not H:
                    if R:  # the inverse point: the sum is the identity
                        Z = 0
                    else:  # the same point (never of order 2: q is odd)
                        X, Y, Z = self._jdouble((X, Y, Z))
                    continue
                H2 = H * H % p
                H3 = H * H2 % p
                V = X * H2 % p
                X = (R * R - H3 - 2 * V) % p
                Y = (R * (V - X) - Y * H3) % p
                Z = Z * H % p
        return self._to_affine((X, Y, Z)) if Z else None

    def is_member(self, a) -> bool:
        if a is None:
            return True
        # a plain pair: two-field records such as ``Opening`` are tuples too
        if not (type(a) is tuple and len(a) == 2):
            return False
        x, y = a
        if not (isinstance(x, int) and isinstance(y, int)):
            return False
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return (y * y - (x * x * x + 7)) % self.p == 0

    def encode(self, a) -> bytes:
        if a is None:
            return b"\x00" * 64
        return a[0].to_bytes(32, "big") + a[1].to_bytes(32, "big")

    def decode(self, raw: bytes):
        if len(raw) != self.elem_size:
            raise CryptoError("bad-encoding", "wrong element length")
        if raw == b"\x00" * 64:
            return None
        x = int.from_bytes(raw[:32], "big")
        y = int.from_bytes(raw[32:], "big")
        pt = (x, y)
        if not self.is_member(pt):
            raise CryptoError("bad-encoding", "point not on curve")
        return pt

    def hash_to_group(self, tag: bytes, seed: bytes):
        p = self.p
        counter = 0
        while True:
            h = sha256(
                HTG_TAG + b"|" + self.wire_name + b"|" + tag + b"|" + seed
                + b"|" + counter.to_bytes(4, "big")
            ).digest()
            x = int.from_bytes(h, "big") % p
            y2 = (x * x * x + 7) % p
            # a non-residue has no square root: the Jacobi symbol, about a
            # quarter of the root's cost, rules it out first
            if x != 0 and _jacobi(y2, p) != -1:
                y = pow(y2, (p + 1) // 4, p)  # p = 3 mod 4
                return (x, y if y % 2 == 0 else p - y)
            counter += 1


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` for odd ``n > 0``: 1, -1 or 0.  For a
    prime ``n`` it is Euler's criterion ``a^((n-1)/2) mod n``, taken by the
    binary algorithm (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 1.4.10): strip the factors of 2 from ``a`` (an odd
    number of them negates the symbol when ``n = 3, 5 (mod 8)``), swap
    ``a`` and ``n`` by quadratic reciprocity (negating when both are
    3 mod 4) and reduce."""
    a %= n
    t = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 3 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def _terms(k, a, more) -> list:
    """The ``(scalar, element)`` pairs of a ``mul(k, a, k2, a2, ...)`` call."""
    return [(k, a), *zip(more[::2], more[1::2], strict=True)]


def _naf_digits(k: int, w: int):
    """The nonzero digits of the width-``w`` non-adjacent form of ``k`` as
    ``(position, digit)``, least significant first: odd in
    ``(-2^(w-1), 2^(w-1))``, at least ``w`` positions apart, with
    ``sum(d << i) == k``.  Those of ``-k`` are those of ``k`` negated.  A
    run of zeros is skipped in one step, by its length
    ``(k & -k).bit_length() - 1``."""
    half, mask, i = 1 << (w - 1), (1 << w) - 1, 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        i += zeros
        d = k & mask
        if d > half:
            d -= mask + 1
        yield i, d
        k = (k - d) >> w
        i += w


# GLV endomorphism of secp256k1 (Gallant-Lambert-Vanstone, CRYPTO 2001;
# Hankerson-Menezes-Vanstone, Guide to ECC, section 3.5): lambda and beta are
# the matching cube roots of unity mod q and mod p, lambda*(x, y) = (beta*x, y).
# (a1, b1) and (a2, b2) are a reduced basis of the lattice of (x, y) with
# x + y*lambda = 0 (mod q), so a1*b2 - a2*b1 = q; each entry is under 2**129.
_GLV_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_GLV_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_GLV_B2 = _GLV_A1


def _glv_split(k: int) -> tuple[int, int]:
    """Halves ``(k1, k2)`` with ``k1 + k2*lambda = k (mod q)`` for ``k`` in ``[0, q)``.

    Babai rounding: ``c1`` and ``c2`` are the real coordinates of ``(k, 0)``
    in the basis ``(a1, b1), (a2, b2)``, rounded to the nearest integer, and
    ``(k1, k2) = (k, 0) - c1*(a1, b1) - c2*(a2, b2)``.  That remainder is
    ``f1*(a1, b1) + f2*(a2, b2)`` with ``|f1|, |f2| <= 1/2``, so
    ``|k1| <= (a1 + a2)/2`` and ``|k2| <= (|b1| + b2)/2``, both below
    ``2**128``.  Either half may be 0 or negative.
    """
    q = _Secp256k1Group.q
    c1 = (_GLV_B2 * k + q // 2) // q
    c2 = (-_GLV_B1 * k + q // 2) // q
    return k - c1 * _GLV_A1 - c2 * _GLV_A2, -c1 * _GLV_B1 - c2 * _GLV_B2


_BACKENDS = {"toy": _ToyGroup(), "secp256k1": _Secp256k1Group()}


# ---------------------------------------------------------------------------
# Public data types
# ---------------------------------------------------------------------------


class GroupParams(Record):
    """A group together with the two commitment generators ``P`` and ``Q``.

    ``tables`` holds the generators' precomputed rows for the secp256k1
    ``mul`` (the shared empty ``_NO_TABLES`` on toy).  It is derived from
    ``P`` and ``Q``, so equal generators give equal tables; being a dict, it
    makes a ``GroupParams`` unhashable.
    """

    group_id: str
    q: int
    P: object
    Q: object
    tables: dict = _NO_TABLES

    @property
    def backend(self):
        return _BACKENDS[self.group_id]

    def mul(self, *terms):
        """``k*a + k2*a2 + ...`` for ``terms = (k, a, k2, a2, ...)``, with
        ``P`` and ``Q`` read from ``tables``."""
        return self.backend.mul(*terms, tables=self.tables)

    @property
    def scalar_size(self) -> int:
        return (self.q.bit_length() + 7) // 8

    @property
    def elem_size(self) -> int:
        return self.backend.elem_size


class Commitment(Record):
    """A Pedersen commitment: a single group element."""

    value: object


class Opening(Record):
    """The witness of a commitment: message scalar ``m`` and blinding ``s``."""

    m: Scalar
    s: Scalar


class EqProof(Record):
    """Proof that two commitments hide the same message: ``(t, eta)``."""

    t: object
    eta: Scalar


class NeqProof(Record):
    """Proof that two commitments hide different messages: ``(t, eta1, eta2)``."""

    t: object
    eta1: Scalar
    eta2: Scalar


# ---------------------------------------------------------------------------
# Setup / commitment / hashing
# ---------------------------------------------------------------------------


def setup(group_id: str = "toy", seed: bytes = b"\x01") -> GroupParams:
    """Derive generators ``P`` and ``Q`` from a public seed.

    Both generators come from hash-to-group under distinct domain tags, so no
    party knows the discrete log of ``Q`` base ``P`` (or vice versa).  On
    secp256k1 it also builds their ``mul`` tables, each call its own.
    """
    if group_id not in _BACKENDS:
        raise CryptoError("unknown-group", f"no backend {group_id!r}")
    backend = _BACKENDS[group_id]
    P = backend.hash_to_group(b"P", seed)
    Q = backend.hash_to_group(b"Q", seed)
    tables = backend.fixed_base_tables(P, Q) if group_id == "secp256k1" else _NO_TABLES
    return GroupParams(group_id=group_id, q=backend.q, P=P, Q=Q, tables=tables)


def commit(gp: GroupParams, m: Scalar, s: Scalar) -> Commitment:
    """``Com_s(m) = m*P + s*Q``."""
    return Commitment(gp.mul(m, gp.P, s, gp.Q))


def open_commitment(gp: GroupParams, c: Commitment, o: Opening) -> bool:
    """Check that ``o`` opens ``c``."""
    return commit(gp, o.m, o.s) == c


def digest(gp: GroupParams, data: bytes) -> Scalar:
    """Map arbitrary bytes to a scalar: SHA-256 reduced mod ``q``."""
    return int.from_bytes(sha256(data).digest(), "big") % gp.q


def rand_scalar(gp: GroupParams, rng) -> Scalar:
    """Uniform scalar in ``[0, q)`` from a ``random.Random``-like source."""
    return rng.randrange(gp.q)


def _challenge(gp: GroupParams, tag: bytes, *elems) -> Scalar:
    g = gp.backend
    transcript = tag + b"|" + g.wire_name + b"|" + g.encode(gp.P) + g.encode(gp.Q)
    for e in elems:
        transcript += g.encode(e)
    return int.from_bytes(sha256(transcript).digest(), "big") % gp.q


# ---------------------------------------------------------------------------
# Representation proofs: the prover knows w_i with target = sum(w_i*B_i)
# ---------------------------------------------------------------------------


def _statement(gp: GroupParams, tag: bytes, c1: Commitment, c2: Commitment) -> tuple:
    """The bases ``B_i`` and target of the representation a proof under
    ``tag`` shows, with ``D = C1 - C2``: equality ``D = w*Q``, inequality
    ``P = a*D + b*Q``.  ``D`` is a ``mul`` base, not made affine
    (``diff``)."""
    d = gp.backend.diff(c1.value, c2.value)
    if tag == EQ_TAG:
        return (gp.Q,), d
    return (d, gp.Q), gp.P


def _prove(gp: GroupParams, tag: bytes, c1: Commitment, c2: Commitment, witness, rng) -> tuple:
    """Schnorr's proof of knowledge (J. Cryptology 1991) for a representation
    (Camenisch-Stadler, CRYPTO 1997), made non-interactive by Fiat-Shamir:
    ``t = sum(r_i*B_i)``, ``delta = H(tag, C1, C2, t)``,
    ``eta_i = r_i + delta*w_i``.  Returns ``(t, [eta_i])``."""
    bases, _ = _statement(gp, tag, c1, c2)
    nonces = [rand_scalar(gp, rng) for _ in bases]
    t = gp.mul(*[x for term in zip(nonces, bases) for x in term])
    delta = _challenge(gp, tag, c1.value, c2.value, t)
    return t, [(w * delta + r) % gp.q for r, w in zip(nonces, witness)]


def _verify(gp: GroupParams, tag: bytes, c1: Commitment, c2: Commitment, t, etas) -> bool:
    """Check ``sum(eta_i*B_i) - delta*target - t`` is the identity in one
    ``mul`` call.  ``t`` enters as a term of scalar -1, which the secp256k1
    ``mul`` adds without rows, and the identity sum of an accepted proof is
    never made affine."""
    g = gp.backend
    if not (g.is_member(c1.value) and g.is_member(c2.value) and g.is_member(t)):
        return False
    for eta in etas:
        if not isinstance(eta, int) or not 0 <= eta < gp.q:
            return False
    bases, target = _statement(gp, tag, c1, c2)
    delta = _challenge(gp, tag, c1.value, c2.value, t)
    return gp.mul(*[x for term in zip(etas, bases) for x in term], -delta, target, -1, t) == g.identity


def prove_eq(
    gp: GroupParams, c1: Commitment, c2: Commitment, o1: Opening, o2: Opening, rng
) -> EqProof:
    """Prove ``C1 - C2 = (s1 - s2)*Q``: same message, different blinding.

    Raises ``CryptoError('witness-mismatch')`` if the openings do not open the
    commitments or hide different messages.
    """
    if not (open_commitment(gp, c1, o1) and open_commitment(gp, c2, o2)):
        raise CryptoError("witness-mismatch", "openings do not match commitments")
    if o1.m % gp.q != o2.m % gp.q:
        raise CryptoError("witness-mismatch", "messages differ; cannot prove equality")
    t, (eta,) = _prove(gp, EQ_TAG, c1, c2, (o1.s - o2.s,), rng)
    return EqProof(t=t, eta=eta)


def verify_eq(gp: GroupParams, c1: Commitment, c2: Commitment, proof: EqProof) -> bool:
    """Check ``eta*Q - delta*(C1 - C2) == t``."""
    return _verify(gp, EQ_TAG, c1, c2, proof.t, (proof.eta,))


def prove_neq(
    gp: GroupParams, c1: Commitment, c2: Commitment, o1: Opening, o2: Opening, rng
) -> NeqProof:
    """Prove ``P = a*(C1 - C2) + b*Q`` with ``a = (m1 - m2)^-1`` and
    ``b = -a*(s1 - s2)``, which exist only if the messages differ.

    Raises ``CryptoError('witness-mismatch')`` on bad openings or equal
    messages.
    """
    if not (open_commitment(gp, c1, o1) and open_commitment(gp, c2, o2)):
        raise CryptoError("witness-mismatch", "openings do not match commitments")
    if o1.m % gp.q == o2.m % gp.q:
        raise CryptoError("witness-mismatch", "messages equal; cannot prove inequality")
    a = pow(o1.m - o2.m, -1, gp.q)
    t, (eta1, eta2) = _prove(gp, NEQ_TAG, c1, c2, (a, -a * (o1.s - o2.s)), rng)
    return NeqProof(t=t, eta1=eta1, eta2=eta2)


def verify_neq(gp: GroupParams, c1: Commitment, c2: Commitment, proof: NeqProof) -> bool:
    """Check ``eta1*(C1 - C2) + eta2*Q - delta*P == t``."""
    return _verify(gp, NEQ_TAG, c1, c2, proof.t, (proof.eta1, proof.eta2))


# ---------------------------------------------------------------------------
# Serialization (fixed width per group)
# ---------------------------------------------------------------------------


def _encode_proof(gp: GroupParams, t, etas) -> bytes:
    scalars = b"".join((eta % gp.q).to_bytes(gp.scalar_size, "big") for eta in etas)
    return gp.backend.encode(t) + scalars


def _decode_proof(gp: GroupParams, raw: bytes, n_scalars: int) -> tuple:
    """``(t, [eta_i])`` from one element followed by ``n_scalars`` scalars."""
    es, ss = gp.elem_size, gp.scalar_size
    if len(raw) != es + n_scalars * ss:
        raise CryptoError("bad-encoding", "wrong proof length")
    t = gp.backend.decode(raw[:es])
    etas = [int.from_bytes(raw[i : i + ss], "big") for i in range(es, len(raw), ss)]
    if any(eta >= gp.q for eta in etas):
        raise CryptoError("bad-encoding", "scalar out of range")
    return t, etas


def serialize_commitment(gp: GroupParams, c: Commitment) -> bytes:
    return gp.backend.encode(c.value)


def deserialize_commitment(gp: GroupParams, raw: bytes) -> Commitment:
    return Commitment(gp.backend.decode(raw))


def serialize_eq_proof(gp: GroupParams, proof: EqProof) -> bytes:
    return _encode_proof(gp, proof.t, (proof.eta,))


def deserialize_eq_proof(gp: GroupParams, raw: bytes) -> EqProof:
    t, (eta,) = _decode_proof(gp, raw, 1)
    return EqProof(t=t, eta=eta)


def serialize_neq_proof(gp: GroupParams, proof: NeqProof) -> bytes:
    return _encode_proof(gp, proof.t, (proof.eta1, proof.eta2))


def deserialize_neq_proof(gp: GroupParams, raw: bytes) -> NeqProof:
    t, (eta1, eta2) = _decode_proof(gp, raw, 2)
    return NeqProof(t=t, eta1=eta1, eta2=eta2)
