"""Commitment/proof tests, anchored by independently derived known answers.

The KAT constants below were computed with a standalone hashlib oracle
(plain modular arithmetic, no package imports), the inequality proof's
when its protocol became the representation proof ``P = a*D + b*Q``; the
library must reproduce them bit for bit.
"""

from __future__ import annotations

import ast
import hashlib
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countercollusion import crypto
from countercollusion.crypto import (
    EQ_TAG,
    HTG_TAG,
    NEQ_TAG,
    Commitment,
    CryptoError,
    EqProof,
    NeqProof,
    Opening,
    commit,
    deserialize_commitment,
    deserialize_eq_proof,
    deserialize_neq_proof,
    digest,
    open_commitment,
    prove_eq,
    prove_neq,
    serialize_commitment,
    serialize_eq_proof,
    serialize_neq_proof,
    setup,
    verify_eq,
    verify_neq,
    _GLV_A1,
    _GLV_A2,
    _GLV_B1,
    _GLV_B2,
    _GLV_BETA,
    _GLV_LAMBDA,
    _FIXED_WIDTH,
    _SCHEDULE_LEN,
    _WNAF_WIDTH,
    _challenge,
    _glv_split,
    _jacobi,
    _naf_digits,
    _prove,
)
from oracles import ref_add, ref_mul, ref_neg, ref_sub

TOY = setup("toy", b"\x01")

# --- frozen known answers (independent oracle, seed b"\x01") ----------------
KAT_P = 118
KAT_Q = 621
KAT_COMMIT_3_5 = 68
KAT_DIGEST_EMPTY = 132
KAT_DIGEST_CC = 66  # digest(b"counter-collusion")
# equality proof for m=7, s1=11, s2=13, rng seed 42
KAT_EQ_C1 = 611
KAT_EQ_C2 = 224
KAT_EQ_T = 935
KAT_EQ_ETA = 69
# inequality proof for m1=7, m2=9, s1=11, s2=13, rng seed 43
KAT_NEQ_C1 = 611
KAT_NEQ_C2 = 836
KAT_NEQ_T = 806
KAT_NEQ_ETA1 = 306
KAT_NEQ_ETA2 = 211

# Pinned seed for the toy soundness smoke test.  A random equality proof
# false-accepts with probability 1/509 in the toy group (~2 expected hits per
# 1000 trials), so a zero-acceptance run is only deterministic with a pinned
# seed; the rate itself is checked in test_eq_soundness_rate_toy and the
# guaranteed-zero run lives on secp256k1 in the acceptance suite.
TOY_SOUNDNESS_ZERO_SEED = 2


def test_toy_generator_kat():
    assert TOY.P == KAT_P
    assert TOY.Q == KAT_Q
    assert TOY.q == 509


def test_toy_commit_kat():
    assert commit(TOY, 3, 5).value == KAT_COMMIT_3_5


def test_digest_kat():
    assert digest(TOY, b"") == KAT_DIGEST_EMPTY
    assert digest(TOY, b"counter-collusion") == KAT_DIGEST_CC


def test_eq_proof_kat():
    c1 = commit(TOY, 7, 11)
    c2 = commit(TOY, 7, 13)
    assert (c1.value, c2.value) == (KAT_EQ_C1, KAT_EQ_C2)
    proof = prove_eq(TOY, c1, c2, Opening(7, 11), Opening(7, 13), random.Random(42))
    assert proof.t == KAT_EQ_T
    assert proof.eta == KAT_EQ_ETA
    assert verify_eq(TOY, c1, c2, proof)


def test_neq_proof_kat():
    c1 = commit(TOY, 7, 11)
    c2 = commit(TOY, 9, 13)
    assert (c1.value, c2.value) == (KAT_NEQ_C1, KAT_NEQ_C2)
    proof = prove_neq(TOY, c1, c2, Opening(7, 11), Opening(9, 13), random.Random(43))
    assert (proof.t, proof.eta1, proof.eta2) == (KAT_NEQ_T, KAT_NEQ_ETA1, KAT_NEQ_ETA2)
    assert verify_neq(TOY, c1, c2, proof)


def test_open_commitment():
    c = commit(TOY, 42, 99)
    assert open_commitment(TOY, c, Opening(42, 99))
    assert not open_commitment(TOY, c, Opening(42, 98))
    assert not open_commitment(TOY, c, Opening(41, 99))


def test_toy_binding_structure_exhaustive():
    """Exhaustively verify the binding structure of the toy group.

    Distinct messages under the same blinding, and distinct blindings under
    the same message, always yield distinct commitments; equivocating a
    commitment to a different message therefore forces a coordinated change
    of blinding (i.e. requires the discrete log relating P and Q).  Every
    commitment lands inside the order-509 subgroup.
    """
    backend = TOY.backend
    q = TOY.q
    for s in (0, 1, 7):
        seen = {commit(TOY, m, s).value for m in range(q)}
        assert len(seen) == q
    for m in (0, 3, 501):
        seen = {commit(TOY, m, s).value for s in range(q)}
        assert len(seen) == q  # perfect hiding: blinding sweeps the subgroup
    for m in range(0, q, 97):
        for s in range(0, q, 101):
            assert backend.is_member(commit(TOY, m, s).value)


def test_witness_mismatch_errors():
    rng = random.Random(0)
    c1 = commit(TOY, 1, 2)
    c2 = commit(TOY, 3, 4)
    c1b = commit(TOY, 1, 5)
    with pytest.raises(CryptoError) as e:
        prove_eq(TOY, c1, c2, Opening(1, 2), Opening(3, 4), rng)
    assert e.value.code == "witness-mismatch"
    with pytest.raises(CryptoError) as e:
        prove_eq(TOY, c1, c1b, Opening(1, 3), Opening(1, 5), rng)  # bad opening
    assert e.value.code == "witness-mismatch"
    with pytest.raises(CryptoError) as e:
        prove_neq(TOY, c1, c1b, Opening(1, 2), Opening(1, 5), rng)  # equal messages
    assert e.value.code == "witness-mismatch"


def test_eq_proof_tamper_rejected():
    rng = random.Random(9)
    c1 = commit(TOY, 5, 100)
    c2 = commit(TOY, 5, 200)
    proof = prove_eq(TOY, c1, c2, Opening(5, 100), Opening(5, 200), rng)
    assert verify_eq(TOY, c1, c2, proof)
    assert not verify_eq(TOY, c1, c2, EqProof(proof.t, (proof.eta + 1) % TOY.q))
    other_t = TOY.backend.mul(2, proof.t)
    if other_t != proof.t:
        assert not verify_eq(TOY, c1, c2, EqProof(other_t, proof.eta))
    assert not verify_eq(TOY, c2, c1, proof)  # transcript binds the order


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 508),
    s1=st.integers(0, 508),
    s2=st.integers(0, 508),
    seed=st.integers(0, 2**32 - 1),
)
def test_eq_completeness_toy(m, s1, s2, seed):
    c1, c2 = commit(TOY, m, s1), commit(TOY, m, s2)
    proof = prove_eq(TOY, c1, c2, Opening(m, s1), Opening(m, s2), random.Random(seed))
    assert verify_eq(TOY, c1, c2, proof)


@settings(max_examples=60, deadline=None)
@given(
    m1=st.integers(0, 508),
    dm=st.integers(1, 508),
    s1=st.integers(0, 508),
    s2=st.integers(0, 508),
    seed=st.integers(0, 2**32 - 1),
)
def test_neq_completeness_toy(m1, dm, s1, s2, seed):
    m2 = (m1 + dm) % 509
    c1, c2 = commit(TOY, m1, s1), commit(TOY, m2, s2)
    proof = prove_neq(TOY, c1, c2, Opening(m1, s1), Opening(m2, s2), random.Random(seed))
    assert verify_neq(TOY, c1, c2, proof)


def _random_eq_forgery_trial(gp, i: int, rng) -> bool:
    """One soundness trial: random commitments, random proof; returns accept?"""
    backend = gp.backend
    c1 = Commitment(backend.hash_to_group(b"soundness-c1", i.to_bytes(4, "big")))
    c2 = Commitment(backend.hash_to_group(b"soundness-c2", i.to_bytes(4, "big")))
    proof = EqProof(
        t=backend.hash_to_group(b"soundness-t", rng.randrange(2**32).to_bytes(4, "big")),
        eta=rng.randrange(gp.q),
    )
    return verify_eq(gp, c1, c2, proof)


def test_eq_soundness_toy_pinned_zero():
    rng = random.Random(TOY_SOUNDNESS_ZERO_SEED)
    hits = sum(_random_eq_forgery_trial(TOY, i, rng) for i in range(1000))
    assert hits == 0


def test_eq_soundness_rate_toy():
    """The toy false-accept rate must be consistent with 1/q = 1/509."""
    rng = random.Random(123)
    hits = sum(_random_eq_forgery_trial(TOY, i, rng) for i in range(4000))
    # Poisson(lambda ~ 7.9): [0, 20] covers > 99.97 % of the mass
    assert 0 <= hits <= 20


# ---------------------------------------------------------------------------
# secp256k1 backend
# ---------------------------------------------------------------------------

SECP = setup("secp256k1", b"\x01")

# secp256k1 generators for seed b"\x01", as the square-root-only loop
# (``_sqrt_only_hash_to_group``) derived them before the Jacobi pre-test
KAT_SECP_P = (0x0A0D1216E7A5D714C6622DB057EF0C133EDF964EDD9DF1A67195353B89A28802,
              0xE199308CD8D4EA94829CEE14C518E6FA123E0DE5D4B815D675834093909A320A)
KAT_SECP_Q = (0xD2D636AF70012586F7CE15AFF35F9E291F8CFE046A87BBF95B407654881EBE91,
              0x4EE57E4460BBDC0118B7F690328EBEAA39C2270357C605725791CD27B0E19AFA)


def test_secp_generator_kat():
    assert (SECP.P, SECP.Q) == (KAT_SECP_P, KAT_SECP_Q)


def test_secp_generators_on_curve_and_deterministic():
    backend = SECP.backend
    assert backend.is_member(SECP.P) and SECP.P is not None
    assert backend.is_member(SECP.Q) and SECP.Q is not None
    assert SECP.P != SECP.Q
    again = setup("secp256k1", b"\x01")
    assert (again.P, again.Q) == (SECP.P, SECP.Q)
    other = setup("secp256k1", b"\x02")
    assert (other.P, other.Q) != (SECP.P, SECP.Q)


def _sqrt_only_hash_to_group(tag, seed):
    """secp256k1 hash-to-group with no Jacobi pre-test: every candidate's
    square root is taken and checked by squaring.  Returns the point and
    the number of candidates tried."""
    g = SECP.backend
    p, counter = g.p, 0
    while True:
        h = hashlib.sha256(
            HTG_TAG + b"|" + g.wire_name + b"|" + tag + b"|" + seed + b"|" + counter.to_bytes(4, "big")
        ).digest()
        x = int.from_bytes(h, "big") % p
        y2 = (x * x * x + 7) % p
        y = pow(y2, (p + 1) // 4, p)
        if (y * y) % p == y2 and x != 0:
            return (x, y if y % 2 == 0 else p - y), counter + 1
        counter += 1


def test_secp_hash_to_group_matches_the_square_root_only_loop():
    """500 (tag, seed) pairs give the points of the loop without the
    pre-test; the sample holds candidates the pre-test skips."""
    g = SECP.backend
    tries = []
    for tag in (b"P", b"Q"):
        for i in range(250):
            seed = i.to_bytes(2, "big")
            point, n = _sqrt_only_hash_to_group(tag, seed)
            assert g.hash_to_group(tag, seed) == point, (tag, seed)
            tries.append(n)
    assert max(tries) > 1


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_jacobi_symbol_is_eulers_criterion(data):
    """For a prime ``n``, ``_jacobi(a, n)`` is ``a^((n-1)/2) mod n`` read as
    1, -1 or 0."""
    n = data.draw(st.sampled_from([SECP.backend.p, SECP.q, TOY.backend.p, TOY.q, 3, 5, 7]))
    a = data.draw(st.one_of(st.sampled_from([0, 1, 2, -1, n, 2 * n, n - 1]),
                            st.integers(-2**300, 2**300)))
    euler = pow(a, (n - 1) // 2, n)
    assert _jacobi(a, n) == (-1 if euler == n - 1 else euler)


GROUPS = pytest.mark.parametrize("gp", [TOY, SECP], ids=["toy", "secp256k1"])


@GROUPS
def test_group_laws(gp):
    """The laws hold on the reference ``ref_add``, and the backend's
    ``add``, kept only for the benchmark's traced run, gives the same sum on
    each case: commutativity, the identity, ``a + (-a)``, doubling as
    ``(a + b) + (a - b)``, and ``k1*a + k2*a == (k1 + k2)*a`` on ``mul``'s
    multiples."""
    g = gp.backend
    a = g.hash_to_group(b"law-a", b"\x00")
    b = g.hash_to_group(b"law-b", b"\x00")
    k1, k2 = 123456789, 987654321
    cases = [
        ((a, b), ref_add(gp, b, a)),
        ((a, g.identity), a),
        ((g.identity, a), a),
        ((a, ref_neg(gp, a)), g.identity),
        ((a, a), ref_add(gp, ref_add(gp, a, b), ref_sub(gp, a, b))),
        ((g.mul(k1, a), g.mul(k2, a)), g.mul(k1 + k2, a)),
    ]
    for (x, y), expected in cases:
        assert ref_add(gp, x, y) == expected
        assert g.add(x, y) == expected
    assert g.mul(gp.q, a) == g.identity  # prime group order


@GROUPS
def test_the_group_reference_reads_only_p_q_and_group_id(gp):
    """A stand-in holding only ``group_id``, ``q`` and the backend's ``p``
    gives the reference's answers on the real group."""
    bare = SimpleNamespace(group_id=gp.group_id, q=gp.q, backend=SimpleNamespace(p=gp.backend.p))
    a, b, k = gp.P, gp.Q, 0xC0FFEE
    for ref, args in ((ref_add, (a, b)), (ref_neg, (a,)), (ref_sub, (a, b)), (ref_mul, (k, a))):
        assert ref(bare, *args) == ref(gp, *args)


def test_the_group_reference_catches_a_doubling_fault_the_kernel_shares(monkeypatch):
    """A negative control: with the kernel's ``_jdouble`` returning ``4a``,
    ``diff(a, -a)``, which doubles through it, reads ``4a``.  The reference
    shares no code with the kernel, so it still gives ``2a`` and tells the
    two apart; a reference built on ``_jdouble`` would read ``4a`` too."""
    g = SECP.backend
    a = g.hash_to_group(b"mutant-test", b"\x00")
    real = type(g)._jdouble
    monkeypatch.setattr(type(g), "_jdouble", lambda self, pt: real(self, real(self, pt)))
    doubled = g._to_affine(g.diff(a, ref_neg(SECP, a)))
    assert doubled == ref_mul(SECP, 4, a)
    assert doubled != ref_add(SECP, a, a)


def test_secp_proof_roundtrip_and_sizes():
    rng = random.Random(5)
    m = digest(SECP, b"payload")
    s1, s2 = rng.randrange(SECP.q), rng.randrange(SECP.q)
    c1, c2 = commit(SECP, m, s1), commit(SECP, m, s2)
    eq = prove_eq(SECP, c1, c2, Opening(m, s1), Opening(m, s2), rng)
    assert verify_eq(SECP, c1, c2, eq)
    assert not verify_eq(SECP, c1, c2, EqProof(eq.t, (eq.eta + 1) % SECP.q))

    m2 = (m + 1) % SECP.q
    c3 = commit(SECP, m2, s2)
    neq = prove_neq(SECP, c1, c3, Opening(m, s1), Opening(m2, s2), rng)
    assert verify_neq(SECP, c1, c3, neq)

    # serialized sizes: 512-bit commitment, 768-bit eq proof, 1024-bit neq proof
    assert len(serialize_commitment(SECP, c1)) * 8 == 512
    assert len(serialize_eq_proof(SECP, eq)) * 8 == 768
    assert len(serialize_neq_proof(SECP, neq)) * 8 == 1024

    assert deserialize_commitment(SECP, serialize_commitment(SECP, c1)) == c1
    assert deserialize_eq_proof(SECP, serialize_eq_proof(SECP, eq)) == eq
    assert deserialize_neq_proof(SECP, serialize_neq_proof(SECP, neq)) == neq


def test_toy_serialization_roundtrip():
    rng = random.Random(8)
    c1, c2 = commit(TOY, 4, 44), commit(TOY, 4, 45)
    eq = prove_eq(TOY, c1, c2, Opening(4, 44), Opening(4, 45), rng)
    assert len(serialize_commitment(TOY, c1)) == 2
    assert len(serialize_eq_proof(TOY, eq)) == 4
    assert deserialize_eq_proof(TOY, serialize_eq_proof(TOY, eq)) == eq
    c3 = commit(TOY, 9, 44)
    neq = prove_neq(TOY, c1, c3, Opening(4, 44), Opening(9, 44), rng)
    assert len(serialize_neq_proof(TOY, neq)) == 6
    assert deserialize_neq_proof(TOY, serialize_neq_proof(TOY, neq)) == neq


def test_bad_encodings_rejected():
    with pytest.raises(CryptoError) as e:
        deserialize_commitment(TOY, b"\x00\x00")  # 0 is not a subgroup member
    assert e.value.code == "bad-encoding"
    with pytest.raises(CryptoError):
        deserialize_commitment(TOY, b"\x01")  # wrong length
    with pytest.raises(CryptoError):
        deserialize_commitment(SECP, b"\x01" * 64)  # not on curve
    with pytest.raises(CryptoError):
        deserialize_eq_proof(TOY, b"\x00" * 9)


def test_unknown_group_rejected():
    with pytest.raises(CryptoError) as e:
        setup("nist-p256")
    assert e.value.code == "unknown-group"


# ---------------------------------------------------------------------------
# Multi-scalar mul against the double-and-add reference
# ---------------------------------------------------------------------------

def _ref_sum(gp, terms):
    """``k*a + k2*a2 + ...`` for ``terms = [k, a, k2, a2, ...]``, term by
    term on the group reference."""
    acc = gp.backend.identity
    for k, a in zip(terms[::2], terms[1::2]):
        acc = ref_add(gp, acc, ref_mul(gp, k, a))
    return acc


def _glv_step(b, m):
    """The least ``k`` whose GLV coefficient ``round(b*k/q)`` is ``m``."""
    return -(-(2 * m - 1) * SECP.q // (2 * b))


def _glv_edges():
    """secp256k1 scalars whose GLV halves are 0, negative or at the 128-bit
    bound: multiples of lambda, basis entries, powers of two, and both sides
    of a step of ``c1 = round(b2*k/q)`` or ``c2 = round(-b1*k/q)``."""
    q = SECP.q
    edges = [_GLV_LAMBDA, q - _GLV_LAMBDA, _GLV_LAMBDA**2 % q, 2**128 - 1, 2**128,
             _GLV_A1, _GLV_A2, -_GLV_B1 % q]
    for b in (_GLV_B2, -_GLV_B1):
        for m in (1, b // 2):
            k = _glv_step(b, m)
            edges += [k - 1, k]
    return edges


def _scalars(q):
    edges = [0, 1, q - 1, q, q + 1, -1, -q + 1, -q - 1]
    if q == SECP.q:
        edges += _glv_edges()
    return st.one_of(st.sampled_from(edges), st.integers(-2 * q, 2 * q))


def _elements(gp):
    g = gp.backend
    fixed = [g.identity, gp.P, gp.Q, ref_neg(gp, gp.P)]
    hashed = st.binary(max_size=4).map(lambda seed: g.hash_to_group(b"mul-test", seed))
    return st.one_of(st.sampled_from(fixed), hashed)


def _jacobian(gp, a, z):
    """The affine ``a`` in Jacobian coordinates ``(x*z^2, y*z^3, z)``, as
    ``diff`` hands ``mul`` a base; the identity stays ``None``."""
    if a is None:
        return None
    p = gp.backend.p
    return (a[0] * z * z % p, a[1] * z * z * z % p, z)


def _entries(gp):
    """``mul`` without tables (every base gets per-call rows), and the tabled
    entry ``GroupParams.mul``, where ``P`` and ``Q`` read the rows that
    ``setup`` built."""
    return gp.backend.mul, gp.mul


@GROUPS
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mul_matches_double_and_add(gp, data):
    """Scalars 1 and -1 are drawn often: on an affine base ``mul`` adds
    them with no rows.  On secp256k1 each base is passed again in Jacobian
    coordinates with a drawn ``Z``, or left affine."""
    scalars = st.one_of(st.sampled_from([1, -1]), _scalars(gp.q))
    terms = data.draw(st.lists(st.tuples(scalars, _elements(gp)), min_size=1, max_size=3))
    flat = [x for term in terms for x in term]
    expected = _ref_sum(gp, flat)
    calls = [flat]
    if gp is SECP:
        zs = data.draw(st.lists(st.one_of(st.none(), st.integers(1, gp.backend.p - 1)),
                                min_size=len(terms), max_size=len(terms)))
        calls.append([x for (k, a), z in zip(terms, zs)
                      for x in (k, a if z is None else _jacobian(gp, a, z))])
    for mul in _entries(gp):
        for call in calls:
            assert mul(*call) == expected


@GROUPS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mul_cancelling_and_repeated_bases(gp, data):
    """``a`` and ``-a`` in one call cancel; a repeated base sends the mixed
    addition through its doubling and its inverse branches.  Through the
    tabled entry, ``P`` with ``-P`` cancels a pre-built row against a
    per-call one."""
    g = gp.backend
    k = data.draw(_scalars(gp.q))
    j = data.draw(_scalars(gp.q))
    a = data.draw(_elements(gp))
    for mul in _entries(gp):
        assert mul(k, a, k, ref_neg(gp, a)) == g.identity
        assert mul(k, a, -k, a) == g.identity
        assert mul(k, a, k, a) == ref_mul(gp, 2 * k, a)
        assert mul(k, a, j, a, -k, a) == ref_mul(gp, j, a)


@GROUPS
def test_mul_rejects_a_scalar_without_its_element(gp):
    for mul in _entries(gp):
        for terms in ((3, gp.P, 5), (3, gp.P, 5, gp.Q, 7)):
            with pytest.raises(ValueError):
                mul(*terms)


# ---------------------------------------------------------------------------
# Generator tables built by setup()
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["P", "Q"])
def test_generator_tables_hold_odd_multiples_and_their_lambda_images(which):
    """Width 8: each row holds ``P, 3P, ..., 127P`` and then their negations
    in reverse order, so every odd digit ``d`` of either sign reads ``d*P``
    as ``row[d >> 1]``; the lambda row holds the images in the same order."""
    base = getattr(SECP, which)
    width, row, lambda_row = SECP.tables[base]
    assert width == _FIXED_WIDTH == 8
    assert len(row) == len(lambda_row) == 2 ** (width - 1)
    for d in range(-(2 ** (width - 1)) + 1, 2 ** (width - 1), 2):
        entry = ref_mul(SECP, d, base)
        assert row[d >> 1] == entry
        assert lambda_row[d >> 1] == (_GLV_BETA * entry[0] % SECP.backend.p, entry[1])
    assert lambda_row[0] == ref_mul(SECP, _GLV_LAMBDA, base)


def test_per_call_rows_of_a_jacobian_base_hold_both_signs():
    """The width-5 rows ``mul`` builds for a Jacobian base such as ``D``:
    ``d*D`` at ``row[d >> 1]`` for every odd ``d`` in ``[-15, 15]``, true
    affine."""
    g = SECP.backend
    other = g.hash_to_group(b"rows-test", b"\x00")
    d_affine, jac = ref_sub(SECP, SECP.P, other), g.diff(SECP.P, other)
    assert len(jac) == 3 and jac[2] != 1
    (width, row, lambda_row), = g._odd_multiples([jac], _WNAF_WIDTH)
    assert width == _WNAF_WIDTH and len(row) == len(lambda_row) == 16
    for d in range(-15, 16, 2):
        assert row[d >> 1] == ref_mul(SECP, d, d_affine)
        assert lambda_row[d >> 1] == ref_mul(SECP, d * _GLV_LAMBDA, d_affine)


def _row_bases(data):
    """One to four ``_odd_multiples`` bases in drawn order: affine ``k*P``,
    and Jacobian ``diff(k*P, j*Q)`` or ``diff(k*P, -k*P)`` (the doubling
    branch), each with its affine point."""
    g = SECP.backend
    nonzero = st.one_of(st.sampled_from([1, 2, SECP.q - 1]), st.integers(1, SECP.q - 1))
    bases = [(a, a) for a in (ref_mul(SECP, k, SECP.P)
                              for k in data.draw(st.lists(nonzero, min_size=1, max_size=2)))]
    for k, j in data.draw(st.lists(st.tuples(nonzero, st.none() | nonzero), max_size=2)):
        a = ref_mul(SECP, k, SECP.P)
        b = ref_neg(SECP, a) if j is None else ref_mul(SECP, j, SECP.Q)
        bases.append((g.diff(a, b), ref_sub(SECP, a, b)))
    return data.draw(st.permutations(bases))


@pytest.mark.parametrize("w", [_WNAF_WIDTH, _FIXED_WIDTH])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_odd_multiples_match_double_and_add(w, data):
    """The co-Z rows of several bases built in one call: ``row[d >> 1]`` is
    ``d*a`` for every odd ``d`` of either sign, and ``lambda_row[d >> 1]``
    its image ``(beta*x, y)``, whichever place the base takes in the call."""
    g, p = SECP.backend, SECP.backend.p
    bases = _row_bases(data)
    rows = g._odd_multiples([base for base, _ in bases], w)
    assert len(rows) == len(bases)
    for (_, a), (width, row, lambda_row) in zip(bases, rows):
        assert width == w and len(row) == len(lambda_row) == 2 ** (w - 1)
        for d in range(1, 2 ** (w - 1), 2):
            entry = ref_mul(SECP, d, a)
            assert row[d >> 1] == entry and row[-d >> 1] == ref_neg(SECP, entry)
            image = (_GLV_BETA * entry[0] % p, entry[1])
            assert lambda_row[d >> 1] == image and lambda_row[-d >> 1] == ref_neg(SECP, image)


def _count_inversions(monkeypatch) -> list:
    """The list that every later ``pow(., -1, p)`` of the crypto module
    appends its base to."""
    inversions, p = [], SECP.backend.p

    def counting_pow(base, exp, mod=None):
        if exp == -1 and mod == p:
            inversions.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(crypto, "pow", counting_pow, raising=False)
    return inversions


@pytest.mark.parametrize("w", [_WNAF_WIDTH, _FIXED_WIDTH])
def test_odd_multiples_of_several_bases_make_one_inversion(w, monkeypatch):
    """The rows share one batch inversion, whatever the number of bases or
    their coordinates."""
    g = SECP.backend
    others = [g.hash_to_group(b"rows-test", bytes([i])) for i in range(2)]
    bases = [SECP.P, SECP.Q, *(g.diff(SECP.P, other) for other in others)]
    inversions = _count_inversions(monkeypatch)
    assert len(g._odd_multiples(bases, w)) == 4
    assert len(inversions) == 1


def test_no_secp_point_has_x_zero():
    """``x^3 + 7`` at ``x = 0`` is not a square, so no Jacobian ``X`` is 0:
    ``_odd_multiples`` divides by the ``X`` of ``2a``."""
    assert _jacobi(7, SECP.backend.p) == -1


@pytest.mark.parametrize("kind", ["eq", "neq"])
def test_an_accepted_secp_verify_makes_one_mul_call_and_one_inversion(kind, monkeypatch):
    """The batch inversion of ``D``'s rows is the only ``pow(., -1, p)``:
    ``D`` itself stays Jacobian and the identity sum is never made affine."""
    g, rng = SECP.backend, random.Random(11)
    m = rng.randrange(SECP.q)
    o1 = Opening(m, rng.randrange(SECP.q))
    o2 = Opening(m if kind == "eq" else m + 1, rng.randrange(SECP.q))
    c1, c2 = commit(SECP, *o1), commit(SECP, *o2)
    prove, verify = (prove_eq, verify_eq) if kind == "eq" else (prove_neq, verify_neq)
    proof = prove(SECP, c1, c2, o1, o2, rng)
    muls, real_mul = [], type(g).mul

    def counting_mul(self, *args, **kwargs):
        muls.append(args)
        return real_mul(self, *args, **kwargs)

    inversions = _count_inversions(monkeypatch)
    monkeypatch.setattr(type(g), "mul", counting_mul)
    assert verify(SECP, c1, c2, proof)
    assert (len(muls), len(inversions)) == (1, 1)


def test_setup_builds_equal_tables_per_call():
    """Two ``setup`` calls compare equal and carry equal tables, each its own;
    toy has none."""
    a, b = setup("secp256k1", b"\x01"), setup("secp256k1", b"\x01")
    assert a == b and a.tables == b.tables
    assert a.tables is not b.tables
    assert set(a.tables) == {a.P, a.Q}
    assert setup("toy", b"\x01").tables == {}


# ---------------------------------------------------------------------------
# GLV endomorphism: constants and scalar split
# ---------------------------------------------------------------------------


def test_glv_constants():
    p, q = SECP.backend.p, SECP.q
    assert _GLV_LAMBDA != 1 and pow(_GLV_LAMBDA, 3, q) == 1
    assert _GLV_BETA != 1 and pow(_GLV_BETA, 3, p) == 1
    assert (_GLV_A1 + _GLV_B1 * _GLV_LAMBDA) % q == 0
    assert (_GLV_A2 + _GLV_B2 * _GLV_LAMBDA) % q == 0
    # a basis of the whole lattice, which the split's bound relies on
    assert _GLV_A1 * _GLV_B2 - _GLV_A2 * _GLV_B1 == q


@pytest.mark.parametrize("which", ["P", "Q", "-P", "hashed-0", "hashed-1", "hashed-2"])
def test_glv_endomorphism_is_beta_times_x(which):
    g = SECP.backend
    a = {"P": SECP.P, "Q": SECP.Q, "-P": ref_neg(SECP, SECP.P)}.get(which)
    if a is None:
        a = g.hash_to_group(b"glv-test", which.encode())
    expected = (_GLV_BETA * a[0] % g.p, a[1])
    assert ref_mul(SECP, _GLV_LAMBDA, a) == expected
    assert g.mul(_GLV_LAMBDA, a) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([0, 1, SECP.q - 1, *_glv_edges()]), st.integers(0, SECP.q - 1)))
def test_glv_split_halves(k):
    k1, k2 = _glv_split(k)
    assert (k1 + k2 * _GLV_LAMBDA - k) % SECP.q == 0
    assert abs(k1).bit_length() <= 128
    assert abs(k2).bit_length() <= 128


@pytest.mark.parametrize("w", [_WNAF_WIDTH, _FIXED_WIDTH])
@settings(max_examples=200, deadline=None)
@given(k=_scalars(SECP.q))
def test_naf_digits_of_both_signs_of_each_glv_half(w, k):
    """Each half ``mul`` schedules has a width-``w`` NAF: odd digits below
    ``2^(w-1)`` in size, at least ``w`` positions apart, within the
    schedule's length and summing to the half.  Its negation has the same
    digits negated, so the same holds for both signs."""
    for half in _glv_split(k % SECP.q):
        digits = list(_naf_digits(half, w))
        assert list(_naf_digits(-half, w)) == [(i, -d) for i, d in digits]
        positions = [i for i, _ in digits]
        assert all(0 <= i < _SCHEDULE_LEN for i in positions)
        assert all(j - i >= w for i, j in zip(positions, positions[1:]))
        assert all(d % 2 == 1 and abs(d) < 1 << (w - 1) for _, d in digits)
        assert sum(d << i for i, d in digits) == half


# ---------------------------------------------------------------------------
# verify_eq / verify_neq give the verdicts of the separate-mul equations
# ---------------------------------------------------------------------------


def _ref_verify_eq(gp, c1, c2, proof) -> bool:
    """``eta*Q == delta*(C1 - C2) + t`` with one reference mul per product."""
    g = gp.backend
    if not (g.is_member(c1.value) and g.is_member(c2.value) and g.is_member(proof.t)):
        return False
    if not isinstance(proof.eta, int) or not 0 <= proof.eta < gp.q:
        return False
    delta = _challenge(gp, EQ_TAG, c1.value, c2.value, proof.t)
    lhs = ref_mul(gp, proof.eta, gp.Q)
    rhs = ref_add(gp, ref_mul(gp, delta, ref_sub(gp, c1.value, c2.value)), proof.t)
    return lhs == rhs


def _ref_verify_neq(gp, c1, c2, proof) -> bool:
    """``eta1*(C1 - C2) + eta2*Q == delta*P + t`` with one reference mul per
    product."""
    g = gp.backend
    if not (g.is_member(c1.value) and g.is_member(c2.value) and g.is_member(proof.t)):
        return False
    for eta in (proof.eta1, proof.eta2):
        if not isinstance(eta, int) or not 0 <= eta < gp.q:
            return False
    delta = _challenge(gp, NEQ_TAG, c1.value, c2.value, proof.t)
    diff = ref_sub(gp, c1.value, c2.value)
    lhs = ref_add(gp, ref_mul(gp, proof.eta1, diff), ref_mul(gp, proof.eta2, gp.Q))
    return lhs == ref_add(gp, ref_mul(gp, delta, gp.P), proof.t)


def _old_recipe_forgeries(gp, c1, c2, s1, s2, rng) -> list[NeqProof]:
    """The forgery the former two-equation verifier accepted for commitments
    to one message, made from ``s1 - s2`` alone (``t1 = a*P``,
    ``t2 = P + e*Q``, ``eta1 = a + 1``, ``eta2 = delta*(s1 - s2) + e``),
    packed into the one-element layout with ``t`` as ``t1 + t2``, ``t1`` or
    ``t2``."""
    a, e = rng.randrange(gp.q), rng.randrange(gp.q)
    t1 = ref_mul(gp, a, gp.P)
    t2 = ref_add(gp, gp.P, ref_mul(gp, e, gp.Q))
    forged = []
    for t in (ref_add(gp, t1, t2), t1, t2):
        delta = _challenge(gp, NEQ_TAG, c1.value, c2.value, t)
        forged.append(NeqProof(t=t, eta1=(a + 1) % gp.q, eta2=(delta * (s1 - s2) + e) % gp.q))
    return forged


def _simulated_neq(gp, c1, c2, delta, rng) -> NeqProof:
    """A proof that meets the verification equation for a challenge chosen
    before ``t``: ``t = eta1*(C1 - C2) + eta2*Q - delta*P``."""
    eta1, eta2 = rng.randrange(gp.q), rng.randrange(gp.q)
    diff = ref_sub(gp, c1.value, c2.value)
    return NeqProof(t=_ref_sum(gp, [eta1, diff, eta2, gp.Q, -delta, gp.P]), eta1=eta1, eta2=eta2)


def _neq_forgeries(gp, rng):
    """``(c1, c2, proof)`` inequality proofs for commitments to one message
    made without ``log_Q P``: the old recipe, a valid proof transplanted from
    other commitments, and proofs simulated for a challenge chosen before
    ``t`` (random, 0, and the hash of the statement without ``t``)."""
    q = gp.q
    m = rng.randrange(q)
    m2 = (m + 1 + rng.randrange(q - 1)) % q
    s1, s2 = rng.randrange(q), rng.randrange(q)
    c1, c1b, c2 = commit(gp, m, s1), commit(gp, m, s2), commit(gp, m2, s2)
    forged = [(c1, c1b, proof) for proof in _old_recipe_forgeries(gp, c1, c1b, s1, s2, rng)]
    valid = prove_neq(gp, c1, c2, Opening(m, s1), Opening(m2, s2), rng)
    forged += [(c1, c1b, valid), (c1b, c1, valid), (c1, c1, valid)]
    for delta in (rng.randrange(q), 0, _challenge(gp, NEQ_TAG, c1.value, c1b.value)):
        forged.append((c1, c1b, _simulated_neq(gp, c1, c1b, delta, rng)))
    return forged


def test_neq_forgeries_rejected_secp256k1():
    rng = random.Random(31)
    for _ in range(2):
        for c1, c2, proof in _neq_forgeries(SECP, rng):
            assert not verify_neq(SECP, c1, c2, proof), proof


def test_neq_forgeries_rejected_toy():
    """On toy each forgery meets the verification equation by chance, with
    probability about 1/509 (2/509 for the old recipe's ``t1 + t2``: it also
    passes when its challenge is ``-(a + 1)``); the former verifier accepted
    every old-recipe forgery."""
    rng = random.Random(31)
    trials = 100
    accepted = sum(verify_neq(TOY, c1, c2, proof)
                   for _ in range(trials) for c1, c2, proof in _neq_forgeries(TOY, rng))
    # 900 forgeries, Poisson(lambda ~ 2): [0, 9] covers > 99.99 % of the mass
    assert accepted <= 9


def test_toy_neq_forgery_needs_log_q_p():
    """Soundness rests on nobody knowing ``log_Q P``: whoever knows it can
    prove inequality for commitments to one message, as ``P = a*D + b*Q``
    with ``D = (s1 - s2)*Q`` and ``b = log_Q P - a*(s1 - s2)``.  On toy that
    log is a table lookup, so toy soundness is not testable; no exhaustive
    "no proof verifies" check can hold for a Sigma-protocol either, since a
    simulated proof for the right challenge always verifies."""
    g, q = TOY.backend, TOY.q
    log_q_p = next(k for k in range(q) if g.mul(k, TOY.Q) == TOY.P)
    s1, s2 = 11, 222
    c1, c2 = commit(TOY, 8, s1), commit(TOY, 8, s2)
    a = 5
    t, (eta1, eta2) = _prove(TOY, NEQ_TAG, c1, c2, (a, log_q_p - a * (s1 - s2)), random.Random(7))
    assert verify_neq(TOY, c1, c2, NeqProof(t=t, eta1=eta1, eta2=eta2))


class _ZeroNonces:
    """A ``rng`` whose every scalar is 0: a proof made with it has the
    identity ``t`` and ``eta_i = delta*w_i``, and still verifies."""

    @staticmethod
    def randrange(n):
        return 0


def _verdict_cases(gp, rng):
    """``(verify, reference, c1, c2, proof)`` for honest, tampered, swapped,
    identity, ``C1 == C2``, forged, transplanted and simulated proofs, and
    for the kernel's edges: ``D`` the identity (``C1 == C2``), ``D`` a
    doubling (``C2 == -C1``), the identity ``t`` and a zero ``eta``, each
    in an accepted and a rejected proof."""
    g, q = gp.backend, gp.q
    m = rng.randrange(q)
    m2 = (m + 1 + rng.randrange(q - 1)) % q
    s1, s2 = rng.randrange(q), rng.randrange(q)
    c1, c1b, c2 = commit(gp, m, s1), commit(gp, m, s2), commit(gp, m2, s2)
    eq = prove_eq(gp, c1, c1b, Opening(m, s1), Opening(m, s2), rng)
    neq = prove_neq(gp, c1, c2, Opening(m, s1), Opening(m2, s2), rng)
    ident = g.identity
    zero = _ZeroNonces()
    # C2 == -C1: zero1 and its negation hide the message 0, c1 and minus_c1
    # hide m and -m
    zero1, zero2 = commit(gp, 0, s1), commit(gp, 0, -s1)
    minus_c1 = commit(gp, -m, -s1)
    assert zero2.value == ref_neg(gp, zero1.value) and minus_c1.value == ref_neg(gp, c1.value)
    eq_doubled = prove_eq(gp, zero1, zero2, Opening(0, s1), Opening(0, -s1), rng)
    neq_doubled = prove_neq(gp, c1, minus_c1, Opening(m, s1), Opening(-m, -s1), rng)
    # C1 == C2 with zero nonces: t and eta are the identity and 0
    eq_same_zero = prove_eq(gp, c1, c1, Opening(m, s1), Opening(m, s1), zero)
    assert (eq_same_zero.t, eq_same_zero.eta) == (ident, 0)
    eq_zero_t = prove_eq(gp, c1, c1b, Opening(m, s1), Opening(m, s2), zero)
    neq_zero_t = prove_neq(gp, c1, c2, Opening(m, s1), Opening(m2, s2), zero)
    assert eq_zero_t.t == neq_zero_t.t == ident

    def moved(c):
        return Commitment(ref_add(gp, c.value, gp.P))

    eqs = [
        (c1, c1b, eq),
        (c1, c1b, EqProof(eq.t, (eq.eta + 1) % q)),
        (c1, c1b, EqProof(ref_add(gp, eq.t, gp.P), eq.eta)),
        (c1, c1b, EqProof(ident, eq.eta)),
        (moved(c1), c1b, eq),
        (c1, moved(c1b), eq),
        (c1b, c1, eq),
        (c1, c1, eq),
        (c1, c1, prove_eq(gp, c1, c1, Opening(m, s1), Opening(m, s1), rng)),
        (c1, c2, eq),
        (c1, c1, eq_same_zero),
        (c1, c1, EqProof(ident, 1)),
        (zero1, zero2, eq_doubled),
        (zero1, zero2, EqProof(eq_doubled.t, (eq_doubled.eta + 1) % q)),
        (c1, c1b, eq_zero_t),
        (c1, c1b, EqProof(ident, (eq_zero_t.eta + 1) % q)),
        (c1, c1b, EqProof(eq.t, 0)),
    ]
    neqs = [
        (c1, c2, neq),
        (c1, c2, NeqProof(neq.t, (neq.eta1 + 1) % q, neq.eta2)),
        (c1, c2, NeqProof(neq.t, neq.eta1, (neq.eta2 + 1) % q)),
        (c1, c2, NeqProof(neq.t, neq.eta2, neq.eta1)),
        (c1, c2, NeqProof(ref_add(gp, neq.t, gp.P), neq.eta1, neq.eta2)),
        (c1, c2, NeqProof(ident, neq.eta1, neq.eta2)),
        (moved(c1), c2, neq),
        (c1, moved(c2), neq),
        (c2, c1, neq),
        (c1, c1, neq),
        (c1, c1, NeqProof(ident, 0, 0)),
        (c1, minus_c1, neq_doubled),
        (c1, minus_c1, NeqProof(neq_doubled.t, neq_doubled.eta1, (neq_doubled.eta2 + 1) % q)),
        (c1, c2, neq_zero_t),
        (c1, c2, NeqProof(ident, neq_zero_t.eta1, (neq_zero_t.eta2 + 1) % q)),
        (c1, c2, NeqProof(neq.t, 0, neq.eta2)),
        (c1, c2, NeqProof(neq.t, neq.eta1, 0)),
        *_neq_forgeries(gp, rng),
    ]
    return ([(verify_eq, _ref_verify_eq, *case) for case in eqs]
            + [(verify_neq, _ref_verify_neq, *case) for case in neqs])


@pytest.mark.parametrize("gp, trials", [(TOY, 200), (SECP, 3)], ids=["toy", "secp256k1"])
def test_verify_verdicts_match_separate_mul_equations(gp, trials):
    rng = random.Random(2024)
    for _ in range(trials):
        for verify, reference, c1, c2, proof in _verdict_cases(gp, rng):
            assert verify(gp, c1, c2, proof) == reference(gp, c1, c2, proof), (verify.__name__, proof)


# ---------------------------------------------------------------------------
# Strong Fiat-Shamir: the challenge binds every input of the statement
# ---------------------------------------------------------------------------


@GROUPS
@pytest.mark.parametrize("changed", ["tag", "wire_name", "P", "Q", "C1", "C2", "t"])
def test_challenge_changes_with_each_input(gp, changed, monkeypatch):
    """Changing only the tag, the group's wire name, ``P``, ``Q``, ``C1``,
    ``C2`` or ``t`` changes ``delta`` (Bernhard-Pereira-Warinschi,
    ASIACRYPT 2012): a proof cannot be moved to another statement, group or
    proof kind with its challenge unchanged."""
    g = gp.backend
    args = {"tag": NEQ_TAG, "C1": commit(gp, 7, 11).value, "C2": commit(gp, 9, 13).value,
            "t": gp.mul(5, gp.P, 3, gp.Q)}
    delta = _challenge(gp, *args.values())
    other = g.hash_to_group(b"fiat-shamir-test", b"other")
    if changed == "wire_name":
        monkeypatch.setattr(g, "wire_name", g.wire_name + b"-other")
    elif changed in ("P", "Q"):
        gp = gp._replace(**{changed: other})
    else:
        args[changed] = EQ_TAG if changed == "tag" else other
    assert _challenge(gp, *args.values()) != delta


# ---------------------------------------------------------------------------
# Where SHA-256 comes from: the built-in module, or hashlib where none is built
# ---------------------------------------------------------------------------


@given(st.binary())
def test_sha256_matches_hashlib(data):
    assert crypto.sha256(data).digest() == hashlib.sha256(data).digest()


_HASHLIB_FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
sys.path.insert(0, sys.argv[1])
import hashlib, random
from countercollusion import crypto
toy = crypto.setup("toy", b"\\x01")
c1, c2 = crypto.commit(toy, 7, 11), crypto.commit(toy, 7, 13)
proof = crypto.prove_eq(toy, c1, c2, crypto.Opening(7, 11), crypto.Opening(7, 13),
                        random.Random(42))
secp = crypto.setup("secp256k1", b"\\x01")
print([crypto.sha256 is hashlib.sha256, toy.P, toy.Q, crypto.digest(toy, b"counter-collusion"),
       proof.t, proof.eta, secp.P, secp.Q])
"""


def test_hashlib_fallback_reproduces_the_known_answers():
    """With both built-in modules hidden, ``crypto`` takes ``hashlib.sha256``
    and still gives the pinned generators of both groups, digest and
    equality proof (whose ``eta`` holds the challenge)."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _HASHLIB_FALLBACK, str(src)],
                         check=True, capture_output=True, text=True).stdout
    assert ast.literal_eval(out) == [True, KAT_P, KAT_Q, KAT_DIGEST_CC, KAT_EQ_T, KAT_EQ_ETA,
                                     KAT_SECP_P, KAT_SECP_Q]
