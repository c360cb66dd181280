"""Reference implementations the tests check the engine against.

Each one is written the slow, obvious way: ``node_value`` walks the tree
once per node and player, ``reach_beliefs`` is Bayes' rule by reach
products with no use of the sibling rule, and ``consistency_sequence``
builds the 1/k ladder of fully-mixed assessments that the exact
consistency rule stands in for.

The group reference shares no code with the kernel in
``countercollusion.crypto`` and reads only ``group_id``, ``q`` and the
backend's ``p`` of a group: on toy it is ``pow`` and field multiplication,
on secp256k1 double-and-add over the complete projective addition formulas
for ``a = 0`` (Renes-Costello-Batina, EUROCRYPT 2016, Algorithm 7; ``b3 =
3*7 = 21``), which have no special case for doubling, inverses or the
identity ``(0, 1, 0)``.  The kernel's own doubling and Jacobian coordinates
appear nowhere in it, so a fault in them cannot pass both sides.
"""

from __future__ import annotations

from fractions import Fraction

from countercollusion.gametheory import Assessment, GameError


def node_value(game, node_id, profile, player):
    """Expected payoff for ``player`` when play starts at ``node_id`` and
    everyone follows ``profile``."""
    node = game.nodes[node_id]
    if node.is_terminal:
        return node.utilities[player - 1]
    return sum(pr * node_value(game, node.children[a], profile, player)
               for a, pr in profile[node.info_set].items() if pr)


def expected_payoff(game, assessment, set_id):
    """Belief-weighted expected payoff of the info set's owner."""
    iset, beliefs = game.info_sets[set_id], assessment.beliefs[set_id]
    return sum(beliefs.get(h, 0) * node_value(game, h, assessment.profile, iset.player)
               for h in iset.nodes)


def reach_beliefs(game, profile):
    """Bayes' rule by reach products: each node's posterior is its reach
    over its set's total reach.  A set the profile never reaches raises
    ``unreachable-info-set``."""
    reach = {game.root: 1}

    def reach_of(nid):
        if nid not in reach:
            parent, action = game.parents[nid]
            dist = profile[game.nodes[parent].info_set]
            reach[nid] = reach_of(parent) * dist.get(action, 0)
        return reach[nid]

    beliefs = {}
    for iset in game.info_sets.values():
        total = sum(reach_of(h) for h in iset.nodes)
        if total == 0:
            raise GameError("unreachable-info-set", iset.set_id)
        beliefs[iset.set_id] = {h: Fraction(reach[h], total) for h in iset.nodes}
    return beliefs


def consistency_sequence(game, assessment, k):
    """The ``k``-th rung of the 1/k ladder: at a set of ``n`` actions each
    action ``a`` gets ``sigma(a) * (1 - n/k) + 1/k``, which is fully mixed
    for ``k >= n`` (on a pure profile the prescribed action gets
    ``(k - (n - 1)) / k`` and every other one ``1/k``); beliefs follow by
    Bayes' rule."""
    widest = max(len(iset.actions) for iset in game.info_sets.values())
    if k < widest:
        raise ValueError(f"need k >= {widest}")
    profile = {}
    for set_id, iset in game.info_sets.items():
        dist, n = assessment.profile[set_id], len(iset.actions)
        profile[set_id] = {a: Fraction(dist.get(a, 0)) * (1 - Fraction(n, k)) + Fraction(1, k)
                           for a in iset.actions}
    return Assessment(profile=profile, beliefs=reach_beliefs(game, profile))


def assessment_distance(game, a, b):
    """Sup-norm distance across all strategy and belief entries."""
    return max((abs(x[s].get(key, 0) - y[s].get(key, 0))
                for s, iset in game.info_sets.items()
                for x, y, keys in ((a.profile, b.profile, iset.actions),
                                   (a.beliefs, b.beliefs, iset.nodes))
                for key in keys), default=0)


def ladder_residual(game, assessment, k):
    """The sup-distance between the assessment and the ladder's ``k``-th rung."""
    return assessment_distance(game, consistency_sequence(game, assessment, k), assessment)


# ---------------------------------------------------------------------------
# Group reference: affine points in, affine points out; the identity is the
# backend's (1 on toy, None on secp256k1)
# ---------------------------------------------------------------------------


def _group(gp):
    """``(is_toy, p, q)``: all the reference reads of a group."""
    return gp.group_id == "toy", gp.backend.p, gp.q


def _projective_add(p, a, b):
    """The complete sum of two projective points ``(X, Y, Z)`` of
    ``y^2 = x^3 + 7`` over ``F_p``, with ``x = X/Z`` and ``y = Y/Z``."""
    X1, Y1, Z1 = a
    X2, Y2, Z2 = b
    xx, yy, zz = X1 * X2, Y1 * Y2, Z1 * Z2
    xy, yz, xz = X1 * Y2 + X2 * Y1, Y1 * Z2 + Y2 * Z1, X1 * Z2 + X2 * Z1
    plus, minus = yy + 21 * zz, yy - 21 * zz
    return ((xy * minus - 21 * yz * xz) % p,
            (plus * minus + 63 * xx * xz) % p,
            (yz * plus + 3 * xx * xy) % p)


def _projective(a):
    return (0, 1, 0) if a is None else (a[0], a[1], 1)


def _affine(p, pt):
    X, Y, Z = pt
    if Z == 0:
        return None
    zinv = pow(Z, -1, p)
    return (X * zinv % p, Y * zinv % p)


def ref_add(gp, a, b):
    """``a + b``."""
    toy, p, _ = _group(gp)
    if toy:
        return a * b % p
    return _affine(p, _projective_add(p, _projective(a), _projective(b)))


def ref_neg(gp, a):
    """``-a``."""
    toy, p, _ = _group(gp)
    if toy:
        return pow(a, -1, p)
    return None if a is None else (a[0], -a[1] % p)


def ref_sub(gp, a, b):
    """``a - b``."""
    return ref_add(gp, a, ref_neg(gp, b))


def ref_mul(gp, k, a):
    """``k*a``: one ``pow`` on toy, left-to-right double-and-add on
    secp256k1, made affine once at the end."""
    toy, p, q = _group(gp)
    if toy:
        return pow(a, k % q, p)
    acc, base = (0, 1, 0), _projective(a)
    for bit in bin(k % q)[2:]:
        acc = _projective_add(p, acc, acc)
        if bit == "1":
            acc = _projective_add(p, acc, base)
    return _affine(p, acc)
