"""Reference implementations the tests check the engine against.

Each one is written the slow, obvious way: ``node_value`` walks the tree
once per node and player, ``reach_beliefs`` is Bayes' rule by reach
products with no use of the sibling rule, and ``consistency_sequence``
builds the 1/k ladder of fully-mixed assessments that the exact
consistency rule stands in for.
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
