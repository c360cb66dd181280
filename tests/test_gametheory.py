"""Game engine tests: structure, exact evaluation, equilibrium checks.

Frozen oracle values (hand-computed before the engine existed):

* uniform play of the plain game is worth exactly -668/9 to each cloud;
* equilibrium values: 90 = w - c (plain, reporting), 95/105 = w -+ b
  (coalition), 106 = z + b (coalition follower after reporting);
* the canonical 1/k mixture (the test-side ladder in ``oracles``) sits at
  sup-distance exactly 2/k from each reference assessment, which is exactly
  consistent;
* at the default deposits the coalition-with-reporting equilibrium has a
  one-shot gain of exactly +4 = z + d - t for the ringleader after a report,
  so the check must fail there and pass once t > z + d.
"""

import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from countercollusion import contracts, crypto, protocol
from countercollusion.crypto import setup
from countercollusion.gametheory import (
    Assessment,
    Game,
    GameError,
    InfoSet,
    Node,
    analyze_reference,
    build_game,
    check_consistency,
    check_sequential_rationality,
    outcome_distribution,
    payoff_crosscheck,
    play,
    play_label,
    reference_equilibrium,
    terminal_label,
)
from countercollusion.gametheory import _FAMILIES, _node_values, _scenario_grid
from countercollusion.ledger import Params, validate_params
from oracles import (
    assessment_distance,
    consistency_sequence,
    expected_payoff,
    ladder_residual,
    node_value,
    reach_beliefs,
)

W, C, CH, D, T, B = 100, 10, 201, 212, 309, 5
Z = W - C + D - CH  # 101
BASE = Params(w=W, c=C, ch=CH, d=D, t=T, b=B)
# same engagement but with the coalition deposit raised above z + d, which
# is what the post-report stage needs for strict dominance
STRONG = Params(w=W, c=C, ch=CH, d=D, t=314, b=B)

GAMES = ("g1", "g2", "g3", "g4")


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def test_tree_shapes():
    shapes = {  # nodes, info sets, terminals
        "g1": (13, 2, 9), "g2": (17, 4, 11), "g3": (40, 5, 27), "g4": (44, 7, 29),
    }
    for gid, (n_nodes, n_sets, n_terms) in shapes.items():
        game = build_game(gid, BASE)
        assert len(game.nodes) == n_nodes
        assert len(game.info_sets) == n_sets
        assert len(game.terminals()) == n_terms


@pytest.mark.parametrize("gid", GAMES)
def test_terminal_label_follows_the_actions_from_the_root(gid):
    """Each terminal is the one ``terminal_label`` reaches along the actions
    from the root to it.  A declined offer's terminal is labelled as the
    honest terminal of the family without the coalition prefix."""
    game = build_game(gid, BASE)
    for terminal in game.terminals():
        path, nid = [], terminal.node_id
        while nid in game.parents:
            nid, action = game.parents[nid]
            path.insert(0, action)
        assert terminal_label(gid, path) == f"{gid.upper()}:{terminal.node_id}"
        if terminal.node_id.startswith("u"):
            assert terminal.label == ("G3:v13" if gid == "g4" else "G1:v4")
        else:
            assert terminal.label == terminal_label(gid, path)


@pytest.mark.parametrize("gid", GAMES)
def test_the_move_table_maps_each_terminal_to_strategies_and_back(gid):
    """The strategies ``_scenario_grid`` gives a terminal play back to it:
    ``play_label`` names the terminal and the family's role names, and a
    withheld delivery plays as ``other``."""
    family, game = _FAMILIES[gid], build_game(gid, BASE)
    other, withhold = protocol.CtpAction.OTHER, protocol.CtpAction.WITHHOLD
    for nid, s1, s2, _ in _scenario_grid(game):
        label = (f"{gid.upper()}:{nid}", family.roles)
        assert play_label(family.coalition, family.report, (s1, s2)) == label
        withheld = tuple(s._replace(ctp_action=withhold) if s.ctp_action is other else s
                         for s in (s1, s2))
        assert play_label(family.coalition, family.report, withheld) == label


def test_unknown_game_rejected():
    with pytest.raises(GameError) as err:
        build_game("g5", BASE)
    assert err.value.code == "unknown-game"


def _tiny_nodes():
    return {
        "v0": Node("v0", player=1, info_set="I1", children={"a": "t0", "b": "t1"}),
        "t0": Node("t0", utilities=(Fraction(1), Fraction(0)), label="X:t0"),
        "t1": Node("t1", utilities=(Fraction(0), Fraction(1)), label="X:t1"),
    }


def test_valid_tiny_game_passes_validation():
    Game("tiny", BASE, _tiny_nodes(), {"I1": InfoSet("I1", 1, ("v0",), ("a", "b"))})


def test_info_set_action_mismatch_rejected():
    with pytest.raises(GameError) as err:
        Game("tiny", BASE, _tiny_nodes(), {"I1": InfoSet("I1", 1, ("v0",), ("a", "c"))})
    assert err.value.code == "bad-structure"


def test_shared_child_rejected():
    nodes = _tiny_nodes()
    nodes["v0"] = Node("v0", player=1, info_set="I1", children={"a": "t0", "b": "t0"})
    del nodes["t1"]
    with pytest.raises(GameError):
        Game("tiny", BASE, nodes, {"I1": InfoSet("I1", 1, ("v0",), ("a", "b"))})


def test_perfect_recall_violation_rejected():
    # one player acts twice in a row but "forgets" its first move
    nodes = {
        "v0": Node("v0", player=1, info_set="I1", children={"a": "v1", "b": "v2"}),
        "v1": Node("v1", player=1, info_set="I2", children={"c": "t0", "d": "t1"}),
        "v2": Node("v2", player=1, info_set="I2", children={"c": "t2", "d": "t3"}),
        **{
            f"t{i}": Node(f"t{i}", utilities=(Fraction(i), Fraction(-i)), label=f"X:t{i}")
            for i in range(4)
        },
    }
    info_sets = {
        "I1": InfoSet("I1", 1, ("v0",), ("a", "b")),
        "I2": InfoSet("I2", 1, ("v1", "v2"), ("c", "d")),
    }
    with pytest.raises(GameError) as err:
        Game("tiny", BASE, nodes, info_sets)
    assert "perfect recall" in str(err.value)


@pytest.mark.parametrize("grandchild", [False, True])
def test_info_set_holding_a_node_and_its_descendant_rejected(grandchild):
    """``check_sequential_rationality`` reads a deviation at ``h`` from the
    value at ``h``'s child, which is exact only if no node of the set lies
    below another: a node and its child, or its grandchild behind the other
    player's move, may not share a set."""
    def leaf(nid):
        return Node(nid, utilities=(Fraction(0), Fraction(0)), label=f"X:{nid}")

    nodes = {
        "v0": Node("v0", player=1, info_set="I1",
                   children={"a": "v1" if grandchild else "v2", "b": "t0"}),
        "v2": Node("v2", player=1, info_set="I1", children={"a": "t2", "b": "t3"}),
        **{nid: leaf(nid) for nid in ("t0", "t2", "t3")},
    }
    info_sets = {"I1": InfoSet("I1", 1, ("v0", "v2"), ("a", "b"))}
    if grandchild:
        nodes.update(v1=Node("v1", player=2, info_set="I2", children={"w": "v2", "x": "t1"}),
                     t1=leaf("t1"))
        info_sets["I2"] = InfoSet("I2", 2, ("v1",), ("w", "x"))
    with pytest.raises(GameError) as err:
        Game("tiny", BASE, nodes, info_sets)
    assert err.value.code == "bad-structure"
    assert "violates perfect recall" in str(err.value)


def test_partition_must_cover_all_decision_nodes():
    nodes = _tiny_nodes()
    nodes["v0"] = Node("v0", player=1, info_set="I9", children={"a": "t0", "b": "t1"})
    with pytest.raises(GameError):
        Game("tiny", BASE, nodes, {"I1": InfoSet("I1", 1, (), ("a", "b"))})


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------


def _uniform_assessment(game):
    profile = {
        s.set_id: {a: Fraction(1, len(s.actions)) for a in s.actions}
        for s in game.info_sets.values()
    }
    return Assessment(profile=profile, beliefs=reach_beliefs(game, profile))


def _random_profile(game, data):
    """A behavior profile with weights 0..5 per action, so some actions go unplayed."""
    profile = {}
    for iset in sorted(game.info_sets.values(), key=lambda s: s.set_id):
        weights = [data.draw(st.integers(0, 5), label=f"{iset.set_id}:{a}") for a in iset.actions]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        profile[iset.set_id] = {
            a: Fraction(wgt, total) for a, wgt in zip(iset.actions, weights)
        }
    return profile


def test_uniform_plain_game_value_is_frozen_oracle():
    game = build_game("g1", BASE)
    assessment = _uniform_assessment(game)
    assert expected_payoff(game, assessment, "I1") == Fraction(-668, 9)
    assert expected_payoff(game, assessment, "I2") == Fraction(-668, 9)


def test_outcome_distribution_sums_to_one_and_matches_node_value():
    game = build_game("g4", BASE)
    assessment = _uniform_assessment(game)
    dist = outcome_distribution(game, assessment.profile)
    assert sum(dist.values()) == 1
    for player in (1, 2):
        direct = node_value(game, game.root, assessment.profile, player)
        summed = sum(pr * game.nodes[nid].utilities[player - 1] for nid, pr in dist.items())
        assert direct == summed


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_profile_evaluation_identity(data):
    game = build_game("g3", BASE)
    profile = _random_profile(game, data)
    dist = outcome_distribution(game, profile)
    assert sum(dist.values()) == 1
    for player in (1, 2):
        direct = node_value(game, game.root, profile, player)
        summed = sum(pr * game.nodes[nid].utilities[player - 1] for nid, pr in dist.items())
        assert direct == summed


def test_bayes_beliefs_follow_strategy_weights():
    """The Bayes posteriors at the follower's delivery set are the leader's
    delivery weights, and the exact rule finds them consistent."""
    game = build_game("g2", BASE)
    profile = {
        "I1.1": {"no_init": Fraction(0), "init": Fraction(1)},
        "I2.1": {"no_collude": Fraction(0), "collude": Fraction(1)},
        "I1.2": {"fx": Fraction(1, 2), "r": Fraction(1, 3), "other": Fraction(1, 6)},
        "I2.2": {"fx": Fraction(1, 3), "r": Fraction(1, 3), "other": Fraction(1, 3)},
    }
    beliefs = reach_beliefs(game, profile)
    assert beliefs["I2.2"] == {
        "v3": Fraction(1, 2), "v4": Fraction(1, 3), "v5": Fraction(1, 6),
    }
    assert check_consistency(game, Assessment(profile, beliefs)) == ()


def test_unreachable_info_set_rejected_in_bayes():
    """Bayes' rule says nothing at a set the profile never reaches; the
    exact rule still gives its one consistent belief."""
    game = build_game("g2", BASE)
    profile = {
        "I1.1": {"no_init": Fraction(1), "init": Fraction(0)},
        "I2.1": {"no_collude": Fraction(1), "collude": Fraction(0)},
        "I1.2": {"fx": Fraction(1), "r": Fraction(0), "other": Fraction(0)},
        "I2.2": {"fx": Fraction(1), "r": Fraction(0), "other": Fraction(0)},
    }
    with pytest.raises(GameError) as err:
        reach_beliefs(game, profile)
    assert err.value.code == "unreachable-info-set"
    beliefs = {set_id: {iset.nodes[0]: 1} for set_id, iset in game.info_sets.items()}
    assert beliefs["I2.2"] == {"v3": 1}  # the node the leader's fx leads to
    assert check_consistency(game, Assessment(profile, beliefs)) == ()
    beliefs["I2.2"] = {"v4": 1}
    assert check_consistency(game, Assessment(profile, beliefs)) == (
        ("I2.2", "v3", 0, 1), ("I2.2", "v4", 1, 0))


def test_assessment_validation():
    game = build_game("g1", BASE)
    ref = reference_equilibrium(game)
    broken = Assessment(
        profile={**ref.profile, "I1": {"fx": Fraction(1, 2)}}, beliefs=ref.beliefs
    )
    with pytest.raises(GameError) as err:
        check_sequential_rationality(game, broken)
    assert err.value.code == "bad-assessment"


def test_consistency_check_rejects_a_missing_belief_set():
    game = build_game("g1", BASE)
    ref = reference_equilibrium(game)
    for beliefs in ({}, {s: b for s, b in ref.beliefs.items() if s != "I2"}):
        with pytest.raises(GameError) as err:
            check_consistency(game, Assessment(ref.profile, beliefs))
        assert err.value.code == "bad-assessment"


def test_consistency_check_rejects_a_missing_profile_set():
    """``I1`` is the set whose profile gives ``I2``'s limits, ``I2`` only
    its own; either missing is a malformed assessment."""
    game = build_game("g1", BASE)
    ref = reference_equilibrium(game)
    for missing in ("I1", "I2"):
        profile = {s: d for s, d in ref.profile.items() if s != missing}
        with pytest.raises(GameError) as err:
            check_consistency(game, Assessment(profile, ref.beliefs))
        assert err.value.code == "bad-assessment"


# ---------------------------------------------------------------------------
# Reference equilibria: outcomes and values
# ---------------------------------------------------------------------------


def test_equilibrium_play_reaches_the_documented_terminal():
    expected = {
        "g1": {"G1:v4": 1}, "g2": {"G2:v10": 1},
        "g3": {"G3:v13": 1}, "g4": {"G3:v13": 1},
    }
    for gid in GAMES:
        game = build_game(gid, BASE)
        assert play(game, reference_equilibrium(game).profile) == expected[gid]


def test_equilibrium_values_at_the_roots():
    g1 = build_game("g1", BASE)
    assert expected_payoff(g1, reference_equilibrium(g1), "I1") == W - C
    g2 = build_game("g2", BASE)
    a2 = reference_equilibrium(g2)
    assert expected_payoff(g2, a2, "I1.1") == W - B
    assert expected_payoff(g2, a2, "I2.1") == W + B
    g3 = build_game("g3", BASE)
    a3 = reference_equilibrium(g3)
    assert expected_payoff(g3, a3, "I2.1") == W - C
    assert expected_payoff(g3, a3, "I1") == W - C
    g4 = build_game("g4", BASE)
    a4 = reference_equilibrium(g4)
    assert expected_payoff(g4, a4, "I1.1") == W - C
    assert expected_payoff(g4, a4, "I2.2") == Z + B


# ---------------------------------------------------------------------------
# Sequential rationality
# ---------------------------------------------------------------------------


def test_plain_and_coalition_and_reporting_equilibria_hold():
    for gid in ("g1", "g2", "g3"):
        game = build_game(gid, BASE)
        report = check_sequential_rationality(game, reference_equilibrium(game))
        assert report.weak_ok and report.strict_ok and report.nodes_ok, gid
        for check in report.checks:
            assert check.full_deviation_max_gain == 0, (gid, check.set_id)


def test_one_shot_margins_at_key_sets():
    g1 = build_game("g1", BASE)
    r1 = check_sequential_rationality(g1, reference_equilibrium(g1))
    i2 = next(ch for ch in r1.checks if ch.set_id == "I2")
    assert i2.one_shot_values == {"fx": W - C, "r": -D, "other": -D}

    g2 = build_game("g2", BASE)
    r2 = check_sequential_rationality(g2, reference_equilibrium(g2))
    i22 = next(ch for ch in r2.checks if ch.set_id == "I2.2")
    assert i22.one_shot_values == {"fx": Z - T, "r": W + B, "other": -D - T}

    g3 = build_game("g3", BASE)
    r3 = check_sequential_rationality(g3, reference_equilibrium(g3))
    root = next(ch for ch in r3.checks if ch.set_id == "I2.1")
    assert root.one_shot_values == {
        "no_report": W - C, "report_correct": W - C - CH, "report_wrong": W - C - CH,
    }


def test_reporting_game_tie_nodes_are_exempt_and_really_tie():
    game = build_game("g3", BASE)
    report = check_sequential_rationality(game, reference_equilibrium(game))
    i23 = next(ch for ch in report.checks if ch.set_id == "I2.3")
    assert i23.nodes_ok
    exempt = {(nc.node_id, nc.action): nc for nc in i23.node_checks
              if nc.relation == "tie-exempt"}
    assert set(exempt) == {("v8", "r"), ("v8", "other"), ("v9", "r"), ("v9", "other")}
    for nc in exempt.values():
        assert nc.value == nc.eq_value == Z


def test_coalition_reporting_equilibrium_fails_at_default_deposit():
    """With the default parameters the ringleader gains exactly
    z + d - t = +4 by switching to the true result after a report, so the
    stated strategies are not sequentially rational there."""
    game = build_game("g4", BASE)
    report = check_sequential_rationality(game, reference_equilibrium(game))
    assert not report.strict_ok and not report.weak_ok
    i12 = next(ch for ch in report.checks if ch.set_id == "I1.2")
    assert i12.full_deviation_max_gain == Fraction(4) == Z + D - T
    assert i12.one_shot_values["fx"] - i12.eq_value == Fraction(4)
    assert not i12.nodes_ok
    # every other info set is fine
    for check in report.checks:
        if check.set_id != "I1.2":
            assert check.weak_ok and check.strict_ok and check.nodes_ok, check.set_id


def test_coalition_reporting_equilibrium_holds_once_t_exceeds_z_plus_d():
    game = build_game("g4", STRONG)
    report = check_sequential_rationality(game, reference_equilibrium(game))
    assert report.weak_ok and report.strict_ok and report.nodes_ok
    for check in report.checks:
        assert check.full_deviation_max_gain == 0, check.set_id


def test_gain_formula_tracks_t():
    for t, gain in ((310, 3), (313, 0), (314, -1), (320, -7)):
        params = Params(w=W, c=C, ch=CH, d=D, t=t, b=B)
        game = build_game("g4", params)
        report = check_sequential_rationality(game, reference_equilibrium(game))
        i12 = next(ch for ch in report.checks if ch.set_id == "I1.2")
        assert i12.one_shot_values["fx"] - i12.eq_value == gain


def _ref_max_gain(game, assessment, set_id):
    """The owner's best gain at ``set_id`` by exhaustion: every combination
    of pure actions at all of the owner's info sets, each walked through the
    whole tree under the stated beliefs."""
    iset = game.info_sets[set_id]
    own_sets = [s for s in game.info_sets.values() if s.player == iset.player]
    beliefs = assessment.beliefs[set_id]
    gains = []
    for combo in itertools.product(*(s.actions for s in own_sets)):
        modified = dict(assessment.profile)
        for s, action in zip(own_sets, combo):
            modified[s.set_id] = {a: Fraction(int(a == action)) for a in s.actions}
        value = sum(beliefs.get(h, 0) * node_value(game, h, modified, iset.player)
                    for h in iset.nodes)
        gains.append(value - expected_payoff(game, assessment, set_id))
    return max(gains)


@st.composite
def _valid_params(draw):
    """Valid parameters with ``t`` on either side of the g4 bound ``z + d``."""
    c = draw(st.integers(2, 40))
    w = draw(st.integers(c, 200))
    ch = 2 * w + draw(st.integers(1, 60))
    d = c + ch + draw(st.integers(1, 150))
    b = draw(st.integers(1, c - 1))
    bound = (w - c + d - ch) + d
    t = draw(st.one_of(st.integers(bound + 1, bound + 100), st.integers(bound - b + 1, bound)))
    return Params(w=w, c=c, ch=ch, d=d, t=t, b=b)


def _mixed_assessment(game, data):
    profile = _random_profile(game, data)
    try:
        return Assessment(profile=profile, beliefs=reach_beliefs(game, profile))
    except GameError:  # some info set is never reached
        assume(False)


@pytest.mark.parametrize("kind", ["reference", "sequence", "mixed"])
@pytest.mark.parametrize("gid", GAMES)
@settings(max_examples=8, deadline=None)
@given(params=_valid_params(), data=st.data())
def test_full_deviation_gain_matches_exhaustive_search(gid, kind, params, data):
    assert validate_params(params) == []
    game = build_game(gid, params)
    assessment = reference_equilibrium(game)
    if kind == "sequence":
        assessment = consistency_sequence(game, assessment, data.draw(st.integers(3, 12)))
    elif kind == "mixed":
        assessment = _mixed_assessment(game, data)
    for check in check_sequential_rationality(game, assessment).checks:
        gain = _ref_max_gain(game, assessment, check.set_id)
        assert check.full_deviation_max_gain == gain, check.set_id
        assert check.weak_ok == (gain <= 0), check.set_id


def _ref_deviation_values(game, assessment, set_id):
    """The owner's value of each pure action at ``set_id``, per node and
    weighted by the beliefs, each walked under a copy of the profile that
    differs only at the set."""
    iset = game.info_sets[set_id]
    beliefs = assessment.beliefs[set_id]
    per_node = {}
    for action in iset.actions:
        modified = dict(assessment.profile)
        modified[set_id] = {a: Fraction(int(a == action)) for a in iset.actions}
        for h in iset.nodes:
            per_node[h, action] = node_value(game, h, modified, iset.player)
    one_shot = {a: sum(beliefs.get(h, 0) * per_node[h, a] for h in iset.nodes)
                for a in iset.actions}
    return one_shot, per_node


@pytest.mark.parametrize("kind", ["reference", "sequence", "mixed"])
@pytest.mark.parametrize("gid", GAMES)
@settings(max_examples=8, deadline=None)
@given(params=_valid_params(), data=st.data())
def test_one_pass_values_match_copied_profile_evaluation(gid, kind, params, data):
    game = build_game(gid, params)
    assessment = reference_equilibrium(game)
    if kind == "sequence":
        assessment = consistency_sequence(game, assessment, data.draw(st.integers(3, 12)))
    elif kind == "mixed":
        assessment = _mixed_assessment(game, data)
    values = _node_values(game, assessment.profile)
    assert set(values) == set(game.nodes)
    for nid, value in values.items():
        assert value == tuple(node_value(game, nid, assessment.profile, p) for p in (1, 2))
    for check in check_sequential_rationality(game, assessment).checks:
        iset = game.info_sets[check.set_id]
        one_shot, per_node = _ref_deviation_values(game, assessment, check.set_id)
        assert check.eq_value == expected_payoff(game, assessment, check.set_id)
        assert check.one_shot_values == one_shot
        support = {a for a, pr in assessment.profile[check.set_id].items() if pr}
        assert [(nc.node_id, nc.action) for nc in check.node_checks] == [
            (h, a) for h in iset.nodes for a in iset.actions if a not in support]
        for nc in check.node_checks:
            assert nc.value == per_node[nc.node_id, nc.action]
            assert nc.eq_value == node_value(game, nc.node_id, assessment.profile, iset.player)


def _pure_or_mixed_profile(game, data):
    """Weights 0..5 per action, as in ``_random_profile``; a set that plays
    one action gets the ints 1 and 0, as a pure reference profile does."""
    profile = {}
    for set_id, dist in _random_profile(game, data).items():
        played = [a for a, pr in dist.items() if pr]
        profile[set_id] = {a: int(a in played) for a in dist} if len(played) == 1 else dist
    return profile


def _rationality_values(report):
    for check in report.checks:
        yield check.eq_value
        yield check.full_deviation_max_gain
        yield from check.one_shot_values.values()
        for nc in check.node_checks:
            yield nc.value
            yield nc.eq_value


@pytest.mark.parametrize("gid", GAMES)
@settings(max_examples=10, deadline=None)
@given(params=_valid_params(), data=st.data())
def test_no_float_enters_the_engine(gid, params, data):
    """Every value is an int or a Fraction: a float compares equal to the
    right Fraction, so no value check would catch one.  The reference
    assessment, where nothing divides, stays in ints."""
    game = build_game(gid, params)
    reference = reference_equilibrium(game)
    values = list(_rationality_values(check_sequential_rationality(game, reference)))
    values += play(game, reference.profile).values()
    assert {type(v) for v in values} == {int}

    profile = _pure_or_mixed_profile(game, data)
    try:
        beliefs = reach_beliefs(game, profile)
    except GameError:  # some info set is never reached
        assume(False)
    assessment = Assessment(profile=profile, beliefs=beliefs)
    values = list(_rationality_values(check_sequential_rationality(game, assessment)))
    # beliefs off by a third, so that every belief is listed with its limit
    shifted = {s: {h: mu + Fraction(1, 3) for h, mu in dist.items()} for s, dist in beliefs.items()}
    for _, _, mu, limit in check_consistency(game, Assessment(profile, shifted)):
        values += [mu, limit]
    values += [v for pair in _node_values(game, profile).values() for v in pair]
    values += play(game, profile).values()
    assert {type(v) for v in values} <= {int, Fraction}


def test_bayes_beliefs_of_a_pure_profile_are_fractions():
    """Under a pure profile every reach is an int; ``/`` between two ints
    would give a float that compares equal to the right posterior.  The
    engine's beliefs divide nothing: they are the profile's own ints."""
    game = build_game("g1", BASE)
    reference = reference_equilibrium(game)
    beliefs = reach_beliefs(game, reference.profile)
    assert beliefs == reference.beliefs == {"I1": {"v0": 1}, "I2": {"v1": 1, "v2": 0, "v3": 0}}
    assert {type(pr) for dist in beliefs.values() for pr in dist.values()} == {Fraction}
    assert {type(pr) for dist in reference.beliefs.values() for pr in dist.values()} == {int}


def test_full_deviation_plans_across_later_info_sets():
    """Player 1 moves at I1, then -- after a mixed move of player 2 that it
    does not see -- at J.  Under the stated profile (b at I1, d at J) the
    one-shot deviation a is worth 8/3 < 3, but a followed by c is worth
    10/3, so the best full deviation gains exactly 1/3.  Choosing c or d
    separately at each node of J would claim 6 - 3 = 3; keeping d at J would
    claim no gain at all."""
    def leaf(nid, u):
        return Node(nid, utilities=(Fraction(u), Fraction(0)), label=f"X:{nid}")

    nodes = {
        "v0": Node("v0", player=1, info_set="I1", children={"a": "v1", "b": "t0"}),
        "v1": Node("v1", player=2, info_set="I2", children={"x": "v2", "y": "v3"}),
        "v2": Node("v2", player=1, info_set="J", children={"d": "t2", "c": "t1"}),
        "v3": Node("v3", player=1, info_set="J", children={"d": "t4", "c": "t3"}),
        **{nid: leaf(nid, u) for nid, u in (("t0", 3), ("t1", 10), ("t2", 0),
                                            ("t3", 0), ("t4", 4))},
    }
    game = Game("plan", BASE, nodes, {
        "I1": InfoSet("I1", 1, ("v0",), ("a", "b")),
        "I2": InfoSet("I2", 2, ("v1",), ("x", "y")),
        "J": InfoSet("J", 1, ("v2", "v3"), ("d", "c")),
    })
    third = Fraction(1, 3)
    assessment = Assessment(
        profile={"I1": {"a": Fraction(0), "b": Fraction(1)},
                 "I2": {"x": third, "y": 1 - third},
                 "J": {"d": Fraction(1), "c": Fraction(0)}},
        beliefs={"I1": {"v0": Fraction(1)}, "I2": {"v1": Fraction(1)},
                 "J": {"v2": third, "v3": 1 - third}},
    )
    checks = {c.set_id: c for c in check_sequential_rationality(game, assessment).checks}
    assert checks["I1"].one_shot_values == {"a": Fraction(8, 3), "b": Fraction(3)}
    assert checks["I1"].strict_ok and not checks["I1"].weak_ok
    assert checks["I1"].full_deviation_max_gain == third
    assert checks["J"].full_deviation_max_gain == Fraction(2, 3)
    for set_id, check in checks.items():
        assert check.full_deviation_max_gain == _ref_max_gain(game, assessment, set_id)


# ---------------------------------------------------------------------------
# Boundary sensitivity: each violated constraint breaks a specific check
# ---------------------------------------------------------------------------


def test_deposit_at_cost_plus_fee_breaks_plain_dominance():
    params = Params(w=W, c=C, ch=CH, d=C + CH, t=T, b=B)
    analysis = analyze_reference("g1", params)
    assert analysis.params_violations == ("d > c + ch",)
    assert not analysis.rationality.nodes_ok
    i2 = next(ch for ch in analysis.rationality.checks if ch.set_id == "I2")
    tie = next(nc for nc in i2.node_checks if nc.node_id == "v2" and nc.action == "r")
    assert tie.relation == "tie"  # delivering the agreed wrong result ties f(x)


def test_coalition_deposit_at_bound_breaks_conformance_dominance():
    params = Params(w=W, c=C, ch=CH, d=D, t=Z + D - B, b=B)
    analysis = analyze_reference("g2", params)
    assert analysis.params_violations == ("t > z + d - b",)
    assert not analysis.rationality.nodes_ok
    i22 = next(ch for ch in analysis.rationality.checks if ch.set_id == "I2.2")
    tie = next(nc for nc in i22.node_checks if nc.node_id == "v5" and nc.action == "fx")
    assert tie.relation == "tie"  # honesty ties conformance for the follower


def test_bribe_at_cost_breaks_initiation_incentive():
    params = Params(w=W, c=C, ch=CH, d=D, t=T, b=C)
    analysis = analyze_reference("g2", params)
    assert analysis.params_violations == ("b < c",)
    i11 = next(ch for ch in analysis.rationality.checks if ch.set_id == "I1.1")
    assert not i11.strict_ok  # initiating no longer strictly beats honesty
    assert i11.one_shot_values["no_init"] == i11.eq_value


def test_valid_params_analyses_are_clean():
    for gid in ("g1", "g2", "g3"):
        analysis = analyze_reference(gid, BASE)
        assert analysis.ok, gid
    analysis = analyze_reference("g4", STRONG)
    assert analysis.ok
    assert "satisfied" in analysis.notes[0]


def test_reporting_coalition_analysis_flags_deposit_condition_at_default():
    analysis = analyze_reference("g4", BASE)
    assert analysis.params_violations == ()
    assert not analysis.equilibrium_ok
    assert any("g4-followup-deposit" in note and "NOT satisfied" in note
               for note in analysis.notes)


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------


def test_consistency_residual_is_exactly_two_over_k():
    for gid in GAMES:
        game = build_game(gid, BASE)
        assessment = reference_equilibrium(game)
        assert check_consistency(game, assessment) == (), gid
        for k in (3, 10, 100, 1000, 10**7):
            assert ladder_residual(game, assessment, k) == Fraction(2, k), (gid, k)
        assert ladder_residual(game, assessment, 10**7) <= Fraction(1, 10**6)


def test_consistency_sequence_is_fully_mixed_with_bayes_beliefs():
    """The ladder the exact rule stands in for is a valid witness: every
    rung is fully mixed, its beliefs are Bayes' rule, and it closes in on
    a mixed assessment as well as on a pure one."""
    game = build_game("g4", BASE)
    reference = reference_equilibrium(game)
    mixed = {**reference.profile, "I1.2": {"fx": Fraction(1, 2), "r": Fraction(1, 2)}}
    for profile in (reference.profile, mixed):
        approx = consistency_sequence(game, Assessment(profile, reference.beliefs), k=1000)
        for iset in game.info_sets.values():
            dist = approx.profile[iset.set_id]
            assert sum(dist.values()) == 1
            assert all(0 < pr <= profile[iset.set_id].get(a, 0) + Fraction(1, 1000)
                       for a, pr in dist.items())
        assert approx.beliefs == reach_beliefs(game, approx.profile)
    assert assessment_distance(game, consistency_sequence(game, reference, 1000),
                               reference) == Fraction(2, 1000)


def test_consistency_sequence_needs_k_at_least_three():
    game = build_game("g1", BASE)
    with pytest.raises(ValueError, match="need k >= 3"):
        consistency_sequence(game, reference_equilibrium(game), k=2)


def test_a_mixed_profile_with_its_bayes_beliefs_is_consistent():
    """The leader of g2 mixes its delivery half and half; the follower's
    beliefs are the exact Bayes posteriors, so the assessment is
    consistent, although no rung of a ladder that favours one action of
    the pair comes closer to it than about 1/2."""
    game = build_game("g2", BASE)
    reference = reference_equilibrium(game)
    half = Fraction(1, 2)
    profile = {**reference.profile, "I1.2": {"fx": half, "r": half, "other": 0}}
    beliefs = {**reference.beliefs, "I2.2": {"v3": half, "v4": half, "v5": 0}}
    assessment = Assessment(profile, beliefs)
    assert beliefs == reach_beliefs(game, profile)
    assert check_consistency(game, assessment) == ()
    assert ladder_residual(game, assessment, 10**7) == Fraction(2, 10**7)


def test_an_off_path_belief_off_its_limit_is_reported_at_its_node():
    """g4's reference never forms the coalition, so the follower's delivery
    set ``I2.3`` is off the path; moving its weight from ``v7`` to ``v8``
    makes exactly those two beliefs inconsistent."""
    game = build_game("g4", STRONG)
    reference = reference_equilibrium(game)
    assert reference.beliefs["I2.3"] == {"v6": 0, "v7": 1, "v8": 0}
    assert outcome_distribution(game, reference.profile).keys().isdisjoint({"v6", "v7", "v8"})
    moved = Assessment(reference.profile,
                       {**reference.beliefs, "I2.3": {"v6": 0, "v7": 0, "v8": 1}})
    assert check_consistency(game, moved) == (("I2.3", "v7", 0, 1), ("I2.3", "v8", 1, 0))
    analysis = analyze_reference("g4", STRONG)
    assert analysis.mismatches == () and analysis.consistency_ok and analysis.ok
    inconsistent = analysis._replace(mismatches=check_consistency(game, moved))
    assert not inconsistent.consistency_ok and not inconsistent.ok


def _any_beliefs(game, data):
    """Non-negative rationals per node, ints or Fractions, not summing to 1
    as a rule; a node may be left out (belief 0)."""
    beliefs = {}
    for set_id in sorted(game.info_sets):
        beliefs[set_id] = {}
        for h in game.info_sets[set_id].nodes:
            mu = data.draw(st.one_of(st.none(), st.integers(0, 3),
                                     st.fractions(0, 3, max_denominator=50)), label=f"mu:{h}")
            if mu is not None:
                beliefs[set_id][h] = mu
    return beliefs


def _limits(game, profile):
    """The exact rule's belief at every node under ``profile``, read off
    the mismatches of an assessment that believes nothing (a node left out
    has limit 0)."""
    limits = {set_id: {} for set_id in game.info_sets}
    for set_id, h, _, limit in check_consistency(game, Assessment(profile, limits)):
        limits[set_id][h] = limit
    return limits


@pytest.mark.parametrize("gid", GAMES)
@settings(max_examples=40, deadline=None)
@given(params=_valid_params(), data=st.data())
def test_sibling_rule_beliefs_equal_reach_products(gid, params, data):
    """Where the profile reaches every set, Bayes' rule by reach products
    gives the exact rule's limits: the sibling rule reads the same
    posteriors off the parent's set alone."""
    game = build_game(gid, params)
    profile = _pure_or_mixed_profile(game, data)
    try:
        beliefs = reach_beliefs(game, profile)
    except GameError as err:
        assert err.code == "unreachable-info-set"
        return
    assert check_consistency(game, Assessment(profile, beliefs)) == ()
    assert _limits(game, profile) == {s: {h: mu for h, mu in dist.items() if mu}
                                      for s, dist in beliefs.items()}


@pytest.mark.parametrize("gid", GAMES)
@settings(max_examples=40, deadline=None)
@given(params=_valid_params(), data=st.data())
def test_exact_rule_agrees_with_the_ladder(gid, params, data):
    """Where the exact rule finds an assessment consistent, the ladder's
    ``k``-th rung lies within 2/k of it; where it reports mismatches, the
    rung stays at least the largest mismatch, less 2/k, away.  Every set
    here has at most three actions, so a rung moves each profile entry by
    at most 2/k."""
    game = build_game(gid, params)
    profile = data.draw(st.sampled_from([reference_equilibrium(game).profile,
                                         _pure_or_mixed_profile(game, data)]))
    beliefs = data.draw(st.sampled_from([_limits(game, profile), _any_beliefs(game, data)]))
    assessment = Assessment(profile=profile, beliefs=beliefs)
    k = data.draw(st.integers(3, 10**7), label="k")
    residual = ladder_residual(game, assessment, k)
    mismatches = check_consistency(game, assessment)
    if not mismatches:
        assert residual <= Fraction(2, k)
    else:
        worst = max(abs(mu - limit) for _, _, mu, limit in mismatches)
        assert residual >= worst - Fraction(2, k)


def test_info_set_spanning_two_parents_rejected():
    """Player 2 moves twice, then player 1 -- who saw nothing -- moves at
    nodes with different parents: perfect recall holds, the sibling rule
    does not."""
    def leaf(nid):
        return Node(nid, utilities=(0, 0), label=f"X:{nid}")

    nodes = {
        "v0": Node("v0", player=2, info_set="I2.1", children={"a": "v1", "b": "v2"}),
        "v1": Node("v1", player=2, info_set="I2.2", children={"x": "v3", "y": "t0"}),
        "v2": Node("v2", player=2, info_set="I2.3", children={"x": "v4", "y": "t1"}),
        "v3": Node("v3", player=1, info_set="J", children={"c": "t2", "d": "t3"}),
        "v4": Node("v4", player=1, info_set="J", children={"c": "t4", "d": "t5"}),
        **{f"t{i}": leaf(f"t{i}") for i in range(6)},
    }
    info_sets = {
        "I2.1": InfoSet("I2.1", 2, ("v0",), ("a", "b")),
        "I2.2": InfoSet("I2.2", 2, ("v1",), ("x", "y")),
        "I2.3": InfoSet("I2.3", 2, ("v2",), ("x", "y")),
        "J": InfoSet("J", 1, ("v3", "v4"), ("c", "d")),
    }
    with pytest.raises(GameError) as err:
        Game("cousins", BASE, nodes, info_sets)
    assert err.value.code == "bad-structure"
    assert "J spans several parents" in str(err.value)
    # the same tree with J split per parent is a valid game
    Game("cousins", BASE, {**nodes, "v4": nodes["v4"]._replace(info_set="K")},
         {**info_sets, "J": InfoSet("J", 1, ("v3",), ("c", "d")),
          "K": InfoSet("K", 1, ("v4",), ("c", "d"))})


def test_info_set_entered_by_only_some_parent_actions_rejected():
    """Player 1's third action ends the game, so only two of its actions
    enter player 2's set: a node's posterior would then be its action's
    share of the two, which has no limit where both go unplayed.  With the
    third action leading into the set as well, the game is valid."""
    def leaf(nid):
        return Node(nid, utilities=(0, 0), label=f"X:{nid}")

    nodes = {
        "v0": Node("v0", player=1, info_set="I1", children={"a": "v1", "b": "v2", "c": "t0"}),
        "v1": Node("v1", player=2, info_set="J", children={"x": "t1", "y": "t2"}),
        "v2": Node("v2", player=2, info_set="J", children={"x": "t3", "y": "t4"}),
        **{f"t{i}": leaf(f"t{i}") for i in range(5)},
    }
    info_sets = {"I1": InfoSet("I1", 1, ("v0",), ("a", "b", "c")),
                 "J": InfoSet("J", 2, ("v1", "v2"), ("x", "y"))}
    with pytest.raises(GameError) as err:
        Game("partial", BASE, nodes, info_sets)
    assert err.value.code == "bad-structure"
    assert "J is entered by only some of its parent's actions" in str(err.value)
    nodes["v0"] = nodes["v0"]._replace(children={"a": "v1", "b": "v2", "c": "v3"})
    nodes["v3"] = Node("v3", player=2, info_set="J", children={"x": "t0", "y": "t5"})
    nodes["t5"] = leaf("t5")
    Game("partial", BASE, nodes, {**info_sets, "J": InfoSet("J", 2, ("v1", "v2", "v3"),
                                                             ("x", "y"))})


def test_a_ladder_rung_must_be_fully_mixed():
    """The prescribed action weighs k - (n - 1), so a set of n actions needs
    k >= n; the tree games have n <= 3."""
    nodes = {
        "v0": Node("v0", player=1, info_set="I1",
                   children={a: f"t{i}" for i, a in enumerate("abcd")}),
        **{f"t{i}": Node(f"t{i}", utilities=(i, 0), label=f"X:t{i}") for i in range(4)},
    }
    game = Game("wide", BASE, nodes, {"I1": InfoSet("I1", 1, ("v0",), tuple("abcd"))})
    assessment = Assessment(profile={"I1": {"a": 1, "b": 0, "c": 0, "d": 0}},
                            beliefs={"I1": {"v0": 1}})
    with pytest.raises(ValueError, match="need k >= 4"):
        consistency_sequence(game, assessment, 3)
    assert ladder_residual(game, assessment, 4) == Fraction(3, 4)
    assert check_consistency(game, assessment) == ()


# ---------------------------------------------------------------------------
# Protocol crosscheck: the tree and the contracts agree cell by cell
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gid,cells", [("g1", 9), ("g2", 11), ("g3", 27), ("g4", 29)])
def test_payoff_crosscheck_matches_protocol(gid, cells):
    checked, mismatches = payoff_crosscheck(build_game(gid, BASE), setup("toy"))
    assert checked == cells
    assert mismatches == []


def test_a_crosscheck_derives_the_scenario_values_once(monkeypatch):
    calls = []
    derive = protocol._derive_distinct_values
    monkeypatch.setattr(protocol, "_derive_distinct_values",
                        lambda *args: calls.append(args) or derive(*args))
    checked, mismatches = payoff_crosscheck(build_game("g4", STRONG), setup("toy"))
    assert (checked, mismatches, len(calls)) == (29, [], 1)


@pytest.mark.parametrize("gid,cells,openings", [("g1", 9, 1), ("g2", 11, 3), ("g3", 27, 3),
                                                ("g4", 29, 5)])
def test_each_opening_settles_its_last_cell_in_place(monkeypatch, gid, cells, openings):
    """A crosscheck opens each group of cells once and forks the opening
    for every cell of the group but the last, which settles the opening."""
    opened, forked = [], []
    open_play, fork = protocol._open_play, protocol._Opening.fork
    monkeypatch.setattr(protocol, "_open_play",
                        lambda *args: opened.append(args) or open_play(*args))
    monkeypatch.setattr(protocol._Opening, "fork",
                        lambda opening: forked.append(opening) or fork(opening))
    checked, mismatches = payoff_crosscheck(build_game(gid, BASE), setup("toy"))
    assert (checked, mismatches) == (cells, [])
    assert (len(opened), len(forked)) == (openings, cells - openings)


def _cell_by_cell(game, gp, seed):
    """Each cell's outcome from ``run_scenario`` alone, with the mismatches
    ``payoff_crosscheck`` would report for them."""
    outcomes, mismatches = {}, []
    for nid, s1, s2, traitor_enabled in _scenario_grid(game):
        out = outcomes[nid] = protocol.run_scenario(game.params, protocol.Task(), s1, s2, gp,
                                                    seed, traitor_enabled)
        node, actual = game.nodes[nid], (out.deltas["cloud1"], out.deltas["cloud2"])
        if out.terminal_label != node.label or actual != node.utilities:
            mismatches.append({"node": nid, "expected_label": node.label,
                               "actual_label": out.terminal_label,
                               "expected_deltas": node.utilities, "actual_deltas": actual})
    return outcomes, mismatches


class _ProofLog:
    """Records, while installed, each statement ``(c1, c2, o1, o2)`` a
    ``Prover`` is asked for, each ``(statement, proof)`` the provers make,
    and each ``(tag, c1, c2, proof)`` a verifier checks."""

    def __init__(self, monkeypatch) -> None:
        self.asked, self.made, self.verified = [], [], []
        ask = protocol.Prover.prove
        monkeypatch.setattr(protocol.Prover, "prove",
                            lambda prover, *st: self.asked.append(st) or ask(prover, *st))
        for name in ("prove_eq", "prove_neq"):
            monkeypatch.setattr(protocol, name, self._making(getattr(protocol, name)))
        # the verifiers' shared core, so a verdict kept anywhere above it shows
        monkeypatch.setattr(crypto, "_verify", self._verifying(crypto._verify))

    def _making(self, prove):
        def made(gp, c1, c2, o1, o2, rng):
            proof = prove(gp, c1, c2, o1, o2, rng)
            self.made.append(((c1, c2, o1, o2), proof))
            return proof
        return made

    def _verifying(self, verify):
        def verified(gp, tag, c1, c2, t, etas):
            self.verified.append((tag, c1, c2, (t, *etas)))
            return verify(gp, tag, c1, c2, t, etas)
        return verified

    def clear(self) -> None:
        for records in (self.asked, self.made, self.verified):
            records.clear()


def _check_forked_cells(monkeypatch, game, gp, seed):
    """Assert that every cell of the crosscheck is its fresh run, that the
    crosscheck proves each statement once, when it is first asked for, and
    that its contracts verify as many proofs of each kind as the fresh runs
    do, each one a proof it made.  Returns the fresh runs and their
    mismatches."""
    log = _ProofLog(monkeypatch)
    fresh, mismatches = _cell_by_cell(game, gp, seed)
    fresh_checks = collections.Counter(tag for tag, *_ in log.verified)
    log.clear()
    grid = list(_scenario_grid(game))
    plays = protocol.play_all(game.params, protocol.Task(), [cell[1:] for cell in grid], gp, seed)
    forked = {nid: out for (nid, *_), out in zip(grid, plays)}
    assert list(forked) == list(fresh) and forked == fresh
    assert [statement for statement, _ in log.made] == list(dict.fromkeys(log.asked))
    assert collections.Counter(tag for tag, *_ in log.verified) == fresh_checks
    made = {(c1, c2, tuple(proof)) for (c1, c2, _, _), proof in log.made}
    assert all(tuple(check[1:]) in made for check in log.verified)
    return fresh, mismatches


@pytest.mark.parametrize("t", [309, 314])
@pytest.mark.parametrize("seed", [5, 7, 59, 113])
@pytest.mark.parametrize("gid", GAMES)
def test_forked_cells_equal_fresh_runs(monkeypatch, gid, seed, t):
    """Each cell settles a fork of its group's opening with the proofs of
    one shared prover; its whole outcome, transcript and clauses included,
    is the one a fresh run gives.  At ``t=314`` seed 59 draws, in the toy
    group, a delivery blinding that would commit ``f(x)`` to the coalition's
    ``com_r`` on g2 and g4; the delivery moves off it, and no cell
    mismatches."""
    game, gp = build_game(gid, BASE._replace(t=t)), setup("toy")
    fresh, mismatches = _check_forked_cells(monkeypatch, game, gp, seed)
    assert payoff_crosscheck(game, gp, seed) == (len(fresh), mismatches)
    if (seed, t) == (59, 314) and gid in ("g2", "g4"):
        assert mismatches == []


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(seed=59)
@example(seed=113)
def test_no_toy_crosscheck_seed_mismatches(seed):
    """No scenario seed makes a commitment of a play equal a public one to
    another message, so the toy crosscheck of g2 and g4 (where one in about
    thirty seeds drew such a delivery blinding) agrees with the tree."""
    gp = setup("toy")
    for gid in ("g2", "g4"):
        assert payoff_crosscheck(build_game(gid, STRONG), gp, seed)[1] == []


def test_forked_cells_equal_fresh_runs_on_secp256k1(monkeypatch):
    game, gp = build_game("g1", BASE), setup("secp256k1")
    _, mismatches = _check_forked_cells(monkeypatch, game, gp, 7)
    assert mismatches == []


def test_crosschecks_commit_once_per_opening_and_verify_every_proof(monkeypatch):
    """The crosschecks of g1-g4 at t=309 and 314 (toy, seed 7) commit each
    ``(message, blinding)`` once per engagement: 276 commitments, the
    provers' re-openings of ``com_yt`` included (496 when every cell made
    its own).  Their contracts still verify every proof a cell receives:
    140 equality and 176 inequality proofs."""
    calls = collections.Counter()

    def counted(name, function):
        return lambda *args: calls.update([name]) or function(*args)

    commit = crypto.commit
    for module in (crypto, protocol):
        monkeypatch.setattr(module, "commit", counted("commit", commit))
    for name in ("verify_eq", "verify_neq"):
        monkeypatch.setattr(contracts, name, counted(name, getattr(contracts, name)))
    gp = setup("toy")
    for gid, t in itertools.product(GAMES, (309, 314)):
        assert payoff_crosscheck(build_game(gid, BASE._replace(t=t)), gp, 7)[1] == []
    assert calls == {"commit": 276, "verify_eq": 140, "verify_neq": 176}


def test_normal_form_nash_check_for_coalition_game():
    """Independent sanity check: in the induced normal form of the coalition
    game, the reference strategies are a Nash equilibrium."""
    game = build_game("g2", BASE)
    p1_sets = ["I1.1", "I1.2"]
    p2_sets = ["I2.1", "I2.2"]

    def value(p1_choice, p2_choice, player):
        profile = {}
        for sid, action in zip(p1_sets, p1_choice):
            profile[sid] = {a: Fraction(1 if a == action else 0)
                            for a in game.info_sets[sid].actions}
        for sid, action in zip(p2_sets, p2_choice):
            profile[sid] = {a: Fraction(1 if a == action else 0)
                            for a in game.info_sets[sid].actions}
        return node_value(game, game.root, profile, player)

    p1_strats = list(itertools.product(*(game.info_sets[s].actions for s in p1_sets)))
    p2_strats = list(itertools.product(*(game.info_sets[s].actions for s in p2_sets)))
    eq1, eq2 = ("init", "r"), ("collude", "r")
    u1 = value(eq1, eq2, 1)
    u2 = value(eq1, eq2, 2)
    assert u1 == W - B and u2 == W + B
    assert all(value(alt, eq2, 1) <= u1 for alt in p1_strats)
    assert all(value(eq1, alt, 2) <= u2 for alt in p2_strats)
