"""Extensive-form game engine for the four outsourcing game families.

Builds the game trees induced by the contract suite (``g1`` plain
outsourcing, ``g2`` with a bribery coalition, ``g3`` with betrayal reporting,
``g4`` with both), evaluates behavior-strategy assessments exactly, and
machine-checks the two halves of sequential equilibrium.  Every value is an
``int`` where nothing divides: utilities, pure profiles and every value
computed from them; a ``Fraction`` comes only from a mixed profile a caller
passes in, so no function here imports ``fractions``.  ``Game`` validates
the *sibling rule*: the nodes of one information set share one parent, and
every action of that parent leads into a set of several nodes.  The two
halves:

* **sequential rationality** -- at every information set, the prescribed
  strategy maximizes the owner's expected payoff under the stated beliefs.
  Three granularities are reported: the weak test against *all* alternative
  strategies of the owner (gain must be <= 0), the strict test against
  one-shot deviations at the set itself (every other action must do strictly
  worse), and per-node action dominance (with declared tie exemptions where
  several actions are exactly payoff-equal).
* **consistency** -- the assessment is the limit of fully-mixed strategy
  profiles with Bayes-derived beliefs.  Under the sibling rule a node's
  posterior along any such sequence is the probability its parent's set
  puts on the action into it, which tends to that probability under the
  profile itself.  So the consistent belief is unique, on or off the path,
  and ``check_consistency`` tests that equality exactly.

``payoff_crosscheck`` closes the loop with the executable protocol: every
terminal of a game tree is replayed as a full contract scenario and the
ledger deltas must equal the tree's utilities exactly.
"""

from __future__ import annotations

import collections
import functools
import itertools

from . import CodedError, Record
from .ledger import Params, validate_params

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Callable, Iterable, Mapping, Optional

__all__ = [
    "GameError",
    "Node",
    "InfoSet",
    "Game",
    "Assessment",
    "build_game",
    "reference_equilibrium",
    "outcome_distribution",
    "play",
    "check_sequential_rationality",
    "check_consistency",
    "analyze_reference",
    "payoff_crosscheck",
    "terminal_label",
    "family_of",
    "GAME_IDS",
]

class GameError(CodedError):
    """Game-structure or assessment failure."""


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


class Node(Record):
    """One tree node: a decision point (player/info_set/children) or a
    terminal (utilities/label)."""

    node_id: str
    player: Optional[int] = None
    info_set: Optional[str] = None
    children: Optional[Mapping[str, str]] = None  # action -> child node id
    utilities: Optional[tuple[int, int]] = None
    label: Optional[str] = None

    @property
    def is_terminal(self) -> bool:
        return self.utilities is not None

    @property
    def actions(self) -> tuple[str, ...]:
        return tuple(self.children) if self.children else ()


class InfoSet(Record):
    set_id: str
    player: int
    nodes: tuple[str, ...]
    actions: tuple[str, ...]


class Game:
    """A validated two-player extensive-form game with imperfect information."""

    def __init__(
        self,
        game_id: str,
        params: Params,
        nodes: dict[str, Node],
        info_sets: dict[str, InfoSet],
    ) -> None:
        self.game_id = game_id
        self.params = params
        self.nodes = nodes
        self.info_sets = info_sets
        self.root = "v0"
        self.parents: dict[str, tuple[str, str]] = {}  # node -> (parent, action)
        self._validate()

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        if self.root not in self.nodes:
            raise GameError("bad-structure", f"missing root {self.root}")
        seen: set[str] = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise GameError("bad-structure", f"{nid} reached twice (not a tree)")
            seen.add(nid)
            node = self.nodes[nid]
            self._validate_node(node)
            for action, child in (node.children or {}).items():
                if child not in self.nodes:
                    raise GameError("bad-structure", f"{nid} -> unknown child {child}")
                self.parents[child] = (nid, action)
                stack.append(child)
        if seen != set(self.nodes):
            raise GameError("bad-structure", f"unreachable nodes {set(self.nodes) - seen}")
        self._validate_info_sets()

    def _validate_node(self, node: Node) -> None:
        if node.is_terminal:
            if node.children or node.label is None or len(node.utilities) != 2:
                raise GameError("bad-structure", f"malformed terminal {node.node_id}")
        else:
            if not node.children:
                raise GameError("bad-structure", f"{node.node_id} has no actions")
            if node.player not in (1, 2):
                raise GameError("bad-structure", f"{node.node_id} has no player")
            if node.info_set not in self.info_sets:
                raise GameError("bad-structure", f"{node.node_id} in unknown info set")

    def _validate_info_sets(self) -> None:
        decision_nodes = {n.node_id for n in self.nodes.values() if not n.is_terminal}
        covered: set[str] = set()
        for iset in self.info_sets.values():
            for nid in iset.nodes:
                if nid in covered:
                    raise GameError("bad-structure", f"{nid} in two info sets")
                covered.add(nid)
                node = self.nodes.get(nid)
                if node is None or node.is_terminal:
                    raise GameError("bad-structure", f"info set holds non-decision node {nid}")
                if node.info_set != iset.set_id or node.player != iset.player:
                    raise GameError("bad-structure", f"{nid} mislabeled in {iset.set_id}")
                if node.actions != iset.actions:
                    raise GameError("bad-structure", f"{nid} action mismatch in {iset.set_id}")
            # perfect recall: the owner's own action history must be the same
            # at every node of the set (and so no node can precede another)
            histories = {self._own_history(nid, iset.player) for nid in iset.nodes}
            if len(histories) != 1:
                raise GameError("bad-structure", f"{iset.set_id} violates perfect recall")
            # the sibling rule, which the consistency check relies on: one
            # parent, each of whose actions leads into a set of several nodes
            parents = {self.parents.get(nid, (None,))[0] for nid in iset.nodes}
            if len(parents) != 1:
                raise GameError("bad-structure", f"{iset.set_id} spans several parents")
            if len(iset.nodes) > 1 and len(self.nodes[parents.pop()].children) != len(iset.nodes):
                raise GameError("bad-structure",
                                f"{iset.set_id} is entered by only some of its parent's actions")
        if covered != decision_nodes:
            raise GameError("bad-structure", f"info sets miss nodes {decision_nodes - covered}")

    def _own_history(self, nid: str, player: int) -> tuple[tuple[str, str], ...]:
        history = []
        while nid in self.parents:
            nid, action = self.parents[nid]
            node = self.nodes[nid]
            if node.player == player:
                history.append((node.info_set, action))
        return tuple(reversed(history))

    def terminals(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.is_terminal]


# ---------------------------------------------------------------------------
# Payoff cells (exact totals per outcome, as enforced by the contracts)
# ---------------------------------------------------------------------------


def _plain_cell(p: Params, i: int, j: int) -> tuple[int, int]:
    w, c, d, z = p.w, p.c, p.d, p.z
    if i == 0 and j == 0:
        return (w - c, w - c)
    if i == 0:
        return (z, -d)
    if j == 0:
        return (-d, z)
    if i == 1 and j == 1:
        return (w, w)
    return (-d, -d)


def _coalition_cell(p: Params, i: int, j: int) -> tuple[int, int]:
    w, c, d, t, b, z = p.w, p.c, p.d, p.t, p.b, p.z
    return {
        (0, 0): (w - c, w - c), (0, 1): (z - t - b, -d + t + b), (0, 2): (z, -d),
        (1, 0): (-d + t, z - t), (1, 1): (w - b, w + b), (1, 2): (-d + t, -d - t),
        (2, 0): (-d, z), (2, 1): (-d - t - b, -d + t + b), (2, 2): (-d, -d),
    }[i, j]


def _report_cell(p: Params, rho: int, i: int, j: int) -> tuple[int, int]:
    if rho == 0:
        return _plain_cell(p, i, j)
    w, c, ch, d, z = p.w, p.c, p.ch, p.d, p.z
    if rho == 1:
        if i == 0:
            return [(w - c, w - c - ch), (z, -d + w - c), (z, -d + w - c)][j]
        return (-d, z)
    if i == 0:
        return [(w - c, w - c - ch), (z, -d), (z, -d)][j]
    return (-d, z) if j == 0 else (-d, -d)


def _coalition_report_cell(p: Params, rho: int, i: int, j: int) -> tuple[int, int]:
    if rho == 0:
        return _coalition_cell(p, i, j)
    w, c, ch, d, t, b, z = p.w, p.c, p.ch, p.d, p.t, p.b, p.z
    if rho == 1:
        return {
            (0, 0): (w - c, w - c - ch), (0, 1): (z - t - b, -d + w - c + t + b),
            (0, 2): (z, -d + w - c),
            (1, 0): (-d + t, z - t), (1, 1): (-d - b, z + b), (1, 2): (-d + t, z - t),
            (2, 0): (-d, z), (2, 1): (-d - t - b, z + t + b), (2, 2): (-d, z),
        }[i, j]
    return {
        (0, 0): (w - c, w - c - ch), (0, 1): (z - t - b, -d + t + b), (0, 2): (z, -d),
        (1, 0): (-d + t, z - t), (1, 1): (-d - b, -d + b), (1, 2): (-d + t, -d - t),
        (2, 0): (-d, z), (2, 1): (-d - t - b, -d + t + b), (2, 2): (-d, -d),
    }[i, j]


# ---------------------------------------------------------------------------
# The layered model: one family table, one builder
# ---------------------------------------------------------------------------

_INITIATE = ("no_init", "init")
_COLLUDE = ("no_collude", "collude")
_REPORTS = ("no_report", "report_correct", "report_wrong")
_DELIVERIES = ("fx", "r", "other")
# declining a coalition offer ends the game in the family without the
# coalition prefix, with both clouds delivering the true result
_DECLINES = ("no_init", "no_collude")


class _Family(Record):
    """A game family: which optional layers precede the 3x3 delivery block.

    ``cell(params, rho, i, j)`` gives the terminal utilities after report
    ``rho`` (0 without a report layer) and the deliveries ``i`` of player 1
    and ``j`` of player 2; ``equilibrium`` holds the reference action of each
    layer, in order of play.
    """

    coalition: bool  # player 1 initiates a coalition, player 2 colludes
    report: bool  # player 2 may report the (possibly decoy) coalition
    roles: tuple[str, str]  # the names of players 1 and 2
    cell: Callable[[Params, int, int, int], tuple[int, int]]
    equilibrium: tuple[str, ...]

    @property
    def layers(self) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """``(player, actions)`` per layer, in order of play."""
        coalition = ((1, _INITIATE), (2, _COLLUDE)) if self.coalition else ()
        report = ((2, _REPORTS),) if self.report else ()
        return coalition + report + ((1, _DELIVERIES), (2, _DELIVERIES))


_FAMILIES = {
    "g1": _Family(False, False, ("C1", "C2"), _report_cell, ("fx", "fx")),
    "g2": _Family(True, False, ("LDR", "FLR"), _coalition_report_cell,
                  ("init", "collude", "r", "r")),
    "g3": _Family(False, True, ("OTH", "TRA"), _report_cell, ("no_report", "fx", "fx")),
    "g4": _Family(True, True, ("LDR", "FLR"), _coalition_report_cell,
                  ("no_init", "collude", "report_correct", "r", "r")),
}

GAME_IDS = tuple(_FAMILIES)

#: ``(coalition, report)`` -> the id and the role names of that family
_FAMILY_OF = {(f.coalition, f.report): (g, f.roles) for g, f in _FAMILIES.items()}


def family_of(coalition: bool, report: bool) -> tuple[str, tuple[str, str]]:
    """The id and the role names of the family with (or without) the
    coalition prefix and the report layer."""
    return _FAMILY_OF[coalition, report]


@functools.lru_cache(maxsize=None)
def _layout(game_id: str):
    """Number the family's nodes layer by layer, breadth first: ``v0, v1, ...``
    for nodes that continue the engagement and ``u0, u1`` for declined
    offers.  No player sees the move just before its own, so the decision
    children of one node form one info set; info sets are named per player
    in order of play, with a ``.k`` suffix only if the player owns several.

    Returns the decision nodes, the info sets, and each terminal's payoff
    cell ``(rho, i, j)`` (``None`` for a declined offer).  Cached: a family
    is laid out once per process, and its dicts are only read."""
    layers = _FAMILIES[game_id].layers
    v_ids, u_ids = itertools.count(1), itertools.count()
    groups = [(0, ("v0",))]  # (layer, sibling decision nodes), in order of play
    cells: dict[str, tuple[int, ...]] = {"v0": ()}  # report and delivery indices so far
    children_of: dict[str, dict[str, str]] = {}
    terminals: dict[str, Optional[tuple[int, ...]]] = {}
    for depth, (_, actions) in enumerate(layers):
        last = depth == len(layers) - 1
        for nid in [n for layer, members in groups if layer == depth for n in members]:
            children = children_of[nid] = {}
            for k, action in enumerate(actions):
                if action in _DECLINES:
                    children[action] = child = f"u{next(u_ids)}"
                    terminals[child] = None
                    continue
                children[action] = child = f"v{next(v_ids)}"
                # accepting a coalition move leaves the payoff cell open
                cells[child] = cells[nid] if actions[0] in _DECLINES else cells[nid] + (k,)
                if last:  # rho is 0 without a report layer
                    terminals[child] = (0,) * (3 - len(cells[child])) + cells[child]
            if not last:
                groups.append((depth + 1, tuple(c for c in children.values() if c not in terminals)))
    owned = collections.Counter(layers[depth][0] for depth, _ in groups)
    numbered: collections.Counter = collections.Counter()
    decisions: dict[str, Node] = {}
    info_sets: dict[str, InfoSet] = {}
    for depth, members in groups:
        player, actions = layers[depth]
        numbered[player] += 1
        set_id = f"I{player}.{numbered[player]}" if owned[player] > 1 else f"I{player}"
        info_sets[set_id] = InfoSet(set_id, player, members, actions)
        for nid in members:
            decisions[nid] = Node(nid, player=player, info_set=set_id, children=children_of[nid])
    return decisions, info_sets, terminals


def terminal_label(game_id: str, path: Iterable[str]) -> str:
    """Label of the terminal that the actions of ``path``, in order of play,
    reach from the root of the family ``game_id``."""
    decisions, nid = _layout(game_id)[0], "v0"
    for action in path:
        nid = decisions[nid].children[action]
    return f"{game_id.upper()}:{nid}"


def build_game(game_id: str, params: Params) -> Game:
    if game_id not in _FAMILIES:
        raise GameError("unknown-game", f"no game {game_id!r}")
    family, (decisions, info_sets, terminals) = _FAMILIES[game_id], _layout(game_id)
    plain = family_of(False, family.report)[0]
    nodes = dict(decisions)
    for nid, cell in terminals.items():
        if cell is None:
            utilities = _FAMILIES[plain].cell(params, 0, 0, 0)
            label = terminal_label(plain, ("no_report",) * family.report + ("fx", "fx"))
        else:
            utilities, label = family.cell(params, *cell), f"{game_id.upper()}:{nid}"
        nodes[nid] = Node(nid, utilities=utilities, label=label)
    return Game(game_id, params, nodes, dict(info_sets))


# ---------------------------------------------------------------------------
# Assessments
# ---------------------------------------------------------------------------


class Assessment(Record):
    """A behavior-strategy profile plus a belief system, both per info set."""

    profile: Mapping[str, Mapping[str, int | Fraction]]
    beliefs: Mapping[str, Mapping[str, int | Fraction]]


def validate_assessment(game: Game, assessment: Assessment) -> None:
    for iset in game.info_sets.values():
        dist = assessment.profile.get(iset.set_id)
        if dist is None or set(dist) - set(iset.actions):
            raise GameError("bad-assessment", f"profile malformed at {iset.set_id}")
        if any(pr < 0 for pr in dist.values()) or sum(dist.values()) != 1:
            raise GameError("bad-assessment", f"profile not a distribution at {iset.set_id}")
        beliefs = assessment.beliefs.get(iset.set_id)
        if beliefs is None or set(beliefs) - set(iset.nodes):
            raise GameError("bad-assessment", f"beliefs malformed at {iset.set_id}")
        if any(pr < 0 for pr in beliefs.values()) or sum(beliefs.values()) != 1:
            raise GameError("bad-assessment", f"beliefs not a distribution at {iset.set_id}")


def _pure(action: str, actions: tuple[str, ...]) -> dict[str, int]:
    return {a: int(a == action) for a in actions}


def reference_equilibrium(game: Game) -> Assessment:
    """The candidate sequential equilibrium for each game family:

    g1 -- both clouds deliver the true result.
    g2 -- the ringleader initiates, the follower colludes, both deliver the
          agreed wrong result.
    g3 -- nobody reports, both deliver the true result (and would do so after
          any report).
    g4 -- the ringleader does not initiate; the follower would collude,
          report correctly, and deliver the agreed wrong result throughout.

    Beliefs are the consistent ones (``check_consistency``): the nodes of a
    multi-node info set are siblings, so each gets the probability its
    parent's info set puts on the action that leads to it.
    """
    if game.game_id not in _FAMILIES:
        raise GameError("unknown-game", game.game_id)
    moves = _FAMILIES[game.game_id].equilibrium

    def depth(nid: str) -> int:
        return 1 + depth(game.parents[nid][0]) if nid in game.parents else 0

    profile = {set_id: _pure(moves[depth(iset.nodes[0])], iset.actions)
               for set_id, iset in game.info_sets.items()}
    beliefs = {set_id: _entering(game, iset, profile) for set_id, iset in game.info_sets.items()}
    assessment = Assessment(profile=profile, beliefs=beliefs)
    validate_assessment(game, assessment)
    return assessment


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _node_values(game: Game, profile: Mapping) -> dict[str, tuple]:
    """Both players' expected payoffs from every node on when everyone
    follows ``profile``, in one bottom-up pass over the tree."""
    values: dict[str, tuple] = {}

    def visit(nid: str) -> tuple:
        node = game.nodes[nid]
        if node.is_terminal:
            values[nid] = node.utilities
        else:
            below = {a: visit(child) for a, child in node.children.items()}
            weighted = [(pr, below[a]) for a, pr in profile[node.info_set].items() if pr]
            values[nid] = (sum(pr * u[0] for pr, u in weighted),
                           sum(pr * u[1] for pr, u in weighted))
        return values[nid]

    visit(game.root)
    return values


def outcome_distribution(game: Game, profile: Mapping) -> dict[str, int | Fraction]:
    """Probability of each terminal node when play starts at the root."""
    dist: dict[str, int | Fraction] = {}
    stack: list[tuple[str, int | Fraction]] = [(game.root, 1)]
    while stack:
        nid, pr = stack.pop()
        node = game.nodes[nid]
        if node.is_terminal:
            dist[nid] = dist.get(nid, 0) + pr
            continue
        for action, child in node.children.items():
            p_a = profile[node.info_set].get(action, 0)
            if p_a:
                stack.append((child, pr * p_a))
    return dist


def play(game: Game, profile: Mapping) -> dict[str, int | Fraction]:
    """Distribution over terminal labels when everyone follows ``profile``."""
    labels: dict[str, int | Fraction] = {}
    for nid, pr in outcome_distribution(game, profile).items():
        label = game.nodes[nid].label
        labels[label] = labels.get(label, 0) + pr
    return labels


# ---------------------------------------------------------------------------
# Sequential rationality
# ---------------------------------------------------------------------------

# nodes where several actions are exactly payoff-equal by construction, so
# only weak optimality can hold there (the stated beliefs put zero weight on
# these nodes)
_NODE_TIE_EXEMPT: dict[str, frozenset[tuple[str, str]]] = {
    "g3": frozenset({("v8", "r"), ("v8", "other"), ("v9", "r"), ("v9", "other")}),
}


class NodeCheck(Record):
    node_id: str
    action: str
    value: int | Fraction
    eq_value: int | Fraction
    relation: str  # "worse" | "tie-exempt" | "tie" | "better"


class InfoSetCheck(Record):
    set_id: str
    player: int
    eq_value: int | Fraction
    one_shot_values: Mapping[str, int | Fraction]
    full_deviation_max_gain: int | Fraction
    weak_ok: bool
    strict_ok: bool
    nodes_ok: bool
    node_checks: tuple[NodeCheck, ...]


class RationalityReport(Record):
    game_id: str
    weak_ok: bool
    strict_ok: bool
    nodes_ok: bool
    checks: tuple[InfoSetCheck, ...]

    @property
    def ok(self) -> bool:
        return self.weak_ok and self.strict_ok and self.nodes_ok


def _best_response(game: Game, set_id: str, weights: Mapping, profile: Mapping) -> int | Fraction:
    """The owner's best pure continuation value from ``set_id``, its nodes
    weighted by ``weights`` and everyone else following ``profile``.  Under
    perfect recall each later info set of the owner follows one action here,
    so the sets below separate and are maximised one by one."""
    iset, values = game.info_sets[set_id], []
    for action in iset.actions:
        value, below = 0, collections.defaultdict(dict)
        stack = [(game.nodes[h].children[action], w) for h, w in weights.items() if w]
        while stack:
            nid, w = stack.pop()
            node = game.nodes[nid]
            if node.is_terminal:
                value += w * node.utilities[iset.player - 1]
            elif node.player == iset.player:
                below[node.info_set][nid] = w
            else:
                stack += [(node.children[a], w * pr) for a, pr in profile[node.info_set].items() if pr]
        values.append(value + sum(_best_response(game, s, ws, profile) for s, ws in below.items()))
    return max(values)


def check_sequential_rationality(game: Game, assessment: Assessment) -> RationalityReport:
    """Check the assessment at every information set.

    * weak: no alternative full strategy of the owner gains anything under
      the stated beliefs (max gain <= 0).  The best one is found by backward
      induction over the owner's later info sets, which is exact because
      ``Game`` validates perfect recall;
    * strict: every one-shot deviation at the set itself does strictly worse;
    * nodes: at every single node of the set the prescribed action strictly
      beats each alternative, except at declared payoff-tie nodes, where
      exact equality is asserted instead.

    Every value except the full deviations' is read from one table of node
    values under the profile.  Under perfect recall no node of a set lies
    below another node of the same set, so deviating to ``a`` at node ``h``
    is worth exactly the profile's value at ``h``'s ``a``-child.
    """
    validate_assessment(game, assessment)
    exempt = _NODE_TIE_EXEMPT.get(game.game_id, frozenset())
    values = _node_values(game, assessment.profile)
    checks = []
    for set_id in sorted(game.info_sets):
        iset = game.info_sets[set_id]
        player = iset.player
        beliefs = assessment.beliefs[set_id]
        support = {a for a, pr in assessment.profile[set_id].items() if pr}
        # (node, its owner's value under the profile, its children)
        nodes = [(h, values[h][player - 1], game.nodes[h].children) for h in iset.nodes]
        eq_value = sum(beliefs.get(h, 0) * eq_h for h, eq_h, _ in nodes)

        # one-shot deviations at this set
        one_shot = {
            action: sum(beliefs.get(h, 0) * values[children[action]][player - 1]
                        for h, _, children in nodes)
            for action in iset.actions
        }
        strict_ok = all(
            one_shot[a] < eq_value for a in iset.actions if a not in support
        )

        # full deviations: the owner's best pure strategy from here on
        max_gain = _best_response(game, set_id, beliefs, assessment.profile) - eq_value
        weak_ok = max_gain <= 0

        # per-node dominance of the prescribed action
        node_checks = []
        nodes_ok = True
        for h, eq_h, children in nodes:
            for action in iset.actions:
                if action in support:
                    continue
                value = values[children[action]][player - 1]
                if (h, action) in exempt:
                    relation = "tie-exempt"
                    if value != eq_h:
                        relation = "worse" if value < eq_h else "better"
                        nodes_ok = False  # the declared tie must really be a tie
                elif value < eq_h:
                    relation = "worse"
                elif value == eq_h:
                    relation, nodes_ok = "tie", False
                else:
                    relation, nodes_ok = "better", False
                node_checks.append(NodeCheck(h, action, value, eq_h, relation))

        checks.append(InfoSetCheck(
            set_id=set_id, player=player, eq_value=eq_value,
            one_shot_values=one_shot, full_deviation_max_gain=max_gain,
            weak_ok=weak_ok, strict_ok=strict_ok, nodes_ok=nodes_ok,
            node_checks=tuple(node_checks),
        ))
    return RationalityReport(
        game_id=game.game_id,
        weak_ok=all(c.weak_ok for c in checks),
        strict_ok=all(c.strict_ok for c in checks),
        nodes_ok=all(c.nodes_ok for c in checks),
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------


def _entering(game: Game, iset: InfoSet, weights: Mapping) -> dict:
    """The sibling rule: the nodes of a set share one parent, and each
    action of it leads into the set if the set has several nodes (``Game``
    validates both).  So each node's posterior weight is the weight the
    parent's set puts on the action into it; a lone node's is 1."""
    if len(iset.nodes) == 1:
        return {iset.nodes[0]: 1}
    dist = weights[game.nodes[game.parents[iset.nodes[0]][0]].info_set]
    return {h: dist.get(game.parents[h][1], 0) for h in iset.nodes}


def check_consistency(game: Game, assessment: Assessment) -> tuple[tuple, ...]:
    """The beliefs at which the assessment is not consistent, as
    ``(set_id, node, belief, limit)``; none means it is consistent.

    Along any fully-mixed sequence of profiles that tends to the
    assessment's, a node's Bayes posterior is the sequence's probability on
    the action into it (``_entering``), so the posteriors tend to ``limit``,
    that probability under the assessment's own profile.  The consistent
    belief is therefore unique, and consistency is exact equality with it,
    with no sequence built.

    Raises ``GameError("bad-assessment")`` when the profile or the belief
    map lacks an info set; their values are compared, not validated."""
    for set_id in game.info_sets:
        if set_id not in assessment.profile or set_id not in assessment.beliefs:
            raise GameError("bad-assessment", f"no profile or beliefs at {set_id}")
    return tuple((set_id, h, assessment.beliefs[set_id].get(h, 0), limit)
                 for set_id, iset in game.info_sets.items()
                 for h, limit in _entering(game, iset, assessment.profile).items()
                 if assessment.beliefs[set_id].get(h, 0) != limit)


# ---------------------------------------------------------------------------
# Reference analysis (game + equilibrium + both checks)
# ---------------------------------------------------------------------------


class AnalysisReport(Record):
    game: Game
    params_violations: tuple[str, ...]
    rationality: RationalityReport
    mismatches: tuple[tuple, ...]  # ``check_consistency``'s entries
    outcome: Mapping[str, int | Fraction]
    notes: tuple[str, ...]

    @property
    def consistency_ok(self) -> bool:
        return not self.mismatches

    @property
    def equilibrium_ok(self) -> bool:
        return self.rationality.ok and self.consistency_ok

    @property
    def ok(self) -> bool:
        return not self.params_violations and self.equilibrium_ok


def analyze_reference(game_id: str, params: Params) -> AnalysisReport:
    """Build the game, its reference equilibrium, and run both equilibrium
    checks plus parameter validation.  The report holds the game, for
    ``payoff_crosscheck``."""
    game = build_game(game_id, params)
    assessment = reference_equilibrium(game)
    rationality = check_sequential_rationality(game, assessment)
    notes = []
    if game_id == "g4":
        bound = params.z + params.d
        status = "satisfied" if params.t > bound else "NOT satisfied"
        notes.append(
            "g4-followup-deposit: the stated post-report strategies are "
            f"sequentially rational only if t > z + d; here t={params.t}, "
            f"z + d = {bound} ({status})"
        )
    return AnalysisReport(
        game=game,
        params_violations=tuple(validate_params(params)),
        rationality=rationality,
        mismatches=check_consistency(game, assessment),
        outcome=play(game, assessment.profile),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Protocol crosscheck
# ---------------------------------------------------------------------------


def _scenario_grid(game: Game):
    """Yield ``(terminal node id, strat1, strat2, traitor_enabled)`` covering
    every terminal of the game with a concrete protocol scenario: each action
    on the path from the root sets one field of its player's strategy."""
    from .protocol import CloudStrategy, CtpAction, ReportChoice, Role

    coalition_roles = {"no_init": Role.HONEST, "init": Role.INITIATE,
                       "no_collude": Role.REJECT, "collude": Role.ACCEPT}
    traitor_enabled = _FAMILIES[game.game_id].report
    for terminal in game.terminals():
        fields: dict[int, dict] = {1: {}, 2: {}}
        nid = terminal.node_id
        while nid in game.parents:
            nid, action = game.parents[nid]
            chosen = fields[game.nodes[nid].player]
            if action in coalition_roles:
                chosen["coalition_role"] = coalition_roles[action]
            elif action in _REPORTS:
                chosen["report_choice"] = ReportChoice(action)
            else:
                chosen["ctp_action"] = CtpAction(action)
        yield (terminal.node_id, CloudStrategy(**fields[1]), CloudStrategy(**fields[2]),
               traitor_enabled)


def payoff_crosscheck(game: Game, gp, seed: int = 7) -> tuple[int, list[dict]]:
    """Replay every terminal of ``game`` as a full contract scenario at the
    game's parameters, every one over the group ``gp`` (a
    ``crypto.GroupParams``), and compare terminal labels and exact money
    deltas against the tree.

    Every cell is the play ``run_scenario`` makes, played by
    ``protocol.play_all``: bids, coalition and report run once per opening,
    not once per cell.

    Returns ``(cells checked, mismatches)``; an empty mismatch list means the
    game tree and the executable protocol agree everywhere.
    """
    from .protocol import Task, play_all

    grid = list(_scenario_grid(game))
    outcomes = play_all(game.params, Task(), [cell[1:] for cell in grid], gp, seed)
    mismatches: list[dict] = []
    for (nid, *_), out in zip(grid, outcomes):
        node = game.nodes[nid]
        actual = (out.deltas["cloud1"], out.deltas["cloud2"])
        if out.terminal_label != node.label or actual != node.utilities:
            mismatches.append({
                "node": nid,
                "expected_label": node.label,
                "actual_label": out.terminal_label,
                "expected_deltas": node.utilities,
                "actual_deltas": actual,
            })
    return len(grid), mismatches
