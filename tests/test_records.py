"""The package's records, its contracts and what a cold start imports.

Records are ``collections.namedtuple`` classes built by the package's
``Record`` base: immutable, equal by value and, when every field is
hashable, usable as dict keys.  Contracts are mutable and equal only to
themselves.  A fresh interpreter that imports the CLI, analyzes a game on
toy and runs a scenario on secp256k1 loads neither ``typing``, nor
``dataclasses`` or ``inspect``, nor ``ast``, ``fractions`` or ``decimal``,
nor ``hashlib`` where the interpreter builds its own SHA-256.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from countercollusion import Record, cli, contracts, crypto, gametheory, ledger, protocol
from countercollusion.contracts import (
    ColludersContract,
    DisputeRecord,
    PrisonersContract,
    TraitorsContract,
)
from countercollusion.crypto import (
    Commitment,
    EqProof,
    GroupParams,
    NeqProof,
    Opening,
    commit,
    setup,
)
from countercollusion.gametheory import (
    AnalysisReport,
    Assessment,
    InfoSet,
    InfoSetCheck,
    Node,
    NodeCheck,
    RationalityReport,
    _Family,
    build_game,
)
from countercollusion.ledger import AccountId, Ledger, Params
from countercollusion.protocol import (
    CloudStrategy,
    CtpAction,
    Outcome,
    ReportChoice,
    Role,
    Schedule,
    Task,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: A game is equal only to itself, so both samples of a report share one.
_G1 = build_game("g1", Params(w=100, c=10, ch=201, d=212, t=309, b=5))


def _rationality():
    return RationalityReport("g1", True, True, True, ())


#: One factory per record type; each call builds equal but distinct values.
SAMPLES = {
    AccountId: lambda: AccountId("cloud1"),
    Params: lambda: Params(w=100, c=10, ch=201, d=212, t=309, b=5),
    GroupParams: lambda: setup("secp256k1"),
    Commitment: lambda: Commitment((3, 4)),
    Opening: lambda: Opening(3, 4),
    EqProof: lambda: EqProof((3, 4), 5),
    NeqProof: lambda: NeqProof((3, 4), 5, 6),
    DisputeRecord: lambda: DisputeRecord(Commitment(7), {AccountId("cloud1"): True}),
    Node: lambda: Node("v0", player=1, info_set="I1", children={"fx": "v1"}),
    InfoSet: lambda: InfoSet("I1", 1, ("v0",), ("fx", "r")),
    _Family: lambda: _Family(False, False, ("C1", "C2"), max, ("fx", "fx")),
    Assessment: lambda: Assessment({"I1": {"fx": Fraction(1)}}, {"I1": {"v0": Fraction(1)}}),
    NodeCheck: lambda: NodeCheck("v0", "r", Fraction(-1), Fraction(0), "worse"),
    InfoSetCheck: lambda: InfoSetCheck("I1", 1, Fraction(0), {"r": Fraction(-1)},
                                       Fraction(0), True, True, True, ()),
    RationalityReport: _rationality,
    AnalysisReport: lambda: AnalysisReport(_G1, (), _rationality(), (("I2", "v1", 0, 1),),
                                           {"G1:v1": Fraction(1)}, ()),
    CloudStrategy: lambda: CloudStrategy(Role.INITIATE, ReportChoice.NO_REPORT, CtpAction.R),
    Task: lambda: Task("arithmetic-expression", "3", 2, "x*x"),
    Schedule: lambda: Schedule(T1=11),
    Outcome: lambda: Outcome("G1:v1", "G1", {"cloud1": 90}, {"cloud1": "C1"},
                             ({"time": 0, "tag": "x"},), ("8b",)),
    protocol._Engagement: lambda: protocol._engage(
        Params(w=100, c=10, ch=201, d=212, t=309, b=5), Task(), setup("toy"), 7, None),
}


#: Records the package uses as dict keys.
DICT_KEYS = (AccountId, Params, CloudStrategy)

#: The class-level defaults of each record that has any.
DEFAULTS = {
    AccountId: {"kind": "external"},
    GroupParams: {"tables": crypto._NO_TABLES},
    Node: dict.fromkeys(("player", "info_set", "children", "utilities", "label")),
    CloudStrategy: {"coalition_role": Role.HONEST, "report_choice": ReportChoice.NO_REPORT,
                    "ctp_action": CtpAction.FX},
    Task: {"kind": "iterated-hash", "x": "00", "rounds": 2, "expr": "x", "cost": None},
    Schedule: {"T1": 10, "T2": 20, "T3": 30, "T4": 15, "T5": 35},
}

#: Records whose class body has no docstring.
UNDOCUMENTED = (InfoSet, NodeCheck, InfoSetCheck, RationalityReport, AnalysisReport,
                CloudStrategy, Outcome)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_record_type_has_a_sample():
    records = {obj for module in (ledger, crypto, contracts, protocol, gametheory)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and obj.__module__ == module.__name__}
    assert records == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_behaviour(cls):
    a, b = SAMPLES[cls](), SAMPLES[cls]()
    assert type(a) is cls
    fields = list(cls.__annotations__)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b and not a != b
    if all(_hashable(getattr(a, name)) for name in fields):
        assert hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
    else:
        assert cls not in DICT_KEYS and not _hashable(a)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_fields_defaults_and_names(cls):
    fields = tuple(cls.__annotations__)
    assert cls._fields == fields and cls.__match_args__ == fields
    assert cls._field_defaults == DEFAULTS.get(cls, {})
    assert cls.__qualname__ == cls.__name__
    assert getattr(importlib.import_module(cls.__module__), cls.__qualname__) is cls
    sample = SAMPLES[cls]()
    assert repr(sample) == "%s(%s)" % (
        cls.__name__, ", ".join(f"{name}={value!r}" for name, value in zip(fields, sample)))
    generated = "%s(%s)" % (cls.__name__, ", ".join(fields))
    assert (cls.__doc__ == generated) == (cls in UNDOCUMENTED)


def test_record_builds_its_body_as_a_namedtuple():
    class Point(Record):
        """A point."""

        x: int
        y: NoSuchName = 0  # read as a string, never evaluated

        @property
        def norm(self) -> int:
            return abs(self.x) + abs(self.y)

    assert Point(3, -4).norm == 7 and Point(1) == (1, 0) == Point(x=1)
    assert Point(1)._replace(y=2) == Point(1, 2) and repr(Point(1)) == "Point(x=1, y=0)"
    assert Point.__annotations__ == {"x": "int", "y": "NoSuchName"}
    assert Point.__doc__ == "A point." and Point.__module__ == __name__
    assert Point.__qualname__ == "test_record_builds_its_body_as_a_namedtuple.<locals>.Point"
    assert not issubclass(Point, Record)


def test_record_rejects_a_field_without_default_after_one_with():
    with pytest.raises(TypeError, match="field b without a default follows default field a$"):
        class Bad(Record):
            a: int = 1
            b: int
    with pytest.raises(TypeError, match="field c without a default follows default field b$"):
        class Worse(Record):
            a: int
            b: int = 1
            c: int
            d: int = 2


def test_record_rejects_a_field_named_with_an_underscore():
    with pytest.raises(ValueError, match="underscore: '_a'"):
        class Bad(Record):
            _a: int


def test_group_params_tables_compare_and_default():
    secp = setup("secp256k1")
    assert secp.tables and secp == setup("secp256k1")
    assert secp != secp._replace(tables={})
    toy = setup("toy")
    assert toy.tables is crypto._NO_TABLES
    assert GroupParams(toy.group_id, toy.q, toy.P, toy.Q).tables is crypto._NO_TABLES


def test_a_two_field_record_is_not_a_point():
    gp = setup("secp256k1")
    backend = gp.backend
    assert backend.is_member(gp.P)
    assert not backend.is_member(Opening(*gp.P))
    assert not backend.is_member(EqProof(*gp.P))


def test_selftest_roundtrip_catches_a_decoder_returning_another_record(capsys, monkeypatch):
    monkeypatch.setattr(cli, "deserialize_eq_proof",
                        lambda gp, raw: Opening(*crypto.deserialize_eq_proof(gp, raw)))
    assert cli.main(["crypto-selftest", "--group", "toy"]) == 4
    assert '"roundtrip_ok": false' in capsys.readouterr().out


def _contracts():
    gp = setup("toy")
    client, c1, c2, ttp = (AccountId(n) for n in ("client", "cloud1", "cloud2", "ttp"))
    led = Ledger({client: 5000, c1: 5000, c2: 5000, ttp: 0})
    com = commit(gp, 1, 2)
    ctp = PrisonersContract.create(led, gp, client, ttp, com, com, 100, 212, 201, 10, 20, 30)
    ctp.bid(c1)
    ctp.bid(c2)
    ctc = ColludersContract.create(led, ctp, c1, c2, 309, 5, 15, 35, com, com)
    ctt = TraitorsContract.create(led, ctp, ctc, client, c2)
    return ctp, ctc, ctt


@pytest.mark.parametrize("index", range(3), ids=["prisoners", "colluders", "traitors"])
def test_a_contract_equals_only_itself(index):
    contract = _contracts()[index]
    twin = type(contract)(**vars(contract))
    assert vars(twin) == vars(contract)
    assert contract == contract and twin != contract
    assert len({contract, twin}) == 2


def test_each_prisoners_contract_has_its_own_workers_and_deliveries():
    a, b = _contracts()[0], _contracts()[0]
    assert a.workers == b.workers and a.workers is not b.workers
    assert a.delivered is not b.delivered


def _loaded_at_cold_start(modules, tmp_path):
    """Which of ``modules`` a fresh interpreter has loaded once it imported
    the CLI, analyzed g4 on toy and run a scenario on secp256k1 through
    ``cli.main``."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import countercollusion.cli\n"
            "countercollusion.cli.main(['analyze', '--game', 'g4', '--t', '314',\n"
            "                           '--out', sys.argv[2] + '/g4.json'])\n"
            "countercollusion.cli.main(['run', '--group', 'secp256k1',\n"
            "                           '--out', sys.argv[2] + '/run.json'])\n"
            f"print(sorted({set(modules)!r} & set(sys.modules)))\n")
    # -S: no site hooks, so only the package and the stdlib it imports count
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC), str(tmp_path)],
                         check=True, capture_output=True, text=True).stdout
    return out.strip()


def test_cold_start_loads_no_typing(tmp_path):
    """Records are built without ``typing.NamedTuple`` and every ``typing``
    name is imported for type checkers only."""
    assert _loaded_at_cold_start({"typing"}, tmp_path) == "[]"


def test_cold_import_loads_no_code_generation(tmp_path):
    assert _loaded_at_cold_start({"dataclasses", "inspect"}, tmp_path) == "[]"


def test_cold_import_loads_neither_ast_nor_fractions(tmp_path):
    """Only arithmetic tasks parse (``ast``), and nothing a command runs
    divides: a pure profile's values and beliefs, the consistency check
    included, stay in ints (``fractions`` would load ``decimal``)."""
    assert _loaded_at_cold_start({"ast", "fractions", "decimal"}, tmp_path) == "[]"


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this interpreter builds no SHA-256 module of its own")
def test_cold_start_loads_no_openssl(tmp_path):
    """Every hash is the interpreter's built-in SHA-256, so no command
    loads ``hashlib`` and with it OpenSSL's ``_hashlib``."""
    assert _loaded_at_cold_start({"hashlib", "_hashlib"}, tmp_path) == "[]"
