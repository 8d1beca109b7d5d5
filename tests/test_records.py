"""The result records are immutable NamedTuples.

Every record the library returns keeps the field names, order, defaults and
repr it had as a frozen dataclass: fields are read by name, assigning one
raises, and ``_replace`` gives a changed copy.  The input records (the
games, ``TranslucentType``, ``CounterfactualStructure`` and the
social-preference parameters) are ``exact._Frozen`` records without the
``dataclasses`` import, with a frozen dataclass's equality, hash, repr and
refusal of assignment, and a ``_replace`` that builds the copy through
``__init__``, as ``dataclasses.replace`` did.
"""

import ast
import re
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

from translucent import (CharnessRabinParams, FehrSchmidtParams, NormalFormGame,
                         SocialDilemma, TranslucentType, cooperation_condition,
                         is_cooperation_rational, make_prisoners_dilemma)
from translucent.beliefs import RationalityReport
from translucent.closed_form import CooperationVerdict
from translucent.counterfactual import (CounterfactualStructure, StateUtilityReport,
                                        Violation, build_nash_structure,
                                        build_typed_pd_structure, is_rational_at,
                                        validate_structure)
from translucent.equilibrium import (CoherenceReport, MixedProfile, TeStructureReport,
                                     TypedTeResult, is_coherent, te_condition_typed,
                                     te_in_structure)
from translucent.games import DilemmaReport, verify_social_dilemma

README = Path(__file__).resolve().parent.parent / "README.md"

# each record, its fields in the former dataclass order, and one instance
RECORDS = [
    (CooperationVerdict, ("rational", "binding_quantity", "threshold"),
     CooperationVerdict(True, F(1, 2), F(1, 4))),
    (RationalityReport, ("rational", "best_deviation", "eu_cooperate",
                         "eu_best_deviation"),
     RationalityReport(True, "D", F(1), F(1))),
    (StateUtilityReport, ("eu", "eu_switch", "rational"),
     StateUtilityReport(F(3), {"C": F(3), "D": F(2)}, True)),
    (Violation, ("axiom", "state", "player", "strategy", "detail"),
     Violation("PR1", 4, 1, "C", "mass 1/2 off the player's strategy")),
    (CoherenceReport, ("coherent", "witness"),
     CoherenceReport(False, (0, "C", "D"))),
    (TeStructureReport, ("holds", "te1", "te2", "te3", "te4"),
     TeStructureReport(False, (), ((1, 0),), (), ((2, 1),))),
    (TypedTeResult, ("kind", "holds", "readings"),
     TypedTeResult("pgg", None, {"n_minus_1": True, "mean": False})),
    (DilemmaReport, ("nash_equilibria", "welfare_maximizers", "unique_nash",
                     "unique_welfare", "dominance_ok"),
     DilemmaReport((("D", "D"),), (("C", "C"),), ("D", "D"), ("C", "C"), True)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,names,record", RECORDS, ids=IDS)
def test_fields_keep_their_order(cls, names, record):
    assert cls._fields == names
    assert isinstance(record, tuple)
    assert tuple(record) == tuple(getattr(record, name) for name in names)
    assert record == tuple(record)
    assert repr(record) == "{}({})".format(
        cls.__name__, ", ".join(f"{name}={getattr(record, name)!r}" for name in names))


@pytest.mark.parametrize("cls,names,record", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, names, record):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


@pytest.mark.parametrize("cls,names,record", RECORDS, ids=IDS)
def test_replace_gives_a_changed_copy(cls, names, record):
    before = tuple(record)
    copy = record._replace(**{names[0]: "changed"})
    assert type(copy) is cls
    assert copy[0] == "changed" and copy[1:] == record[1:]
    assert tuple(record) == before
    assert copy._asdict() == {**record._asdict(), names[0]: "changed"}


def test_defaults_hold():
    assert CoherenceReport(True) == (True, None)
    assert CoherenceReport._field_defaults == {"witness": None}
    assert Violation("NORM", 2) == ("NORM", 2, None, None, "")
    assert Violation._field_defaults == {"player": None, "strategy": None, "detail": ""}
    for cls, _, _ in RECORDS:
        if cls not in (CoherenceReport, Violation):
            assert cls._field_defaults == {}


def test_methods_stay():
    assert str(Violation("PR1", 4, 1, "C", "off")) == (
        "PR1 violated at state 4, player 1, strategy 'C', off")
    assert str(Violation("NORM", 2)) == "NORM violated at state 2"
    report = RECORDS[-1][2]
    assert report.is_social_dilemma
    assert not report._replace(unique_nash=None).is_social_dilemma


def test_library_returns_the_records():
    d = make_prisoners_dilemma(4, 1)
    sigma = MixedProfile.two_point(d, [F(1), F(1)])
    m = build_nash_structure(d, MixedProfile.two_point(d, [F(0), F(0)]))
    returned = [
        cooperation_condition("pd", {"b": 4, "c": 1}, F(1, 2), F(1, 2)),
        is_cooperation_rational(d, 0, TranslucentType(F(1, 2), F(1, 2))),
        is_rational_at(m, 0, 0),
        is_coherent(d.game, sigma),
        te_in_structure(m, MixedProfile.two_point(d, [F(0), F(0)])),
        te_condition_typed("pgg", {"n": 3, "rho": F(3, 5)}, [1, 1, 1], [F(1, 2)] * 3),
        verify_social_dilemma(d.game),
    ]
    expected = [CooperationVerdict, RationalityReport, StateUtilityReport,
                CoherenceReport, TeStructureReport, TypedTeResult, DilemmaReport]
    assert [type(r) for r in returned] == expected
    broken = m._replace(beliefs=(({},) + m.beliefs[0][1:], *m.beliefs[1:]))
    assert {type(v) for v in validate_structure(broken)} == {Violation}


def _other_rule(profile, i):
    return F(0)


_PD = make_prisoners_dilemma(4, 1)
_RULE = "<function make_prisoners_dilemma.<locals>.rule at 0x...>"
_GAME = ("NormalFormGame(num_players=2, strategy_sets=(('C', 'D'), ('C', 'D')), "
         f"payoff_rule={_RULE}, symmetric=True, name='pd')")
# a one-state structure over the pd's strategies, all D
_SETS, _STATES = (("C", "D"), ("C", "D")), (("D", "D"),)
_COLUMNS = {(0, 0): (-1,), (0, 1): (0,), (1, 0): (-1,), (1, 1): (0,)}
_BELIEFS = (({0: F(1)},), ({0: F(1)},))
# the classes that were frozen dataclasses: an instance, an equal one that
# differs only in uncompared fields, one that differs in a compared field,
# the compared fields, and the dataclass repr with the rule's address masked
FROZEN = [
    (_PD.game,
     NormalFormGame(2, [("C", "D"), ("C", "D")], _other_rule, symmetric=True, name="pd"),
     NormalFormGame(2, [("C", "D"), ("C", "D")], _PD.game.payoff_rule, symmetric=True),
     ("num_players", "strategy_sets", "symmetric", "name"), _GAME),
    (_PD, SocialDilemma(_PD.game, "pd", {}, ("D", "D"), ("C", "C")),
     SocialDilemma(_PD.game, "pd", _PD.params, ("C", "C"), ("C", "C")),
     ("game", "kind", "nash_profile", "welfare_profile"),
     f"SocialDilemma(game={_GAME}, kind='pd', params={{'b': Fraction(4, 1), "
     "'c': Fraction(1, 1)}, nash_profile=('D', 'D'), welfare_profile=('C', 'C'))"),
    (FehrSchmidtParams.uniform(2, F(1, 2), F(1, 4)),
     FehrSchmidtParams((0.5, "1/2"), (F(1, 4), Decimal("0.25"))),
     FehrSchmidtParams.uniform(2, F(1, 2), 0), ("a_fs", "b_fs"),
     "FehrSchmidtParams(a_fs=(Fraction(1, 2), Fraction(1, 2)), "
     "b_fs=(Fraction(1, 4), Fraction(1, 4)))"),
    (CharnessRabinParams((F(1, 2), 0), (F(1, 3), 1)),
     CharnessRabinParams((0.5, F(0)), ("1/3", 1.0)),
     CharnessRabinParams((F(1, 2), 0), (F(1, 3), 0)), ("a_cr", "d_cr"),
     "CharnessRabinParams(a_cr=(Fraction(1, 2), Fraction(0, 1)), "
     "d_cr=(Fraction(1, 3), Fraction(1, 1)))"),
    (TranslucentType(F(1, 2), F(1, 4)), TranslucentType(0.5, "1/4"),
     TranslucentType(F(1, 2), Decimal("0.3")), ("alpha", "beta"),
     "TranslucentType(alpha=Fraction(1, 2), beta=Fraction(1, 4))"),
    (CounterfactualStructure(_SETS, _STATES, _COLUMNS, _BELIEFS, aux=((0, 1),)),
     CounterfactualStructure(_SETS, _STATES, {}, (), ((0, 1),), _PD.game),
     CounterfactualStructure(_SETS, _STATES, _COLUMNS, _BELIEFS),
     ("strategy_sets", "states", "aux"),
     "CounterfactualStructure(strategy_sets=(('C', 'D'), ('C', 'D')), "
     "states=(('D', 'D'),), closest_columns={(0, 0): (-1,), (0, 1): (0,), "
     "(1, 0): (-1,), (1, 1): (0,)}, beliefs=(({0: Fraction(1, 1)},), "
     "({0: Fraction(1, 1)},)), aux=((0, 1),), game=None)"),
]


@pytest.mark.parametrize("record,twin,other,compared,shown", FROZEN,
                         ids=[type(record).__name__ for record, *_ in FROZEN])
def test_former_dataclasses_keep_their_behaviour(record, twin, other, compared, shown):
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(tuple(getattr(record, f) for f in compared))
    assert record != other and other != record
    assert record.__eq__(tuple(getattr(record, f) for f in compared)) is NotImplemented
    assert re.sub(r" at 0x[0-9a-f]+>", " at 0x...>", repr(record)) == shown
    for name in (*compared, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)


def test_input_records_replace_through_init():
    """``_replace`` checks the copy again, starts its cached properties
    empty, keeps the fields it is not given, and refuses an unknown one."""
    t = TranslucentType(F(1, 2), F(1, 4))
    assert t._replace(beta="1/3") == TranslucentType(F(1, 2), F(1, 3))
    assert t == TranslucentType(F(1, 2), F(1, 4))
    with pytest.raises(ValueError, match="^beta must lie in"):
        t._replace(beta=2)
    with pytest.raises(TypeError, match="unexpected keyword argument 'gamma'"):
        t._replace(gamma=1)
    with pytest.raises(ValueError, match="at least 2 players"):
        _PD.game._replace(num_players=1)

    m = build_typed_pd_structure(F(1, 2), F(1, 2), F(1, 2), F(1, 2), 4, 1)
    assert is_rational_at(m, 0, 0).rational
    cached = {"_profile_index", "_plans", "_reports", "_labels"}
    assert cached <= set(m.__dict__)
    copy = m._replace(game=None)
    assert not cached & set(copy.__dict__)
    assert copy == m and copy.game is None
    assert all(getattr(copy, name) is getattr(m, name)
               for name in ("strategy_sets", "states", "closest_columns", "beliefs", "aux"))
    dilemma = _PD._replace(params={})
    assert dilemma == _PD and dilemma.params == {} and "_positions" not in dilemma.__dict__
    with pytest.raises(TypeError, match="unexpected keyword argument 'players'"):
        m._replace(players=2)


def test_readme_quick_tour_repr():
    """The quick tour's commented repr, its two lines joined, is the repr."""
    text = README.read_text()
    found = re.search(r"^# (RationalityReport\(.*,)\n#\s+(.*\))$", text, re.M)
    assert found is not None
    shown = found.group(1) + " " + found.group(2)
    d = make_prisoners_dilemma(4, 1)
    assert repr(is_cooperation_rational(d, 0, TranslucentType(F(1, 2), F(1, 2)))) == shown


def test_readme_quick_tour_runs():
    """The quick tour runs statement by statement, and each expression
    equals the literal that opens its trailing comment (a float to within
    1e-12); the multi-line repr, which is no literal, is the test above's."""
    block = re.search(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S).group(1)
    lines = block.splitlines() + [""]
    namespace, compared, unread = {}, [], []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = (lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
                   or lines[stmt.end_lineno].strip())
        assert comment.startswith("# ")
        opening = comment[2:].split()[0]
        try:
            expected = ast.literal_eval(opening)
        except (SyntaxError, ValueError):
            unread.append(opening)
            continue
        assert type(value) is type(expected)
        if isinstance(expected, float):
            assert abs(value - expected) <= 1e-12
        else:
            assert value == expected
        compared.append(opening)
    assert compared == ["True", "True", "[]", "0.11920292202211755"]
    assert unread == ["RationalityReport(rational=True,"]
