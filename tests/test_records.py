"""The result records are immutable NamedTuples.

Every record the library returns keeps the field names, order, defaults and
repr it had as a frozen dataclass: fields are read by name, assigning one
raises, and ``_replace`` gives a changed copy.  The inputs that validate
(``TranslucentType``, ``OthersBehaviorModel``, ``CounterfactualStructure``)
stay dataclasses.
"""

import dataclasses
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from translucent import (TranslucentType, cooperation_condition, is_cooperation_rational,
                         make_prisoners_dilemma)
from translucent.beliefs import OthersBehaviorModel, RationalityReport
from translucent.closed_form import CooperationVerdict
from translucent.counterfactual import (CounterfactualStructure, StateUtilityReport,
                                        Violation, build_nash_structure, is_rational_at,
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
    broken = dataclasses.replace(m, beliefs=(({},) + m.beliefs[0][1:], *m.beliefs[1:]))
    assert {type(v) for v in validate_structure(broken)} == {Violation}


def test_inputs_that_validate_stay_dataclasses():
    for cls in (TranslucentType, OthersBehaviorModel, CounterfactualStructure):
        assert dataclasses.is_dataclass(cls)


def test_readme_quick_tour_repr():
    """The quick tour's commented repr, its two lines joined, is the repr."""
    text = README.read_text()
    found = re.search(r"^# (RationalityReport\(.*,)\n#\s+(.*\))$", text, re.M)
    assert found is not None
    shown = found.group(1) + " " + found.group(2)
    d = make_prisoners_dilemma(4, 1)
    assert repr(is_cooperation_rational(d, 0, TranslucentType(F(1, 2), F(1, 2)))) == shown
