from fractions import Fraction

import pytest

from germlab.cantorv import GEN_VA, ZERO_SEQ, Cylinders
from germlab.chabauty import SubgroupSpec, ball
from germlab.cosets import cyclic_group
from germlab.fullgroups import FullGroupElement, schreier_patch
from germlab.kernel import BudgetError, GroupElement, Immutable, check_budget
from germlab.plcircle import F_GROUP, GEN_A, ArcSet
from germlab.projline import LM_A
from germlab.scalars import Dyadic, QuadExt
from germlab.suites import _tree_pair
from germlab.treesgff import TreeAut
from test_protocol import _subclasses


def _immutable_values():
    pair = _tree_pair()
    return [
        Dyadic(3, 2), QuadExt(1, 1),
        ZERO_SEQ, Cylinders.of("01"), GEN_VA,
        GEN_A, ArcSet.of((Fraction(1, 4), Fraction(1, 2))),
        LM_A.maps[0], LM_A,
        pair, TreeAut.identity(pair),
        FullGroupElement.identity(), schreier_patch(Cylinders.full(), 1, ZERO_SEQ, 4),
        F_GROUP, ball(F_GROUP, 1), SubgroupSpec.trivial(), cyclic_group(3),
    ]


def test_every_immutable_class_is_covered():
    values = {type(v) for v in _immutable_values()}
    assert len(values) == 17
    assert values == _subclasses(Immutable) - {GroupElement}


@pytest.mark.parametrize("value", _immutable_values(), ids=lambda v: type(v).__name__)
def test_assignment_raises_with_the_class_name(value):
    name = type(value).__name__
    for attr in (*type(value).__slots__, "anything"):
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            setattr(value, attr, None)


def test_check_budget_boundary(monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "10")
    check_budget(10, "10 widgets")
    with pytest.raises(BudgetError) as caught:
        check_budget(11, "11 widgets")
    assert str(caught.value) == "11 widgets exceed the 10-element budget"
