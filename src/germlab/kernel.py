"""Rules shared by every module: immutable values, the element budget and
the operators of a group element."""

import os

DEFAULT_BUDGET = 200_000


class BudgetError(RuntimeError):
    """Raised when a computation would pass the element budget.

    The budget bounds the elements a ball or search enumerates, the vertex
    pairs a level check compares and the steps a loop over a finite group
    takes.
    """


def element_budget():
    """The limit: GERMLAB_BUDGET, else DEFAULT_BUDGET."""
    text = os.environ.get("GERMLAB_BUDGET", str(DEFAULT_BUDGET))
    try:
        return int(text)
    except ValueError:
        raise ValueError("GERMLAB_BUDGET must be an integer, got %r" % text) from None


def check_budget(count, subject):
    """Raise BudgetError, before a loop of count steps, when count passes
    the budget; subject names the steps with their count."""
    if count > (limit := element_budget()):
        raise BudgetError("%s exceed the %d-element budget" % (subject, limit))


class Immutable:
    """Base of the value classes: public assignment raises AttributeError,
    so constructors store their fields with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class GroupElement(Immutable):
    """Mixin for kernels that define ``*`` and ``inverse()``."""

    __slots__ = ()

    def __pow__(self, n: int):
        """Square-and-multiply; ``g ** 0`` is ``g * g^-1``."""
        if n < 0:
            return self.inverse() ** -n
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self * self.inverse() if result is None else result
