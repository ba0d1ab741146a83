"""Operators shared by every element kernel."""


class GroupElement:
    """Mixin for kernels that define ``*`` and ``inverse()``."""

    __slots__ = ()

    def __invert__(self):
        return self.inverse()

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
