"""A read-only sequence whose items are built only when they are read."""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence


class View(Sequence):
    """A list as long as `indices` whose items are built when they are read.

    An indexed view reads item(k) for k in `indices`.  A streamed view has
    only `in_order`, which returns an iterator over the items: iterating it
    holds nothing, and its first read by position holds one pass, which
    serves every later one.  A view compares, hashes and prints as the
    tuple of its items, and a slice of it is that tuple.

    >>> squares = View(range(1, 5), lambda k: k * k)
    >>> len(squares), squares[-1], squares[1:3]
    (4, 16, (4, 9))
    >>> squares == [1, 4, 9, 16], squares
    (True, (1, 4, 9, 16))
    >>> View(range(3), in_order=lambda: iter("abc"))[::-1]
    ('c', 'b', 'a')
    """

    def __init__(self, indices: range, item: Callable | None = None, *,
                 in_order: Callable[[], Iterator] | None = None):
        if (item is None) == (in_order is None):
            raise TypeError("a View takes exactly one of item and in_order")
        self.indices, self.item, self._in_order, self._held = indices, item, in_order, None

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):  # IndexError past either end, as a tuple's
        if self.item is None:
            if self._held is None:
                self._held = tuple(self._in_order())
            return self._held[i]
        if isinstance(i, slice):
            return tuple(map(self.item, self.indices[i]))
        return self.item(self.indices[i])

    def __iter__(self) -> Iterator:
        return self._in_order() if self.item is None else map(self.item, self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return False
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))
