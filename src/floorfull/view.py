"""A read-only sequence whose items are built only when they are read."""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence


class View(Sequence):
    """The items item(k) for k in `indices`, each built when it is read.

    `in_order`, when given, returns an iterator over the same items, for a
    list whose next item is cheaper to build from the last one, or that
    cannot be indexed directly; iterating the view reads it.  A view
    compares, hashes and prints as the tuple of its items, and a slice of
    it is that tuple.

    >>> squares = View(range(1, 5), lambda k: k * k)
    >>> len(squares), squares[-1], squares[1:3]
    (4, 16, (4, 9))
    >>> squares == [1, 4, 9, 16], squares
    (True, (1, 4, 9, 16))
    """

    def __init__(self, indices: range, item: Callable, in_order: Callable[[], Iterator] | None = None):
        self.indices, self.item, self._in_order = indices, item, in_order

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.item, self.indices[i]))
        return self.item(self.indices[i])  # IndexError past either end, as a tuple's

    def __iter__(self) -> Iterator:
        return self._in_order() if self._in_order else map(self.item, self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return False
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))
