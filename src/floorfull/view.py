"""A read-only sequence whose items are built only when they are read."""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence


class View(Sequence):
    """A list of `length` items that `in_order` reads, built when they are read.

    `in_order` returns an iterator over the items: iterating the view
    holds nothing, and its first read by position holds one pass, which
    serves every later one.  A view compares, hashes and prints as the
    tuple of its items, and a slice of it is that tuple.

    >>> squares = View(4, lambda: (k * k for k in range(1, 5)))
    >>> len(squares), squares[-1], squares[1:3]
    (4, 16, (4, 9))
    >>> squares == [1, 4, 9, 16], squares
    (True, (1, 4, 9, 16))
    >>> View(3, lambda: iter("abc"))[::-1]
    ('c', 'b', 'a')
    """

    def __init__(self, length: int, in_order: Callable[[], Iterator]):
        self._length, self._in_order, self._held = length, in_order, None

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):  # IndexError past either end, as a tuple's
        if self._held is None:
            self._held = tuple(self._in_order())
        return self._held[i]

    def __iter__(self) -> Iterator:
        return self._in_order()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return False
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))
