"""Fixture: mutations of a ``# guarded-by:`` attribute outside the lock."""

import threading
from collections import OrderedDict


class GuardedStore:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: OrderedDict[str, int] = OrderedDict()  # guarded-by: _lock
        self._order: OrderedDict[str, int] = (
            OrderedDict()
        )  # guarded-by: _lock

    def admit(self, key: str, value: int) -> None:
        with self._lock:
            self._items[key] = value  # held: must NOT be flagged

    def rogue_assign(self, key: str, value: int) -> None:
        self._items[key] = value  # unguarded subscript store

    def rogue_pop(self, key: str) -> None:
        self._items.pop(key, None)  # unguarded mutator call

    def rogue_clear(self) -> None:
        self._order.clear()  # unguarded; declared on a closing bracket
