"""Imported only under TYPE_CHECKING: must be flagged."""


class Hint:
    pass
