"""R001 fixture: both directions of the insert/insert_many pairing."""

import abc


class StreamSummary(abc.ABC):
    """Stub of the real base so the linter can resolve inheritance."""

    @abc.abstractmethod
    def insert(self, item):
        ...

    def insert_many(self, items):
        for item in items:
            self.insert(item)


class OrphanBatch:
    """Defines insert_many with no per-event insert anywhere."""

    def insert_many(self, items):  # R001 line: direction A
        pass


class MissingBatch(StreamSummary):
    """Overrides insert but keeps the base per-event insert_many loop."""

    def insert(self, item):  # R001 line: direction B
        pass

    def query(self, item):
        return 0.0

    def top_k(self, k):
        return []


class PairedFine(StreamSummary):
    """Control: both methods overridden — must NOT be flagged."""

    def insert(self, item):
        pass

    def insert_many(self, items):
        pass

    def query(self, item):
        return 0.0

    def top_k(self, k):
        return []


class WeightedBatch(StreamSummary):
    """The batch takes a weighting that the per-event insert does not."""

    def insert(self, item):
        pass

    def insert_many(self, items, counts=None):  # R001 line: batch shape
        pass

    def query(self, item):
        return 0.0

    def top_k(self, k):
        return []


class ShapedFine(StreamSummary):
    """Control: the batch takes exactly the parameters insert takes."""

    def insert(self, item, delta=1):
        pass

    def insert_many(self, items, delta=1):
        pass

    def query(self, item):
        return 0.0

    def top_k(self, k):
        return []
