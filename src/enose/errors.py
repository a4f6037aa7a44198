"""Exception hierarchy shared by all pipeline stages."""

from __future__ import annotations

from contextlib import contextmanager


class ENoseError(Exception):
    """Base class for every toolkit error."""

    def __reduce__(self):
        # rebuilt from its args and attributes without __init__, so that an error whose
        # __init__ takes other arguments (NonFiniteLoss) comes back from a forked child
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args: tuple, state: dict) -> ENoseError:
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


@contextmanager
def naming(path: str):
    """A toolkit error raised inside gets ``path`` prefixed to its message."""
    try:
        yield
    except ENoseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


# --- ingestion ---------------------------------------------------------------

class EmptyRun(ENoseError):
    pass


class MalformedCell(ENoseError):
    def __init__(self, row: int, col: int, token: str):
        super().__init__(f"non-numeric or non-finite token {token!r} at data row {row}, column {col}")
        self.row = row
        self.col = col
        self.token = token


class RaggedRow(ENoseError):
    def __init__(self, row: int, expected: int, got: int):
        super().__init__(f"data row {row} has {got} cells, expected {expected}")
        self.row = row


class SchemaMismatch(ENoseError):
    pass


class EmptyInput(ENoseError):
    pass


# --- splitting ---------------------------------------------------------------

class InvalidFraction(ENoseError):
    pass


class ClassTooSmall(ENoseError):
    pass


class TooFewPerClass(ENoseError):
    pass


class BadK(ENoseError):
    pass


# --- preprocessing / reduction -----------------------------------------------

class EmptyMatrix(ENoseError):
    pass


class MissingColumn(ENoseError):
    pass


class BadComponentCount(ENoseError):
    pass


class DegenerateInput(ENoseError):
    pass


class DimensionMismatch(ENoseError):
    pass


class SingleClass(ENoseError):
    pass


# --- classifiers -------------------------------------------------------------

class ShapeMismatch(ENoseError):
    pass


class DegenerateLabels(ENoseError):
    pass


class ProblemTooLarge(ENoseError):
    pass


# --- neural ------------------------------------------------------------------

class BadSpec(ENoseError):
    pass


class UnknownVariant(ENoseError):
    pass


class NonFiniteLoss(ENoseError):
    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss


# --- ensemble / evaluation ---------------------------------------------------

class ClassTableMismatch(ENoseError):
    pass


class EmptyEnsemble(ENoseError):
    pass


class EmptyGrid(ENoseError):
    pass


class LabelOutOfRange(ENoseError):
    pass


class NonFiniteScores(ENoseError):
    pass


class BadSizes(ENoseError):
    pass


class WorkerDied(ENoseError):
    def __init__(self, message: str, unit: int):
        super().__init__(message)
        self.unit = unit  # the lowest unit left without a result


# --- serialization -----------------------------------------------------------

class CorruptModel(ENoseError):
    pass


# --- cli ---------------------------------------------------------------------

class ConfigError(ENoseError):
    pass
