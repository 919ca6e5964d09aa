import pickle

import pytest

import rosa.errors
from rosa.errors import (CheckpointFormatError, ConfigError,
                         ContractViolationError, InvalidInputError,
                         NumericError, RankTooLargeError, RosaError,
                         ShapeError, SingularMatrixError)

# One instance of every error class, with its fields.
EXAMPLES = {
    RosaError: (RosaError("base"), {}),
    InvalidInputError: (InvalidInputError("non-finite entries"), {}),
    ShapeError: (ShapeError("operands differ", (3, 4), (4,)),
                 {"left": (3, 4), "right": (4,)}),
    RankTooLargeError: (RankTooLargeError("rank 9 > 8"), {}),
    SingularMatrixError: (SingularMatrixError("rank deficient"), {}),
    ContractViolationError: (ContractViolationError("stale cache"), {}),
    ConfigError: (ConfigError("lr", "must be > 0"), {"field": "lr"}),
    CheckpointFormatError: (CheckpointFormatError("bad magic", 17),
                            {"offset": 17}),
    NumericError: (NumericError("loss became non-finite"), {}),
}


def all_subclasses(cls):
    out = {cls}
    for sub in cls.__subclasses__():
        out |= all_subclasses(sub)
    return out


def test_examples_cover_every_error_class():
    defined = {cls for cls in all_subclasses(RosaError)
               if cls.__module__ == rosa.errors.__name__}
    assert defined == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    error, fields = EXAMPLES[cls]
    copy = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    for name, value in fields.items():
        assert getattr(copy, name) == value
