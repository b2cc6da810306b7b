import dataclasses
import json
import math

import numpy as np
import pytest

from fewboost.errors import ValidationError
from fewboost.params import Params

FIELDS = {f.name: f.type for f in dataclasses.fields(Params)}
INT_FIELDS = sorted(n for n, t in FIELDS.items() if t == "int")
FLOAT_FIELDS = sorted(n for n, t in FIELDS.items() if t == "float")

# values of the wrong type for each kind of field; a bool is not a number
WRONG = {
    "int": ["4", 4.0, True, None, [4]],
    "float": ["0.1", True, None, math.nan, math.inf],
    "bool": [1, 0, "true", None, np.True_],
    "str": [3, None, b"mse"],
}


def test_every_field_has_a_checked_kind():
    assert set(FIELDS.values()) == set(WRONG)
    assert FIELDS["extra_trees"] == "bool" and FIELDS["objective"] == "str"


@pytest.mark.parametrize("field, value", [
    (name, value) for name, kind in FIELDS.items() for value in WRONG[kind]])
def test_wrong_type_raises_validation_error_naming_the_field(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be "):
        Params(**{field: value})
    with pytest.raises(ValidationError, match=f"^{field} must be "):
        Params.from_dict({field: value})


@pytest.mark.parametrize("field", INT_FIELDS)
def test_integer_fields_take_python_and_numpy_integers(field):
    default = getattr(Params(), field)
    for value in (default, np.int64(default), np.int32(default), np.uint16(default)):
        got = getattr(Params(**{field: value}), field)
        assert type(got) is int and got == default


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_float_fields_take_any_finite_real(field):
    default = getattr(Params(), field)
    for value in (default, np.float64(default), np.float32(default)):
        got = getattr(Params(**{field: value}), field)
        assert type(got) is float and got == float(value)
    whole = Params(**{field: 1})  # an int is a real number, kept as written
    assert getattr(whole, field) == 1


def test_numpy_values_serialize_to_json():
    p = Params(num_leaves=np.int64(7), eta=np.float32(0.5), seed=np.uint32(3))
    assert json.loads(json.dumps(p.to_dict()))["num_leaves"] == 7
    assert Params.from_dict(p.to_dict()) == p


def test_range_checks_still_apply_after_type_checks():
    with pytest.raises(ValidationError, match="num_leaves must be >= 2"):
        Params(num_leaves=np.int64(1))
    with pytest.raises(ValidationError, match="eta must be in"):
        Params(eta=2)


@pytest.mark.parametrize("doc", [[1, 2], "num_leaves", 4, None])
def test_from_dict_requires_a_mapping(doc):
    with pytest.raises(ValidationError, match="parameters must be a mapping"):
        Params.from_dict(doc)
