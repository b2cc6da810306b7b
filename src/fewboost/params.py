"""Training parameter surface.

The dataclass defaults are the engine's standard (large-sample) values; the
few-shot preset lives in :mod:`fewboost.fsl`. Every field is independently
settable so experiments can isolate the effect of a single knob. Every field
is type-checked when set: integer fields take Python or numpy integers,
float fields take any finite real number, ``extra_trees`` takes a ``bool``
and ``objective`` a string; a ``bool`` is not a number here. A numpy scalar
is stored as the Python number it equals, so parameters always serialize to
JSON.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import ValidationError

OBJECTIVES = ("binary-logloss", "mse", "mae")


@dataclass(frozen=True)
class Params:
    extra_trees: bool = False
    num_leaves: int = 31
    eta: float = 0.1
    min_data_in_leaf: int = 20
    feature_fraction: float = 1.0
    bagging_fraction: float = 1.0
    bagging_freq: int = 0
    min_data_per_group: int = 100
    cat_l2: float = 10.0
    cat_smooth: float = 10.0
    max_cat_to_onehot: int = 4
    min_data_in_bin: int = 3
    max_bin: int = 255
    n_rounds: int = 100
    objective: str = "binary-logloss"
    seed: int = 0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _checked(f.name, f.type, getattr(self, f.name)))
        if self.num_leaves < 2:
            raise ValidationError("num_leaves must be >= 2")
        if not 0.0 < self.eta <= 1.0:
            raise ValidationError("eta must be in (0, 1]")
        if self.min_data_in_leaf < 1:
            raise ValidationError("min_data_in_leaf must be >= 1")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise ValidationError("feature_fraction must be in (0, 1]")
        if not 0.0 < self.bagging_fraction <= 1.0:
            raise ValidationError("bagging_fraction must be in (0, 1]")
        if self.bagging_freq < 0:
            raise ValidationError("bagging_freq must be >= 0")
        if self.min_data_per_group < 1:
            raise ValidationError("min_data_per_group must be >= 1")
        if self.cat_l2 < 0 or self.cat_smooth < 0:
            raise ValidationError("cat_l2 and cat_smooth must be >= 0")
        if self.max_cat_to_onehot < 1:
            raise ValidationError("max_cat_to_onehot must be >= 1")
        if self.min_data_in_bin < 1:
            raise ValidationError("min_data_in_bin must be >= 1")
        if self.max_bin < 2:
            raise ValidationError("max_bin must be >= 2")
        if self.n_rounds < 0:
            raise ValidationError("n_rounds must be >= 0")
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], base: "Params | None" = None) -> "Params":
        """Build from a (possibly partial) mapping, layered over ``base``."""
        if not isinstance(d, Mapping):
            raise ValidationError(f"parameters must be a mapping, got {type(d).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ValidationError(f"unknown parameter(s): {sorted(unknown)}")
        return dataclasses.replace(base if base is not None else cls(), **dict(d))


_WANT = {"bool": "a bool", "str": "a string", "int": "an integer", "float": "a finite real number"}


def _checked(name: str, kind: str, value):
    """``value`` for field ``name`` of annotated type ``kind``, or ValidationError.

    A numpy integer or real comes back as the Python ``int`` or ``float`` it
    equals.
    """
    if kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "str":
        ok = isinstance(value, str)
    elif isinstance(value, bool):  # an int subclass, but neither a count nor a rate
        ok = False
    elif kind == "int":
        ok = isinstance(value, numbers.Integral)
        if ok:
            value = int(value)
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
        if ok and type(value) not in (int, float):
            value = float(value)
    if not ok:
        raise ValidationError(f"{name} must be {_WANT[kind]}, got {type(value).__name__} {value!r}")
    return value
