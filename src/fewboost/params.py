"""Training parameter surface.

The dataclass defaults are the engine's standard (large-sample) values; the
few-shot preset lives in :mod:`fewboost.fsl`. Every field is independently
settable so experiments can isolate the effect of a single knob. Every field
is type-checked when set, by the :mod:`fewboost.errors` rule of its kind:
integer fields take an ``int``, float fields a finite ``int`` or ``float``,
``extra_trees`` a ``bool`` and ``objective`` a ``str``, or a numpy scalar of
those kinds other than ``numpy.bool_``, which is stored as the Python value
it equals so parameters always serialize to JSON.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import ValidationError, boolean, integer, number, string

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
        """Build from a partial mapping layered over ``base`` or, without one, a complete mapping.

        The fields' types are checked first, then (without ``base``) that none is missing.
        """
        if not isinstance(d, Mapping):
            raise ValidationError(f"parameters must be a mapping, got {type(d).__name__}")
        names = [f.name for f in dataclasses.fields(cls)]
        unknown = set(d) - set(names)
        if unknown:
            raise ValidationError(f"unknown parameter(s): {sorted(unknown)}")
        params = dataclasses.replace(base if base is not None else cls(), **dict(d))
        if base is None and (missing := [name for name in names if name not in d]):
            raise ValidationError(f"missing field {missing[0]!r}")
        return params


_RULES = {"bool": boolean, "str": string, "int": integer, "float": number}


def _checked(name: str, kind: str, value):
    """``value`` for field ``name`` of annotated type ``kind``, or ValidationError; a numpy
    scalar other than ``numpy.bool_`` is first turned into the Python value it equals."""
    if isinstance(value, np.generic) and not isinstance(value, np.bool_):
        value = value.item()
    _RULES[kind](name, value)
    return value
