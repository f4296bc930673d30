"""Joint layout shared by detections, tracks, ground truth, and scoring,
the one rule for the type of a record or config field, and the one
rule for the range of a config field."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .errors import ConfigError, SchemaMismatch

# What a field of each declared type takes, in records and configs alike,
# and how an error names it. A bool is never a number, an int field takes
# no float, and nothing is coerced. "X | None" also takes null,
# "list[X]" takes a list of X, and any other name a value of that class.
_KINDS = {
    "bool": ((bool,), "true or false"),
    "int": ((int, np.integer), "an integer"),
    "float": ((int, float, np.integer, np.floating), "a number"),
    "str": ((str,), "a string"),
    "dict": ((dict,), "an object"),
}


def accepts(kind: str, value) -> bool:
    """Whether value may fill a field declared as kind."""
    spec = _KINDS.get(kind)
    if spec is not None:
        return isinstance(value, spec[0]) and (
            type(value) is not bool or kind == "bool")
    if kind.endswith(" | None"):
        return value is None or accepts(kind[:-7], value)
    if kind.startswith("list["):
        return isinstance(value, list) and all(
            map(accepts, repeat(kind[5:-1]), value))
    return any(c.__name__ == kind for c in type(value).__mro__)


def describe(kind: str) -> str:
    """kind in words, for an error message."""
    if kind.endswith(" | None"):
        return describe(kind[:-7]) + " or null"
    if kind.startswith("list["):
        return f"a list, each item {describe(kind[5:-1])}"
    return _KINDS[kind][1] if kind in _KINDS else f"of type {kind}"


# The bounds a config field may declare beside its default: each key
# names the test a value must pass against its bound, and words the error.
_BOUNDS = {"above": operator.gt, "at_least": operator.ge,
           "below": operator.lt, "at_most": operator.le}


def bounded(default, **rule):
    """A dataclass field with default and the range rule that
    check_fields reads from its metadata: bounded(60.0, above=0) takes
    only values above 0. The bounds go under the keys of _BOUNDS, and
    allow_inf=True lets a float field be +inf."""
    if not rule.keys() <= _BOUNDS.keys() | {"allow_inf"}:
        raise TypeError(f"unknown range rule in {sorted(rule)}")
    return field(default=default, metadata=rule)


def check_fields(obj) -> None:
    """Raise ConfigError for the first field of the dataclass obj whose
    value breaks its rule: the type its annotation names (read as a
    string, which `from __future__ import annotations` makes it), then
    finiteness for a float, numpy's too, which may be +inf only where
    the field allows it, then every bound the field declares (see
    bounded). A null, where the type takes one, has no bounds."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not accepts(f.type, value):
            raise ConfigError(
                f"{f.name} must be {describe(f.type)}, got {value!r}")
        if (isinstance(value, (float, np.floating)) and not np.isfinite(value)
                and not (value == np.inf and f.metadata.get("allow_inf"))):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for key, bound in f.metadata.items():
            if (key in _BOUNDS and value is not None
                    and not _BOUNDS[key](value, bound)):
                raise ConfigError(f"{f.name} must be {key.replace('_', ' ')}"
                                  f" {bound}, got {value!r}")


def check_known_keys(keys, **groups) -> None:
    """Raise ConfigError for the first of keys, in sorted order, that no
    group holds, listing the names of each group: groups maps a group
    name to its valid keys."""
    unknown = sorted(set(keys).difference(*groups.values()))
    if unknown:
        listing = "; ".join(f"{group} parameters: {', '.join(sorted(names))}"
                            for group, names in groups.items())
        raise ConfigError(f"unknown parameter {unknown[0]!r}; {listing}")


@dataclass(frozen=True)
class JointSchema:
    """Named joint order plus the limb segments used for evaluation.

    limbs maps a body part name to (joint_a, joint_b) index pairs; part
    percentages aggregate limbs of the same part.
    """

    name: str
    joint_names: tuple
    limbs: tuple

    @property
    def n_joints(self) -> int:
        return len(self.joint_names)

    def index(self, joint_name: str) -> int:
        return self.joint_names.index(joint_name)

    @property
    def part_names(self) -> tuple:
        seen = []
        for part, _, _ in self.limbs:
            if part not in seen:
                seen.append(part)
        return tuple(seen)


SYNTH14 = JointSchema(
    name="synth14",
    joint_names=(
        "head_top", "neck",
        "r_shoulder", "r_elbow", "r_wrist",
        "l_shoulder", "l_elbow", "l_wrist",
        "r_hip", "r_knee", "r_ankle",
        "l_hip", "l_knee", "l_ankle",
    ),
    limbs=(
        ("head", 1, 0),
        ("torso", 1, 8),
        ("torso", 1, 11),
        ("upper_arm", 2, 3),
        ("upper_arm", 5, 6),
        ("lower_arm", 3, 4),
        ("lower_arm", 6, 7),
        ("upper_leg", 8, 9),
        ("upper_leg", 11, 12),
        ("lower_leg", 9, 10),
        ("lower_leg", 12, 13),
    ),
)

_REGISTRY = {SYNTH14.name: SYNTH14}


def get_schema(name: str) -> JointSchema:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchemaMismatch(f"unknown joint schema {name!r}") from None
