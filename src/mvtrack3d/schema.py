"""Joint layout shared by detections, tracks, ground truth, and scoring."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaMismatch


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
