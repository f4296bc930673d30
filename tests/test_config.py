"""The range rule of the config dataclasses, probed at every bound.

The table is written out by hand, not read from the fields' metadata,
so a mistyped bound fails it."""

import math
from dataclasses import fields

import numpy as np
import pytest

from mvtrack3d.affinity import AffinityConfig
from mvtrack3d.errors import ConfigError
from mvtrack3d.schema import bounded
from mvtrack3d.synth import SceneConfig
from mvtrack3d.tracker import TrackerConfig

TINY = 5e-324  # the smallest positive float
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)

# (config class, field, value, accepted): each bound's own value and the
# nearest value past it.
EDGES = [
    (AffinityConfig, "alpha_2d", 0.0, False),
    (AffinityConfig, "alpha_2d", TINY, True),
    (AffinityConfig, "alpha_epi", 0.0, False),
    (AffinityConfig, "alpha_epi", TINY, True),
    (AffinityConfig, "tau", 1, True),
    (AffinityConfig, "tau", 0, False),
    (AffinityConfig, "epsilon", 0, True),
    (AffinityConfig, "epsilon", -1, False),
    (AffinityConfig, "lambda_a", 0.0, True),
    (AffinityConfig, "lambda_a", -TINY, False),
    (AffinityConfig, "conf_floor", 0.0, True),
    (AffinityConfig, "conf_floor", -TINY, False),
    (AffinityConfig, "conf_floor", 1.0, False),
    (AffinityConfig, "conf_floor", BELOW_ONE, True),
    (TrackerConfig, "smooth_window", 1, True),
    (TrackerConfig, "smooth_window", 0, False),
    (TrackerConfig, "smooth_window", 1000, True),
    (TrackerConfig, "smooth_window", 1001, False),
    (TrackerConfig, "smooth_sigma", 0.0, False),
    (TrackerConfig, "smooth_sigma", TINY, True),
    (TrackerConfig, "miss_limit", 0, True),
    (TrackerConfig, "miss_limit", -1, False),
    (SceneConfig, "seed", 0, True),
    (SceneConfig, "seed", -1, False),
    (SceneConfig, "n_cameras", 2, True),
    (SceneConfig, "n_cameras", 1, False),
    (SceneConfig, "n_actors", 1, True),
    (SceneConfig, "n_actors", 0, False),
    (SceneConfig, "n_frames", 1, True),
    (SceneConfig, "n_frames", 0, False),
    (SceneConfig, "fps", 0.0, False),
    (SceneConfig, "fps", TINY, True),
    (SceneConfig, "width", 1, True),
    (SceneConfig, "width", 0, False),
    (SceneConfig, "width", 65536, True),
    (SceneConfig, "width", 65537, False),
    (SceneConfig, "height", 1, True),
    (SceneConfig, "height", 0, False),
    (SceneConfig, "height", 65536, True),
    (SceneConfig, "height", 65537, False),
    (SceneConfig, "focal_px", 0.0, False),
    (SceneConfig, "focal_px", TINY, True),
    (SceneConfig, "ring_radius", 0.0, False),
    (SceneConfig, "ring_radius", TINY, True),
    (SceneConfig, "arena_half", 0.0, False),
    (SceneConfig, "arena_half", TINY, True),
    (SceneConfig, "walk_speed", 0.0, False),
    (SceneConfig, "walk_speed", TINY, True),
    (SceneConfig, "swing_hz", 0.0, False),
    (SceneConfig, "swing_hz", TINY, True),
    (SceneConfig, "noise_px", 0.0, True),
    (SceneConfig, "noise_px", -TINY, False),
    (SceneConfig, "outlier_px", 0.0, True),
    (SceneConfig, "outlier_px", -TINY, False),
    (SceneConfig, "outlier_rate", 0.0, True),
    (SceneConfig, "outlier_rate", -TINY, False),
    (SceneConfig, "outlier_rate", 1.0, True),
    (SceneConfig, "outlier_rate", ABOVE_ONE, False),
    (SceneConfig, "outlier_burst", 0.0, True),
    (SceneConfig, "outlier_burst", -TINY, False),
    (SceneConfig, "outlier_burst", 1.0, True),
    (SceneConfig, "outlier_burst", ABOVE_ONE, False),
    (SceneConfig, "occlusion_rate", 0.0, True),
    (SceneConfig, "occlusion_rate", -TINY, False),
    (SceneConfig, "occlusion_rate", 1.0, True),
    (SceneConfig, "occlusion_rate", ABOVE_ONE, False),
    (SceneConfig, "dropout_rate", 0.0, True),
    (SceneConfig, "dropout_rate", -TINY, False),
    (SceneConfig, "dropout_rate", 1.0, True),
    (SceneConfig, "dropout_rate", ABOVE_ONE, False),
]

# Numpy floats meet the finiteness rule as Python floats do; image_margin
# has no bound, so that rule alone refuses these.
NON_FINITE = [
    (AffinityConfig, "image_margin", np.float32("nan"), False),
    (AffinityConfig, "image_margin", np.float32("inf"), False),
]


@pytest.mark.parametrize(
    "config,name,value,accepted", EDGES + NON_FINITE,
    ids=[f"{c.__name__}-{n}-{v!r}" for c, n, v, _ in EDGES + NON_FINITE])
def test_config_bound_edges(config, name, value, accepted):
    if accepted:
        assert getattr(config(**{name: value}), name) == value
    else:
        with pytest.raises(ConfigError) as err:
            config(**{name: value})
        assert str(err.value).startswith(f"{name} must be ")
        assert str(err.value).endswith(f"got {value!r}")


def test_every_bounded_field_is_in_the_edge_table():
    declared = {(c, f.name) for c in (AffinityConfig, TrackerConfig,
                                      SceneConfig)
                for f in fields(c) if set(f.metadata) - {"allow_inf"}}
    assert declared == {(c, n) for c, n, _, _ in EDGES}


def test_unset_miss_limit_and_endless_bursts_pass_the_range_rule():
    assert TrackerConfig(miss_limit=None).miss_limit is None
    assert SceneConfig(outlier_burst_frames=math.inf)
    with pytest.raises(ConfigError, match="outlier_burst_frames"):
        SceneConfig(outlier_burst_frames=-math.inf)
    # bursts that are on need a mean length of at least one frame
    assert SceneConfig(outlier_burst=0.5, outlier_burst_frames=1.0)
    with pytest.raises(ConfigError, match="outlier_burst_frames"):
        SceneConfig(outlier_burst=0.5, outlier_burst_frames=BELOW_ONE)
    assert SceneConfig(outlier_burst_frames=0.0)


def test_a_misspelt_range_key_fails_where_the_field_is_declared():
    with pytest.raises(TypeError, match="abvoe"):
        bounded(1.0, abvoe=0)
