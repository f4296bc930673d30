import numpy as np
import pytest

from mvtrack3d import synth


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def clean_scene():
    """Noise-free 3-camera scene used by exactness tests."""
    return synth.generate(synth.SceneConfig(
        seed=3, n_cameras=3, n_actors=3, n_frames=240))


@pytest.fixture(scope="session")
def noisy_scene():
    """Mildly noisy 3-camera scene used by behavioral tests."""
    return synth.generate(synth.SceneConfig(
        seed=5, n_cameras=3, n_actors=3, n_frames=300, noise_px=1.0))
