import warnings

import pytest

from densegaze import NoisyDetector, OracleDetector, PipelineConfig, run_pipeline
from densegaze.synth import SceneSpec, generate_scene

# Hypothesis's report hook imports this module when a property fails. With
# libcst installed, that import warns that mypy_extensions.TypedDict is
# deprecated, and under -W error the warning replaces the falsifying
# example with an INTERNALERROR. Importing it once here, with that warning
# ignored, keeps the report; -W error still applies to every test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def default_scene():
    """The stock synthetic scene: 500 objects, ~5% coverage, 100x size span."""
    return generate_scene(SceneSpec())


@pytest.fixture(scope="session")
def small_scene():
    """A quick scene for tests that only need plausible clustered input."""
    spec = SceneSpec(object_count=120, seed=7)
    return generate_scene(spec)


@pytest.fixture(scope="session")
def crowd_scene():
    """Crowd-only scene: every object fits a tiny-grid window."""
    spec = SceneSpec(
        object_count=300,
        foreground_fraction_target=0.02,
        size_gradient=(32.0, 300.0),
        seed=3,
    )
    return generate_scene(spec)


@pytest.fixture(scope="session")
def default_run(default_scene):
    """Oracle pipeline run over the stock scene with stock config."""
    annotations, extent = default_scene
    config = PipelineConfig()
    return run_pipeline(annotations, extent, config, OracleDetector(annotations))


@pytest.fixture(scope="session")
def noisy_crowd():
    """1,000 objects under a jittering, missing, hallucinating detector:
    about 1,900 raw and 1,160 merged detections. Returns (annotations,
    extent, run)."""
    annotations, extent = generate_scene(
        SceneSpec(object_count=1000, foreground_fraction_target=0.07, seed=0)
    )
    adapter = NoisyDetector(annotations, jitter=2.0, miss_rate=0.05, fp_rate=3.0, seed=0)
    return annotations, extent, run_pipeline(annotations, extent, PipelineConfig(), adapter)
