"""The traced benchmark's entry points still exist and patch cleanly.

``perfbench/layers.py`` times each layer by wrapping named library
entry points (``Session.run``, ``ExperimentRunner.map``,
``outcome_table``, ...).  A refactor that removes or renames one of
them would otherwise only surface in ``perfbench/run.py --trace 1``;
here it fails the unit suite instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    # A unique module name keeps this copy apart from any perfbench
    # import elsewhere in the process.
    spec = importlib.util.spec_from_file_location(
        "_perfbench_layers_under_test", LAYERS_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_targets(layers):
    """``(methods, functions)`` the tracer is expected to wrap."""
    from repro.attacks.batched import CampaignBatchEngine
    from repro.attacks.campaign import AttackCampaign
    from repro.core.study import DiversityStudy
    from repro.results import ResultCache

    methods = [
        (owner, attribute)
        for owner, attribute, _ in layers.PLAIN_WRAPS
        if attribute is not None
    ] + [
        (DiversityStudy, "build_design"),
        (ResultCache, "load"),
        (CampaignBatchEngine, "__init__"),
        (CampaignBatchEngine, "run_rows"),
        (CampaignBatchEngine, "run_outcomes"),
        (AttackCampaign, "run"),
    ]
    functions = [
        owner for owner, attribute, _ in layers.PLAIN_WRAPS if attribute is None
    ]
    return methods, functions


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and module is not None
    ]


def test_install_patches_every_entry_point_and_uninstall_restores(layers):
    methods, functions = _wrapped_targets(layers)
    originals = {
        (owner, attribute): owner.__dict__[attribute]
        for owner, attribute in methods
    }
    holders = [
        (module, attribute, value)
        for module in _repro_modules()
        for attribute, value in list(vars(module).items())
        if any(value is function for function in functions)
    ]
    tracer = layers.Tracer()
    try:
        tracer.install()
        # 42 in a fresh process; more once further modules that import
        # a wrapped function are loaded.
        assert len(tracer._patches) >= 42
        for (owner, attribute), original in originals.items():
            wrapper = owner.__dict__[attribute]
            assert wrapper is not original, (owner, attribute)
            assert wrapper.__wrapped__ is original, (owner, attribute)
        for function in functions:
            assert any(value is function for _, _, value in holders)
        for module, attribute, original in holders:
            assert getattr(module, attribute) is not original, (
                module.__name__, attribute,
            )
    finally:
        tracer.uninstall()
    assert not tracer._patches
    for (owner, attribute), original in originals.items():
        assert owner.__dict__[attribute] is original, (owner, attribute)
    for module, attribute, original in holders:
        assert getattr(module, attribute) is original, (
            module.__name__, attribute,
        )
