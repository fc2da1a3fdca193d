"""The standing benchmark's tracer still finds every entry point it wraps.

``perfbench/tracing.py`` patches each traced method through its class's
own ``__dict__``, so a refactor that moves one into a base class (or
renames it) breaks the traced run. Installing and uninstalling the
tracer here catches that in the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_of(module: str, owner: str | None):
    target = importlib.import_module(module)
    return target if owner is None else getattr(target, owner)


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    targets = [entry[:3] for entry in tracing._SPANS + tracing._COUNTERS]
    before = {
        (module, owner, attr): getattr(owner_of(module, owner), attr)
        for module, owner, attr in targets
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for key, original in before.items():
            assert getattr(owner_of(*key[:2]), key[2]) is not original, key
    finally:
        tracer.uninstall()
    for key, original in before.items():
        assert getattr(owner_of(*key[:2]), key[2]) is original, key
