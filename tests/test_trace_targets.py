"""The benchmark tracer still finds every function it wraps.

``perfbench/tracing.py`` records per-layer spans by wrapping functions of
``bbibranch`` by name, and its constructor raises ``LookupError`` when one
of them is gone.  Constructing it resolves every target without installing
a wrapper, so a refactor that would break traced benchmark runs fails here.
"""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_tracer_resolves_every_target():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    tracer = tracing.Tracer()
    assert tracer._patches
    for holder, attr, original, _wrapper in tracer._patches:
        assert getattr(holder, attr) is original
