"""perfbench's tracer wraps qcoex functions by module attribute name.

A function it names that is deleted or renamed would make
``perfbench/run.py --trace 1`` fail at ``getattr``, so every traced name
must stay a callable attribute of its layer's module.
"""

import importlib

import spans


def test_every_traced_name_is_a_callable_of_its_layer():
    missing = [
        f"qcoex.{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qcoex.{layer}"), name, None))
    ]
    assert missing == []
