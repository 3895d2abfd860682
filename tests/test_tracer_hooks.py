"""The benchmark tracer's hook table against the current cohomlab names.

perfbench/tracer.py wraps cohomlab callables by name.  Installing it here
makes a renamed or deleted hooked name fail these tests, not only the
benchmark's own suite.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
from cohomlab import linalg  # noqa: E402


def _hooked():
    """(owner, attribute) of every callable the tracer replaces."""
    targets = [(linalg, "_rref_rows"), (linalg, "det")]
    targets += [target for _key, target in tracer.COUNTED]
    targets += [target for _layer, group in tracer.SPANS for target in group]
    return targets


def _cohomlab_globals():
    return {(name, key): val for name, mod in sys.modules.items()
            if name == "cohomlab" or name.startswith("cohomlab.")
            for key, val in vars(mod).items()}


def _bindings(targets):
    """What each target resolves to, and what its owner itself binds."""
    return [(getattr(owner, attr, None), vars(owner).get(attr))
            for owner, attr in targets]


def test_tracer_hooks_every_name_and_restores_it():
    targets = _hooked()
    before = _bindings(targets)
    missing = [attr for (_owner, attr), (val, _own) in zip(targets, before) if val is None]
    assert not missing
    globals_before = _cohomlab_globals()
    tr = tracer.Tracer()
    tr.install()
    try:
        for (owner, attr), (val, _own) in zip(targets, before):
            assert getattr(owner, attr) is not val, attr
    finally:
        tr.uninstall()
    assert _bindings(targets) == before
    assert _cohomlab_globals() == globals_before
