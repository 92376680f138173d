"""The benchmark tracer wraps functions by the name each caller looks up.
Deleting or renaming one of those names breaks the benchmark, so check here
that every target exists, gets wrapped, and is restored afterwards."""

from perfbench.trace import Tracer, _targets


def test_tracer_wraps_every_target_and_restores_it():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _targets()]
    with Tracer().installed():
        for owner, attr, fn in originals:
            assert owner.__dict__[attr] is not fn, f"{owner.__name__}.{attr} not wrapped"
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} not restored"
