"""The benchmark's traced run can find every function it wraps.

perfbench/spans.py names the functions and methods it wraps as (owner,
attribute) pairs; a renamed one would fail only when the traced run
starts.  This imports spans from perfbench/ and looks each name up.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    missing = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in spans.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
