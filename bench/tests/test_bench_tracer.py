"""Tests of the benchmark's tracer: alias rebinding and self times."""

import sys

import quadwalk
import quadwalk.cli  # noqa: F401  (cli.main is a target too)
from quadwalk import classifier, curve, sigmadist
from quadwalk.exactalg import Poly, RatFunc

from tracer import TARGETS, Span, Tracer, function_stats, install, self_times, uninstall


def _snapshot():
    """Every attribute of every quadwalk module and of every target class."""
    holders = [m for n, m in sys.modules.items()
               if m is not None and (n == "quadwalk" or n.startswith("quadwalk."))]
    for _, modname, qual, _ in TARGETS:
        owner, _, _ = qual.rpartition(".")
        if owner:
            holders.append(getattr(sys.modules[modname], owner))
    return {(id(h), attr): value for h in holders for attr, value in list(vars(h).items())}


def test_install_rebinds_every_alias_and_restores_them():
    before = _snapshot()
    originals = {id(value) for value in before.values()
                 if getattr(value, "__module__", "").startswith("quadwalk")}
    orig_sets, orig_build, orig_mul = curve.critical_sets, sigmadist.build_matrices, Poly.__mul__
    patches = install(Tracer())
    try:
        wrapped = {id(orig) for _, _, orig in patches}
        assert wrapped <= originals
        # no alias of a wrapped function is left pointing at the original
        assert not [key for key, value in _snapshot().items() if id(value) in wrapped]
        for alias in (classifier.critical_sets, sigmadist.critical_sets, curve.critical_sets):
            assert alias is not orig_sets and alias.__wrapped__ is orig_sets
        assert quadwalk.cli.build_matrices is classifier.build_matrices
        assert quadwalk.cli.build_matrices.__wrapped__ is orig_build
        assert Poly.__rmul__ is Poly.__mul__ and Poly.__mul__.__wrapped__ is orig_mul
        assert RatFunc.__radd__ is RatFunc.__add__
        assert classifier.expand_ratfunc is quadwalk.exactalg.expand_ratfunc
        assert quadwalk.classify is classifier.classify
        assert len(patches) > len(TARGETS)
    finally:
        uninstall(patches)
    assert _snapshot() == before


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "i", 1.0, {}),
        Span(1, "a", 1.0, 5.0, 0, "i", 0.5, {}),
        Span(2, "a1", 2.0, 3.0, 1, "i", 0.0, {}),
        Span(3, "b", 6.0, 9.0, 0, "i", 0.0, {}),
        Span(4, "b", 6.5, 8.5, 3, "i", 0.0, {}),     # recursive call of b
    ]
    assert self_times(spans) == {0: 2.0, 1: 2.5, 2: 1.0, 3: 1.0, 4: 2.0}
    stats = function_stats(spans)
    assert stats["b"] == [2, 3.0, 3.0]      # the nested b is not counted twice
    assert stats["root"] == [1, 10.0, 2.0]


def test_operators_accumulate_into_the_enclosing_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    h = tracer.wrap("h", lambda: None, "op")
    g = tracer.wrap("g", lambda: h(), "op")
    f = tracer.wrap("f", lambda: g(), "span")
    f()
    # f starts at 0, g at 1, h runs 2..3, g ends at 4, f ends at 5
    (span,) = tracer.spans
    assert (span.start, span.end, span.ops_s) == (0.0, 5.0, 3.0)
    assert span.ops == {"g": [1, 3.0, 2.0], "h": [1, 1.0, 1.0]}
    assert function_stats(tracer.spans) == {
        "f": [1, 5.0, 2.0], "g": [1, 3.0, 2.0], "h": [1, 1.0, 1.0]}


def test_span_records_outcome_and_item():
    tracer = Tracer()
    dist = tracer.wrap("sigmadist.sigma_distance", lambda found: 3 if found else None, "span")
    tracer.run_item("x1", lambda: (dist(True), dist(False)))
    by_name = {s.name: s for s in tracer.spans if s.name == "item"}
    assert by_name["item"].item == "x1"
    assert [s.ok for s in tracer.spans if s.name != "item"] == [True, False]
    assert all(s.parent == by_name["item"].id for s in tracer.spans if s.name != "item")
