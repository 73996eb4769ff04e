"""Tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.import_library()

import tracer  # noqa: E402
import workloads  # noqa: E402
from flatdef import analysis, cli, cylinders, deform  # noqa: E402
from flatdef.errors import InternalInvariantError  # noqa: E402
from flatdef.field import Mat2, Vec2  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS.values())


@pytest.fixture
def small(monkeypatch):
    """A workload whose traced run covers only its first few ops."""
    def make(name, ops):
        wl = workloads.WORKLOADS[name]
        monkeypatch.setattr(wl, "trace_ops", ops)
        return wl
    return make


@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda w: w.name)
def test_inputs_depend_only_on_the_seed(wl, tmp_path):
    first = [wl.key(item) for item in wl.setup(7, str(tmp_path))]
    again = [wl.key(item) for item in wl.setup(7, str(tmp_path))]
    other = [wl.key(item) for item in wl.setup(8, str(tmp_path))]
    assert first == again
    assert first != other
    assert len(set(first)) == len(first), "an input repeats within a run"


def test_tampered_output_fails_the_op(tmp_path):
    wl = workloads.WORKLOADS["lshape-decompose"]
    item = wl.setup(0, str(tmp_path))[0]
    good = wl.run(item)

    class Tampered:
        def __getattr__(self, name):
            return getattr(wl, name)

        def run(self, item):
            return good.replace('"format": 1', '"format": 1 ', 1)

    reference = run.load_reference(wl.name, 0)
    honest = run.Loop(wl, reference)
    honest.step(0, item)
    assert (honest.failed, honest.wrong) == (0, 0)
    loop = run.Loop(Tampered(), reference)
    loop.step(0, item)
    assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 1)


def test_broken_invariant_fails_the_op():
    wl = workloads.WORKLOADS["origami-deform"]
    data = {
        "decomposition": {"status": "Periodic", "cylinders": []},
        "sheared_decomposition": {"status": "Periodic", "cylinders": []},
        "linearity": True, "multi_twist_returns": True,
        "twist_dim": 0, "cylinder_preserving_dim": 0,
    }
    assert wl.check(data) is None
    assert wl.check(dict(data, linearity=False)) is not None
    assert wl.check(dict(data, multi_twist_returns=False)) is not None


def test_wrappers_cover_every_binding_and_are_restored(small, tmp_path):
    before = tracer.bindings()
    decompose = cylinders.decompose
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        for mod in (cylinders, analysis, deform, cli):
            assert mod.decompose is not decompose
            assert mod.decompose.__wrapped__ is decompose
    finally:
        restore()
    loop, metrics, _notes = run.run_traced(small("origami-deform", 2), 0,
                                           str(tmp_path))
    assert metrics["cylinders.decompose.calls"][0] > 0
    assert metrics["deform.shear.calls"][0] > 0
    after = tracer.bindings()
    assert [(o, k) for o, k, _ in after] == [(o, k) for o, k, _ in before]
    assert all(a is b for (_, _, a), (_, _, b) in zip(after, before))
    assert all(getattr(o, k) is f or vars(o)[k] is f for o, k, f in before)


@pytest.mark.parametrize("name", ["lshape-decompose", "origami-deform"])
def test_tracing_changes_no_output(small, tmp_path, name):
    plain = run.Loop(workloads.WORKLOADS[name], None)
    items = workloads.WORKLOADS[name].setup(0, str(tmp_path))[:3]
    for index, item in enumerate(items):
        plain.step(index, item)
    loop, _metrics, _notes = run.run_traced(small(name, 3), 0, str(tmp_path))
    assert loop.digests == plain.digests
    assert loop.wrong == 0
    assert loop.attempted == 6


def test_no_op_of_the_default_seed_raises():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    assert reference["workloads"].keys() == workloads.WORKLOADS.keys()
    for name, digests in reference["workloads"].items():
        assert None not in digests, f"an op of {name} raised"


def test_speed_samples_its_share_and_scales_by_the_kernel(monkeypatch):
    monkeypatch.setattr(run, "kernel", lambda: time.sleep(0.002))
    speed = run.Speed()
    speed.keep_up(0.1)
    speed.keep_up(0.1)
    assert speed.kernel_s >= run.SPEED_SHARE * 0.2
    # a kernel that takes 2 ms or a little more, against the reference 10 ms
    assert 3 < speed.scale() <= run.REFERENCE_KERNEL_S / 0.002


def test_tail_is_p75_by_nearest_rank():
    assert run.tail([float(i) for i in range(40, 0, -1)]) == (30.0, 10)
    assert run.tail([5.0]) == (5.0, 0)


@pytest.mark.xfail(raises=InternalInvariantError, strict=True,
                   reason="known tracing defect: a ray escapes its polygon")
@pytest.mark.parametrize("case", ["golden-image", "sheared-origami"])
def test_known_trace_escape_defect(case):
    """Inputs on which `decompose` raises at this commit.

    The workloads leave such inputs out (`GOLDEN_KNOWN_DEFECT` and the
    integer shears of origami-deform), so that no op fails.  When this
    test starts to pass, the defect is fixed: put the inputs back and
    record the reference digests again.
    """
    if case == "golden-image":
        matrix = workloads.GOLDEN_KNOWN_DEFECT[0]
        surface = workloads.golden_l().apply_matrix(Mat2(*matrix))
        cylinders.decompose(surface, Vec2(1, 0))
    else:
        surface = workloads.surface_mod.square_tiled(
            [4, 3, 2, 1], [1, 4, 3, 2], n=4)
        dec = cylinders.decompose(surface, Vec2(1, 0))
        sheared = deform.shear(surface, dec, 2)
        cylinders.decompose(sheared, Vec2(1, 0))
