"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from paraunitary import axioms, cli, numfield, ppu  # noqa: E402

import inputs  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---- self time on a synthetic span tree ----

def test_self_time_subtracts_union_of_children():
    #        0 ........................ 100   root
    #          10 ..... 40                    a   (child 15..25)
    #                30 ...... 60             b   (overlaps a)
    #                              90 ....... 120  c   (clipped at 100)
    parent = [-1, 0, 1, 0, 0]
    start = [0, 10, 15, 30, 90]
    end = [100, 40, 25, 60, 120]
    own = tracing.self_times(parent, start, end)
    assert own == [100 - (50 + 10), 30 - 10, 10, 30, 30]


def test_self_time_of_leaf_is_its_duration():
    assert tracing.self_times([-1], [5], [12]) == [7]


def _fake_layer(tracer):
    def inner(fail):
        if fail:
            raise numfield.NumericalError("boom")
        return 1

    def outer(fail):
        return wrapped_inner(fail) + 1

    wrapped_inner = tracer.wrap("fake.inner", inner)
    return tracer.wrap("fake.outer", outer)


def test_exception_counted_once_at_innermost_span():
    tracer = tracing.Tracer()
    outer = _fake_layer(tracer)
    root = tracer.root("bench.op", outer)
    assert root(False) == 2
    with pytest.raises(numfield.NumericalError):
        root(True)
    agg = tracer.aggregate()
    assert agg["fake.inner"]["calls"] == 2
    assert agg["fake.inner"]["raised"] == 1
    assert agg["fake.outer"]["raised"] == 0
    assert agg["bench.op"]["raised"] == 0
    assert agg["fake.outer"]["ok"] == 1


def test_wrappers_record_nothing_outside_a_root_span():
    tracer = tracing.Tracer()
    outer = _fake_layer(tracer)
    assert outer(False) == 2
    assert len(tracer.name) == 0


def test_install_rebinds_imported_names_and_undo_restores():
    originals = (ppu.kernel, cli.meet, axioms._ALGEBRA_CHECKS["gvm"],
                 ppu.LaurentOp.__mul__, numfield.frob)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert ppu.kernel is not originals[0] and ppu.kernel is numfield.kernel
        assert cli.meet is ppu.meet is not originals[1]
        assert axioms._ALGEBRA_CHECKS["gvm"] is axioms.check_gvm is not originals[2]
        assert ppu.LaurentOp.__mul__ is not originals[3]
        assert numfield.frob is originals[4]  # unwrapped helper
    finally:
        undo()
    assert (ppu.kernel, cli.meet, axioms._ALGEBRA_CHECKS["gvm"],
            ppu.LaurentOp.__mul__, numfield.frob) == originals


def test_traced_calls_reach_the_layer_metrics():
    a = inputs.build_algebra("full:3", 0)
    x = ppu.random_ppu(a, 3, 0, 1)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        tracer.root("bench.op", lambda: ppu.factor_positive(x))()
    finally:
        undo()
    values = tracing.layer_metrics(tracer)
    assert values["ppu.factor_positive.calls"] == 1
    assert values["ppu.factor_positive.ok_ratio"] == 1.0
    assert values["numfield.kernel.calls"] == x.hi  # one kernel per peel
    assert values["numfield.kernel.max_rows"] == 3
    assert set(values) == {name for name, _, _ in tracing.PER_LAYER}


# ---- failure classification ----

class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.5
        return self.t


def _raise(exc):
    raise exc


@pytest.mark.parametrize("call, check, expected", [
    (lambda: 1, lambda r: None, None),
    (lambda: _raise(numfield.NumericalError("x")), lambda r: None, "NumericalError"),
    (lambda: _raise(numfield.InputError("x")), lambda r: None, "InputError"),
    (lambda: (2, "bad"), lambda r: measure.cli_verdict(r[0], r[1], lambda: None), "exit_2"),
    (lambda: (0, ""), lambda r: measure.cli_verdict(r[0], r[1], lambda: "wrong"),
     measure.WRONG),
    (lambda: False, workloads._expect(True), measure.WRONG),
])
def test_failure_classes(call, check, expected):
    outcome = measure.run_op(measure.Op("s", call, check), clock=_Clock())
    assert outcome.failure == expected
    assert outcome.seconds == 0.5


def test_exit_code_is_classified_before_the_oracle_runs():
    def oracle_must_not_run():
        raise AssertionError("oracle ran on a failed call")
    assert measure.cli_verdict(1, "err", oracle_must_not_run) == ("exit_1", "err")


def test_summary_counts_wrong_answers_within_failures():
    outs = [measure.Outcome("a", 0.001)] * 98 + [
        measure.Outcome("a", 0.001, measure.WRONG, "r"),
        measure.Outcome("b", 0.002, "NumericalError", "n"),
    ] + [measure.Outcome("c", 0.001)] * 10
    s = measure.summarize(outs)
    assert (s.attempted, s.ok, s.failed, s.wrong) == (110, 108, 2, 1)
    assert s.failures == {measure.WRONG: 1, "NumericalError": 1}
    assert s.failures_by_slice == {"a": {measure.WRONG: 1}, "b": {"NumericalError": 1}}


# ---- percentile sample-count rules ----

def test_min_samples_leaves_ten_beyond():
    assert measure.min_samples(0.9) == 100
    assert measure.min_samples(0.5) == 20
    assert measure.min_samples(0.99) == 1000


def test_percentile_refuses_too_few_samples():
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(range(99), 0.9)
    assert measure.percentile(range(100), 0.9) == pytest.approx(89.1)
    assert measure.percentile(range(1, 22), 0.5) == 11


def test_summary_refuses_p90_below_one_hundred_successes():
    with pytest.raises(measure.TooFewSamples):
        measure.summarize([measure.Outcome("a", 0.001)] * 99)


# ---- seeded inputs ----

def _payload_bytes(tmp_path, name, seed):
    d = tmp_path / name
    d.mkdir()
    workloads.setup_cli_lattice(seed, str(d))
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_same_seed_gives_byte_identical_payloads(tmp_path):
    first = _payload_bytes(tmp_path, "a", 5)
    assert len(first) == len(workloads.CLI_ALGEBRAS) * (1 + 3 * len(workloads.CLI_DEGREES))
    assert first == _payload_bytes(tmp_path, "b", 5)
    assert first != _payload_bytes(tmp_path, "c", 6)


def test_child_seed_is_stable_and_path_sensitive():
    assert inputs.child_seed(1, 2, 3) == inputs.child_seed(1, 2, 3)
    assert inputs.child_seed(1, 2, 3) != inputs.child_seed(1, 3, 2)
    assert 0 <= inputs.child_seed(7) < 2**63


@pytest.mark.parametrize("spec", ["full:3", "doubled:2", "block:2+3", "scalars:2",
                                  "diagonal:3"])
def test_algebra_specs_have_their_known_commutant(spec):
    a = inputs.build_algebra(spec, 0)
    assert a.commutant.linear_dim == inputs.commutant_dim(spec)


# ---- oracles ----

def test_oracle_order_and_factor_checks_reject_wrong_answers():
    n = 2
    one = oracle.identity(n)
    t = (1, np.eye(n, dtype=complex)[None])
    assert oracle.check_bound(one, [t], above=False) is None
    assert oracle.check_bound(t, [one], above=False) is not None
    frame = np.eye(n, dtype=complex)[:, :1]
    x = oracle.product(oracle.elementary(frame), oracle.elementary(frame))
    assert oracle.check_factors(0, [frame, frame], x) is None
    assert oracle.check_factors(0, [frame], x) is not None


def test_oracle_matches_package_arithmetic():
    a = inputs.build_algebra("doubled:2", 3)
    x, y = (ppu.random_ppu(a, 4, s, 10 + s) for s in (0, 1))
    dx, dy = (oracle.dense(e.op.coeffs, a.dim) for e in (x, y))
    assert oracle.distance(oracle.dense((x * y).op.coeffs, a.dim), oracle.product(dx, dy)) < 1e-12
    assert oracle.check_group_element(dy, inputs.basis_rows(a)) is None


# ---- the benchmark definition ----

def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    layer = tracing.PER_LAYER + run.BENCH_LAYER + run.DEFECT_LAYER
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


# ---- the known-defect census ----

def test_census_holds_the_slices_left_out_of_the_timed_loops(tmp_path):
    timed = {op.label for op in workloads.setup_factor_deep(0, str(tmp_path))(0)}
    census = [op.label for op in workloads.defects_factor_deep(0, str(tmp_path))]
    assert len(census) == (len(workloads.FACTOR_ALGEBRAS) * len(workloads.FACTOR_DEGREES)
                           * workloads.FACTOR_ELEMENTS)
    assert {f"{spec}/k{k}/factor" for spec in workloads.FACTOR_ALGEBRAS
            for k in workloads.FACTOR_DEGREES} == set(census)
    assert not timed & set(census)
    cli = [op.label for op in workloads.defects_cli_lattice(0, str(tmp_path))]
    assert len(cli) == 4 * len(workloads.CLI_ALGEBRAS) * len(workloads.CLI_DEFECT_DEGREES)
    assert not set(workloads.CLI_DEGREES) & set(workloads.CLI_DEFECT_DEGREES)
    assert workloads.WORKLOADS["verify"].defects(0, str(tmp_path)) == []


def test_census_classes_name_every_failure_class():
    assert measure.WRONG in run.DEFECT_CLASSES
    outs = [measure.Outcome("a", 0.1, "NumericalError", "n"), measure.Outcome("b", 0.1)]
    failures, by_slice, examples = measure.count_failures(outs)
    assert failures == {"NumericalError": 1}
    assert by_slice == {"a": {"NumericalError": 1}}
    assert examples == {"NumericalError": "a: n"}


# ---- host-speed scaling ----

def test_summary_reports_scaled_and_unscaled_times():
    outs = [measure.Outcome("a", 0.002, scale=0.5)] * 100
    s = measure.summarize(outs)
    assert s.p50_ms == pytest.approx(1.0) and s.raw_p50_ms == pytest.approx(2.0)
    assert s.timed_s == pytest.approx(0.1) and s.raw_timed_s == pytest.approx(0.2)


@pytest.mark.parametrize("kernel", sorted(speed.KERNELS))
def test_reference_scale_is_nominal_over_median_of_latest_samples(kernel):
    ref = speed.Reference(kernel)
    n = ref.nominal_s
    ref.times += [1.0, 2 * n, 4 * n, n]
    assert ref.scale() == pytest.approx(0.5)
    ref.sample_window()
    assert len(ref.times) == 4 + speed.WINDOW and ref.scale() > 0


def test_loop_scales_each_outcome_by_the_latest_samples():
    ref = speed.Reference("convolution")
    ops = [measure.Op("a", lambda: None, lambda r: None)]
    outs = measure.run_loop(lambda c: ops, 0.0, 3, 10.0, ref)
    assert len(outs) == 3 and len(ref.times) >= 1
    assert outs[-1].scale == pytest.approx(ref.scale())
    kernels = {k for w in workloads.WORKLOADS.values() for k in (w.reference, w.setup_reference)}
    assert kernels <= set(speed.KERNELS)
