"""Tests of the benchmark itself: its output checks can fail, and its tracing
sees calls through every binding of a traced function."""

import contextlib
import io
import json

from bench_trace import EXERCISED, OVERHEAD, SETUP_MPMATH, Tracer, metric_units
from bench_workloads import (
    CLOSED_FORM_NS,
    EXPAND_DIRECT_EXPECTED,
    EXPAND_DIRECT_NS,
    ROOT,
    WORKLOADS,
    Checks,
    check_verify_output,
    compare_terms,
    expand_direct_pass,
    load_verify_expected,
    workload_inputs,
)
from klpoly import cli, expansion, reductions, serialize
from klpoly.diffalg import DiffPolynomial


def test_seed_permutes_inputs_reproducibly():
    for workload in WORKLOADS:
        inputs = workload_inputs(workload, 7)
        assert inputs == workload_inputs(workload, 7)
    assert sorted(workload_inputs("expand-direct", 7)) == list(EXPAND_DIRECT_NS)
    assert sorted(workload_inputs("closed-form-agree", 7)) == list(CLOSED_FORM_NS)
    orders = {tuple(workload_inputs("expand-direct", seed)) for seed in range(20)}
    assert len(orders) > 1


def test_expand_direct_fails_on_one_corrupted_term_count():
    n = EXPAND_DIRECT_NS[0]
    assert expand_direct_pass([n]).failed == 0
    terms, digest = EXPAND_DIRECT_EXPECTED[n]
    checks = expand_direct_pass([n], {n: (terms + 1, digest)})
    assert checks.failed == 1
    assert checks.failed / checks.attempted > 0


def test_term_comparison_fails_on_one_corrupted_coefficient():
    n = 7
    direct = serialize.poly_to_obj(expansion.kl_direct(n).poly)
    closed = serialize.poly_to_obj(expansion.kl_closed_form(n).poly)
    checks = Checks()
    compare_terms(checks, f"n={n}", direct, closed)
    assert (checks.attempted, checks.failed) == (len(direct), 0)
    exponent, coeff = closed[3]["lambda_coeffs"][0]
    closed[3]["lambda_coeffs"][0] = [exponent, str(int(coeff) + 1)]
    checks = Checks()
    compare_terms(checks, f"n={n}", direct, closed)
    assert checks.failed == 1


def test_verify_checks_fail_on_one_changed_status_or_a_failing_exit():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        returncode = cli.main(workload_inputs("verify-default", 0))
    expected = load_verify_expected()
    assert len(expected) == 242
    assert check_verify_output(returncode, out.getvalue(), expected).failed == 0
    name = next(iter(expected))
    changed = {**expected, name: "observed"}
    assert check_verify_output(returncode, out.getvalue(), changed).failed == 1
    assert check_verify_output(1, out.getvalue(), expected).failed == 1


def test_tracer_patches_every_binding_and_restores_them():
    original = expansion.kl_direct
    differentiate = DiffPolynomial.__dict__["differentiate"]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.kl_direct is reductions.kl_direct is expansion.kl_direct is not original
        reductions.lambda_zero_pattern(1, 3)  # reaches kl_direct through reductions
        cli.suite_identities(2)  # and through cli, for n = 1, 2
    finally:
        tracer.uninstall()
    assert cli.kl_direct is reductions.kl_direct is expansion.kl_direct is original
    assert DiffPolynomial.__dict__["differentiate"] is differentiate
    metrics = tracer.metrics()
    assert metrics["expansion.kl_direct_calls"] == 3
    assert metrics["reductions.lambda_zero_pattern_calls"] == 1
    assert metrics["cli.suite.identities_calls"] == 1
    assert metrics["reductions.reduce_first_order_calls"] == 2
    assert not tracer.absent
    assert set(metric_units()) == set(metrics) | {SETUP_MPMATH, OVERHEAD}


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = metric_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for names in EXERCISED.values():
        assert set(names) <= set(units)
