"""CLI behavior: goldens, determinism, exit codes, report schema."""

import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpoly import cli, enumerate_compositions, expansion, reductions
from klpoly.cli import main
from klpoly.diffalg import DiffPolynomial
from klpoly.expansion import h_poly

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("n", [3, 12])
def test_expand_text_golden(capsys, n):
    code, out = run(capsys, ["expand", str(n)])
    assert code == 0
    assert out == (GOLDEN / f"expand_{n}.txt").read_text()


def test_expand_3_json_golden(capsys):
    code, out = run(capsys, ["expand", "3", "--format", "json"])
    assert code == 0
    assert out == (GOLDEN / "expand_3.json").read_text()


def test_expand_1_json_is_the_zero_polynomial(capsys):
    code, out = run(capsys, ["expand", "1", "--format", "json"])
    assert code == 0
    assert out == '{\n  "n": 1,\n  "provenance": "direct",\n  "terms": []\n}\n'


def test_expand_small_values(capsys):
    assert run(capsys, ["expand", "1"])[1].strip() == "0"
    assert run(capsys, ["expand", "2"])[1].strip() == "u' − λ·u"
    assert run(capsys, ["expand", "3"])[1].strip() == "2·u'' − 2·λ^2·u"


def test_expand_out_of_range(capsys):
    assert cli.EXPAND_MAX_N == 24
    for n in ("0", "25"):
        assert main(["expand", n]) == 2, n
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: n must be in [1, 24]"]
    # the cap is fixed: the option that once lifted it is gone
    with pytest.raises(SystemExit) as exc:
        main(["expand", "11", "--max-n", "12"])
    assert exc.value.code == 2


def test_one_n_commands_check_their_range_before_any_work(capsys, monkeypatch):
    # the work is stubbed: only the range check is under test
    work = []
    stubs = {
        "linear_part": lambda n: work.append(n) or (0,) * n,
        "c_star": lambda n, j: work.append(n) or 0,
        "c_star_factorial_form": lambda n, j: 0,
        "h_poly": lambda n: work.append(n) or [0],
    }
    for name, stub in stubs.items():
        monkeypatch.setattr(cli, name, stub)
    for command, low, high in (("linear", 2, 24), ("cstar", 1, 28), ("hpoly", 2, 1500)):
        for n in (low - 1, high + 1):
            assert main([command, str(n)]) == 2, (command, n)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: n must be in [{low}, {high}]"]
        assert work == []
        for n in (low, high):
            assert main([command, str(n)]) == 0, (command, n)
            assert set(work) == {n}, (command, n)
            work.clear()
        capsys.readouterr()


def test_hpoly_cap_prints_every_coefficient():
    # Python's default limit on int-to-decimal conversion is 4300 digits
    digits = [len(str(abs(c))) for c in h_poly(cli.HPOLY_N[-1])]
    assert max(digits) <= 4300


def test_table_checks_its_size_before_enumerating(capsys, monkeypatch):
    # every accepted family holds (0, …, 0, α), so the stub answers that row
    enumerated = []
    monkeypatch.setattr(
        cli,
        "enumerate_compositions",
        lambda j, alpha, k: enumerated.append((j, alpha, k)) or [(0,) * (j - 1) + (alpha,)],
    )
    for shape in ((31, 0, 1), (30, 31, 30), (10, 9, 1), (2, 30, 0)):
        assert main(["table", *map(str, shape)]) == 2, shape
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, shape
    assert enumerated == []
    # C(30, 0) = 1 row, C(9+9-1, 9-1) = 24,310 rows: both within the caps
    for shape in ((30, 30, 30), (9, 9, 1)):
        assert main(["table", *map(str, shape)]) == 0, shape
    assert enumerated == [(30, 30, 30), (9, 9, 1)]


def test_table_golden(capsys):
    code, out = run(capsys, ["table", "4", "3", "2"])
    assert code == 0
    assert out == (GOLDEN / "table_4_3_2.txt").read_text()
    densities = [int(line.split()[-1]) for line in out.strip().splitlines()]
    assert densities == [64, 48, 36, 27, 24, 18, 32, 12, 16, 8, 285]


def test_table_432_order_lists_the_family():
    # the published order is a permutation of Z(4, 3, 2), which cmd_table
    # prints instead of the lexicographic enumeration
    assert sorted(cli.TABLE_432_ORDER) == enumerate_compositions(4, 3, 2)


def test_table_weight_6069(capsys):
    code, out = run(capsys, ["table", "4", "5", "2"])
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("6069")


def test_table_trivial(capsys):
    code, out = run(capsys, ["table", "3", "0", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["(0,", "0,", "0)", "1"]
    assert lines[1].endswith("1")


def test_table_bad_parameters(capsys):
    assert run(capsys, ["table", "4", "3", "0"])[0] == 2
    assert run(capsys, ["table", "4", "3", "5"])[0] == 2


def test_linear_golden(capsys):
    code, out = run(capsys, ["linear", "5"])
    assert code == 0
    assert out == (GOLDEN / "linear_5.txt").read_text()


def test_hpoly_golden(capsys):
    code, out = run(capsys, ["hpoly", "12"])
    assert code == 0
    assert out == (GOLDEN / "hpoly_12.txt").read_text()


def test_hpoly(capsys):
    code, out = run(capsys, ["hpoly", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["coefficients"] == [2, 0, -2]


def test_cstar_golden(capsys):
    code, out = run(capsys, ["cstar", "28"])
    assert code == 0
    assert out == (GOLDEN / "cstar_28.txt").read_text()


def test_cstar_all_zero(capsys):
    code, out = run(capsys, ["cstar", "6", "--format", "json"])
    assert code == 0
    assert all(r["c_star"] == 0 for r in json.loads(out)["rows"])


def test_determinism(capsys):
    argv = ["verify", "identities", "--n-max", "4", "--format", "json", "--no-timing"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_verify_report_schema(capsys):
    code, out = run(
        capsys, ["verify", "cstar", "--n-max", "4", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["tool_version"]
    assert report["command"] == "verify"
    assert report["parameters"]["suite"] == "cstar"
    assert "wall_time_ms" in report
    assert all(c["status"] in {"pass", "fail", "observed"} for c in report["checks"])


def test_verify_no_timing_omits_wall_time(capsys):
    _, out = run(
        capsys,
        ["verify", "cstar", "--n-max", "3", "--format", "json", "--no-timing"],
    )
    assert "wall_time_ms" not in json.loads(out)


def test_no_timing_is_a_verify_option_only(capsys):
    for argv in (
        ["expand", "3"],
        ["table", "4", "3", "2"],
        ["cstar", "3"],
        ["linear", "3"],
        ["hpoly", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-timing"])
        assert exc.value.code == 2, argv


def test_verify_all_golden(capsys):
    # pins every status and detail string, the even-n residuals included
    code, out = run(capsys, ["verify", "all", "--format", "json", "--no-timing"])
    assert code == 0
    assert out == (GOLDEN / "verify_all.json").read_text()


def test_verify_all_text_golden(capsys):
    # the default format: the column layout, the details and the summary line
    code, out = run(capsys, ["verify", "all", "--no-timing"])
    assert code == 0
    assert out == (GOLDEN / "verify_all.txt").read_text()


def test_verify_suites_pass(capsys):
    assert run(capsys, ["verify", "identities", "--n-max", "6"])[0] == 0
    assert run(capsys, ["verify", "cstar", "--n-max", "6"])[0] == 0
    assert run(capsys, ["verify", "thm5", "--n-max", "5", "--m-max", "6"])[0] == 0
    assert run(capsys, ["verify", "weights", "--n-max", "4"])[0] == 0
    assert run(capsys, ["verify", "linear", "--n-max", "8"])[0] == 0


def perturb_direct(monkeypatch):
    # 1 more λ^(n-1)·u in every kl_direct(n), on each module that binds it
    original = expansion.kl_direct

    def perturbed(n):
        built = original(n)
        return built._replace(poly=built.poly + DiffPolynomial({((0,), n - 1): 1}))

    for module in (cli, expansion, reductions):
        monkeypatch.setattr(module, "kl_direct", perturbed)


def perturb_closed_form(monkeypatch):
    # 1 more in the coefficient total of S_k(2, 1) for every k, the integer c* reads
    original = expansion._p_sum_totals
    monkeypatch.setattr(
        expansion,
        "_p_sum_totals",
        lambda j, k, top: [
            t + ((j, alpha) == (2, 1)) for alpha, t in enumerate(original(j, k, top))
        ],
    )


def perturb_weight(monkeypatch):
    original = cli.weight_closed_form
    monkeypatch.setattr(
        cli,
        "weight_closed_form",
        lambda j, alpha, k: original(j, alpha, k) + ((j, alpha, k) == (2, 1, 1)),
    )


def check_status(capsys, argv, check):
    code, out = run(capsys, [*argv, "--format", "json", "--no-timing"])
    statuses = {c["check"]: c["status"] for c in json.loads(out)["checks"]}
    return code, statuses[check]


# the checks each per-suite perturbation below reaches; thm5's cross-check
# reads the theory coefficients, so it fails with the verdict it is compared to
PERTURBED_CHECKS = {
    "identities": ["first-identity n=3", "closed-form-agrees n=3"],
    "linear": ["linear-coefficient-formula n=3"],
    "thm5": ["surviving-rates n=3 m=3", "numeric-crosscheck n=3 m=3"],
    "cstar": ["c-star n=3 j=2"],
    "weights": ["weight-closed-form j,k<= 2 alpha<=2"],
}


@pytest.mark.parametrize(
    "suite, bounds, perturb",
    [
        ("identities", ["--n-max", "3"], perturb_direct),
        ("linear", ["--n-max", "3"], perturb_direct),
        ("thm5", ["--n-max", "3", "--m-max", "3"], perturb_direct),
        ("cstar", ["--n-max", "3"], perturb_closed_form),
        ("weights", ["--n-max", "2"], perturb_weight),
    ],
)
def test_verify_fails_on_one_changed_coefficient(capsys, monkeypatch, suite, bounds, perturb):
    # a negative control: every suite reads the values it checks
    argv = ["verify", suite, *bounds]
    checks = PERTURBED_CHECKS[suite]
    for check in checks:
        assert check_status(capsys, argv, check) == (0, "pass")
    perturb(monkeypatch)
    for check in checks:
        assert check_status(capsys, argv, check) == (1, "fail")
    # the text report names each failing check and counts it in its summary
    code, out = run(capsys, [*argv, "--no-timing"])
    assert code == 1, out
    lines = out.splitlines()
    failing = [line for line in lines if line.startswith(f"{'FAIL':>8}  ")]
    failed = {line.split("  [")[0] for line in failing}
    assert {f"{'FAIL':>8}  {check}" for check in checks} <= failed, out
    assert f" {len(failing)} failed, " in lines[-1], out


def test_non_integral_weight_closed_form_fails_by_name(capsys, monkeypatch):
    # a closed form off by 1/2 is a failed check (exit 1), not an internal error
    original = cli.weight_closed_form
    monkeypatch.setattr(
        cli,
        "weight_closed_form",
        lambda j, alpha, k: original(j, alpha, k) + Fraction(1, 2),
    )
    argv = ["verify", "weights", "--n-max", "2"]
    assert check_status(capsys, argv, "weight-closed-form j,k<= 2 alpha<=2") == (1, "fail")


@pytest.mark.parametrize(
    "change, kept",
    [
        # one coefficient moves h(z) by z^0 = 1 at every candidate
        (lambda c: (c[0] + 1, *c[1:]), []),
        # 1 − z moves h(z) at every candidate but z = 1
        (lambda c: (c[0] + 1, c[1] - 1, *c[2:]), [1]),
    ],
)
def test_kernel_exponents_drop_the_candidates_a_changed_linear_part_misses(change, kept):
    # the suite's kernel-exponents check compares this list with every
    # candidate; CHANGED_VALUES holds its negative control
    assert reductions.kernel_exponents(change(expansion.linear_part(4))) == kept
    assert reductions.kernel_exponents(expansion.linear_part(3)) == [1, -1]


@pytest.mark.parametrize(
    "name, value",
    [
        # an asymmetric verdict: rate 1 is inside the evaluated half, rate 2
        # only its mirror, so both are compared with the verdict
        ("thm5_verdict", lambda n, m: {0, 1}),
        ("thm5_verdict", lambda n, m: {0, 2}),
        ("h_at_root_of_unity_numeric", lambda c, m, r: 0),
    ],
)
def test_numeric_crosscheck_fails_on_a_changed_side(capsys, monkeypatch, name, value):
    argv = ["verify", "thm5", "--n-max", "3", "--m-max", "3"]
    assert check_status(capsys, argv, "numeric-crosscheck n=3 m=3") == (0, "pass")
    monkeypatch.setattr(cli, name, value)
    assert check_status(capsys, argv, "numeric-crosscheck n=3 m=3") == (1, "fail")


def test_lambda_zero_collapse_fails_on_a_changed_coefficient(capsys, monkeypatch):
    # the coefficient of λ^0·u^(n−1) in every kl_direct(n), which the λ = 0
    # slice reads, moves from n − 1 to n, or at n = 3 to 0, an empty slice
    original = expansion.kl_direct
    argv = ["verify", "linear", "--n-max", "3"]
    assert check_status(capsys, argv, "lambda-zero-collapse n=3") == (0, "pass")
    for change, pattern in ((1, {2: 3}), (-2, {})):

        def perturbed(n):
            built = original(n)
            return built._replace(poly=built.poly + DiffPolynomial({((n - 1,), 0): change}))

        with monkeypatch.context() as patch:
            for module in (cli, expansion, reductions):
                patch.setattr(module, "kl_direct", perturbed)
            assert reductions.lambda_zero_pattern(1, 2) == pattern
            assert check_status(capsys, argv, "lambda-zero-collapse n=3") == (1, "fail")


def test_lambda_zero_collapse_fails_on_a_second_term():
    # λ^0·u^(n−2) has weight n − 1, so the λ^0 degree-1 slice of the weight-n
    # f_n holds u^(n−1) alone: a second term there cannot be built
    for n in range(2, 8):
        with pytest.raises(ValueError):
            expansion.kl_direct(n).poly + DiffPolynomial({((n - 2,), 0): 1})


# (suite, check, cli function it reads, arguments of the changed call, change)
CHANGED_VALUES = [
    ("weights", "composition-count stars-and-bars", "enumerate_compositions",
     (2, 1, 1), lambda rows: rows[1:]),
    ("weights", "density-vs-word j,alpha<=5", "density", ((0, 1),), lambda d: d + 1),
    # the word 2·u·u' of (0, 1) with one of its u·u' turned into λ·u', of the
    # same weight: the same coefficient sum, but no longer λ-free
    ("weights", "density-vs-word j,alpha<=5", "differential_word", ((0, 1),),
     lambda w: w + DiffPolynomial({((1,), 1): 1, ((0, 1), 0): -1})),
    ("weights", "generating-function n<=20", "sum_of_products", (3, 1), lambda s: s + 1),
    ("weights", "product-sum recurrence-vs-enumeration n<=12",
     "sum_of_products_enumerated", (3, 1), lambda s: s + 1),
    ("weights", "factorial-sum n<=15", "factorial_sum_check", (3, 2),
     lambda sides: (sides[0], sides[1] + 1)),
    ("weights", "binomial-convolution n,m<=20", "convolution", (3, 2), lambda c: c + 1),
    ("cstar", "c-star n=2 j=1", "c_star_factorial_form", (2, 1), lambda f: f + 1),
    ("identities", "first-identity n=2", "reduce_first_order", (expansion.kl_direct(2).poly,),
     lambda p: p + DiffPolynomial({((0,), 1): 1})),
    ("identities", "second-identity n=1", "reduce_second_order", (expansion.kl_direct(1).poly,),
     lambda p: p + DiffPolynomial({((1,), 0): 1})),
    ("identities", "closed-form-agrees n=2", "kl_closed_form", (2,),
     lambda e: e._replace(poly=e.poly + DiffPolynomial({((0,), 1): 1}))),
    ("linear", "linear-coefficient-formula n=2", "c_alpha_formula", (2, 1), lambda c: c + 1),
    ("linear", "h-polynomial n=2", "h_poly", (2,), lambda h: [h[0] + 1, *h[1:]]),
    ("linear", "operator-factorization n=2", "linear_factorization", (2,),
     lambda p: p + DiffPolynomial({((1,), 0): 1})),
    ("linear", "kernel-exponents n=2", "kernel_exponents", (expansion.linear_part(2),),
     lambda roots: [*roots, 0]),
]


@pytest.mark.parametrize(
    "suite, check, name, at, change", CHANGED_VALUES, ids=[case[2] for case in CHANGED_VALUES]
)
def test_check_fails_on_one_changed_value(capsys, monkeypatch, suite, check, name, at, change):
    # a negative control per check: one value it reads, changed at one call
    original = getattr(cli, name)

    def changed(*args):
        value = original(*args)
        return change(value) if args == at else value

    argv = ["verify", suite, "--n-max", "2"]
    assert check_status(capsys, argv, check) == (0, "pass")
    monkeypatch.setattr(cli, name, changed)
    assert check_status(capsys, argv, check) == (1, "fail")


@pytest.mark.parametrize(
    "change", [{1: 25, 2: -1}, {1: -25, 2: 1}], ids=["above-base", "below-zero"]
)
def test_generating_function_fails_on_an_entry_outside_its_digit_range(
    capsys, monkeypatch, change
):
    # S(3, ·) = (1, 6, 11, 6) with change[α] added to S(3, α): ±25 at α = 1
    # against ∓1 at α = 2 keeps the row's value at the point the check reads,
    # B = 4! + 1 = 25, but takes S(3, 1) outside [0, 25).  One changed
    # coefficient is CHANGED_VALUES' case.
    original = cli.sum_of_products
    monkeypatch.setattr(
        cli,
        "sum_of_products",
        lambda n, alpha: original(n, alpha) + (change.get(alpha, 0) if n == 3 else 0),
    )
    argv = ["verify", "weights", "--n-max", "2"]
    assert check_status(capsys, argv, "generating-function n<=20") == (1, "fail")


# each suite at the end of its accepted range: every identity, even residuals
# included; every linear-part check; every rate of every modulus 3..20; the
# weight grid; every c* row
LARGEST_GRIDS = {
    "identities_24": ["identities", "--n-max", "24"],
    "linear_24": ["linear", "--n-max", "24"],
    "thm5_20": ["thm5", "--n-max", "20", "--m-max", "20"],
    "weights_10": ["weights", "--n-max", "10"],
    "cstar_28": ["cstar", "--n-max", "28"],
}


@pytest.mark.parametrize("golden", LARGEST_GRIDS)
def test_verify_golden(capsys, golden):
    argv = ["verify", *LARGEST_GRIDS[golden], "--format", "json", "--no-timing"]
    code, out = run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / f"verify_{golden}.json").read_text()


def run_child(script):
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )


def test_no_command_loads_mpmath():
    # nor dataclasses, whose import pulls in inspect, ast, dis and tokenize
    script = (
        "import sys, contextlib, io\n"
        "from klpoly.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['expand', '4'], ['table', '4', '3', '2'], ['linear', '5'],\n"
        "                 ['cstar', '4'], ['hpoly', '5'],\n"
        "                 ['verify', 'identities', '--n-max', '4'],\n"
        "                 ['verify', 'cstar', '--n-max', '3'],\n"
        "                 ['verify', 'weights', '--n-max', '2'],\n"
        "                 ['verify', 'linear', '--n-max', '4'],\n"
        "                 ['verify', 'thm5', '--n-max', '3', '--m-max', '3']):\n"
        "        assert main(argv) == 0, argv\n"
        "        loaded = {'mpmath', 'dataclasses', 'inspect'} & set(sys.modules)\n"
        "        print(sorted(loaded) or 'none', file=sys.stderr)\n"
    )
    child = run_child(script)
    assert child.returncode == 0, child.stderr
    assert child.stderr.split() == ["none"] * 10


def test_verify_thm5_runs_with_mpmath_blocked():
    # the 110-digit cross-check needs only the standard library
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from klpoly.cli import main\n"
        "sys.exit(main(['verify', 'thm5', '--n-max', '20', '--m-max', '20',\n"
        "               '--format', 'json', '--no-timing']))\n"
    )
    child = run_child(script)
    assert child.returncode == 0, child.stderr
    assert child.stdout == (GOLDEN / "verify_thm5_20.json").read_text()


HELP = ("-h", "--help"), None, None, argparse.SUPPRESS, "show this help message and exit"
FORMAT = ("--format",), None, ["json", "text"], "text", None


def positional(dest, choices=None):
    return dest, None if choices else int, choices, None, None


# Each subcommand, in order: its help, then each argument as (option strings,
# or dest for a positional; type; choices; default; help).
CLI_SURFACE = [
    ("expand", "expand the n-th polynomial, 1 <= n <= 24", [
        HELP,
        positional("n"),
        FORMAT,
    ]),
    ("table", "density table for compositions of (j, alpha, k)", [
        HELP, positional("j"), positional("alpha"), positional("k"), FORMAT,
    ]),
    ("cstar", "degree-wise coefficient sums (all zero)", [HELP, positional("n"), FORMAT]),
    ("linear", "linear-part coefficients", [HELP, positional("n"), FORMAT]),
    ("hpoly", "generating polynomial of the linear part", [HELP, positional("n"), FORMAT]),
    ("verify", "run a verification suite", [
        HELP,
        positional("suite", ["all", "identities", "cstar", "weights", "linear", "thm5"]),
        (("--n-max",), int, None, None, None),
        (("--m-max",), int, None, None, None),
        (("--no-timing",), None, None, False, "omit wall time from the report"),
        FORMAT,
    ]),
]


def test_cli_surface():
    (sub,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    surface = [
        (name, helps[name], [
            (
                tuple(a.option_strings) or a.dest,
                a.type,
                None if a.choices is None else list(a.choices),
                a.default,
                a.help,
            )
            for a in parser._actions
        ])
        for name, parser in sub.choices.items()
    ]
    assert surface == CLI_SURFACE


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_removed_parallel_option_is_usage_error(capsys):
    # --closed-form too: `verify identities` compares the closed form instead
    for removed in (["--parallel", "2"], ["--closed-form"]):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "3", *removed])
        assert exc.value.code == 2, removed
        assert capsys.readouterr().out == "", removed


def test_verify_calls_suites_through_module_attributes(capsys, monkeypatch):
    # a wrapper installed on cli.suite_* (a profiler or tracer) sees each run
    calls = []
    monkeypatch.setattr(cli, "suite_cstar", lambda n_max: calls.append(n_max) or [])
    assert run(capsys, ["verify", "cstar", "--n-max", "3"])[0] == 0
    assert run(capsys, ["verify", "cstar"])[0] == 0
    assert calls == [3, 8]


def test_empty_grid_is_usage_error(capsys):
    for argv in (
        ["verify", "linear", "--n-max", "0"],
        ["verify", "thm5", "--m-max", "1"],
        ["verify", "identities", "--n-max", "-1"],
        ["verify", "all", "--n-max", "2"],  # thm5 needs n >= 3
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, argv


def test_verify_bound_above_range_is_usage_error(capsys, monkeypatch):
    # checked for every suite before any of them runs
    calls = []
    for name in cli.SUITES:
        monkeypatch.setattr(cli, f"suite_{name}", lambda *a: calls.append(a) or [])
    for argv in (
        ["verify", "weights", "--n-max", "11"],
        ["verify", "identities", "--n-max", "25"],
        ["verify", "cstar", "--n-max", "29"],
        ["verify", "linear", "--n-max", "25"],
        ["verify", "thm5", "--n-max", "21"],
        ["verify", "thm5", "--m-max", "21"],
        ["verify", "all", "--n-max", "12"],  # inside every range but weights'
        # only thm5 takes an m bound
        ["verify", "identities", "--n-max", "1", "--m-max", "-5"],
        ["verify", "cstar", "--n-max", "1", "--m-max", "3"],
        ["verify", "weights", "--n-max", "1", "--m-max", "3"],
        ["verify", "linear", "--n-max", "2", "--m-max", "3"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, argv
    assert calls == []
    assert main(["verify", "weights", "--n-max", "10"]) == 0
    assert main(["verify", "thm5", "--n-max", "20", "--m-max", "20"]) == 0
    assert main(["verify", "all", "--n-max", "3", "--m-max", "3"]) == 0
    assert calls == [(10,), (20, 20), (3,), (3,), (3,), (3,), (3, 3)]


def test_every_suite_default_lies_in_its_accepted_range():
    # cmd_verify checks only the bounds a user gives: a default runs unchecked
    for name, bounds in cli.SUITES.items():
        suite = getattr(cli, f"suite_{name}")
        assert len(bounds) == len(inspect.signature(suite).parameters), name
        for default, accepted in bounds:
            assert default in accepted, (name, default)


def test_value_error_inside_a_suite_is_an_internal_error(capsys, monkeypatch):
    # only a rejected argument exits 2; a ValueError while computing exits 3
    def broken(beta):
        raise ValueError("not a constant: 1 + 1·λ")

    monkeypatch.setattr(cli, "density", broken)
    assert main(["verify", "weights", "--n-max", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: ValueError: not a constant: 1 + 1·λ"
    ]


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(n_max):
        raise RecursionError("maximum recursion depth exceeded\nwhile calling")

    monkeypatch.setattr(cli, "suite_cstar", broken)
    assert main(["verify", "cstar", "--n-max", "3"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "internal error: RecursionError: maximum recursion depth exceeded while calling"
    ]


def start_cli(argv, stdout, unbuffered=False):
    src = Path(cli.__file__).parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "klpoly.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_reader_that_closes_early_gives_the_closed_stdout_code():
    # 820 kB of JSON: far more than a pipe holds, so the writer is still
    # printing when the reader goes
    child = start_cli(["expand", "24", "--format", "json"], subprocess.PIPE)
    assert child.stdout.read(10) == b'{\n  "n": 2'
    child.stdout.close()
    with child.stderr:
        err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (cli.CLOSED_STDOUT, b"")


def test_closed_stdout_leaves_no_descriptor_open():
    # main itself, so the process lives on after it returns: the descriptor
    # it opens on os.devnull must be closed once it stands in for stdout
    script = (
        "import json, os, sys\n"
        "from klpoly.cli import main\n"
        "def open_fds():\n"
        "    fds = []\n"
        "    for fd in range(64):\n"
        "        try:\n"
        "            os.fstat(fd)\n"
        "        except OSError:\n"
        "            continue\n"
        "        fds.append(fd)\n"
        "    return fds\n"
        "before = open_fds()\n"
        "code = main(['expand', '24', '--format', 'json'])\n"
        "print(json.dumps([code, before, open_fds()]), file=sys.stderr)\n"
    )
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    assert child.stdout.read(10) == '{\n  "n": 2'
    child.stdout.close()
    with child.stderr:
        err = child.stderr.read()
    assert child.wait(timeout=60) == 0
    code, before, after = json.loads(err)
    assert (code, after) == (cli.CLOSED_STDOUT, before)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_closed_before_the_start_gives_the_closed_stdout_code(unbuffered):
    # buffered, the short output first reaches the pipe in main's flush;
    # unbuffered, in print itself
    read_end, write_end = os.pipe()
    os.close(read_end)
    child = start_cli(["expand", "3"], write_end, unbuffered)
    os.close(write_end)
    with child.stderr:
        err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (cli.CLOSED_STDOUT, b"")


SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "x"])
ARITY = {"expand": 1, "table": 3, "cstar": 1, "linear": 1, "hpoly": 1}


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from([*ARITY, "verify", "bogus"]))
    if command == "verify":
        # bounds always small, so no case runs a default-sized grid; only all
        # and thm5 take --m-max, so elsewhere it is given half the time
        suite = draw(st.sampled_from(["all", *cli.SUITES, "bogus"]))
        args = [suite, "--n-max", draw(SMALL)]
        if suite in ("all", "thm5") or draw(st.booleans()):
            args += ["--m-max", draw(SMALL)]
    else:
        arity = ARITY.get(command, 0)
        args = draw(st.lists(SMALL, min_size=arity, max_size=arity + 1))
    flags = ["--format=json", "--no-timing", "--bogus"]
    return [command, *args, *draw(st.lists(st.sampled_from(flags), max_size=2, unique=True))]


@given(small_argv())
@settings(max_examples=60, deadline=None)
def test_random_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            assert exc.code == 2, argv
            return
    assert code in {0, 1, 2, 3}, argv
    if code >= 2:
        assert len(err.getvalue().splitlines()) == 1, argv
