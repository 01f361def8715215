import argparse
import json
import time

import numpy as np
import pytest

import paraunitary as pu
from paraunitary import cli, jsonio, ppu
from paraunitary.cli import main
from paraunitary.laurent import LaurentOp
from paraunitary.numfield import full_subspace

from conftest import contains, diag_algebra, load_module, run_python


@pytest.fixture
def files(tmp_path):
    """Algebra and element files for the diagonal algebra on C^2."""
    a = diag_algebra(2)
    paths = {}

    def write(name, payload):
        p = tmp_path / name
        p.write_text(jsonio.canonical_dumps(payload) + "\n")
        paths[name] = str(p)
        return str(p)

    write("alg.json", jsonio.algebra_to_json(a))
    write("one.json", jsonio.laurent_to_json(LaurentOp.t_power(2, 0)))
    write("t.json", jsonio.laurent_to_json(LaurentOp.t_power(2, 1)))
    write(
        "el.json",
        jsonio.laurent_to_json(
            LaurentOp(2, {1: np.diag([1.0, 0.0]), 2: np.diag([0.0, 1.0])})
        ),
    )
    write(
        "neg.json",
        jsonio.laurent_to_json(
            LaurentOp(2, {0: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})
        ),
    )
    write(
        "bad.json",
        jsonio.laurent_to_json(LaurentOp(2, {0: 0.5 * np.eye(2), 1: 0.5 * np.eye(2)})),
    )
    paths["tmp"] = str(tmp_path)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_identity(files, capsys):
    code, out, _ = run_cli(capsys, "factor", files["alg.json"], files["one.json"])
    assert code == 0
    assert out == '{"factors":[],"shift":0}\n'


def test_factor_diagonal_element(files, capsys):
    code, out, err = run_cli(capsys, "factor", files["alg.json"], files["el.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["shift"] == 0
    assert len(payload["factors"]) == 2
    first = jsonio.subspace_from_json(payload["factors"][0])
    assert first.dim == 2
    assert json.loads(err)["reconstruction_residual"] <= 1e-8


def test_factor_normalizes_negative_exponents(files, capsys):
    code, out, _ = run_cli(capsys, "factor", files["alg.json"], files["neg.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["shift"] == 1
    assert len(payload["factors"]) == 1


def test_factor_rejects_non_paraunitary(files, capsys):
    code, out, err = run_cli(capsys, "factor", files["alg.json"], files["bad.json"])
    assert code == 1
    assert out == ""
    assert "paraunitarity" in json.loads(err)["error"]


def test_malformed_json_is_a_usage_error(files, capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(capsys, "factor", files["alg.json"], str(broken))
    assert code == 2
    assert json.loads(err)["kind"] == "input"


def test_missing_file_is_a_usage_error(files, capsys):
    code, _, err = run_cli(capsys, "factor", files["alg.json"], files["tmp"] + "/absent.json")
    assert code == 2


def test_lattice_leq(files, capsys):
    code, out, _ = run_cli(
        capsys, "lattice", "leq", files["alg.json"], files["one.json"], files["t.json"]
    )
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(
        capsys, "lattice", "leq", files["alg.json"], files["t.json"], files["one.json"]
    )
    assert code == 0 and out == "false\n"


def test_lattice_meet_join(files, capsys, tmp_path):
    flipped = LaurentOp(2, {2: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})
    flipped_path = tmp_path / "flipped.json"
    flipped_path.write_text(jsonio.canonical_dumps(jsonio.laurent_to_json(flipped)))
    code, out, _ = run_cli(
        capsys, "lattice", "meet", files["alg.json"], files["el.json"], str(flipped_path)
    )
    assert code == 0
    meet_op = jsonio.laurent_from_json(json.loads(out))
    assert meet_op.distance(LaurentOp.t_power(2, 1)) < 1e-9
    code, out, _ = run_cli(
        capsys, "lattice", "join", files["alg.json"], files["el.json"], str(flipped_path)
    )
    join_op = jsonio.laurent_from_json(json.loads(out))
    assert join_op.distance(LaurentOp.t_power(2, 2)) < 1e-9


def test_verify_passes_on_scalars(files, capsys, tmp_path):
    alg1 = tmp_path / "c1.json"
    alg1.write_text(
        jsonio.canonical_dumps(jsonio.algebra_to_json(pu.generate_algebra(1, [])))
    )
    code, out, _ = run_cli(capsys, "verify", str(alg1), "--samples", "25", "--seed", "3")
    assert code == 0
    reports = json.loads(out)
    assert [r["check"] for r in reports] == sorted(pu.CHECK_NAMES)
    assert all(r["pass"] and not r["inconclusive"] for r in reports)


def test_verify_zero_samples_is_inconclusive(files, capsys):
    code, out, _ = run_cli(
        capsys, "verify", files["alg.json"], "--samples", "0", "--checks", "order_unit"
    )
    assert code == 1
    assert json.loads(out)[0]["inconclusive"]


def test_verify_check_subset(files, capsys):
    code, out, _ = run_cli(
        capsys, "verify", files["alg.json"], "--samples", "25",
        "--checks", "normality,order_unit",
    )
    assert code == 0
    assert [r["check"] for r in json.loads(out)] == ["normality", "order_unit"]


def test_random_is_byte_deterministic(files, capsys):
    args = ("random", files["alg.json"], "--factors", "3", "--shift", "1", "--seed", "42")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    op = jsonio.laurent_from_json(json.loads(out1))
    assert pu.is_pure(op)


def test_commutant_output_reloads_as_an_algebra(files, capsys):
    code, out, _ = run_cli(capsys, "commutant", files["alg.json"])
    assert code == 0
    reloaded = jsonio.algebra_from_json(json.loads(out))
    assert reloaded.linear_dim == 2  # commutant of the diagonal algebra


@pytest.mark.parametrize("scale", [1e12, 1e-12, 1e300])
def test_commutant_does_not_depend_on_the_generator_scale(capsys, tmp_path, scale):
    # scale E_11 generates the diagonal algebra, its own commutant; at
    # 1e12 and 1e300 the identity used to fall below the rank cutoff (exit
    # 2), and at 1e-12 the generator did (the scalars, commutant M_2)
    path = tmp_path / "alg.json"
    gen = np.diag([scale, 0.0])
    path.write_text(jsonio.canonical_dumps(
        {"dim": 2, "generators": [jsonio.matrix_to_json(gen)]}
    ) + "\n")
    code, out, err = run_cli(capsys, "commutant", str(path))
    assert code == 0, err
    reloaded = jsonio.algebra_from_json(json.loads(out))
    assert reloaded.linear_dim == 2
    assert contains(reloaded, np.diag([1.0, 0.0]))


def test_eval_at_minus_one(files, capsys):
    code, out, _ = run_cli(capsys, "eval", files["t.json"], "--z", "-1")
    assert code == 0
    m = jsonio.matrix_from_json(json.loads(out))
    assert np.allclose(m, -np.eye(2))


def test_eval_rejects_off_circle(files, capsys):
    code, _, err = run_cli(capsys, "eval", files["t.json"], "--z", "0.5")
    assert code == 2
    code, out, err = run_cli(capsys, "eval", files["t.json"], "--z", "nan")
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "input"


def test_eval_rejects_a_trim_that_drops_terms(capsys, tmp_path):
    # 1 + 0.5 t is 1.5 at z = 1; a trim of 0.9 would drop the t term
    element = tmp_path / "affine.json"
    element.write_text(jsonio.canonical_dumps(jsonio.laurent_to_json(
        LaurentOp(1, {0: np.eye(1), 1: 0.5 * np.eye(1)})
    )))
    code, out, _ = run_cli(capsys, "eval", str(element), "--z", "1")
    assert code == 0
    assert np.allclose(jsonio.matrix_from_json(json.loads(out)), 1.5)
    code, out, err = run_cli(capsys, "eval", str(element), "--z", "1", "--tol-trim", "0.9")
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "input"


def test_out_flag_writes_file(files, capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "factor", files["alg.json"], files["one.json"], "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text() == '{"factors":[],"shift":0}\n'


def test_tolerance_flags_validated(files, capsys):
    code, _, err = run_cli(
        capsys, "factor", files["alg.json"], files["one.json"], "--tol-eq", "-1"
    )
    assert code == 2
    for flag, value in [("--tol-eq", "inf"), ("--tol-eq", "1e300"),
                        ("--tol-rank", "nan"), ("--tol-trim", "inf")]:
        code, out, err = run_cli(
            capsys, "factor", files["alg.json"], files["one.json"], flag, value
        )
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "input"


def test_infinite_tolerance_cannot_pass_a_non_paraunitary_factor(files, capsys, tmp_path):
    # diag(2, 1) is not paraunitary; with eq = inf every residual check
    # would pass and factor would exit 0 with residual 1
    element = tmp_path / "diag21.json"
    element.write_text(jsonio.canonical_dumps(
        jsonio.laurent_to_json(LaurentOp(2, {0: np.diag([2.0, 1.0])}))
    ))
    code, out, _ = run_cli(capsys, "factor", files["alg.json"], str(element))
    assert code == 1 and out == ""
    code, out, err = run_cli(
        capsys, "factor", files["alg.json"], str(element), "--tol-eq", "inf"
    )
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "input"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--seed", "-1"], "seed must be non-negative"),
        (["verify", "--samples", "-1"], "sample count must be non-negative"),
        (["random", "--seed", "-1"], "seed must be non-negative"),
        (["random", "--factors", "-1"], "factor count must be non-negative"),
    ],
    ids=["verify-seed", "verify-samples", "random-seed", "random-factors"],
)
def test_negative_counts_are_input_errors(files, capsys, argv, message):
    command, *flags = argv
    code, out, err = run_cli(capsys, command, files["alg.json"], *flags)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": message, "kind": "input"}


@pytest.mark.parametrize(
    "argv",
    [["factor", "alg.json", "el.json", "--seed", "1"],
     ["lattice", "meet", "alg.json", "el.json", "el.json", "--samples", "5"]],
    ids=["factor-seed", "meet-samples"],
)
def test_flags_a_command_does_not_read_are_usage_errors(files, capsys, argv):
    code, out, err = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


_EVERY_COMMAND = ["--out", "--tol-eq", "--tol-rank", "--tol-trim"]


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = cli.build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    flags = {
        name: sorted(f for action in sub._actions for f in action.option_strings
                     if f not in ("-h", "--help"))
        for name, sub in commands.items()
    }
    assert flags == {
        "factor": _EVERY_COMMAND,
        "lattice": _EVERY_COMMAND,
        "verify": sorted(_EVERY_COMMAND + ["--checks", "--points", "--samples", "--seed"]),
        "random": sorted(_EVERY_COMMAND + ["--factors", "--seed", "--shift"]),
        "commutant": _EVERY_COMMAND,
        "eval": sorted(_EVERY_COMMAND + ["--z"]),
    }
    assert sum(map(len, flags.values())) == 32


def _calls_across_commands(files):
    """One argv per subcommand, with a usage error and help requests in between."""
    alg, el, t = files["alg.json"], files["el.json"], files["t.json"]
    return [
        ["factor", alg, el],
        ["lattice", "meet", alg, el, t],
        ["factor", alg, el, "--seed", "1"],
        ["verify", alg, "--checks", "order_unit", "--samples", "3", "--seed", "2"],
        ["-h"],
        ["random", alg, "--factors", "2", "--seed", "5"],
        ["lattice", "-h"],
        ["commutant", alg],
        ["lattice", "leq", alg, el, t, "--tol-eq", "1e-7"],
        ["eval", t, "--z", "-1"],
        ["frobnicate"],
        ["lattice", "join", alg, el, t],
    ]


def test_reused_parser_answers_like_a_fresh_one(files, capsys):
    calls = _calls_across_commands(files)
    fresh = []
    for argv in calls:
        cli._shared_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert reused == fresh
    # verify on three samples is inconclusive, so it exits 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 2, 0]
    assert cli._shared_parser.cache_info().misses == 1
    assert cli.build_parser() is not cli.build_parser()


def test_huge_coefficient_is_an_input_error(tmp_path):
    # 1e200 is a finite entry, but its Frobenius norm overflows; eval
    # used to print the zero matrix and exit 0
    element = tmp_path / "huge.json"
    element.write_text(json.dumps({"dim": 1, "coeffs": {
        "0": {"rows": 1, "cols": 1, "data": [[[1e200, 0.0]]]},
        "1": {"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]},
    }}))
    proc = run_python("-m", "paraunitary", "eval", str(element), "--z", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert json.loads(proc.stderr) == {"error": "coefficient norm overflows", "kind": "input"}


@pytest.mark.parametrize("exponent", [10**30, -10**30])
def test_eval_beyond_the_exponent_horizon_is_a_numerical_error(capsys, tmp_path, exponent):
    element = tmp_path / "far.json"
    element.write_text(json.dumps({"dim": 1, "coeffs": {
        str(exponent): {"rows": 1, "cols": 1, "data": [[[1, 0]]]},
    }}))
    code, out, err = run_cli(capsys, "eval", str(element), "--z", "1")
    assert (code, out, err) == (0, '{"cols":1,"data":[[[1,0]]],"rows":1}\n', "")
    # off the circle by 1e-9, |e| = 1e30 is far beyond the horizon of about 10
    z = "1.000000001" if exponent > 0 else "0.999999999"
    for point in (z, "1j", "(0.6+0.8j)"):
        code, out, err = run_cli(capsys, "eval", str(element), "--z", point)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and json.loads(err)["kind"] == "numerical"


def test_eval_off_the_circle_bounds_the_modulus_error(capsys, tmp_path):
    # |1.000000001 ** 1e10| is e^10: the modulus error, not only the phase
    # error, grows with |e|, so the exponent is beyond the horizon
    element = tmp_path / "far.json"
    element.write_text(json.dumps({"dim": 1, "coeffs": {
        str(10**10): {"rows": 1, "cols": 1, "data": [[[1, 0]]]},
    }}))
    code, out, err = run_cli(capsys, "eval", str(element), "--z", "1.000000001")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["kind"] == "numerical"


@pytest.mark.parametrize("argv, dim", [
    (["factor"], 1),
    (["factor"], 2),
    (["lattice", "meet"], 2),
    (["lattice", "join"], 2),
])
def test_peel_of_huge_degree_is_refused_quickly(capsys, tmp_path, argv, dim):
    # t^N on C, or t^N diag(1, 0) + diag(0, 1) over the diagonal algebra on
    # C^2, N = 10^30: the peel would take a step per unit of degree
    proj = np.diag([1.0, 0.0][:dim])
    element = LaurentOp(dim, {10**30: proj, 0: np.eye(dim) - proj})
    for name, payload in (("alg.json", jsonio.algebra_to_json(diag_algebra(dim))),
                          ("el.json", jsonio.laurent_to_json(element))):
        (tmp_path / name).write_text(jsonio.canonical_dumps(payload))
    operands = [str(tmp_path / "el.json")] * (1 if argv == ["factor"] else 2)
    start = time.process_time()
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "alg.json"), *operands)
    assert time.process_time() - start < 10.0
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["kind"] == "input"


def test_factor_certifies_each_element_once(files, capsys, certifications):
    # the input, the peel's remainder and the reassembled product, which
    # also gives the reconstruction residual
    code, _, err = run_cli(capsys, "factor", files["alg.json"], files["el.json"])
    assert code == 0 and json.loads(err) == {"reconstruction_residual": 0}
    assert len(certifications) == 3


def test_tiny_coefficient_survives_eval(capsys, tmp_path):
    # the squares of 1e-300 underflow; eval used to print the zero matrix
    element = tmp_path / "tiny.json"
    element.write_text(json.dumps({"dim": 1, "coeffs": {
        "0": {"rows": 1, "cols": 1, "data": [[[1e-300, 0]]]},
    }}))
    code, out, err = run_cli(capsys, "eval", str(element))
    assert code == 0 and err == ""
    assert out == '{"cols":1,"data":[[[1e-300,0]]],"rows":1}\n'


def test_factor_checks_its_reconstruction_residual(files, capsys, monkeypatch):
    # a peel that drops every factor reassembles to the identity, which
    # is a distance of 1 from the diagonal element
    monkeypatch.setattr(cli, "factor_positive",
                        lambda el: ppu.FactorList(0, (), pu.ppu_t_power(el.algebra, 0)))
    code, out, err = run_cli(capsys, "factor", files["alg.json"], files["el.json"])
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "numerical"
    assert "reconstruction residual" in json.loads(err)["error"]


_ONE = [[[1.0, 0.0]]]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": 1, "data": [[[1.0]]]}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": 1, "data": [["x"]]}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": 1, "data": [[["x", 0]]]}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": 1, "data": [[[1, 0], [2]]]}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 2, "cols": 1, "data": _ONE}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": "a", "cols": 1, "data": _ONE}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": 1, "data": _ONE},
                                      "00": {"rows": 1, "cols": 1, "data": _ONE}}}),
        ("eval", {"dim": 1, "coeffs": []}),
        ("eval", {"dim": 1, "coeffs": "x"}),
        ("eval", {"dim": -3, "coeffs": {}}),
        ("eval", {"dim": "x", "coeffs": {}}),
        ("eval", [1, 2]),
        ("algebra", {"dim": 1, "generators": 5}),
        ("algebra", {"dim": "x", "generators": []}),
        ("algebra", {"dim": 1, "generators": [{"rows": 1, "cols": 1, "data": [[[1]]]}]}),
        ("eval", {"dim": 1.7, "coeffs": {"0": {"rows": 1, "cols": 1, "data": _ONE}}}),
        ("eval", {"dim": True, "coeffs": {"0": {"rows": 1, "cols": 1, "data": _ONE}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1.7, "cols": 1, "data": _ONE}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": True, "data": _ONE}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": 1, "data": [[["1.5", 0]]]}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": 1, "data": [[[True, False]]]}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": 1, "data": [[[1.0, True]]]}}}),
        ("eval", {"dim": 1, "coeffs": {"0": {"rows": 1, "cols": 1, "data": [[[10**400, 0]]]}}}),
        ("algebra", {"dim": 2.5, "generators": []}),
    ],
    ids=["one-element-entry", "string-entry", "string-part", "ragged-entries",
         "row-count", "string-rows", "duplicate-exponent", "coeffs-list", "coeffs-string", "negative-dim",
         "string-dim", "not-an-object", "generators-int", "algebra-string-dim",
         "generator-entry", "float-dim", "bool-dim", "float-rows", "bool-cols",
         "numeric-string-entry", "bool-entries", "bool-among-floats", "huge-integer-entry",
         "algebra-float-dim"],
)
def test_malformed_payload_is_an_input_error(files, capsys, tmp_path, command, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    argv = ["eval", str(path)] if command == "eval" else ["commutant", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["kind"] == "input"


def test_console_entry_point_runs():
    proc = run_python("-m", "paraunitary", "--help")
    assert proc.returncode == 0
    assert "factor" in proc.stdout


def test_unknown_subcommand_exits_two():
    proc = run_python("-m", "paraunitary", "frobnicate")
    assert proc.returncode == 2


def _non_member_line(n):
    # the all-ones line is moved out of its span by diag(1, 0) in the
    # commutant of the diagonal algebra, so it fails certification
    return pu.orthonormal_basis(np.ones((n, 1)))


@pytest.mark.parametrize("op", ["meet", "join", "factor"])
@pytest.mark.parametrize("fault", ["non-member-divisor", "negative-exponent"])
def test_lattice_numerical_failure_exits_one(files, capsys, monkeypatch, op, fault):
    # the divisor is the kernel of the operands' stacked constant coefficients
    if fault == "non-member-divisor":
        monkeypatch.setattr(ppu, "kernel", lambda m: _non_member_line(m.shape[1]))
        message = "failed certification"
    else:
        # a full head divides by t, which leaves a t^-1 coefficient
        monkeypatch.setattr(ppu, "kernel", lambda m: full_subspace(m.shape[1]))
        message = "negative exponent"
    alg, el = files["alg.json"], files["el.json"]
    argv = ["factor", alg, el] if op == "factor" else ["lattice", op, alg, el, el]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["kind"] == "numerical"
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("op", ["meet", "join"])
def test_lattice_on_three_blocks_at_degree_16(capsys, tmp_path, op):
    # the window meet and join exited 2 or 1 on 11 of these 12 calls
    inputs = load_module("bench/inputs.py")
    a = inputs.build_algebra("block:2+2+3", 1)
    alg = str(tmp_path / "alg.json")
    inputs.write_algebra(alg, a)
    for s in range(6):
        x = pu.random_ppu(a, 16, s % 3, 100 + s)
        y = pu.random_ppu(a, 16, 0, 200 + s)
        paths = [str(tmp_path / f"{name}{s}.json") for name in "xy"]
        for path, el in zip(paths, (x, y)):
            inputs.write_element(path, el)
        code, out, err = run_cli(capsys, "lattice", op, alg, *paths)
        assert code == 0, err
        bound = pu.PpuElement(jsonio.laurent_from_json(json.loads(out)), a)
        for el in (x, y):
            assert pu.leq(bound, el) if op == "meet" else pu.leq(el, bound)
