import hashlib
import json

import pytest

from rootgraded.cli import load_quadruple, main
from rootgraded.coord import InternalConsistencyError, quadruple_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_roots_bc2(capsys):
    code, out = run_cli(capsys, "roots", "--family", "BC", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "BC"
    assert data["rank"] == 2
    assert len(data["roots"]) == 13
    assert data["lengths"]["2e1"] == "extralong"


def test_algebra_json(capsys):
    code, out = run_cli(capsys, "algebra", "--family", "A", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 8 and data["cartan_dim"] == 2
    assert data["root_spaces"]["e1-e2"] == [[["v:1", "v:2", "1"]]]


def test_algebra_degenerate_input(capsys):
    code, _ = run_cli(capsys, "algebra", "--family", "A", "--n", "1")
    assert code == 2


def test_fh_output(capsys):
    code, out = run_cli(capsys, "fh", "--preset", "group_ring:m=3", "--ell", "4")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "D"
    assert data["fh_dim"] == data["bb_dim"]
    assert data["k_zero_uniform"] is True


def test_verify_acceptance_style_run(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--k", "zero",
        "--suite", "jacobi,grading,subsystem", "--seed", "42",
    )
    assert code == 0
    data = json.loads(out)
    statuses = {c["name"]: c["status"] for c in data["checks"]}
    assert statuses["antisymmetry"] == "pass"
    assert statuses["grading"] == "pass"
    assert statuses["jacobi-random"] == "pass"
    assert statuses["jacobi-exhaustive"] == "pass"  # dim 55 <= 300
    # BC_3, the (n-1)-truncation, is irreducible: the suite runs
    (sub,) = [c for c in data["checks"] if c["name"] == "subsystem"]
    assert sub == {"name": "subsystem", "status": "pass", "witnesses": []}
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)


@pytest.mark.parametrize(
    "family,n,ell,preset,digest",
    [
        ("BC", "5", "4", "symplectic:m=2",
         "51ae455a2255d6ed4e4273dfb14adba00c00b3a8f757709f5bc10ef427c352ee"),
        ("A", "6", "5", "matrix:k=2",
         "fea172c77d7854c192c0ae102936a6c0a5969a540efb2bc39dce02aa5a2d07a4"),
        ("B", "6", "5", "clifford:d=2",
         "06d51d3b42633c3efd2d598b016459bc5b8a362a2389d4f0d5c32006c136a871"),
    ],
)
def test_verify_report_bytes_pinned(capsys, family, n, ell, preset, digest):
    # the report bytes of the suites whose reports the benchmark does not pin
    code, out = run_cli(
        capsys,
        "verify", "--family", family, "--n", n, "--ell", ell, "--preset", preset,
        "--suite", "derivation,homology,transition,uniform", "--samples", "0",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "family,n,ell,preset,digest",
    [
        ("BC", "5", "4", "symplectic:m=2",
         "62ba32ecca5103a897cd717adfb25958378fcbcd616ae7e83334388029a9b3d9"),
        ("BC", "5", "4", "matrix_hermitian:k=2,m=2",
         "9c156025c77bc203c77cae67f5ce34c552052bf73528727256d477937fbf1668"),
        ("A", "6", "5", "matrix:k=2",
         "aba2d8c5e140075d59eda403619ff40a3e2ebac4aa0f27f6814bb571ce12bc01"),
        ("D", "7", "5", "group_ring:m=3",
         "a695b513541fa995c94dc323cf5b80e00a357f025d57085fb0a14e1950423e3a"),
        ("B", "6", "5", "clifford:d=2",
         "6465d0fcff4c51809fea58f15e5a61ca6902d998c7e3c1be6bc0a29d078c43e0"),
        ("C", "6", "5", "matrix_transpose:k=2",
         "9fddf1569804212f3ccbf8949d75f29bddebe8dffc0eaf1cdebbefd997fbdd26"),
    ],
)
def test_transition_report_bytes_pinned(capsys, family, n, ell, preset, digest):
    # the transition suite on the six headline models reports the lemma's
    # verdict, with the bytes it had when it computed the level operator
    code, out = run_cli(
        capsys,
        "verify", "--family", family, "--n", n, "--ell", ell, "--preset", preset,
        "--suite", "transition", "--samples", "0", "--k", "zero",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_empty_suite_exits_2(capsys):
    code, _ = run_cli(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "", "--seed", "1",
    )
    assert code == 2


def test_verify_requires_seed_for_samples(capsys):
    code, _ = run_cli(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "jacobi",
    )
    assert code == 2


def test_verify_unknown_suite_exits_2(capsys):
    code, _ = run_cli(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "nonsense", "--seed", "1",
    )
    assert code == 2


def test_verify_repeated_suite_entry_exits_2(capsys):
    # "jacobi,jacobi,grading" would run what "jacobi,grading" runs and
    # print another report: refused, as a repeated preset parameter is
    code, err = run_cli_err(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "jacobi,jacobi,grading", "--samples", "0",
    )
    assert code == 2
    assert err == "error: suite entry 'jacobi' is given twice\n"


def test_verify_bound_violation_exits_2(capsys):
    code = main([
        "verify", "--family", "BC", "--n", "4", "--ell", "2",
        "--preset", "symplectic:m=2", "--suite", "grading", "--seed", "1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    # one line naming both the CLI flag and the API argument
    assert err.count("\n") == 1
    assert "--override-bounds" in err and "override_bounds=True" in err


def test_report_determinism(capsys):
    argv = [
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "jacobi,grading,uniform",
        "--seed", "42",
    ]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_build_and_verify_model_file(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    code, out = run_cli(
        capsys,
        "build", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--out", str(model_path),
    )
    assert code == 0
    spec = json.loads(model_path.read_text())
    assert spec["provenance"] == {"tool_version": spec["provenance"]["tool_version"]}
    assert spec["dim"] == 36 + 16 + 3  # sp(4) + V(x)C + D-part
    code, out = run_cli(
        capsys,
        "verify", "--model", str(model_path), "--suite", "grading", "--samples", "0",
    )
    assert code == 0
    # a file from a build that still recorded a seed loads as before
    spec["provenance"]["seed"] = 0
    model_path.write_text(json.dumps(spec))
    code, again = run_cli(
        capsys,
        "verify", "--model", str(model_path), "--suite", "grading", "--samples", "0",
    )
    assert code == 0 and again == out


def test_build_inline_quadruple(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    code, _ = run_cli(
        capsys,
        "build", "--family", "A", "--n", "6", "--ell", "5",
        "--preset", "matrix:k=2", "--inline-quadruple", "--out", str(model_path),
    )
    assert code == 0
    spec = json.loads(model_path.read_text())
    assert isinstance(spec["quadruple"], dict)
    code, _ = run_cli(
        capsys,
        "verify", "--model", str(model_path), "--suite", "derivation", "--samples", "0",
    )
    assert code == 0


def test_load_quadruple_preset_dims():
    q = load_quadruple("matrix_transpose:k=2")
    assert q.a_dim == 4
    assert q.a_part_sub.dim == 3
    assert q.b_part_sub.dim == 1
    q2 = load_quadruple("group_ring:m=1")
    assert q2.qtype == "D" and q2.a_dim == 1


def test_load_quadruple_file_validation_failure(capsys, tmp_path):
    bad = {
        "type": "A",
        "a_dim": 3,
        # (y.y).y = z.y = 0 but y.(y.y) = y.z = x: not associative
        "structure_constants": [
            [0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"],
            [1, 0, 1, "1"], [2, 0, 2, "1"],
            [1, 1, 2, "1"], [1, 2, 0, "1"],
        ],
        "unit": [[0, "1"]],
        "star": [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"]],
        "c_dim": 0,
        "action": [],
        "f": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _ = run_cli(
        capsys,
        "verify", "--family", "A", "--n", "6", "--ell", "5",
        "--quadruple", str(path), "--suite", "grading", "--samples", "0",
    )
    assert code == 2
    err = capsys.readouterr().err
    # ensure nothing crashed oddly; the error path already consumed stderr
    assert code == 2


def test_timings_flag_adds_elapsed(capsys):
    argv = [
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "grading", "--samples", "0",
    ]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "elapsed_ms" not in out
    assert "build_elapsed_ms" not in json.loads(out)
    code, out = run_cli(capsys, *argv, "--timings")
    assert code == 0
    assert "elapsed_ms" in out
    assert isinstance(json.loads(out)["build_elapsed_ms"], int)


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_verify_negative_samples_exits_2(capsys):
    code, err = run_cli_err(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "jacobi", "--samples", "-5",
    )
    assert code == 2
    assert err.count("\n") == 1 and "--samples" in err


def test_verify_negative_exhaustive_max_exits_2(capsys):
    code, err = run_cli_err(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "jacobi", "--samples", "0",
        "--exhaustive-max", "-3",
    )
    assert code == 2
    assert err.count("\n") == 1 and "--exhaustive-max" in err


def test_verify_zero_samples_needs_no_seed(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--family", "A", "--n", "6", "--ell", "5",
        "--quadruple", "matrix:k=2", "--suite", "jacobi", "--samples", "0",
    )
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["jacobi-random"]["status"] == "pass"
    assert checks["jacobi-random"]["triples"] == 0


@pytest.mark.parametrize("key", ["type", "a_dim", "structure_constants", "unit", "star"])
def test_quadruple_file_missing_key_exits_2(capsys, tmp_path, key):
    data = quadruple_to_json(load_quadruple("matrix:k=2"))
    del data[key]
    path = tmp_path / "quadruple.json"
    path.write_text(json.dumps(data))
    code, err = run_cli_err(capsys, "fh", "--quadruple", str(path))
    assert code == 2
    assert err.count("\n") == 1 and repr(key) in err


_ONE_DIM = {
    "type": "A", "a_dim": 1, "structure_constants": [[0, 0, 0, "1"]],
    "unit": [[0, "1"]], "star": [[0, 0, "1"]],
}


@pytest.mark.parametrize(
    "change, words",
    [
        ({"structure_constants": [[0, 0, 5, "1"]]}, "basis index 5"),
        ({"structure_constants": 5}, "list of rows"),
        ({"structure_constants": [[0, 0, "1"]]}, "list of rows"),
        ({"star": [[-1, 0, "1"]]}, "basis index -1"),
        ({"unit": [[0, 1.5]]}, "not a rational"),
        ({"a_dim": "two"}, "nonnegative integer"),
        # a = 0: the unit law holds vacuously, but 1 = 0
        ({"a_dim": 0, "structure_constants": [], "unit": [], "star": []}, "unit is nonzero"),
        # the name enters every report as given
        ({"name": ["x"]}, "'name' must be a string, not ['x']"),
        ({"name": 7}, "'name' must be a string, not 7"),
        # only "p" and "p/q" are read: Fraction would expand the exponent
        # of "1e99999999" digit by digit, and "0.5" is no rational string
        ({"unit": [[0, "1e99999999"]]}, "'1e99999999' is not a rational string"),
        ({"unit": [[0, "0.5"]]}, "'0.5' is not a rational string"),
        ({"unit": [[0, "+1"]]}, "'+1' is not a rational string"),
        ({"unit": [[0, "1/"]]}, "'1/' is not a rational string"),
        ({"unit": [[0, "\u0661"]]}, "is not a rational string"),
        ({"unit": [[0, "1/0"]]}, "'1/0' is not a rational"),
    ],
)
def test_malformed_quadruple_file_exits_2(capsys, tmp_path, change, words):
    path = tmp_path / "quadruple.json"
    path.write_text(json.dumps({**_ONE_DIM, **change}))
    code, err = run_cli_err(capsys, "fh", "--quadruple", str(path))
    assert code == 2
    assert err.count("\n") == 1 and words in err


@pytest.mark.parametrize(
    "argv, words",
    [
        (("verify", "--model", "{path}", "--samples", "0"), "model file"),
        (("fh", "--quadruple", "{path}"), "quadruple file"),
    ],
)
def test_deeply_nested_json_file_exits_2(capsys, tmp_path, argv, words):
    # json.load gives up on 100,000 nested arrays with a RecursionError:
    # bad input, not a failed check
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, err = run_cli_err(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2
    assert err == f"error: {words} {path} is nested too deeply to read\n"


@pytest.mark.parametrize(
    "change, words",
    [
        ({"structure_constants": [[0, 0, 0, "7"], [0, 0, 0, "1"]]},
         "'structure_constants' gives the entry at [0, 0, 0] twice"),
        ({"c_dim": 1, "action": [[0, 0, 0, "1"], [0, 0, 0, "1"]]},
         "'action' gives the entry at [0, 0, 0] twice"),
        ({"c_dim": 1, "f": [[0, 0, 0, "1"], [0, 0, 0, "2"]]},
         "'f' gives the entry at [0, 0, 0] twice"),
        ({"star": [[0, 0, "1"], [0, 0, "1"]]}, "'star' gives the entry at [0, 0] twice"),
        ({"unit": [[0, "2"], [0, "1"]]}, "'unit' gives the entry at [0] twice"),
    ],
)
def test_quadruple_file_repeated_entry_exits_2(capsys, tmp_path, change, words):
    # the last value must not silently win: a repeated entry is refused
    path = tmp_path / "quadruple.json"
    path.write_text(json.dumps({**_ONE_DIM, **change}))
    code, err = run_cli_err(capsys, "fh", "--quadruple", str(path))
    assert code == 2
    assert err.count("\n") == 1 and words in err


def test_one_dimensional_quadruple_file_loads(capsys, tmp_path):
    path = tmp_path / "quadruple.json"
    path.write_text(json.dumps(_ONE_DIM))
    code, _ = run_cli_err(capsys, "fh", "--quadruple", str(path))
    assert code == 0


def test_inline_model_quadruple_is_validated(capsys, tmp_path):
    # a1.a1 = a2 and a1.a2 = a1, so (a1.a1).a1 = 0 but a1.(a1.a1) = a1; written
    # inline in a model file it must fail the laws it fails as a file
    bad = {
        "type": "A",
        "a_dim": 3,
        "structure_constants": [
            [0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"],
            [1, 0, 1, "1"], [2, 0, 2, "1"],
            [1, 1, 2, "1"], [1, 2, 1, "1"],
        ],
        "unit": [[0, "1"]],
        "star": [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"]],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"family": "A", "n": 6, "ell": 5, "quadruple": bad}))
    code, err = run_cli_err(
        capsys, "verify", "--model", str(path), "--suite", "grading", "--samples", "0"
    )
    assert code == 2
    assert err.count("\n") == 1 and "a associative" in err


@pytest.mark.parametrize("field", ["family", "n", "ell", "quadruple"])
def test_model_file_missing_field_exits_2(capsys, tmp_path, field):
    spec = {"family": "BC", "n": 4, "ell": 4, "quadruple": "symplectic:m=2"}
    del spec[field]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    code, err = run_cli_err(
        capsys, "verify", "--model", str(path), "--suite", "grading", "--samples", "0"
    )
    assert code == 2
    assert err.count("\n") == 1 and repr(field) in err


@pytest.mark.parametrize(
    "field, value",
    [("n", "6"), ("ell", "4"), ("quadruple", 5), ("K", "bogus"), ("K", ["x"]), ("K", {})],
)
def test_model_file_bad_field_exits_2(capsys, tmp_path, field, value):
    spec = {"family": "BC", "n": 4, "ell": 4, "quadruple": "symplectic:m=2", field: value}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    code, err = run_cli_err(
        capsys, "verify", "--model", str(path), "--suite", "grading", "--samples", "0"
    )
    assert code == 2
    assert err.count("\n") == 1 and repr(field) in err


@pytest.mark.parametrize(
    "spec",
    [
        "matrix:k=0",
        "matrix_transpose:k=0",
        "matrix_hermitian:k=0,m=2",
        "group_ring:m=0",
        "clifford:d=-3",
        "symplectic:m=-2",
        "matrix_hermitian:k=2,m=-2",
    ],
)
def test_fh_degenerate_preset_exits_2(capsys, spec):
    code, err = run_cli_err(capsys, "fh", "--quadruple", spec)
    assert code == 2
    assert err.count("\n") == 1 and "must be at least 1" in err


@pytest.mark.parametrize(
    "spec,param",
    [
        ("matrix:K=3", "'K'"),
        ("symplectic:k=4", "'k'"),
        ("group_ring:m=3,m=4", "'m'"),
        ("matrix:k", "'k'"),
        ("matrix:k=x", "'k'"),
        ("matrix:k=2,", "''"),
    ],
)
def test_fh_preset_unknown_or_repeated_parameter_exits_2(capsys, spec, param):
    code, err = run_cli_err(capsys, "fh", "--quadruple", spec)
    assert code == 2
    assert err.count("\n") == 1 and f"parameter {param}" in err


def test_internal_consistency_error_exits_3(capsys, monkeypatch):
    import rootgraded.cli as cli

    def broken_build(*args, **kwargs):
        raise InternalConsistencyError("relation space not preserved", witness=("x", "y"))

    monkeypatch.setattr(cli, "build_model", broken_build)
    code, err = run_cli_err(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--quadruple", "symplectic:m=2", "--suite", "grading", "--samples", "0",
    )
    assert code == 3
    assert err == (
        "internal consistency error: relation space not preserved\nwitness: ('x', 'y')\n"
    )


def _exterior_d2() -> dict:
    """exterior:d=2 (type C): A is the exterior algebra of F^2, basis a:0 = 1,
    a:1 = x1, a:2 = x2 and a:3 = x1 x2, with x_i -> -x_i extended as an
    anti-automorphism, so a monomial of degree r has the sign
    (-1)^r (-1)^(r(r-1)/2)."""
    mult = [[0, j, j, "1"] for j in range(4)] + [[j, 0, j, "1"] for j in range(1, 4)]
    mult += [[1, 2, 3, "1"], [2, 1, 3, "-1"]]
    star = [[0, 0, "1"], [1, 1, "-1"], [2, 2, "-1"], [3, 3, "-1"]]
    return {"type": "C", "a_dim": 4, "structure_constants": mult, "unit": [[0, "1"]], "star": star}


def test_nonuniform_k_exits_2_with_its_witness(capsys, tmp_path):
    # K = FH on exterior:d=2 is not uniform: beta* is nonzero on the FH
    # vector x2 (x) x1, which the error names as it reads
    path = tmp_path / "exterior.json"
    path.write_text(json.dumps(_exterior_d2()))
    code, err = run_cli_err(
        capsys,
        "verify", "--family", "C", "--n", "6", "--ell", "5", "--quadruple", str(path),
        "--k", "fh", "--samples", "0",
    )
    assert code == 2
    assert err == "error: K does not satisfy the uniform property: witness 1*a:2⊗a:1\n"


def test_uniform_suite_checks_the_model_k(capsys, tmp_path, monkeypatch):
    # with "K": "fh" the uniform suite decides the model's K, not K = 0
    import rootgraded.cli as cli
    from test_graded import nilpotent_pair_quadruple

    real = cli.check_uniform
    k_dims = []

    def recording(bb, k_span, **kwargs):
        k_dims.append(len(k_span))
        return real(bb, k_span, **kwargs)

    monkeypatch.setattr(cli, "check_uniform", recording)
    spec = {
        "family": "D", "n": 6, "ell": 5, "K": "fh",
        "quadruple": quadruple_to_json(nilpotent_pair_quadruple()),
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(
        capsys, "verify", "--model", str(path), "--suite", "uniform", "--samples", "0"
    )
    assert code == 0
    assert k_dims == [1]
    (check,) = json.loads(out)["checks"]
    assert (check["name"], check["status"], check["cross_ell"]) == ("uniform", "pass", 7)


def test_cross_ell_equal_to_the_model_ell_exits_2(capsys):
    # check_uniform cross-checks only at a second level: at the model's own
    # ell there is nothing to report as a passed cross-check
    code, err = run_cli_err(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "uniform", "--samples", "0",
        "--cross-ell", "4",
    )
    assert code == 2
    assert err == (
        "error: --cross-ell 4 equals the model's ell; the uniform suite"
        " cross-checks at another level\n"
    )


def test_default_cross_ell_moves_off_the_model_ell(capsys):
    # without --cross-ell the cross-check runs at 7, or at 8 for a model at
    # ell 7, which the uniform suite then checks instead of refusing
    code, out = run_cli(
        capsys,
        "verify", "--family", "C", "--n", "7", "--ell", "7",
        "--preset", "matrix_transpose:k=1", "--suite", "uniform", "--samples", "0",
    )
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert (check["status"], check["ell"], check["cross_ell"]) == ("pass", 7, 8)


@pytest.mark.parametrize(
    "argv,level",
    [
        (("fh", "--preset", "matrix_transpose:k=2", "--ell", "0"), 0),
        (("fh", "--preset", "matrix_hermitian:k=2,m=2", "--ell", "0"), 0),
        (("fh", "--preset", "matrix:k=2", "--ell", "-1"), -1),
        (("fh", "--preset", "group_ring:m=3", "--ell", "0"), 0),
        (
            (
                "verify", "--family", "C", "--n", "6", "--ell", "0", "--override-bounds",
                "--preset", "matrix_transpose:k=2", "--seed", "1",
            ),
            0,
        ),
        (
            (
                "verify", "--family", "C", "--n", "5", "--ell", "5", "--samples", "0",
                "--preset", "matrix_transpose:k=2", "--suite", "uniform", "--cross-ell", "0",
            ),
            0,
        ),
        # {b,b}_ell of these is 0-dimensional: no coset derivation is formed
        # at the cross-check level, so only the quotient's own kappa sees it
        *(
            (("verify", "--family", family, "--n", n, "--ell", "5", "--samples", "0",
              "--preset", preset, "--suite", "uniform", "--cross-ell", str(level)), level)
            for family, n, preset, level in (
                ("D", "7", "group_ring:m=3", 0), ("D", "7", "group_ring:m=3", -4),
                ("A", "6", "matrix:k=1", 0),
            )
        ),
    ],
    ids=[
        "fh C", "fh BC", "fh A", "fh D", "verify ell", "verify cross-ell",
        "cross-ell D empty bb", "cross-ell -4 D empty bb", "cross-ell A empty bb",
    ],
)
def test_level_below_one_exits_2(capsys, argv, level):
    # kappa is 1/(ell + 1) or 1/(2 ell): a level below 1, the model's or the
    # uniform suite's cross-check level, is bad input and not a failed check
    code, err = run_cli_err(capsys, *argv)
    assert code == 2
    assert err == f"error: the level ell must be a positive integer, got {level}\n"


def test_uniform_report_names_the_level_cross_checked(capsys, monkeypatch):
    # the report's cross_ell is the level check_uniform cross-checked at
    import rootgraded.cli as cli

    real = cli.check_uniform

    def shifted(bb, k_span, **kwargs):
        kwargs["cross_check_ell"] += 1
        return real(bb, k_span, **kwargs)

    monkeypatch.setattr(cli, "check_uniform", shifted)
    code, out = run_cli(
        capsys,
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "uniform", "--samples", "0",
        "--cross-ell", "6",
    )
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert (check["ell"], check["cross_ell"]) == (4, 7)


def _left_multiplications(q):
    """A mutant of ``CoordinateQuadruple.ad_basis``: L_{e_r} (a -> e_r a on
    a, c -> e_r.c on C, both read off b's product table) in place of
    ad(e_r) = L_{e_r} - R_{e_r}."""
    out = {}
    for r in q.a_space.labels:
        cols = {}
        for lab in q.b_space.labels:
            for row, v in q.b_table.get((r, lab), {}).items():
                cols[row, lab] = v
        out[r] = cols
    return out


@pytest.mark.parametrize(
    "family,n,ell,preset,witness",
    [
        ("C", "6", "5", "matrix_transpose:k=2", ("d(x*) = d(x)*", "(ii) ('m:1,1⊗m:1,0', 'm:0,0')")),
        (
            "BC", "5", "4", "matrix_hermitian:k=2,m=2",
            ("d(x*) = d(x)*", "(ii) ('c:1,1⊗c:0,0', 'm:0,0')"),
        ),
    ],
)
def test_derivation_suite_kills_left_multiplication(
    capsys, monkeypatch, family, n, ell, preset, witness
):
    # beta* is 0 on every relation row here, so the first half of the
    # well-defined check never reads the inner part of a relation row's
    # derivation; L_z with z* = -z does not commute with *, so fact (ii)
    # fails the build, before the derivation suite runs
    from rootgraded.coord import CoordinateQuadruple

    monkeypatch.setattr(CoordinateQuadruple, "ad_basis", _left_multiplications)
    code, err = run_cli_err(
        capsys,
        "verify", "--family", family, "--n", n, "--ell", ell, "--preset", preset,
        "--suite", "derivation", "--samples", "0",
    )
    assert code == 3
    assert err == "internal consistency error: coset derivation fails {}\nwitness: {}\n".format(
        *witness
    )


def test_left_multiplication_fails_the_type_a_build(capsys, monkeypatch):
    # on matrix:k=2 star is the identity, so fact (ii) holds, and the mutant
    # breaks the derivation law, fact (iii), at the first pair it reaches
    from rootgraded.coord import CoordinateQuadruple

    monkeypatch.setattr(CoordinateQuadruple, "ad_basis", _left_multiplications)
    code, err = run_cli_err(
        capsys,
        "verify", "--family", "A", "--n", "6", "--ell", "5", "--preset", "matrix:k=2",
        "--suite", "derivation", "--samples", "0",
    )
    assert code == 3
    assert err == (
        "internal consistency error: coset derivation fails d(xy) = d(x)y + x d(y)\n"
        "witness: (iii) ('m:1,0⊗m:0,1', 'm:0,0', 'm:0,0')\n"
    )


def _c_into_a(real):
    """A mutant of ``CoordinateQuadruple.label_part``: each column at a C
    label also gets, at the first label of a, the sum of its entries, so
    the f-term of a C (x) C label sends C into a."""

    def mutant(q, lab):
        part = real(q, lab)
        out, a0 = dict(part), q.a_space.labels[0]
        for (r, c), v in part.items():
            if c in q.c_space:
                out[a0, c] = out.get((a0, c), 0) + v
        return {key: v for key, v in out.items() if v}

    return mutant


def test_a_derivation_that_sends_c_into_a_fails_the_build(capsys, monkeypatch):
    # the f-term is 0 on every relation row, so the first half of the
    # well-defined check passes the mutant; fact (i) fails it
    from rootgraded.coord import CoordinateQuadruple

    monkeypatch.setattr(
        CoordinateQuadruple, "label_part", _c_into_a(CoordinateQuadruple.label_part)
    )
    code, err = run_cli_err(
        capsys,
        "verify", "--family", "BC", "--n", "5", "--ell", "4",
        "--preset", "matrix_hermitian:k=2,m=2", "--suite", "derivation", "--samples", "0",
    )
    assert code == 3
    assert err == (
        "internal consistency error: coset derivation fails d(a) in a, d(C) in C\n"
        "witness: (i) ('c:1,0⊗c:1,0', 'c:0,1')\n"
    )


def test_cross_process_determinism(tmp_path):
    # identical reports from separate interpreter processes with different
    # hash randomization
    import subprocess, sys, os

    import rootgraded

    # the child imports the same package copy as this process
    src = os.path.dirname(os.path.dirname(rootgraded.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-m", "rootgraded.cli",
        "verify", "--family", "BC", "--n", "4", "--ell", "4",
        "--preset", "symplectic:m=2", "--suite", "grading,uniform",
        "--samples", "0",
    ]
    outs = []
    for seed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "family,preset", [("A", "matrix:k=1"), ("D", "group_ring:m=1")]
)
def test_subsystem_skipped_when_smaller_truncation_has_no_root(capsys, family, preset):
    # the (n-1)-truncation of A or D at n = 2 has no nonzero root; the
    # suite is skipped and the other suites still report
    code, out = run_cli(
        capsys,
        "verify", "--family", family, "--n", "2", "--ell", "1",
        "--quadruple", preset, "--override-bounds",
        "--suite", "grading,subsystem", "--samples", "0",
    )
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["subsystem"] == {
        "name": "subsystem", "status": "skipped", "witnesses": ["truncation too small"],
    }
    assert checks["grading"]["status"] == "pass"


def test_subsystem_skipped_when_smaller_truncation_is_reducible(capsys):
    # the (n-1)-truncation of D at n = 3 is D_2 = A_1 x A_1: no irreducible
    # subsystem to check, so the suite is skipped rather than exiting 2
    code, out = run_cli(
        capsys,
        "verify", "--family", "D", "--n", "3", "--ell", "1",
        "--quadruple", "group_ring:m=1", "--override-bounds",
        "--suite", "grading,subsystem", "--seed", "1",
    )
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["subsystem"] == {
        "name": "subsystem", "status": "skipped", "witnesses": ["truncation too small"],
    }
    assert checks["grading"]["status"] == "pass"
