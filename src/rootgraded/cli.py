"""Command-line front end: build models, run verification suites, emit JSON.

Exit codes: 0 all checks pass, 1 some check failed, 2 configuration
error, 3 internal-consistency error (a structural identity the
construction relies on failed; the report carries the witness).

Reports are deterministic: with a fixed config and seed the serialized
bytes are identical across runs.  Per-check timings are therefore only
included when --timings is passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .coord import (
    InternalConsistencyError,
    check_uniform,
    parse_preset_spec,
    quadruple_from_json,
    quadruple_to_json,
    validate_quadruple,
)
from .exactla import q_str
from .graded import (
    K_FORMS,
    build_model,
    subalgebra,
    verify_antisymmetry,
    verify_grading,
    verify_jacobi,
    verify_level_transition,
)
from .liealg import ALGEBRA_FAMILIES, build_algebra
from .rootsys import FAMILIES, connected_components, generate, root_str, roots_json

SUITES = (
    "grading",
    "jacobi",
    "derivation",
    "homology",
    "uniform",
    "transition",
    "subsystem",
)
DEFAULT_SUITE = ("grading", "jacobi", "derivation")


class ConfigError(ValueError):
    pass


def load_quadruple(source: str | dict):
    """A preset spec ("symplectic:m=2"), a path to a quadruple JSON file, or
    the file's object itself; a file or an object must pass every law."""
    if isinstance(source, dict):
        q, where = quadruple_from_json(source), "inline quadruple"
    elif os.path.exists(source):
        where = f"quadruple file {source}"
        q = quadruple_from_json(_read_json(source, where))
    else:
        return parse_preset_spec(source)
    failed = [c for c in validate_quadruple(q)["checks"] if c["status"] == "fail"]
    if failed:
        raise ConfigError(
            f"{where} failed validation: "
            + "; ".join(f"{c['law']} (witness {c['witnesses'][:1]})" for c in failed)
        )
    return q


def _read_json(path: str, where: str):
    """The JSON value in the file at path; a nesting too deep to parse is bad input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ConfigError(f"{where} is nested too deeply to read") from None


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_roots(args) -> int:
    data = roots_json(generate(args.family, args.n))
    _emit(data, args.out)
    return 0


def cmd_algebra(args) -> int:
    alg = build_algebra(args.family, args.n)
    root_spaces = {}
    for alpha, positions in sorted(alg.wb.root_space_index.items()):
        root_spaces[root_str(alpha)] = [
            [[r, c, q_str(v)] for (r, c), v in sorted(alg.wb.basis_mats[p].items())]
            for p in positions
        ]
    data = {
        "family": args.family,
        "n": args.n,
        "dim": alg.dim,
        "cartan_dim": alg.wb.zero_block,
        "root_spaces": root_spaces,
    }
    _emit(data, args.out)
    return 0


def cmd_fh(args) -> int:
    from .coord import build_bb, full_homology

    q = load_quadruple(args.quadruple)
    bb = build_bb(q, args.ell)
    fh = full_homology(bb)
    uniform = check_uniform(bb, [], fh=fh)
    data = {
        "quadruple": q.name,
        "type": q.qtype,
        "ell": args.ell,
        "bb_dim": bb.dim,
        "fh_dim": fh.dim,
        "k_zero_uniform": uniform["uniform"],
    }
    _emit(data, args.out)
    return 0


def cmd_build(args) -> int:
    q = load_quadruple(args.quadruple)
    model = build_model(
        args.family, args.n, args.ell, q, args.k, override_bounds=args.override_bounds
    )
    data = {
        "family": args.family,
        "n": args.n,
        "ell": args.ell,
        "subset_size": model.m0,
        "dim": model.dim,
        "dpart_dim": model.dpart.dim,
        "quadruple": args.quadruple
        if not args.inline_quadruple
        else quadruple_to_json(q),
        "K": args.k,
        "provenance": {"tool_version": __version__},
    }
    _emit(data, args.out)
    return 0


def _verify_checks(model, args):
    """The named suite as (name, callable) pairs; callables are pure."""
    checks = []
    suite = args.suite
    if "jacobi" in suite:
        checks.append(("antisymmetry", lambda: verify_antisymmetry(model)))
        checks.append(
            (
                "jacobi-random",
                lambda: verify_jacobi(
                    model,
                    {"kind": "random", "samples": args.samples, "seed": args.seed},
                ),
            )
        )
        if model.dim <= args.exhaustive_max:
            checks.append(
                (
                    "jacobi-exhaustive",
                    lambda: verify_jacobi(model, {"kind": "exhaustive_basis"}),
                )
            )
    if "grading" in suite:
        checks.append(("grading", lambda: _flatten(verify_grading(model))))
    if "derivation" in suite:
        checks.append(("derivation", lambda: _build_verdict(pairs=model.quadruple.b_space.dim ** 2)))
    if "homology" in suite:
        checks.append(
            ("homology", lambda: _build_verdict(fh_dim=model.fh.dim, bb_dim=model.bb.dim))
        )
    if "uniform" in suite:
        checks.append(("uniform", lambda: _uniform_check(model, args)))
    if "transition" in suite:
        for added in (1, 2):
            checks.append((f"transition+{added}", lambda a=added: verify_level_transition(model, a)))
    if "subsystem" in suite:
        checks.append(("subsystem", lambda: _subsystem_check(model)))
    return checks


def _flatten(report: dict) -> dict:
    out = {"status": report["status"], "witnesses": []}
    for sub in report["checks"]:
        if sub["status"] != "pass":
            out["witnesses"].append({"check": sub["name"], "witnesses": sub["witnesses"]})
    return out


def _build_verdict(**sizes) -> dict:
    # the build proved what the suite reports (the derivation law on every
    # coset derivation, the centrality of FH): a failure ends the run
    # there, with exit 3
    return {"status": "pass", **sizes, "witnesses": []}


def _uniform_check(model, args) -> dict:
    report = check_uniform(
        model.bb,
        model.k_vectors,
        fh=model.fh,
        cross_check_ell=args.cross_ell,
    )
    ok = report["uniform"]
    return {
        "status": "pass" if ok else "fail",
        "ell": report["ell"],
        "cross_ell": report["cross_check"]["ell"],
        "witnesses": [] if ok else [report.get("witness")],
    }


def _subsystem_check(model) -> dict:
    n = model.n
    # the (n-1)-truncation of A or D at n = 2 has no nonzero root, and that
    # of D at n = 3 is D_2 = A_1 x A_1, not irreducible
    small = generate(model.family, n - 1) if n >= 2 else None
    if small is None or len(connected_components(small)) != 1:
        return {"status": "skipped", "witnesses": ["truncation too small"]}
    sub = subalgebra(model, small.nonzero())
    return _flatten(sub.verify())


def cmd_verify(args) -> int:
    if args.model:
        q = _load_model_file(args)
    else:
        for field in ("family", "n", "ell", "quadruple"):
            if getattr(args, field, None) is None:
                raise ConfigError(f"verify needs --{field} (or --model)")
        q = load_quadruple(args.quadruple)
    if not args.suite:
        raise ConfigError("verify needs a nonempty suite")
    unknown = [s for s in args.suite if s not in SUITES]
    if unknown:
        raise ConfigError(f"unknown suite entries: {unknown}")
    for i, name in enumerate(args.suite):
        if name in args.suite[:i]:
            raise ConfigError(f"suite entry {name!r} is given twice")
    if args.samples < 0:
        raise ConfigError(f"--samples must be at least 0, got {args.samples}")
    if args.exhaustive_max < 0:
        raise ConfigError(f"--exhaustive-max must be at least 0, got {args.exhaustive_max}")
    if args.samples > 0 and args.seed is None:
        raise ConfigError("a seed is required whenever samples > 0")
    if args.cross_ell is None:
        # check_uniform cross-checks only at a second level
        args.cross_ell = 8 if args.ell == 7 else 7
    elif "uniform" in args.suite and args.cross_ell == args.ell:
        raise ConfigError(
            f"--cross-ell {args.cross_ell} equals the model's ell; the uniform"
            " suite cross-checks at another level"
        )
    t0 = time.monotonic()
    model = build_model(
        args.family, args.n, args.ell, q, args.k, override_bounds=args.override_bounds
    )
    build_elapsed = int((time.monotonic() - t0) * 1000)
    results = []
    for name, fn in _verify_checks(model, args):
        t0 = time.monotonic()
        out = fn()
        elapsed = int((time.monotonic() - t0) * 1000)
        entry = {"name": name, "status": out.get("status", "pass")}
        entry.update({k: v for k, v in out.items() if k not in ("status", "name")})
        if args.timings:
            entry["elapsed_ms"] = elapsed
        results.append(entry)
    results.sort(key=lambda e: e["name"])
    report = {
        "tool": {"name": "rootgraded", "version": __version__},
        "config": {
            "command": "verify",
            "family": args.family,
            "n": args.n,
            "ell": args.ell,
            "quadruple": q.name,
            "k": args.k,
            "suite": sorted(args.suite),
            "samples": args.samples,
            "seed": args.seed,
            "sub_bound_run": model.sub_bound,
        },
        "checks": results,
    }
    if args.timings:
        report["build_elapsed_ms"] = build_elapsed
    _emit(report, args.out)
    return 0 if all(c["status"] in ("pass", "skipped") for c in results) else 1


def _load_model_file(args):
    """Read --model into args (family, n, ell, k) and return its quadruple.
    Each field must be a value its flag accepts."""
    spec = _read_json(args.model, f"model file {args.model}")
    if not isinstance(spec, dict):
        raise ConfigError(f"model file {args.model} must hold a JSON object")
    for field in ("family", "n", "ell", "quadruple"):
        if field not in spec:
            raise ConfigError(f"model file {args.model} has no {field!r} field")
    spec.setdefault("K", "zero")
    for field, ok, expected in (
        ("family", lambda v: v in FAMILIES, f"one of {list(FAMILIES)}"),
        ("n", _is_int, "an integer"),
        ("ell", _is_int, "an integer"),
        ("quadruple", lambda v: isinstance(v, (str, dict)), "a string or an object"),
        ("K", lambda v: isinstance(v, str) and v in K_FORMS, f"one of {list(K_FORMS)}"),
    ):
        if not ok(spec[field]):
            raise ConfigError(
                f"model file {args.model}: {field!r} must be {expected}, not {spec[field]!r}"
            )
    args.family, args.n, args.ell, args.k = spec["family"], spec["n"], spec["ell"], spec["K"]
    return load_quadruple(spec["quadruple"])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_suite(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootgraded",
        description="Exact construction and verification of root-graded Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="emit a finite root-system truncation")
    p_roots.add_argument("--family", required=True, choices=FAMILIES)
    p_roots.add_argument("--n", type=int, required=True)
    p_roots.add_argument("--out")
    p_roots.set_defaults(fn=cmd_roots)

    p_alg = sub.add_parser("algebra", help="emit a classical algebra truncation")
    p_alg.add_argument("--family", required=True, choices=ALGEBRA_FAMILIES)
    p_alg.add_argument("--n", type=int, required=True)
    p_alg.add_argument("--out")
    p_alg.set_defaults(fn=cmd_algebra)

    p_fh = sub.add_parser("fh", help="compute the full skew-dihedral homology")
    p_fh.add_argument("--quadruple", "--preset", dest="quadruple", required=True)
    p_fh.add_argument("--ell", type=int, default=4)
    p_fh.add_argument("--out")
    p_fh.set_defaults(fn=cmd_fh)

    p_build = sub.add_parser("build", help="build a graded model and emit its file")
    _model_flags(p_build)
    p_build.add_argument("--inline-quadruple", action="store_true")
    p_build.add_argument("--out")
    p_build.set_defaults(fn=cmd_build)

    p_verify = sub.add_parser("verify", help="run verification suites on a model")
    _model_flags(p_verify, required=False)
    p_verify.add_argument("--model", help="model JSON file (overrides the flags)")
    p_verify.add_argument(
        "--suite",
        type=_parse_suite,
        default=list(DEFAULT_SUITE),
        help="comma-separated subset of: " + ",".join(SUITES),
    )
    p_verify.add_argument("--samples", type=int, default=500)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--exhaustive-max", type=int, default=300)
    p_verify.add_argument("--cross-ell", type=int)
    p_verify.add_argument("--timings", action="store_true")
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def _model_flags(p, required=True):
    p.add_argument("--family", required=required, choices=FAMILIES)
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--ell", type=int, required=required)
    p.add_argument(
        "--quadruple",
        "--preset",
        dest="quadruple",
        required=required,
        help="preset spec like symplectic:m=2, or a quadruple JSON file",
    )
    p.add_argument("--k", choices=list(K_FORMS), default="zero")
    p.add_argument("--override-bounds", action="store_true")


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        witness = exc.witness
        if witness is not None:
            # a witness text prints as it reads, any other witness by repr
            text = witness if isinstance(witness, str) else repr(witness)
            sys.stderr.write(f"witness: {text}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
