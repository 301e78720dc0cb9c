"""The benchmark's workloads, driven through the package's public API.

Every program option is pinned here, so a later change of a CLI default
cannot change the work a workload does.  An operation is one model or
one coordinate preset; it returns its report text and a list of problems
(checks whose status is not ``pass``, or a nonzero exit code).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 42  # criterion 7's Jacobi seed; the pinned digests are for it


@dataclass(frozen=True)
class Op:
    name: str
    preset: str
    run: Callable  # (modules, quadruple, seed) -> (report text, problems)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    seeded: bool  # whether the report depends on the workload seed

    def presets(self) -> list[str]:
        return list(dict.fromkeys(op.preset for op in self.ops))


def _report_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _not_passed(checks) -> list[str]:
    return [f"{c['name']}: {c['status']}" for c in checks if c["status"] != "pass"]


def _headline(family: str, n: int, ell: int, preset: str) -> Op:
    argv = [
        "verify",
        "--family", family,
        "--n", str(n),
        "--ell", str(ell),
        "--quadruple", preset,
        "--suite", "grading,jacobi",
        "--samples", "2000",
        "--exhaustive-max", "120",
        "--k", "zero",
    ]

    def run(mods, q, seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mods["cli"].main(argv + ["--seed", str(seed)])
        text = out.getvalue()
        problems = [] if code == 0 else [f"exit code {code}"]
        if text:
            problems += _not_passed(json.loads(text)["checks"])
        return text, problems

    return Op(f"{family} n{n} l{ell} {preset}", preset, run)


def _coordinate(preset: str) -> Op:
    def run(mods, q, seed):
        coord = mods["coord"]
        bb = coord.build_bb(q, 4)
        fh = coord.full_homology(bb)
        uniform = coord.check_uniform(bb, [], fh=fh, cross_check_ell=7)
        report = {
            "preset": preset,
            "ell": 4,
            "tensor_dim": bb.tensor.dim,
            "relation_rank": bb.relations.dim,
            "bb_dim": bb.dim,
            "fh_dim": fh.dim,
            "uniform": uniform,
        }
        problems = []
        if not uniform["uniform"] or not uniform["cross_check"]["uniform"]:
            problems.append("uniform: fail")
        return _report_text(report), problems

    return Op(preset, preset, run)


def _jacobi(family: str, n: int, ell: int, preset: str) -> Op:
    def run(mods, q, seed):
        graded = mods["graded"]
        model = graded.build_model(family, n, ell, q, "zero")
        jacobi = graded.verify_jacobi(model, {"kind": "exhaustive_basis"})
        grading = graded.verify_grading(model)
        s_roots = mods["rootsys"].generate(family, n - 1).nonzero()
        subsystem = graded.subalgebra(model, s_roots).verify()
        report = {
            "model": {"family": family, "n": n, "ell": ell, "preset": preset, "k": "zero"},
            "dim": model.dim,
            "jacobi": jacobi,
            "grading": grading,
            "subsystem": subsystem,
        }
        return _report_text(report), _not_passed([jacobi, grading, subsystem])

    return Op(f"{family} n{n} l{ell} {preset}", preset, run)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "headline6",
            "the six criterion-7 models through `rootgraded verify`: the user's main path,"
            " dominated by antisymmetry and the model build",
            (
                _headline("BC", 5, 4, "symplectic:m=2"),
                _headline("BC", 5, 4, "matrix_hermitian:k=2,m=2"),
                _headline("A", 6, 5, "matrix:k=2"),
                _headline("D", 7, 5, "group_ring:m=3"),
                _headline("B", 6, 5, "clifford:d=2"),
                _headline("C", 6, 5, "matrix_transpose:k=2"),
            ),
            seeded=True,
        ),
        Workload(
            "coordinate",
            "build_bb, full_homology and check_uniform on seven larger presets of all five"
            " types: exercises coord and exactla RREF, never graded or liealg",
            tuple(
                _coordinate(p)
                for p in (
                    "matrix:k=4",
                    "matrix_transpose:k=4",
                    "matrix_hermitian:k=3,m=4",
                    "matrix_hermitian:k=4,m=2",
                    "clifford:d=6",
                    "group_ring:m=8",
                    "symplectic:m=8",
                )
            ),
            seeded=False,
        ),
        Workload(
            "jacobi_exhaustive",
            "exhaustive Jacobi, grading and subsystem on four models: reads the finished"
            " bracket table, runs no antisymmetry",
            (
                _jacobi("BC", 5, 4, "symplectic:m=2"),
                _jacobi("B", 6, 5, "clifford:d=2"),
                _jacobi("A", 6, 5, "matrix:k=2"),
                _jacobi("D", 7, 5, "group_ring:m=3"),
            ),
            seeded=False,
        ),
    )
}

# sha256 of each operation's report bytes at DEFAULT_SEED.
PINNED: dict[str, dict[str, str]] = {
    "headline6": {
        "BC n5 l4 symplectic:m=2": (
            "5b0e08ad81d8e5789dd52d889d5ae7be74930cedf1c67ee45d75e7911ed2b006"
        ),
        "BC n5 l4 matrix_hermitian:k=2,m=2": (
            "87d277eb55512e19736b99d062f06112527e27b6429fd7c033adb93d22621067"
        ),
        "A n6 l5 matrix:k=2": (
            "4d4ab496c1711767b0469d1aae962483075fa03e66072b6806883a0e69f8ee16"
        ),
        "D n7 l5 group_ring:m=3": (
            "27832e61f75ca32262b65c358a8a05f2f8ab71c6c71e63010e7a4224f561efcc"
        ),
        "B n6 l5 clifford:d=2": (
            "8b02a7d80ed5a0a289d631507657bdb7b801625e041f03f79eead67f67c7cdb7"
        ),
        "C n6 l5 matrix_transpose:k=2": (
            "c880cbf5b74b809d003b40806c8fe0d52e3e82f61984ff24e8673657b02bf527"
        ),
    },
    "coordinate": {
        "matrix:k=4": (
            "f17df854b48dee7d377ac2ed8bd395cb6a8b7ac26ae810816127d9d2313e4121"
        ),
        "matrix_transpose:k=4": (
            "9c1ae21553ffb0e0c0bb174ca1e4396de47646d1e221aaa124f7cbfcc05cc092"
        ),
        "matrix_hermitian:k=3,m=4": (
            "bf7d1f06bf3dc5e0e250a47aafb2eb7d3369838f8699372c418c2f235fc878d3"
        ),
        "matrix_hermitian:k=4,m=2": (
            "3c176455d5cd5bfe14b21c436032eaeb9b38d6c2da6cc2092a7e09277d9df571"
        ),
        "clifford:d=6": (
            "1d2c610fc4ccf4485baec0ccf37181ef767c1415ab1490ae880c23a0b678a9b4"
        ),
        "group_ring:m=8": (
            "a49470142f62ce56e882af02bcced4ce3beb79455016a2c706a89a8ad6b54471"
        ),
        "symplectic:m=8": (
            "a1fa59a830d1f13c1bab89be3413aabf6d49e092170afc666c48edfcbe82b095"
        ),
    },
    "jacobi_exhaustive": {
        "BC n5 l4 symplectic:m=2": (
            "a12c55701dca1f3853a45146209b9f55f31c67c95e15850591e2844a93648274"
        ),
        "B n6 l5 clifford:d=2": (
            "b0d729bc8aa45ed3a495ccdfebc9f58ddf9e07114374ccd9dc7bb241a7c528a0"
        ),
        "A n6 l5 matrix:k=2": (
            "dd85fbd7efadc531e70ad6234aadeaca904b7595ba1c80eebc2e1046f6fdf647"
        ),
        "D n7 l5 group_ring:m=3": (
            "de0ff0ca0b82994776c2869c14a3de33fb093ee40bbcfac1d69a905063e8da50"
        ),
    },
}
