"""Every function, method and class of the package is read by the program
(the package, its command line and the benchmark), not only by tests.  A
helper that only tests reach is dead code to the program: move it into the
test that uses it, or point the test at the public path it shadows.

References are found by name, so this is a lint and not a call graph: a
definition counts as read when a program file names it outside a
definition of the same name, as a variable, an attribute, an imported name
or a part of a dotted string (the benchmark traces ``Class.method`` by
name)."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rootgraded"

# read only by tests: the API the acceptance criteria use, and
# ``level_coset``, which the level-transition check is to be rebuilt on
TEST_API = {
    "action_matrix",
    "derivation_span_equals_oB",
    "expected_dimension",
    "level_coset",
    "root_vector",
    "semidivisible",
    "validate_root_system",
    "weight_index",
}


def _definitions() -> dict[str, str]:
    """Module-level functions and classes and the methods of those classes,
    dunder methods left out, as {name: module file}."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                nodes = [node, *node.body]
            else:
                nodes = [node]
            for d in nodes:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("__"):
                    out.setdefault(d.name, path.name)
    return out


class _Reads(ast.NodeVisitor):
    def __init__(self):
        self.names = Counter()
        self._inside = []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        if name not in self._inside:
            self.names[name] += 1

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._read(alias.name)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            for part in node.value.split("."):
                self._read(part)


def _reads(paths) -> Counter:
    reads = _Reads()
    for path in paths:
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    return reads.names


def _program_files():
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    return sorted(PACKAGE.glob("*.py")) + bench


def test_no_definition_is_read_only_by_tests():
    program = _reads(_program_files())
    tests = _reads(sorted((ROOT / "tests").glob("*.py")))
    unread = [
        f"{module}: {name} ({'read only by tests' if tests[name] else 'read by nothing'})"
        for name, module in sorted(_definitions().items())
        if not program[name] and name not in TEST_API
    ]
    assert unread == []


def test_test_api_is_defined_and_read_only_by_tests():
    # an entry the program has started to read, or whose definition is
    # gone, leaves the list
    definitions = _definitions()
    program = _reads(_program_files())
    assert sorted(n for n in TEST_API if n not in definitions or program[n]) == []


def test_reads_are_found_by_name(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "def helper():\n    return helper()\n\n"
        "def used():\n    pass\n\n"
        "x = used\nTRACED = ('Box.method',)\n",
        encoding="utf-8",
    )
    reads = _reads([source])
    # a definition's reads of its own name do not count
    assert reads["helper"] == 0
    assert reads["used"] == 1 and reads["Box"] == 1 and reads["method"] == 1
