"""Every function, method and class of the package is read by the program
(the package, its command line and the benchmark), not only by tests.  A
helper that only tests reach is dead code to the program: move it into the
test that uses it, or point the test at the public path it shadows.

References are found by name and followed by name, so this is a lint and
not an exact call graph: a definition counts as read when code the program
reaches names it, as a variable it does not bind itself, an attribute or a
part of a dotted string (the benchmark traces ``Class.method`` by name).  An
import alone reads nothing: a name imported only for code that tests reach
is read only by tests.  The program reaches its module level, and then
each definition that reached code names; a read inside a definition that
only tests reach does not count."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rootgraded"

# read only by tests: the API the acceptance criteria use, and
# ``level_coset``, which the level-transition check is to be rebuilt on;
# criterion 5 reads ``bracket_cosets``
TEST_API = {
    "bracket_cosets",
    "derivation_span_equals_oB",
    "expected_dimension",
    "level_coset",
    "root_vector",
    "semidivisible",
    "validate_root_system",
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


def _local_names(node) -> set[str]:
    """The names a function binds: its parameters and assignment targets."""
    if isinstance(node, ast.ClassDef):
        return set()
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return {a.arg for a in params if a} | {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
    }


class _Reads(ast.NodeVisitor):
    """Names read in a module, counted by their owner: the module-level
    function or class, or the method of a module-level class, that the read
    sits in (None at module level).  Nested definitions read for their
    owner, and a dunder method reads for its class, which runs it."""

    def __init__(self):
        self.by_owner: dict = defaultdict(Counter)
        self._stack = []  # (definition node, owner, names it binds)

    def _definition(self, node):
        if not self._stack:
            owner = node.name
        else:
            outer, owner, _ = self._stack[-1]
            top_class = len(self._stack) == 1 and isinstance(outer, ast.ClassDef)
            if top_class and not node.name.startswith("__"):
                owner = node.name
        self._stack.append((node, owner, _local_names(node)))
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        self.by_owner[self._stack[-1][1] if self._stack else None][name] += 1

    def visit_Name(self, node):
        # a name a function binds is its own variable, not a definition
        local = any(node.id in names for _, _, names in self._stack)
        if isinstance(node.ctx, ast.Load) and not local:
            self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            for part in node.value.split("."):
                self._read(part)


def _reads_by_owner(paths) -> dict:
    reads = _Reads()
    for path in paths:
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    return reads.by_owner


def _reads(paths) -> Counter:
    """The reads of the code these files reach: their module level, and
    then every definition whose name a counted read names.  A read inside
    a definition nothing counted names does not count."""
    by_owner = _reads_by_owner(paths)
    reads = Counter()
    todo = [None]
    while todo:
        for name, count in by_owner.get(todo.pop(), {}).items():
            if not reads[name]:
                todo.append(name)
            reads[name] += count
    return reads


def _program_files():
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    return sorted(PACKAGE.glob("*.py")) + bench


def test_no_definition_is_read_only_by_tests():
    program = _reads(_program_files())
    tests = sum(_reads_by_owner(sorted((ROOT / "tests").glob("*.py"))).values(), Counter())
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
        "from pkg import imported\n\n"
        "x = used\nTRACED = ('Box.method',)\n",
        encoding="utf-8",
    )
    reads = _reads([source])
    # a definition's reads of its own name do not count
    assert reads["helper"] == 0
    assert reads["used"] == 1 and reads["Box"] == 1 and reads["method"] == 1
    # an import is not a read
    assert reads["imported"] == 0


def test_reads_follow_calls(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "def api():\n    return helper()\n\n"
        "def helper():\n    pass\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.method()\n\n"
        "    def method(self):\n        return inner()\n\n"
        "def inner():\n    pass\n\n"
        "def unused():\n    pass\n\n"
        "def user():\n    unused = 1\n    return unused\n\n"
        "x = Box, user\n",
        encoding="utf-8",
    )
    reads = _reads([source])
    # only ``api`` reads ``helper``, and nothing the module runs reads
    # ``api``: an allowlisted function reaches nothing for the program
    assert reads["api"] == 0 and reads["helper"] == 0
    # a reached class runs its dunder methods, which reach on
    assert reads["method"] == 1 and reads["inner"] == 1
    # a name a function binds is its own variable
    assert reads["user"] == 1 and reads["unused"] == 0
