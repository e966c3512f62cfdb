"""No code that only its own unit tests keep alive.

Walks every module of src/condtest with `ast`. Each public function,
class and method must be referenced, by a bare name, an attribute or
an import, somewhere in the package other than `__init__.py`; or else
sit on ALLOWED with a one-line reason. Only reads count: a name or an
attribute that is only assigned, such as a local variable that shares
a dead function's name, is not a use. Attributes are matched by name
alone, so a method counts as used when any `.name` read exists.

Each module but `__init__.py`, which re-exports, must also load every
name it imports: a deletion that leaves an import behind fails here.

Only `distcore.py` reads a distribution's cumulative masses: the array
`.prefix`, which array-free distributions do not have, and `prefix_at`
and `locate`, which read or compute them. Everything else goes through
the Distribution's mass and draw methods.

No module assigns a generator's `bit_generator.state`: a batched call
draws every set or row it is given and charges only those before a
stop, so no draw is ever rewound and replayed.

Only the schedules read a profile: outside `profiles.py`, a subscript
of a name `profile` may stand only in a function named `schedule` or
`*_schedule`, or in `compare_budget`, which they share. Tester and
subroutine bodies take every size and budget from a schedule.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "condtest"

ALLOWED = {
    # CLI commands that click registers by decorator.
    "cli.run": "the `condtest run` command",
    "cli.sweep": "the `condtest sweep` command",
    "cli.validate": "the `condtest dist validate` command",
    # Exact reference implementations the acceptance criteria compare against.
    "distcore.conditional_pmf": "criterion 1 holds oracle draws against it",
    "distcore.neighborhood_mass": "criterion 3 holds estimate_neighborhood against it",
    "distcore.light_set": "criterion 7 keeps its light tail out of approx_eval's points",
    "distcore.psi_vector": "criterion 10 checks the mean-psi identity with it",
    "identity.build_witnesses": "criterion 10 checks the witness partition bounds with it",
    "harness.passes_guarantee": "the Wilson rule every acceptance criterion applies",
    "distcore.QuerySet.interval": "criterion 1 draws on interval sets built with it",
    # Names the benchmark in perfbench/ calls.
    "adversarial.rand_block_profile": "perfbench/workloads.py builds its block instances with it",
    "uniformity.query_budget": "perfbench/workloads.py checks pcond_uniform ledgers against it",
    # Report readers, the inverse of write_csv and write_json.
    "harness.read_csv_trials": "reads back a CSV report written by write_csv",
    "harness.read_json_report": "reads back a JSON report written by write_json",
    # Library conveniences.
    "adversarial.rand_staircase": "random staircase instances, the twin of rand_block_profile",
    "oracles.OracleHandle.draw": "the single-draw form of draw_many",
}


def _public_definitions():
    """(key, name) for every public module-level function or class and
    every public method, keyed "module.name" or "module.Class.name"."""
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            yield f"{mod}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{mod}.{node.name}.{item.name}", item.name


def _names_read(tree):
    """Every name read, read as an attribute or imported in tree."""
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            seen.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            seen.update(a.name for a in node.names)
    return seen


def _referenced_names():
    """_names_read over every module outside __init__.py."""
    seen = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            seen |= _names_read(ast.parse(path.read_text()))
    return seen


def test_only_reads_count_as_uses():
    # The local `run` and the attribute `chain` are only stored.
    stored = "def f(h):\n    run = h\n    h.chain = 1\n"
    assert _names_read(ast.parse(stored)) == {"h"}
    assert _names_read(ast.parse("run(h.chain)")) == {"run", "h", "chain"}


def test_every_public_definition_is_used_or_allowed():
    used = _referenced_names()
    dead = sorted(key for key, name in _public_definitions()
                  if name not in used and key not in ALLOWED)
    assert not dead, f"public definitions nothing in src/condtest uses: {dead}"


def test_allowlist_names_real_unused_definitions():
    defined = dict(_public_definitions())
    used = _referenced_names()
    stale = sorted(key for key in ALLOWED
                   if key not in defined or defined[key] in used)
    assert not stale, f"allowlist entries that are gone or now used: {stale}"


def _unused_imports(tree):
    """Names tree imports but never loads as a bare name."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - loaded)


def test_unused_import_check_reads_loads_only():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .errors import BadQuerySet, ZeroMassSet\n"
              "def f(s: BadQuerySet):\n"
              "    np = os.path.join(s)\n")
    assert _unused_imports(ast.parse(source)) == ["ZeroMassSet", "np"]


def test_every_import_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(ast.parse(path.read_text()))
            if names:
                unused[path.name] = names
    assert not unused, f"names imported but never used: {unused}"


CUMULATIVE = ("prefix", "prefix_at", "locate")


def _prefix_reads(tree):
    """Sorted line numbers where tree loads an attribute named in CUMULATIVE."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in CUMULATIVE
                  and isinstance(node.ctx, ast.Load))


def test_prefix_read_check_reads_loads_only():
    source = ("def f(d, prefix):\n"
              "    d.prefix = prefix\n"
              "    return d.prefix[1:], d.mass(prefix)\n"
              "def g(d, u):\n"
              "    return d.prefix_at(1), d.locate(u), d.points_at(u, 1, 2, 1.0)\n")
    assert _prefix_reads(ast.parse(source)) == [3, 5, 5]


def test_only_distcore_reads_prefix():
    reads = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "distcore.py":
            lines = _prefix_reads(ast.parse(path.read_text()))
            if lines:
                reads[path.name] = lines
    assert not reads, f"cumulative masses read outside distcore: {reads}"


def _state_assignments(tree):
    """Sorted line numbers where tree assigns an attribute `state` of an
    attribute `bit_generator`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "state"
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "bit_generator")


def test_state_assignment_check_reads_stores_only():
    source = ("state = h.rng.bit_generator.state\n"
              "h.rng.bit_generator.state = state\n"
              "h.rng.bit_generator.state, n = state, 1\n"
              "h.rng.state = state\n")
    assert _state_assignments(ast.parse(source)) == [2, 3]


def test_no_generator_is_rewound():
    rewinds = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _state_assignments(ast.parse(path.read_text()))
        if lines:
            rewinds[path.name] = lines
    assert not rewinds, f"bit_generator.state assigned: {rewinds}"


def _profile_reads(tree):
    """(function, line) for every profile[...] that tree loads outside a
    schedule or compare_budget; function is None at module level."""
    reads = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Subscript) and isinstance(child.ctx, ast.Load)
                    and isinstance(child.value, ast.Name) and child.value.id == "profile"
                    and not (fn == "schedule" or fn == "compare_budget"
                             or (fn or "").endswith("_schedule"))):
                reads.append((fn, child.lineno))
            visit(child, fn)

    visit(tree, None)
    return reads


# Lines of identity.py before its schedules, verbatim: two tester
# bodies that read the profile inline.
INLINE_READS = """
def pcond_test_known(h, target, eps, profile=DESK):
    eta = eps / 6.0
    buckets = target.buckets(eta)
    b = buckets.b
    m = math.ceil(profile["known_m_c"] * b * b * math.log2(2.0 * b) / eta**2)


def _test_known_heavy(h, target, eps, sp, profile):
    eps1 = eps / 10.0
    m = math.ceil(profile["heavy_m_c"] * math.log2(4.0 / eps) / eps**4)
"""


def test_profile_read_check():
    assert _profile_reads(ast.parse(INLINE_READS)) == [
        ("pcond_test_known", 6), ("_test_known_heavy", 11)]
    allowed = ("def schedule(eps, profile):\n    return profile['unif_q']\n"
               "def pcond_schedule(n, eps, profile):\n"
               "    return profile['known_m_c']\n"
               "def compare_budget(eta, K, delta, profile):\n"
               "    return profile['compare_c']\n"
               "def f(profile):\n    profile['x'] = 1\n    return profile.name\n")
    assert _profile_reads(ast.parse(allowed)) == []
    assert _profile_reads(ast.parse("q = profile['unif_q']")) == [(None, 1)]


def test_only_schedules_read_the_profile():
    reads = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "profiles.py":
            found = _profile_reads(ast.parse(path.read_text()))
            if found:
                reads[path.name] = found
    assert not reads, f"profile read outside a schedule: {reads}"
