"""Every name the package exports has a caller in the library itself.

A name imported in rmcodes/__init__.py must be loaded in some other module
of the package: in the module that defines it, outside its own definition,
or in a module that imports it from there.  Names kept public for callers
outside the library are listed in EXEMPT, each with its reason.

The same holds for classes: every public method and property of every
class in the package must be read by attribute name somewhere in the
package outside the definitions of that name, so a member that loses its
last library caller fails here.  The rule matches by name, so a member
that shares its name with a read attribute of another class (a dataclass
field, say) passes unread.  Members kept for the bench alone are listed
in MEMBER_EXEMPT, each with the bench file that reads it.
"""

import ast
import functools
from pathlib import Path

import rmcodes

PACKAGE = Path(rmcodes.__file__).parent

EXEMPT = (
    ("enumerate_rm_maps", "the order map_index computes, as tests/test_scan.py checks; "
                          "bench/group_scan.py and bench/cli_session.py call it"),
    ("enumerate_mat_maps", "the order map_index computes, as tests/test_scan.py checks; "
                           "bench/group_scan.py and bench/cli_session.py call it"),
    ("matrix_code", "called by the bench"),
    ("rref", "the elimination kernel's echelon form"),
    ("compress", "eps_b^-1, the inverse of expand"),
)


@functools.cache
def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


@functools.cache
def _imports(module: str) -> dict[str, str]:
    """Each name module imports from a sibling module, with that module."""
    return {alias.asname or alias.name: node.module
            for node in ast.walk(_tree(module))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _loads(nodes) -> set[str]:
    """The names loaded anywhere in nodes."""
    return {node.id for top in nodes for node in ast.walk(top)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@functools.cache
def _module_loads(module: str) -> set[str]:
    return _loads(_tree(module).body)


def _callers(name: str, module: str) -> list[str]:
    """The modules other than __init__ that load name as the test requires."""
    out = []
    for other in sorted(p.stem for p in PACKAGE.glob("*.py")):
        tree = _tree(other)
        if other == module:
            # outside the name's own top-level definition
            rest = [node for node in tree.body
                    if getattr(node, "name", None) != name
                    or not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
            if name in _loads(rest):
                out.append(other)
        elif (other != "__init__" and _imports(other).get(name) == module
              and name in _module_loads(other)):
            out.append(other)
    return out


def test_exports_are_read():
    assert len(_imports("__init__")) > 50


def test_exemptions_are_uncalled_exports():
    # an exemption whose name gains a library caller is no longer needed
    exports = _imports("__init__")
    for name, reason in EXEMPT:
        assert name in exports and reason
        assert _callers(name, exports[name]) == [], name


def test_every_export_has_a_library_caller():
    exempt = dict(EXEMPT)
    uncalled = [name for name, module in _imports("__init__").items()
                if name not in exempt and not _callers(name, module)]
    assert uncalled == []


def _attribute_readers(name: str, skip: set[int]) -> list[str]:
    """The modules that read attribute name at some node not in skip."""
    return [module for module in sorted(p.stem for p in PACKAGE.glob("*.py"))
            if any(isinstance(node, ast.Attribute) and node.attr == name
                   and isinstance(node.ctx, ast.Load) and id(node) not in skip
                   for node in ast.walk(_tree(module)))]


@functools.cache
def _members() -> dict[str, list[tuple[str, ast.FunctionDef]]]:
    """Each public method and property name of the package's classes, with
    the class and the definition of each."""
    out = {}
    for module in sorted(p.stem for p in PACKAGE.glob("*.py")):
        for cls in ast.walk(_tree(module)):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        out.setdefault(node.name, []).append((cls.name, node))
    return out


def _unread_members() -> list[str]:
    """Class.name for each member whose name no library code reads."""
    return sorted(f"{cls}.{name}" for name, defs in _members().items()
                  if not _attribute_readers(name, {id(n) for _, d in defs for n in ast.walk(d)})
                  for cls, _ in defs)


MEMBER_EXEMPT = (
    ("FieldTower.element", "bench/gen.py and bench/cli_session.py draw elements by code"),
    ("MatrixCode.codewords", "bench/distance_law.py and bench/gen.py read every word"),
    ("RankMetricCode.codeword_codes", "bench/tracing.py wraps it by cls.__dict__[name]"),
)


def test_every_public_member_has_a_library_reader():
    classes = {cls for defs in _members().values() for cls, _ in defs}
    assert {"Span", "_F2Span", "FieldTower", "RankMetricCode", "AutGroup", "_Map"} <= classes
    assert all(reason for _, reason in MEMBER_EXEMPT)
    # an exempt member that gains a library reader, or goes, fails here too
    assert _unread_members() == sorted(name for name, _ in MEMBER_EXEMPT)
