"""Every name the package exports has a caller in the library itself.

A name imported in rmcodes/__init__.py must be loaded in some other module
of the package: in the module that defines it, outside its own definition,
or in a module that imports it from there.  Names kept public for callers
outside the library are listed in EXEMPT, each with its reason.

The same holds for the elimination kernel's spans: every public method and
property of elimination.Span and its subclasses must be read by attribute
name somewhere in the package outside its own definitions, so a
specialisation that loses its last caller fails here.
"""

import ast
import functools
from pathlib import Path

import rmcodes

PACKAGE = Path(rmcodes.__file__).parent

EXEMPT = (
    ("enumerate_rm_maps", "the reference order map_index reads; the bench set-up calls it"),
    ("enumerate_mat_maps", "the reference order map_index reads; the bench set-up calls it"),
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


@functools.cache
def _span_classes() -> tuple[ast.ClassDef, ...]:
    """elimination.Span and the classes of elimination derived from it."""
    names, out = {"Span"}, []
    for node in _tree("elimination").body:
        if isinstance(node, ast.ClassDef) and (
                node.name == "Span" or names & {b.id for b in node.bases
                                                 if isinstance(b, ast.Name)}):
            names.add(node.name)
            out.append(node)
    return tuple(out)


def _attribute_readers(name: str, skip: set[int]) -> list[str]:
    """The modules that read attribute name at some node not in skip."""
    return [module for module in sorted(p.stem for p in PACKAGE.glob("*.py"))
            if any(isinstance(node, ast.Attribute) and node.attr == name
                   and isinstance(node.ctx, ast.Load) and id(node) not in skip
                   for node in ast.walk(_tree(module)))]


def test_every_span_method_has_a_library_reader():
    defs = {}  # each public method and property name, with its definitions
    for cls in _span_classes():
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.setdefault(node.name, []).append(node)
    assert {"join_rank", "member_mask", "combine", "pack", "rank", "rows"} <= defs.keys()
    assert len(_span_classes()) == 4
    unread = [name for name, nodes in defs.items()
              if not _attribute_readers(name, {id(n) for d in nodes for n in ast.walk(d)})]
    assert unread == []
