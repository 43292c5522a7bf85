"""Every function, class, method and property of ``ehv`` is used by
``ehv`` itself.

A definition that only tests reach is code that no check, command or
benchmark runs: it is registered as a check or deleted.  The definitions
are the top-level functions and classes and the non-dunder methods and
properties of those classes.  A definition counts as used when its name is
read anywhere in ``src/ehv`` outside its own body (a method's body is also
its class's), or when it is a check registered with ``@_check``.  The
package's re-exports in ``__init__.py`` do not count as uses.  The CLI
handlers are used: ``build_parser`` names each one.

Every factor list is built by one of the three emitters of
``ehv.integrands``: ``_cn`` and ``_an`` write the integrands, whose
structure the pairwise and orbit node-sum paths read, and ``_closed`` writes
the closed forms, on zero torus variables; no other code constructs a
``Factor``.
"""

import ast
from pathlib import Path

import ehv

SRC = Path(ehv.__file__).resolve().parent

# Kept although only tests call them, each for its reason:
KEPT = {
    # the pointwise rule over T^n: the reference the vectorized mesh path
    # (integrate_mesh_fn over mesh_eval) is tested against
    "torus_integral",
    # the dual family summed as a series at one point: the reference the
    # node tables of the biorthogonality integrals (_family_rows) are
    # tested against
    "T_n",
    # Gamma(z q^s) / Gamma(z) for complex s, tested against theta_factorial;
    # a traced target of the benchmark's gamma layer (perfbench/layers.py)
    "elliptic_factorial_s",
}


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _is_check(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_check" for d in node.decorator_list)


def _definitions(tree):
    """The top-level functions and classes of a module, and the non-dunder
    methods and properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__")))


def _uses(modules) -> set:
    """Names read in ``ehv`` outside ``__init__.py``, a definition's own
    body not counting for its own name."""
    used = set()

    def walk(node, owners):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id not in owners:
                used.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in owners:
                used.add(child.attr)
            inner = owners | {child.name} if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else owners
            walk(child, inner)

    for name, tree in modules.items():
        if name != "__init__.py":
            walk(tree, frozenset())
    return used


def _unused():
    modules = _modules()
    used = _uses(modules)
    return {node.name for tree in modules.values()
            for node in _definitions(tree)
            if node.name not in used and not _is_check(node)}


def test_every_definition_is_used_by_ehv():
    assert _unused() - KEPT == set()


def test_each_kept_definition_is_only_tested():
    # a kept name that ehv itself uses needs no exception
    assert KEPT <= _unused()


def _factor_builders(modules) -> set:
    """(module, top-level definition) of every ``Factor(...)`` call in ehv."""
    found = set()
    for name, tree in modules.items():
        for node in tree.body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and "Factor" in (
                        getattr(sub.func, "id", None),
                        getattr(sub.func, "attr", None)):
                    found.add((name, getattr(node, "name", None)))
    return found


def test_every_factor_comes_from_the_two_emitters():
    # the two integrand emitters and the one closed-form emitter
    assert _factor_builders(_modules()) == {("integrands.py", "_cn"),
                                            ("integrands.py", "_an"),
                                            ("integrands.py", "_closed")}
