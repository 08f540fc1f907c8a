"""Static checks of the package source with the standard library's `ast`:
no unused imports, no private module-level function that nothing in the
package calls, one home for the certification rule, one certification
route, one tie rule, one phase-system assembly and column order, benchmark
layer targets that resolve, and every named threshold documented in
README."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "puredeck"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """Names bound by the module's imports, except `from __future__`."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def referenced_names(tree, skip=None):
    """Names read as variables or attributes, or imported from a sibling
    module, anywhere in `tree` outside the node `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_package_modules_found():
    assert {"states.py", "certify.py", "__init__.py"} <= {
        path.name for path in MODULES}


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__ imports only to re-export, so it is not checked
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports {unused} without using them"


def test_every_private_function_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            # a function that only calls itself is not referenced
            refs = set().union(*(
                referenced_names(other, skip=node if other is tree else None)
                for other in trees.values()))
            if node.name not in refs:
                unreferenced.append(f"{name}:{node.name}")
    assert unreferenced == [], f"no module references {unreferenced}"


def test_perfbench_targets_resolve():
    # the tracer patches these by name; a rename would make it fail
    layers = ROOT / "perfbench" / "layers.py"
    targets = next(node.value for node in parse(layers).body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    pairs = [tuple(elt.value for elt in value.elts[:2])
             for value in targets.values]
    assert len(pairs) == len(targets.keys) > 0
    missing = [f"{module}.{attr}" for module, attr in pairs
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == [], f"perfbench/layers.py TARGETS name {missing}"


def function_node(tree, name):
    node, = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def functions_using(tree, name):
    """Names of the functions whose bodies read or call `name`."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and name in referenced_names(node)}


def test_one_home_for_the_certification_rule():
    trees = {path.name: parse(path) for path in MODULES}
    # the genericity rule: only `schmidt` reads RANK_TOL or builds a report
    assert {module for module, tree in trees.items()
            if "RANK_TOL" in referenced_names(tree)} == {"schmidt.py"}
    assert {module for module, tree in trees.items()
            if any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == "GenericityReport"
                   for node in ast.walk(tree))} == {"schmidt.py"}
    # the verdict: one function issues CERTIFIED_UDP; UdpVerdict checks it
    assert functions_using(trees["certify.py"], "CERTIFIED_UDP") == {
        "_trivial_null_verdict", "__post_init__"}


def callers(trees, name):
    """`module:function` for every function in the package that calls
    `name`, plainly or as an attribute."""
    return {f"{module}:{node.name}" for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call)
                    and name in (getattr(call.func, "id", None),
                                 getattr(call.func, "attr", None))
                    for call in ast.walk(node))}


def test_one_certification_route():
    trees = {path.name: parse(path) for path in MODULES}
    # only the stacked kernel issues the Cholesky certificate, from the
    # Grams its one loop over precisions builds, and only the exact
    # decision runs the SVD
    assert callers(trees, "_shifted_cholesky") == {
        "certify.py:_stack_verdicts"}
    assert callers(trees, "_upper_gram") == {"certify.py:_stack_verdicts"}
    assert callers(trees, "_svd_null_space") == {
        "certify.py:decide_null_space"}
    # certify_udp is a stack of one, and no route leads back into it; the
    # CLI's certify command is its one caller in the package
    assert callers(trees, "certify_udp") == {"cli.py:_cmd_certify"}
    assert callers(trees, "_certify_stack") == {
        "certify.py:certify_udp", "experiments.py:run_experiment"}
    # the kernel alone sizes its stacks and runs them
    assert callers(trees, "_stack_size") == {"certify.py:_certify_stack"}
    assert callers(trees, "_stack_verdicts") == {"certify.py:_certify_stack"}


def test_one_in_place_cholesky():
    # numpy's private LAPACK gufunc is named in `_factorizes` alone, so a
    # numpy that changes it breaks one function, and no code makes the
    # fresh factor np.linalg.cholesky allocates
    trees = {path.name: parse(path) for path in MODULES}
    source = (PACKAGE / "certify.py").read_text()
    factorizes = function_node(trees["certify.py"], "_factorizes")
    named = ast.get_source_segment(source, factorizes).count("_umath_linalg")
    assert named > 0
    assert sum(path.read_text().count("_umath_linalg")
               for path in MODULES) == named
    assert callers(trees, "cholesky") == set()
    # its signature comes from the Gram, so one call serves both rungs
    assert "d->d" not in source and "f->f" not in source


def test_one_gram_tiling():
    # only `_upper_gram` sizes tiles, and the shift reads no integer view
    source = (PACKAGE / "certify.py").read_text()
    assert functions_using(ast.parse(source), "_TILE_BYTES") == {"_upper_gram"}
    assert "int64" not in source


def test_one_shift_rule():
    # one rule shifts both rungs, and the skip test reads its coefficient;
    # roundoff is read from the precision only there, and one loop names
    # the precisions
    tree = parse(PACKAGE / "certify.py")
    assert functions_using(tree, "_shift_coefficient") == {
        "_shifted_cholesky", "_stack_verdicts"}
    assert functions_using(tree, "finfo") == {"_roundoff"}
    assert functions_using(tree, "_roundoff") == {"_shift_coefficient",
                                                  "_shifted_cholesky"}
    assert functions_using(tree, "complex64") == {"_stack_verdicts"}
    assert functions_using(tree, "GRAM_MIN_RATIO") == {"_shifted_cholesky"}


def test_every_named_threshold_is_in_readme():
    # README's tolerance list names each threshold the code applies, with
    # the module that defines it
    readme = (ROOT / "README.md").read_text()
    names = [f"{path.stem}.{target.id}" for path in MODULES
             for node in parse(path).body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)
             and target.id.endswith(("_TOL", "_FLOOR", "_RATIO"))]
    assert len(names) >= 10
    missing = [name for name in names if f"`{name}`" not in readme]
    assert missing == [], f"README does not name {missing}"


def test_one_column_order():
    # the pairs i < j are built by `_pairs` alone and cached there, so
    # assembly and the witness search read one column order
    source = (PACKAGE / "certify.py").read_text()
    pairs = function_node(ast.parse(source), "_pairs")
    named = ast.get_source_segment(source, pairs).count("triu_indices")
    assert named > 0
    assert sum(path.read_text().count("triu_indices")
               for path in MODULES) == named


def test_one_assembly():
    # one function turns overlap operators into the two sources' factors;
    # the stack calls it directly, not the public name the tracer wraps
    trees = {path.name: parse(path) for path in MODULES}
    assert callers(trees, "SourceFactors") == {"certify.py:_gamma_factors"}
    # the precision ladder re-types and subsets those factors, no more
    assert callers(trees, "_make") == {"certify.py:_stack_verdicts"}
    assert callers(trees, "_gamma_factors") == {
        "certify.py:assemble_gamma_system", "certify.py:_stack_verdicts"}
    assert callers(trees, "assemble_gamma_system") == {
        "certify.py:_exact_verdict"}


def test_one_tie_rule():
    # `_separated` alone reads the tie window; `_untied` and the tie-break
    # both decide ties by its neighbour-gap test
    trees = {path.name: parse(path) for path in MODULES}
    assert {f"{module}:{name}" for module, tree in trees.items()
            for name in functions_using(tree, "_TIE_TOL")} == {
        "schmidt.py:_separated"}
    assert callers(trees, "_separated") == {
        "schmidt.py:_untied", "schmidt.py:_tie_break_degenerate"}
