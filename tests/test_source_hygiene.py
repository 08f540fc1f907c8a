"""Static checks of the package source with the standard library's `ast`:
no unused imports and none inside a function, no private module-level
function that nothing in the package calls, one home for the certification
rule, one certification route, one tie rule, one phase-system assembly,
column order and count, one orthonormality check of the Schmidt rows,
one lender of the per-thread Gram buffer, one caller of the unchecked
packing-array wrapper, one home each for the seed rule, the unchecked
record and strict JSON text, benchmark layer targets that resolve, every
named threshold documented in README, and a pinned list of public names."""

import ast
import importlib
import inspect
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


def test_no_import_inside_a_function():
    # every import is made once, at module level, where a cycle between
    # modules shows at import time
    local = [f"{path.name}:{node.name}" for path in MODULES
             for node in ast.walk(parse(path))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(inner, (ast.Import, ast.ImportFrom))
                     for inner in ast.walk(node))]
    assert local == [], f"imports inside {local}"


PUBLIC_NAMES = [
    "CountingTable", "CrossCutSpec", "DIM_CAP", "Deck", "ExperimentConfig",
    "ExperimentReport", "GeneralizedQoaState", "GenericityReport",
    "Marginal", "MarginalFamily", "OA_9_4_3_2", "OaCheck", "OrthogonalArray",
    "OverlapDependenceReport", "PackingArray", "PartyStructure", "PureState",
    "SchmidtDecomposition", "Tolerances", "UdpStatus", "UdpVerdict",
    "WitnessCheck", "assemble_gamma_system", "build_cross_matrices",
    "certify_udp", "check_counting_table", "classify_genericity",
    "components", "compute_deck", "counterexample_from_disconnection",
    "decide_null_space", "deck_distance", "decks_equal",
    "equations_for_split", "fidelity_up_to_phase", "format_array_text",
    "ghz_state", "greedy_packing_array", "inner_product", "is_connected",
    "load_state",
    "marginal_number_lower_bound", "non_udp_witness", "parse_array_text",
    "partial_trace", "phase_twist", "qoa_state", "run_experiment",
    "sample_haar_state", "save_state", "schmidt_decompose",
    "state_from_json_dict", "state_to_json_dict", "verify_oa",
    "verify_overlap_dependences", "verify_pa", "verify_twin",
    "worst_case_surplus_closed_form",
]


def test_public_names_are_pinned():
    # adding or dropping a package export is a deliberate edit of this
    # list; the stage records (CrossCutMatrices, GammaSystem,
    # NullSpaceResult) live in `puredeck.certify` only
    package = importlib.import_module("puredeck")
    public = sorted(name for name, value in vars(package).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert public == PUBLIC_NAMES


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


def test_one_lender():
    # the per-thread buffer is held by `_lent` alone and lent by
    # `_stack_verdicts` alone: no other caller hands `_cross_matrices` or
    # `_upper_gram` a buffer, so the exact path, `build_cross_matrices` and
    # `verify_overlap_dependences` allocate their own arrays
    trees = {path.name: parse(path) for path in MODULES}
    assert callers(trees, "_lent") == {"certify.py:_stack_verdicts"}
    assert {module for module, tree in trees.items()
            if {"_LENT", "_LENT_BYTES"} & referenced_names(tree)} == {
        "certify.py"}
    tree = trees["certify.py"]
    assert functions_using(tree, "_LENT") == {"_lent"}
    assert functions_using(tree, "_LENT_BYTES") == {"_stack_verdicts"}
    lending = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               for call in ast.walk(node) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) in ("_cross_matrices",
                                                      "_upper_gram")
               and len(call.args) + len(call.keywords) > {
                   "_cross_matrices": 4, "_upper_gram": 1}[call.func.id]}
    assert lending == {"_stack_verdicts"}


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
    # a GammaSystem is one system, made by the public assembly alone; the
    # stack's Gram and factor rows read its factor tuple
    assert callers(trees, "GammaSystem") == {
        "certify.py:assemble_gamma_system"}


def test_one_count_of_the_phase_system():
    # one function sizes the phase system, from the block dimensions and
    # the rank alone: only it counts pairs with math.comb in `certify` and
    # `experiments`, and no function reads the counts off factor shapes
    # (`decide_null_space` reads its dense matrix's shape off them alone)
    trees = {path.name: parse(path) for path in MODULES}
    assert {f"{module}:{name}" for module in ("certify.py", "experiments.py")
            for name in functions_using(trees[module], "comb")} == {
        "certify.py:_system_size"}
    assert callers(trees, "_system_size") == {
        "certify.py:_exact_verdict", "certify.py:_stack_size",
        "certify.py:_stack_verdicts", "experiments.py:run_experiment",
        "experiments.py:_split_counts"}
    gone = {"_verdict_counts", "_factor_rows", "block_equation_counts",
            "expected_equation_counts"}
    assert {node.name for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)} & gone == set()
    removed = {"equation_counts", "num_complex_variables",
               "num_real_variables", "num_complex_equations",
               "num_equations", "rank"}
    defined = {f"{node.name}.{item.name}"
               for node in ast.walk(trees["certify.py"])
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name in removed}
    assert defined == set()


def test_one_tie_rule():
    # `_separated` alone reads the tie window; `_untied` and the tie-break
    # both decide ties by its neighbour-gap test
    trees = {path.name: parse(path) for path in MODULES}
    assert {f"{module}:{name}" for module, tree in trees.items()
            for name in functions_using(tree, "_TIE_TOL")} == {
        "schmidt.py:_separated"}
    assert callers(trees, "_separated") == {
        "schmidt.py:_untied", "schmidt.py:_tie_break_degenerate"}


def test_one_orthonormality_check():
    # the trace identity of q, l, p and m is the Schmidt rows'
    # orthonormality: one function checks it, where rows enter the kernel
    # (once per stack, once per decomposition given to
    # `build_cross_matrices`), and the overlap kernel raises nothing
    trees = {path.name: parse(path) for path in MODULES}
    gone = {"_trace_errors", "_operator_blocks"}
    assert {node.name for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)} & gone == set()
    assert {f"{module}:{name}" for module, tree in trees.items()
            for name in functions_using(tree, "TRACE_IDENTITY_TOL")} == {
        "certify.py:_orthonormality_defects"}
    assert callers(trees, "_orthonormality_defects") == {
        "certify.py:_stack_verdicts", "certify.py:build_cross_matrices"}
    cross = function_node(trees["certify.py"], "_cross_matrices")
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(cross))


def test_one_trusted_packing_array():
    # `PackingArray._trusted` skips `verify_pa`, which only the greedy
    # scan's proof stands in for: no other function names it
    trees = {path.name: parse(path) for path in MODULES}
    assert {f"{module}:{node.name}" for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for attr in ast.walk(node) if isinstance(attr, ast.Attribute)
            and attr.attr == "_trusted"
            and getattr(attr.value, "id", None) == "PackingArray"} == {
        "arrays.py:greedy_packing_array"}
    # and it is reached through that name only, not an alias or `cls`
    source = (PACKAGE / "arrays.py").read_text()
    assert source.count("._trusted(") == source.count(
        "PackingArray._trusted(")


@pytest.mark.parametrize("text, home", [
    ("seed must be at least 0", "_seed"),
    ("object.__new__", "_unchecked"),
    ("allow_nan", "_dumps")], ids=["seed", "unchecked", "json"])
def test_one_home_for_each_rule(text, home):
    # the seed rule of every seeded entry point, the one way past a frozen
    # record's checks, and the strict JSON writer of the CLI, state files
    # and experiment reports are each written once, in `states`
    source = (PACKAGE / "states.py").read_text()
    node = function_node(ast.parse(source), home)
    named = ast.get_source_segment(source, node).count(text)
    assert named == 1
    assert sum(path.read_text().count(text) for path in MODULES) == named


def test_every_seeded_entry_and_unchecked_record_uses_its_home():
    trees = {path.name: parse(path) for path in MODULES}
    assert callers(trees, "_seed") == {
        "states.py:sample_haar_state", "arrays.py:greedy_packing_array",
        "certify.py:certify_udp", "certify.py:verify_overlap_dependences",
        "experiments.py:__post_init__"}
    assert callers(trees, "_unchecked") == {
        "states.py:_trusted", "marginals.py:complete", "arrays.py:_trusted"}
    assert {"states.py:save_state", "experiments.py:to_json"} <= callers(
        trees, "_dumps")
