"""Checks on the shape of the source tree itself."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polytoeplitz"
TESTS = Path(__file__).resolve().parent
# a COO construction or conversion: the way into scipy's own entry format
COO_CALL = re.compile(r"\bcoo_matrix\(|\.tocoo\(")


def test_the_package_sources_are_found():
    assert (PACKAGE / "linalg.py").is_file()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_linalg_reads_entries_through_coo(path):
    # every other module reads and writes entries by linalg.stored_entries and
    # linalg.Entries, so the entry format stays one decision
    if path.name == "linalg.py":
        return
    calls = [
        f"{path.name}:{number}: {line.strip()}"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if COO_CALL.search(line)
    ]
    assert not calls, "\n".join(calls)


def _calls(tree: ast.AST):
    """Each call in ``tree`` with the dotted name of its callee and the name of the function around it.

    A method's name is qualified by its class: ``OperatorTuple.kraus``.
    """

    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, ast.ClassDef):
                inner = child.name
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{node.name}.{child.name}" if isinstance(node, ast.ClassDef) else child.name
            if isinstance(child, ast.Call):
                name = dotted(child.func)
                if name is not None:
                    yield name, inner, child.lineno
            yield from walk(child, inner)

    return walk(tree, None)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_blas_norms_stay_in_their_one_place(path):
    # np.linalg.norm runs BLAS, which threads on long inputs and rounds by the
    # thread count; Lanczos (svds) is op_norm's path past the dense cutoff only
    found = []
    for name, where, line in _calls(ast.parse(path.read_text())):
        if name.endswith("linalg.norm"):
            found.append(f"{path.name}:{line}: {name} in {where}")
        if name.split(".")[-1] == "svds" and (path.name, where) != ("linalg.py", "op_norm"):
            found.append(f"{path.name}:{line}: {name} in {where}")
    assert not found, "\n".join(found)


def test_only_linalg_calls_numpy_linear_algebra():
    # eigenvalues, norms and factorizations have one owner, so a spectral rule
    # (the Hermitian part taken, the batching, the LAPACK routine) is one decision
    found = [
        f"{path.name}:{line}: {name} in {where}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for name, where, line in _calls(ast.parse(path.read_text()))
        if name.startswith(("np.linalg.", "numpy.linalg."))
    ]
    assert not found, "\n".join(found)


def test_only_monomial_calls_sparse_kron():
    # a creation is one index computation (FockSpace.creation_action), never a
    # Kronecker chain of identities; monomial's coefficient slot is the one kron
    found = [
        f"{path.name}:{line}: {name} in {where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, where, line in _calls(ast.parse(path.read_text()))
        if name.split(".")[-1] == "kron" and not name.startswith("np.")
        and (path.name, where) != ("model.py", "monomial")
    ]
    assert not found, "\n".join(found)


def test_the_cutoff_has_its_readers_and_only_linalg_reads_meminfo():
    # _past_cutoff decides Lanczos (op_norm), the one-pass bracket
    # (norm_bracket) and the memory guard on the block stacks (_spectral_blocks)
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        readers |= {
            (path.name, where) for name, where, _ in _calls(ast.parse(text)) if name.split(".")[-1] == "_past_cutoff"
        }
        if path.name != "linalg.py":
            assert "/proc/meminfo" not in text, path.name
    assert readers == {("linalg.py", "op_norm"), ("linalg.py", "norm_bracket"), ("linalg.py", "_spectral_blocks")}


def test_stored_entries_has_its_readers_and_no_word_product_is_read_back():
    # a matrix is read back only where its storage is not known: the
    # universal model's word actions compose the creations' triples, the
    # pluriharmonic kernel permutes the model operator's entries, the row Gram
    # diagonal sums the map's terms on factor ranks, and the grading check
    # reads the reconstruction's entries, so none of them reads a matrix it
    # built; linalg's readers take a dense, stored-entry or foreign operand
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readers = {
        (module, where)
        for module, tree in trees.items()
        for name, where, _ in _calls(tree)
        if name.split(".")[-1] == "stored_entries"
    }
    assert readers == {
        ("brownhalmos.py", "_residual_terms"),
        ("brownhalmos.py", "_in_range_entries"),
        ("linalg.py", "_operand"),
        ("linalg.py", "save_matrix"),
        ("linalg.py", "_spectral_blocks"),
        ("linalg.py", "op_norm"),
        ("linalg.py", "norm_bracket"),
        ("toeplitz.py", "_entry_deviations"),
        ("toeplitz.py", "_degree_gaps"),
    }
    assert not {(m, w) for m, w in readers if w.startswith("OperatorTuple.") or w == "pluriharmonic_kernel"}
    # the word products X_w are built one way per kind of tuple; the
    # per-letter product is the oracle in tests/oracles.py
    defined = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert not defined & {"word_op", "multi_word_op"}


def test_the_model_maps_carry_diagonals_not_stored_entries():
    # the universal model's defects and purity iterates are diagonals, moved
    # by one scatter per word: cpmaps neither imports nor calls a stored-entry
    # kernel, builds no creation matrix and no sparse identity
    kernels = {
        "stored_entries", "Entries", "conjugate_entries", "_conjugate_entries", "accumulate_entries",
        "creation_product",
    }
    tree = ast.parse((PACKAGE / "cpmaps.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & kernels
    called = {name for name, _, _ in _calls(tree)}
    assert not {name for name in called if name.split(".")[-1] in kernels} | called & {"sp.identity", "sp.eye"}


def test_the_universal_model_is_its_space_and_operator_tuples_are_matrices():
    # one representation per kind of tuple: OperatorTuple declares no mode
    # field, and the model holds nothing but its (space, side)
    from polytoeplitz.cpmaps import OperatorTuple, UniversalModel

    fields = OperatorTuple.__dataclass_fields__
    assert "model" not in fields and "_action_cache" not in fields
    assert UniversalModel._fields == ("space", "side")


def test_a_symbol_is_its_class_ids_and_words_are_made_only_at_the_json_boundary():
    # inside src/ a reduced pair is its class id: a symbol is (space, classes,
    # coeffs), its evaluation layout is kept on it, not on the space, and a
    # pair's words are read or made only where a symbol is read or written as
    # JSON, and by monomial, which takes a pair
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    symbol = next(
        node for node in trees["toeplitz.py"].body if isinstance(node, ast.ClassDef) and node.name == "FourierSymbol"
    )
    assert [item.target.id for item in symbol.body if isinstance(item, ast.AnnAssign)] == ["space", "classes", "coeffs"]
    assert "symbol_layout" not in {name for tree in trees.values() for name in _references(tree)}

    def callers(callee):
        return {
            (module, where)
            for module, tree in trees.items()
            for name, where, _ in _calls(tree)
            if name.split(".")[-1] == callee
        }

    assert callers("class_of") <= {("toeplitz.py", "symbol_from_json"), ("model.py", "monomial")}
    assert callers("class_pair") <= {("toeplitz.py", "symbol_to_json")}


def _parameters(tree: ast.AST) -> dict:
    """Each function or method of a module, by name, with its parameter names."""
    return {
        node.name: {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_the_cp_maps_and_the_berezin_kernel_read_their_spec_and_space_off_their_operands():
    # a tuple carries its spec (X.spec) and a kernel its space (kernel.space):
    # only random_pure_tuple, which builds a tuple, takes a spec beside it
    cpmaps = ast.parse((PACKAGE / "cpmaps.py").read_text())
    params = _parameters(cpmaps)
    assert {name for name, args in params.items() if "spec" in args} == {"random_pure_tuple"}
    assert "space" not in params["intertwining_residual"]
    kernel = next(node for node in cpmaps.body if isinstance(node, ast.ClassDef) and node.name == "BerezinKernel")
    fields = {item.target.id for item in kernel.body if isinstance(item, ast.AnnAssign)}
    assert "space" in fields and not fields & {"spec", "trunc", "dim_h"}
    # extract_fourier reads the report it is given, so it takes no tolerance
    assert "tol" not in _parameters(ast.parse((PACKAGE / "toeplitz.py").read_text()))["extract_fourier"]


# importing scipy.sparse alone costs about 0.3 s and 15 MB: no module imports
# scipy at load, and only Lanczos, past the cutoff, and monomial, whose one
# reader is bench/gen.py, import it where they run


def _module_level_imports(tree: ast.AST):
    """The dotted names each import run at load brings in, with its line: all but those in function bodies."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield from ((f"{node.module}.{alias.name}", node.lineno) for alias in node.names)
        yield from _module_level_imports(node)


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_linear_algebra_at_load(path):
    found = [
        f"{path.name}:{line}: {name}"
        for name, line in _module_level_imports(ast.parse(path.read_text()))
        if _is_scipy(name)
    ]
    assert not found, "\n".join(found)


def test_scipy_is_imported_only_where_lanczos_and_monomial_run():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                names = []
                if isinstance(inner, ast.Import):
                    names = [alias.name for alias in inner.names]
                elif isinstance(inner, ast.ImportFrom) and inner.module:
                    names = [inner.module]
                if any(_is_scipy(name) for name in names):
                    found.add((path.name, node.name))
    assert found == {("linalg.py", "op_norm"), ("model.py", "monomial")}


# a cache keeps its keys alive: one keyed on a spec, a space or an array would
# hold it for the life of the process, so every cache in src/ takes ints only
CACHE_DECORATORS = {"cache", "lru_cache"}


def _cached_functions(tree: ast.AST):
    """Each function under ``functools.cache`` or ``functools.lru_cache``, with or without arguments."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in CACHE_DECORATORS:
                yield node


def test_every_cache_keys_on_ints_only():
    cached, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in _cached_functions(ast.parse(path.read_text())):
            cached.add(fn.name)
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            loose = [a.arg for a in params if not (isinstance(a.annotation, ast.Name) and a.annotation.id == "int")]
            if loose:
                found.append(f"{path.name}:{fn.lineno}: {fn.name}({', '.join(loose)})")
    assert {"build_parser", "graded_lex_layout", "_cut_plan"} <= cached
    assert not found, "\n".join(found)


# public names no code in src/ reads, each with the reader that keeps it
UNREAD_EXPORTS = {
    "monomial": "bench/gen.py plants its operators with it",
    "scalar_kernel": "the RKHS side of the Berezin check (ROADMAP item 4)",
    "truncated_gram_kernel": "the RKHS side of the Berezin check (ROADMAP item 4)",
    "evaluate_at_tuple": "the symbol's free pluriharmonic function at a tuple (ROADMAP item 4)",
}


def _exports(tree: ast.AST) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _read_in_src(name: str, trees: dict, tree: ast.AST, definition: ast.AST) -> bool:
    """Whether ``name`` is read anywhere in ``trees``, the ``definition`` in ``tree`` aside."""
    return any(name in _references(other, definition if other is tree else None) for other in trees.values())


def _references(tree: ast.AST, skip: ast.AST = None):
    """Every name read by an ``ast.Name`` or the attribute of an ``ast.Attribute``, outside ``skip``."""
    for node in ast.iter_child_nodes(tree):
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        yield from _references(node, skip)


def test_every_public_name_has_a_reader():
    # a name in a module's __all__ is read somewhere in src/ besides its own
    # definition and the export lists, or it names its reader above
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unread = []
    for module, tree in trees.items():
        for name in _exports(tree):
            definition = next(
                (node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name),
                None,
            )
            if not _read_in_src(name, trees, tree, definition) and name not in UNREAD_EXPORTS:
                unread.append(f"{module}: {name}")
    assert not unread, "\n".join(unread)
    assert all(name in {n for t in trees.values() for n in _exports(t)} for name in UNREAD_EXPORTS)


# methods and properties no code in src/ reads, each with the reader that keeps it
UNREAD_METHODS = {
    "FockSpace.basis": "bench/gen.py reads the basis words to plant and spoil its operators",
    "FockSpace.index_of": "bench/gen.py reads the rank of a basis word",
    "FockSpace.pair_structure": "bench/tracing.py binds it by name; the tests compare the classifier with it",
    "PairStructure.comp": "bench/tracing.py counts its comparable pairs; the tests compare against it",
}


def _methods(tree: ast.AST):
    """Each non-dunder method or property of a module-level class, as ``Class.name`` with its definition."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_every_method_has_a_reader():
    # as for __all__: a method or property is read in src/ besides its own
    # definition, or it names its reader above.  Names are matched, not
    # types, so an operator dunder (__matmul__, __add__) is not seen here
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unread = [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        for qualified, definition in _methods(tree)
        if not _read_in_src(qualified.split(".")[1], trees, tree, definition) and qualified not in UNREAD_METHODS
    ]
    assert not unread, "\n".join(unread)
    assert set(UNREAD_METHODS) <= {qualified for tree in trees.values() for qualified, _ in _methods(tree)}


def _imported_names(tree: ast.AST):
    """The name each import binds, with its line; ``from __future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)


# every module but the package's __init__, whose imports are its public names
IMPORTING_MODULES = [p for p in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")) if p.name != "__init__.py"]


@pytest.mark.parametrize("path", IMPORTING_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    # an import that no code of its module reads is dead weight; a name in
    # the module's __all__ counts as read
    tree = ast.parse(path.read_text())
    read = set(_references(tree)) | set(_exports(tree))
    unread = [f"{path.name}:{line}: {name}" for name, line in _imported_names(tree) if name not in read]
    assert not unread, "\n".join(unread)


# parameters with a default that no call in src/ passes, each with the reader
# that sets it: a setting only tests set is a constant
UNSET_DEFAULTS = {
    "cli.main(argv)": "the tests and bench/measure.py pass the arguments; the console script passes none",
    "sampling.random_spec(max_n)": "the tests draw alphabets of up to 3 letters",
    "sampling.random_spec(max_m)": "the tests draw positivity orders up to 4",
}


def _defaulted_parameters(tree: ast.AST):
    """Each function's parameters with a default: ``(callee name, parameter, position or None, is a method)``.

    A constructor is called by its class's name; a method or constructor
    takes ``self`` first, which a call does not pass.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.ClassDef, ast.Module)):
            continue
        for fn in node.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from _defaults_of(fn, node.name if isinstance(node, ast.ClassDef) else None)
            for inner in ast.walk(fn):
                if inner is not fn and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from _defaults_of(inner, None)


def _defaults_of(fn, cls):
    """The defaulted parameters of ``fn``, a method of ``cls`` or, with ``cls`` None, a function."""
    name = cls if cls and fn.name == "__init__" else fn.name
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for position, a in enumerate(positional[first:], start=first):
        yield name, a.arg, position, cls is not None
    for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield name, a.arg, None, cls is not None


def _set_by_a_call(trees: dict, callee: str, param: str, position, method: bool) -> bool:
    """Whether a call to ``callee`` passes ``param``: by keyword, by position, or through ``*``/``**``."""
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != callee:
                continue
            keywords = {kw.arg for kw in node.keywords}
            if param in keywords or None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                return True
            if position is not None and len(node.args) + method > position:
                return True
    return False


def test_every_setting_has_a_setter():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unset = {
        f"{module.removesuffix('.py')}.{callee}({param})"
        for module, tree in trees.items()
        for callee, param, position, method in _defaulted_parameters(tree)
        if not _set_by_a_call(trees, callee, param, position, method)
    }
    assert unset == set(UNSET_DEFAULTS)
