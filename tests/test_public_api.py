import ast
import pathlib

import rmt

SRC = pathlib.Path(rmt.__file__).parent

# public names that no module of the package reads, each kept for a reason
NO_PROGRAM_READER = {
    "save_matrix_csv": "writes the CLI's CSV input format",
    "save_matrix_bin": "writes the CLI's binary input format",
    "capacity_identity": "oracle named by the ROADMAP",
    "spike_outlier_root": "oracle named by the ROADMAP",
    "empirical_stieltjes": "oracle named by the ROADMAP",
    "mp_stieltjes": "oracle of the acceptance criteria",
    "solve_companion_stieltjes": "oracle of the acceptance criteria",
}


def _exported(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _references(node: ast.AST, name: str) -> int:
    """Names, attributes and import aliases that read ``name``, outside its own definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
        return 0
    here = (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name)
    return here + sum(_references(child, name) for child in ast.iter_child_nodes(node))


def test_every_public_name_has_a_program_reader():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unread = [f"{module}.{name}" for module, tree in trees.items() for name in _exported(tree)
              if name not in NO_PROGRAM_READER and not any(_references(t, name) for t in trees.values())]
    assert unread == []


def test_the_allowlist_names_only_public_names():
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    assert set(NO_PROGRAM_READER) <= {name for tree in trees for name in _exported(tree)}
