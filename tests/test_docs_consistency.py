"""Documentation consistency: the docs only reference real artifacts.

DESIGN.md's experiment index and EXPERIMENTS.md cite module paths,
benchmark files, and test files; these tests keep those citations honest
as the code evolves.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def referenced_paths(text):
    """Extract repo-relative .py paths mentioned in a document."""
    pattern = re.compile(
        r"(?:benchmarks|tests|examples|src/repro|repro)[\w/\.]*\.py")
    return set(re.findall(pattern, text))


def cited_test_nodes(text):
    """Extract ``path.py::Name`` citations of test and benchmark files."""
    pattern = re.compile(r"((?:benchmarks|tests)/[\w/\.]*\.py)::(\w+)")
    return set(re.findall(pattern, text))


def normalize(path: str) -> pathlib.Path:
    if path.startswith("repro/"):
        path = "src/" + path
    return ROOT / path


def test_design_references_exist():
    text = (ROOT / "DESIGN.md").read_text()
    for ref in referenced_paths(text):
        assert normalize(ref).exists(), f"DESIGN.md cites missing {ref}"


def test_experiments_references_exist():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for ref in referenced_paths(text):
        assert normalize(ref).exists(), (
            f"EXPERIMENTS.md cites missing {ref}")


def test_readme_references_exist():
    text = (ROOT / "README.md").read_text()
    for ref in referenced_paths(text):
        assert normalize(ref).exists(), f"README.md cites missing {ref}"


def test_docs_references_exist():
    for doc in (ROOT / "docs").glob("*.md"):
        for ref in referenced_paths(doc.read_text()):
            assert normalize(ref).exists(), (
                f"{doc.name} cites missing {ref}")


def test_cited_test_nodes_exist():
    """A cited ``path.py::Name`` names a top-level def or class there."""
    docs = [ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            ROOT / "README.md", *(ROOT / "docs").glob("*.md")]
    for doc in docs:
        for path, name in cited_test_nodes(doc.read_text()):
            tree = ast.parse(normalize(path).read_text())
            defined = {node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef,
                                            ast.ClassDef))}
            assert name in defined, f"{doc.name} cites missing {path}::{name}"


def test_every_benchmark_is_documented():
    """Each bench file appears in DESIGN.md or EXPERIMENTS.md."""
    documented = (referenced_paths((ROOT / "DESIGN.md").read_text())
                  | referenced_paths((ROOT / "EXPERIMENTS.md").read_text()))
    documented_names = {pathlib.Path(p).name for p in documented}
    for bench in (ROOT / "benchmarks").glob("bench_*.py"):
        assert bench.name in documented_names, (
            f"{bench.name} is not mentioned in DESIGN.md/EXPERIMENTS.md")


def test_every_example_is_in_readme():
    readme = (ROOT / "README.md").read_text()
    for example in (ROOT / "examples").glob("*.py"):
        assert example.name in readme, (
            f"examples/{example.name} missing from README.md")
