"""The repository's own source must stay lint-clean.

This is the in-suite mirror of the CI lint job: `repro lint src
--strict` passing at HEAD is an acceptance criterion, and running it
from pytest means a violation fails locally before CI sees it.
"""

import ast
import pathlib

from repro.lint import lint_paths, load_config

REPO_ROOT = pathlib.Path(__file__).parent.parent


def test_src_tree_is_lint_clean():
    config = load_config(str(REPO_ROOT / "pyproject.toml"))
    run = lint_paths([str(REPO_ROOT / "src")], config)
    assert not run.errors, [(r.path, r.error) for r in run.errors]
    detail = "\n".join(f"{f.location()}: [{f.rule}] {f.message}"
                       for f in run.findings)
    assert not run.findings, f"lint findings at HEAD:\n{detail}"
    # Sanity: the walk actually saw the tree (not an empty directory).
    assert run.files_checked > 50
    # The repo really does use pragmas (the seqlock protocol primitives),
    # so suppression accounting being exercised here is intentional.
    assert run.suppressed >= 1


def test_one_tree_walk_per_file(monkeypatch):
    """Each linted file's tree is walked once, by the ``FileContext``
    index; rules and extractors query the index.  Every walk calls
    ``ast.iter_child_nodes`` once per node it visits.  The index makes
    about 0.6 calls per node (it skips the shared ``Load``/operator
    leaves); two per node leaves room for one stray walk, not for walks
    per rule and extractor (19 per node before the index)."""
    config = load_config(str(REPO_ROOT / "pyproject.toml"))
    real = ast.iter_child_nodes
    calls = [0]

    def counting(node):
        calls[0] += 1
        return real(node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting)
    run = lint_paths([str(REPO_ROOT / "src")], config)
    monkeypatch.undo()
    nodes = 0
    for result in run.files:
        if not result.skipped and not result.error:
            source = pathlib.Path(result.path).read_text(encoding="utf-8")
            nodes += sum(1 for _ in ast.walk(ast.parse(source)))
    assert run.files_checked > 50
    assert calls[0] <= 2 * nodes, (
        f"{calls[0]} ast.iter_child_nodes calls over {nodes} nodes")
