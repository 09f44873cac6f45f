"""Rule-level tests driven by the fixture corpus.

Every file in ``tests/data/lint_corpus/`` declares its synthetic
repository path on line 1 (``# LINT-PATH: ...``) and marks each line
where a finding is expected with a trailing ``# EXPECT: rule`` comment.
A second-line ``# LINT-OPTIONS: {json}`` header feeds per-rule options
(the layering cases declare their own layer map this way).  The runner
asserts the linter produces *exactly* the expected ``(line, rule)``
set — unexpected findings fail as loudly as missed ones, so every rule
keeps at least one true positive and one true negative under test.
"""

import json
import pathlib
import re

import pytest

from repro.lint import LintConfig, lint_source

CORPUS_DIR = pathlib.Path(__file__).parent / "data" / "lint_corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.py"))

_LINT_PATH = re.compile(r"#\s*LINT-PATH:\s*(\S+)")
_LINT_OPTIONS = re.compile(r"#\s*LINT-OPTIONS:\s*(\{.*\})")
_EXPECT = re.compile(r"#\s*EXPECT:\s*([\w-]+(?:\s*,\s*[\w-]+)*)")


def load_case(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    header = _LINT_PATH.match(lines[0])
    assert header, f"{path.name} must start with a # LINT-PATH: header"
    options = {}
    if len(lines) > 1:
        options_header = _LINT_OPTIONS.match(lines[1])
        if options_header:
            options = json.loads(options_header.group(1))
    expected = set()
    for lineno, line in enumerate(lines, start=1):
        match = _EXPECT.search(line)
        if match:
            for rule in re.split(r"\s*,\s*", match.group(1)):
                expected.add((lineno, rule))
    return source, header.group(1), options, expected


def test_corpus_is_present_and_balanced():
    """Each rule has at least one expected-positive and one clean file."""
    assert CORPUS, "lint corpus is empty"
    positives = set()
    negatives_exist = False
    for path in CORPUS:
        _, _, _, expected = load_case(path)
        if expected:
            positives |= {rule for _, rule in expected}
        else:
            negatives_exist = True
    assert positives == {"attribution", "determinism", "fp32-order",
                         "hot-path", "hot-path-transitive", "layering",
                         "seed-flow", "seqlock"}
    assert negatives_exist


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_file(path):
    source, relpath, options, expected = load_case(path)
    result = lint_source(source, relpath,
                         LintConfig(rule_options=options))
    assert result.error is None, result.error
    actual = {(f.line, f.rule) for f in result.findings}
    missed = expected - actual
    unexpected = actual - expected
    detail = "\n".join(f.location() + " " + f.message
                       for f in result.findings)
    assert not missed and not unexpected, (
        f"{path.name}: missed={sorted(missed)} "
        f"unexpected={sorted(unexpected)}\nfindings:\n{detail}")


def test_seeded_violation_file_fires():
    """The CI self-check file must produce findings path-independently."""
    seeded = CORPUS_DIR.parent / "lint_seeded_violation.py"
    result = lint_source(seeded.read_text(encoding="utf-8"),
                         "anywhere/at/all.py", LintConfig())
    rules = {f.rule for f in result.findings}
    assert "determinism" in rules
    assert "hot-path" in rules
    ordered = lint_source(seeded.read_text(encoding="utf-8"),
                          "src/repro/nn/seeded.py", LintConfig(),
                          select=["fp32-order"])
    assert [f.rule for f in ordered.findings] == ["fp32-order"]


def test_hot_function_via_config_listing():
    """Functions named in config options are hot without the decorator."""
    source = (
        "import time\n"
        "\n"
        "\n"
        "class Engine:\n"
        "    def step(self):\n"
        "        return time.perf_counter()\n"
    )
    config = LintConfig(rule_options={
        "hot-path": {"functions": ["repro.sim.engine.Engine.step"]}})
    result = lint_source(source, "src/repro/sim/engine.py", config,
                         select=["hot-path"])
    assert [f.rule for f in result.findings] == ["hot-path"]
    # The same source under a different module path is not hot.
    other = lint_source(source, "src/repro/core/other.py", config,
                        select=["hot-path"])
    assert not other.findings


def test_rule_options_override_module_scope():
    """Config module lists replace the rule defaults."""
    source = "import numpy as np\n\n\ndef f(a, b):\n    return np.dot(a, b)\n"
    widened = LintConfig(rule_options={
        "fp32-order": {"modules": ["repro/custom"]}})
    hit = lint_source(source, "src/repro/custom/kernels.py", widened,
                      select=["fp32-order"])
    assert len(hit.findings) == 1
    # The default scope no longer applies once overridden.
    miss = lint_source(source, "src/repro/nn/ops.py", widened,
                       select=["fp32-order"])
    assert not miss.findings
