"""Execute every code block of docs/compiler.md, plus docs wiring.

Same contract as the other doc pages: every ``python`` block runs as
written, in order, in one shared namespace — drifting compile-tier
docs fail here before they mislead a reader.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
import yaml

REPO_ROOT = Path(__file__).resolve().parents[2]
COMPILER_MD = REPO_ROOT / "docs" / "compiler.md"

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _blocks() -> list[str]:
    return _BLOCK.findall(COMPILER_MD.read_text())


def test_compiler_page_exists_and_has_snippets():
    assert COMPILER_MD.exists()
    assert len(_blocks()) >= 6


def test_compiler_snippets_execute_in_order():
    namespace: dict = {}
    for index, block in enumerate(_blocks()):
        try:
            exec(
                compile(block, f"compiler.md[block {index}]", "exec"),
                namespace,
            )
        except Exception as exc:  # pragma: no cover - failure path
            pytest.fail(
                f"compiler.md code block {index} failed: "
                f"{type(exc).__name__}: {exc}\n---\n{block}"
            )


def test_compiler_pages_are_in_nav():
    config = yaml.load(
        (REPO_ROOT / "mkdocs.yml").read_text(), Loader=yaml.BaseLoader
    )
    flat = str(config["nav"])
    assert "compiler.md" in flat
    assert "api/compiler.md" in flat
    assert (REPO_ROOT / "docs" / "api" / "compiler.md").exists()


def test_api_reference_covers_compiler_modules():
    text = (REPO_ROOT / "docs" / "api" / "compiler.md").read_text()
    for module in (
        "repro.compiler.specialize",
        "repro.compiler.directives",
        "repro.compiler.parser",
        "repro.compiler.lowering",
        "repro.compiler.figure",
    ):
        assert f"::: {module}" in text


def test_readme_has_compile_row():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "`compile`" in readme
    assert "specialize:cache_size=64" in readme


def test_compiler_page_mentions_the_load_bearing_names():
    text = COMPILER_MD.read_text()
    for anchor in (
        "decide_kinds",
        "spawn_specialized",
        "SpecializedPlan",
        "specialize:profile=true",
        "fig-compile",
        "TestProfilerOverhead",
    ):
        assert anchor in text
