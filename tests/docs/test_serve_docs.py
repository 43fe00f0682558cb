"""Execute every code block of docs/serve.md, plus serve-docs wiring.

Same contract as the tutorial page: every ``python`` block runs as
written, in order, in one shared namespace — drifting serve docs fail
here before they mislead a reader.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
import yaml

REPO_ROOT = Path(__file__).resolve().parents[2]
SERVE_MD = REPO_ROOT / "docs" / "serve.md"

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _blocks() -> list[str]:
    return _BLOCK.findall(SERVE_MD.read_text())


def test_serve_page_exists_and_has_snippets():
    assert SERVE_MD.exists()
    assert len(_blocks()) >= 6


def test_serve_snippets_execute_in_order():
    namespace: dict = {}
    for index, block in enumerate(_blocks()):
        try:
            exec(
                compile(block, f"serve.md[block {index}]", "exec"),
                namespace,
            )
        except Exception as exc:  # pragma: no cover - failure path
            pytest.fail(
                f"serve.md code block {index} failed: "
                f"{type(exc).__name__}: {exc}\n---\n{block}"
            )


def test_serve_pages_are_in_nav():
    config = yaml.load(
        (REPO_ROOT / "mkdocs.yml").read_text(), Loader=yaml.BaseLoader
    )
    flat = str(config["nav"])
    assert "serve.md" in flat
    assert "api/serve.md" in flat
    assert (REPO_ROOT / "docs" / "api" / "serve.md").exists()


def test_api_reference_covers_serve_modules():
    text = (REPO_ROOT / "docs" / "api" / "serve.md").read_text()
    for module in (
        "repro.serve.contract",
        "repro.serve.jobs",
        "repro.serve.service",
        "repro.serve.admission",
        "repro.serve.rounds",
        "repro.serve.gateway",
        "repro.serve.tenants",
        "repro.serve.cache",
        "repro.serve.kernels",
        "repro.serve.client",
        "repro.serve.figure",
    ):
        assert f"::: {module}" in text


def test_readme_has_serving_section():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "## Serving" in readme
    assert "repro.harness serve" in readme


def test_serve_page_mentions_the_front_doors():
    text = SERVE_MD.read_text()
    for anchor in (
        "LocalGateway",
        "ServeServer",
        "fig-serve",
        "--smoke",
        "cached-degraded",
    ):
        assert anchor in text
