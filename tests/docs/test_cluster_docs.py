"""Execute every code block of docs/cluster.md, plus cluster-docs wiring.

Same contract as the serve page: every ``python`` block runs as
written, in order, in one shared namespace — drifting cluster docs
fail here before they mislead a reader.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
import yaml

REPO_ROOT = Path(__file__).resolve().parents[2]
CLUSTER_MD = REPO_ROOT / "docs" / "cluster.md"

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _blocks() -> list[str]:
    return _BLOCK.findall(CLUSTER_MD.read_text())


def test_cluster_page_exists_and_has_snippets():
    assert CLUSTER_MD.exists()
    assert len(_blocks()) >= 4


def test_cluster_snippets_execute_in_order():
    namespace: dict = {}
    for index, block in enumerate(_blocks()):
        try:
            exec(
                compile(block, f"cluster.md[block {index}]", "exec"),
                namespace,
            )
        except Exception as exc:  # pragma: no cover - failure path
            pytest.fail(
                f"cluster.md code block {index} failed: "
                f"{type(exc).__name__}: {exc}\n---\n{block}"
            )


def test_cluster_pages_are_in_nav():
    config = yaml.load(
        (REPO_ROOT / "mkdocs.yml").read_text(), Loader=yaml.BaseLoader
    )
    flat = str(config["nav"])
    assert "cluster.md" in flat
    assert "api/cluster.md" in flat
    assert (REPO_ROOT / "docs" / "api" / "cluster.md").exists()


def test_api_reference_covers_cluster_modules():
    text = (REPO_ROOT / "docs" / "api" / "cluster.md").read_text()
    for module in (
        "repro.cluster.service",
        "repro.cluster.hashring",
        "repro.cluster.cache",
        "repro.cluster.ledger",
        "repro.cluster.figure",
    ):
        assert f"::: {module}" in text


def test_readme_has_cluster_section():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "## Clustered serving" in readme
    assert "--shards" in readme


def test_cluster_page_mentions_the_moving_parts():
    text = CLUSTER_MD.read_text()
    for anchor in (
        "ClusterService",
        "ClusterSpec",
        "HashRing",
        "EnergyLedger",
        "fig-cluster",
        "test_cluster_figure",
    ):
        assert anchor in text
