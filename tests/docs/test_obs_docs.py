"""Execute every code block of docs/observability.md, plus its wiring.

Same contract as the other doc pages: every ``python`` block runs as
written, in order, in one shared namespace — drifting docs fail here
before they mislead a reader.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
import yaml

from repro.obs import set_obs_enabled

REPO_ROOT = Path(__file__).resolve().parents[2]
OBS_MD = REPO_ROOT / "docs" / "observability.md"

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _blocks() -> list[str]:
    return _BLOCK.findall(OBS_MD.read_text())


def test_obs_page_exists_and_has_snippets():
    assert OBS_MD.exists()
    assert len(_blocks()) >= 6


def test_obs_snippets_execute_in_order():
    prev = set_obs_enabled(True)  # the page documents default-on mode
    namespace: dict = {}
    try:
        for index, block in enumerate(_blocks()):
            try:
                exec(
                    compile(
                        block, f"observability.md[block {index}]", "exec"
                    ),
                    namespace,
                )
            except Exception as exc:  # pragma: no cover - failure path
                pytest.fail(
                    f"observability.md code block {index} failed: "
                    f"{type(exc).__name__}: {exc}\n---\n{block}"
                )
    finally:
        set_obs_enabled(prev)


def test_obs_page_is_in_nav():
    config = yaml.load(
        (REPO_ROOT / "mkdocs.yml").read_text(), Loader=yaml.BaseLoader
    )
    flat = str(config["nav"])
    assert "observability.md" in flat
    assert "api/obs.md" in flat


def test_api_reference_covers_obs_modules():
    text = (REPO_ROOT / "docs" / "api" / "obs.md").read_text()
    for anchor in (
        "::: repro.obs.registry",
        "::: repro.obs.spans",
        "::: repro.obs.top",
    ):
        assert anchor in text


def test_readme_has_observability_section():
    text = (REPO_ROOT / "README.md").read_text()
    assert "## Live telemetry" in text
    assert "repro.harness top" in text
    assert "REPRO_OBS" in text


def test_design_doc_has_obs_section():
    text = (REPO_ROOT / "DESIGN.md").read_text()
    assert "## 15." in text
    for anchor in (
        "MetricsRegistry",
        "SpanRecorder",
        "~overflow~",
        "obs.off_speedup",
        "trace_id",
    ):
        assert anchor in text


def test_page_mentions_the_moving_parts():
    text = OBS_MD.read_text()
    for anchor in (
        "REPRO_OBS",
        "to_prometheus",
        "metrics_snapshot",
        "write_jsonl",
        "render_top",
        "repro.harness top",
        "obs.off_speedup",
    ):
        assert anchor in text
