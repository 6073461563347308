"""Documentation health: required files, resolvable links, CLI truthfulness.

The CI docs job runs this module plus a docstring-coverage gate; keeping
the checks in the tier-1 suite means a broken link fails locally too.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

REQUIRED_DOCS = [
    "README.md",
    "docs/architecture.md",
    "docs/invariants.md",
    "docs/metrics.md",
    "docs/performance.md",
]

#: Markdown inline links ``[text](target)``, excluding images and code spans.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def _doc_files():
    return [ROOT / name for name in REQUIRED_DOCS]


class TestDocsPresence:
    @pytest.mark.parametrize("name", REQUIRED_DOCS)
    def test_required_doc_exists_and_is_substantial(self, name):
        path = ROOT / name
        assert path.is_file(), f"missing {name}"
        assert len(path.read_text()) > 500, f"{name} looks like a stub"

    def test_readme_documents_the_campaign_workflow(self):
        text = (ROOT / "README.md").read_text()
        for needle in (
            "--jobs",
            "--cache-dir",
            "--resume",
            "--force",
            "aggregate",
            "bit-identical",
            "repro.experiments.cli",
        ):
            assert needle in text, f"README must document {needle!r}"

    def test_metrics_doc_names_every_metric_and_bounds(self):
        from repro.core.metrics import DEFAULT_DELTA, DEFAULT_GAMMA, METRIC_NAMES

        text = (ROOT / "docs/metrics.md").read_text()
        for name in METRIC_NAMES:
            assert f"`{name}`" in text, f"docs/metrics.md must name {name!r}"
        assert str(DEFAULT_DELTA) in text
        assert str(DEFAULT_GAMMA) in text
        for engine in ("classical", "dodin", "spelde", "montecarlo"):
            assert engine in text


class TestDocsLinks:
    @pytest.mark.parametrize("path", _doc_files(), ids=lambda p: p.name)
    def test_relative_links_resolve(self, path):
        broken = []
        for target in _LINK_RE.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = (path.parent / target.split("#")[0]).resolve()
            if not target_path.exists():
                broken.append(target)
        assert not broken, f"{path.name} has broken links: {broken}"

    def test_readme_figure_table_matches_cli(self):
        from repro.experiments.cli import _runners

        text = (ROOT / "README.md").read_text()
        for name in _runners():
            assert f"`{name}`" in text, f"README figure table must list {name!r}"
