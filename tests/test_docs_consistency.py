"""Documentation/code consistency checks.

DESIGN.md's experiment index, the README's example list and
EXPERIMENTS.md's benchmark references must all point at files that
exist — these tests fail the suite when docs and code drift apart.
"""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


def _read(name: str) -> str:
    return (REPO / name).read_text()


class TestDesignDoc:
    def test_every_bench_target_exists(self):
        """Each `benchmarks/test_*.py` mentioned in DESIGN.md exists."""
        design = _read("DESIGN.md")
        targets = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
        assert targets, "DESIGN.md names no benchmark targets?"
        for target in targets:
            assert (REPO / "benchmarks" / target).exists(), target

    def test_every_bench_file_is_indexed(self):
        """Each benchmark module appears in DESIGN.md's experiment index."""
        design = _read("DESIGN.md")
        for path in (REPO / "benchmarks").glob("test_*.py"):
            assert path.name in design, f"{path.name} missing from DESIGN.md"

    def test_metric_table_lists_exactly_the_catalogue(self):
        """DESIGN.md §1.12's metric table and ``telemetry.CATALOG`` name
        the same metrics, each with the same kind."""
        from repro.telemetry.metrics import CATALOG

        design = _read("DESIGN.md")
        section = design[design.index("### 1.12 ") : design.index("### 1.13 ")]
        table = dict(
            re.findall(r"^\| `(reghd_\w+)` \| (\w+) \|", section, re.M)
        )
        assert table == {name: kind for name, (kind, _) in CATALOG.items()}

    def test_named_modules_exist(self):
        """Module paths quoted in the inventory tables resolve."""
        design = _read("DESIGN.md")
        for match in re.findall(r"`((?:src/)?repro/[\w/]+\.py)`", design):
            rel = match if match.startswith("src/") else f"src/{match}"
            assert (REPO / rel).exists(), match


class TestReadme:
    def test_example_commands_exist(self):
        readme = _read("README.md")
        for script in re.findall(r"python (examples/\w+\.py)", readme):
            assert (REPO / script).exists(), script

    def test_all_examples_are_listed(self):
        readme = _read("README.md")
        for path in (REPO / "examples").glob("*.py"):
            assert path.name in readme, f"{path.name} not mentioned in README"

    def test_doc_links_resolve(self):
        readme = _read("README.md")
        for target in re.findall(r"\[[^\]]+\]\((\w+\.md)\)", readme):
            assert (REPO / target).exists(), target


class TestExperimentsDoc:
    def test_referenced_benches_exist(self):
        experiments = _read("EXPERIMENTS.md")
        for target in set(re.findall(r"benchmarks/(test_\w+\.py)", experiments)):
            assert (REPO / "benchmarks" / target).exists(), target

    def test_referenced_result_files_are_produced(self):
        """Every `results/<id>.txt` EXPERIMENTS.md quotes is written by
        some benchmark (save_result call)."""
        experiments = _read("EXPERIMENTS.md")
        produced = set()
        for path in (REPO / "benchmarks").glob("test_*.py"):
            produced.update(
                re.findall(r'save_result\(\s*"(\w+)"', path.read_text())
            )
        for ref in set(re.findall(r"results/(\w+)\.txt", experiments)):
            assert ref in produced, f"results/{ref}.txt has no producer"


class TestDocsDirectory:
    @pytest.mark.parametrize(
        "name", ["algorithms.md", "hardware_model.md", "api.md", "tuning.md", "faq.md"]
    )
    def test_docs_present_and_substantial(self, name):
        path = REPO / "docs" / name
        assert path.exists()
        assert len(path.read_text()) > 1000

    def test_api_doc_mentions_every_subpackage(self):
        api = _read("docs/api.md")
        for sub in ("core", "encoding", "ops", "baselines", "datasets",
                    "hardware", "noise", "evaluation", "rl", "runtime"):
            assert f"repro.{sub}" in api, sub
