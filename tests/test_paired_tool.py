"""The paired A/B timer's gain rule and its import guard
(``benchmarks/paired.py``)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "paired", ROOT / "benchmarks" / "paired.py"
)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)


class TestVerdict:
    BASE = [1.0, 1.1, 0.9, 1.0, 1.2, 0.95, 1.05, 1.0, 1.1, 0.9]

    def test_nine_wins_and_a_gap_past_the_iqr_is_a_gain(self):
        change = [0.7] * 9 + [1.3]
        v = paired.verdict(self.BASE, change)
        assert v["wins"] == 9 and v["rounds"] == 10
        assert v["gap"] > v["base_iqr"]
        assert v["gain"]
        assert v["median_ratio"] == pytest.approx(0.7 / 1.0, abs=0.03)

    def test_eight_wins_is_not_a_gain(self):
        change = [0.7] * 8 + [1.3, 1.3]
        assert not paired.verdict(self.BASE, change)["gain"]

    def test_a_gap_inside_the_iqr_is_not_a_gain(self):
        change = [b - 0.01 for b in self.BASE]
        v = paired.verdict(self.BASE, change)
        assert v["wins"] == 10
        assert not v["gain"]

    def test_ties_count_for_neither_side(self):
        v = paired.verdict(self.BASE, list(self.BASE))
        assert v["wins"] == 0 and v["median_ratio"] == 1.0


class TestImportGuard:
    def test_source_tree_imports_itself_only_relatively(self):
        assert paired.absolute_repro_imports(ROOT / "src" / "repro") == []

    def test_absolute_imports_are_found_and_docstrings_ignored(self, tmp_path):
        (tmp_path / "ok.py").write_text(
            '"""Example::\n\n    from repro import SyntheticWorld\n"""\n'
            "from . import sibling\nfrom .data import schema\n"
            "import reprolike\n"
        )
        (tmp_path / "bad.py").write_text(
            "import os\nfrom repro.data import schema\nimport repro\n"
        )
        assert paired.absolute_repro_imports(tmp_path) == [
            "bad.py:2", "bad.py:3",
        ]
