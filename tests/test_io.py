"""Reading site-distribution files."""

from __future__ import annotations

import re

import pytest

from conftest import NESTLING_K2
from rwre import DomainError, SiteDistribution, load_distribution


def write_law(path, dist: SiteDistribution) -> None:
    """Write ``dist`` as ``omega weight`` lines with shortest round-trip floats."""
    lines = [f"{v!r} {w!r}\n" for v, w in zip(dist.support, dist.weights)]
    path.write_text("".join(lines), encoding="utf-8")


class TestDistributionFiles:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "dist.txt"
        write_law(path, NESTLING_K2)
        loaded = load_distribution(path)
        assert loaded.support == NESTLING_K2.support
        assert loaded.weights == NESTLING_K2.weights

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        dist = SiteDistribution((1 / 3, 2 / 3), (1 / 3, 2 / 3))
        path = tmp_path / "dist.txt"
        write_law(path, dist)
        loaded = load_distribution(path)
        assert loaded.support == dist.support  # bit-exact
        assert loaded.weights == dist.weights

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text(
            "# a comment\n\n0.25 0.1  # trailing comment\n0.75 0.9\n",
            encoding="utf-8",
        )
        assert load_distribution(path).support == (0.25, 0.75)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("0.25 0.1\n0.75\n", encoding="utf-8")
        with pytest.raises(DomainError, match=r"dist\.txt:2"):
            load_distribution(path)

    def test_non_numeric_reports_location(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("0.25 ten\n", encoding="utf-8")
        with pytest.raises(DomainError, match=":1"):
            load_distribution(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_distribution(path)

    def test_invalid_distribution_content_rejected(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("0.25 0.5\n0.75 0.6\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_distribution(path)


@pytest.mark.parametrize("load", [load_distribution])
class TestUnreadablePaths:
    """Every loader failure is a DomainError naming the file, never a bare
    OSError."""

    def test_directory(self, tmp_path, load):
        with pytest.raises(DomainError, match=re.escape(str(tmp_path))):
            load(tmp_path)

    def test_missing_file(self, tmp_path, load):
        path = tmp_path / "absent.txt"
        with pytest.raises(DomainError, match=r"absent\.txt: file not found"):
            load(path)

    def test_name_too_long(self, tmp_path, load):
        with pytest.raises(DomainError, match="xxxx"):
            load(tmp_path / ("x" * 5000))

    def test_nul_in_name(self, tmp_path, load):
        with pytest.raises(DomainError, match="cannot read"):
            load(tmp_path / "a\x00b")
