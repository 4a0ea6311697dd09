"""Text round-trips for distributions and environment windows."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NESTLING_K2, NON_NESTLING
from rwre import (
    DomainError,
    dump_distribution,
    dump_environment,
    load_distribution,
    load_environment,
    sample_environment,
)


class TestDistributionFiles:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "dist.txt"
        dump_distribution(NESTLING_K2, path)
        loaded = load_distribution(path)
        assert loaded.support == NESTLING_K2.support
        assert loaded.weights == NESTLING_K2.weights

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        from rwre import SiteDistribution

        dist = SiteDistribution((1 / 3, 2 / 3), (1 / 3, 2 / 3))
        path = tmp_path / "dist.txt"
        dump_distribution(dist, path)
        loaded = load_distribution(path)
        assert loaded.support == dist.support  # bit-exact via 17 digits
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


class TestEnvironmentFiles:
    def test_round_trip_is_exact(self, tmp_path):
        env = sample_environment(NON_NESTLING, 12, -7, 9)
        path = tmp_path / "env.txt"
        dump_environment(env, path)
        loaded = load_environment(path)
        assert loaded.offset == env.offset
        assert np.array_equal(loaded.omegas, env.omegas)

    def test_header_and_seventeen_digits(self, tmp_path):
        env = sample_environment(NESTLING_K2, 12, -2, 2)
        path = tmp_path / "env.txt"
        dump_environment(env, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = [ln for ln in lines if ln.strip() and not ln.startswith("#")][0]
        assert header.replace(" ", "") == "offset=-2"
        # a third of a unit survives the round trip only with >= 17 digits
        third_env = load_environment(path)
        assert np.array_equal(third_env.omegas, env.omegas)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "env.txt"
        path.write_text("0.5\n0.5\n", encoding="utf-8")
        with pytest.raises(DomainError):
            load_environment(path)

    def test_bad_value_reports_location(self, tmp_path):
        path = tmp_path / "env.txt"
        path.write_text("offset=0\n0.5\nhuh\n", encoding="utf-8")
        with pytest.raises(DomainError, match=":3"):
            load_environment(path)


@pytest.mark.parametrize("load", [load_distribution, load_environment])
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


ENV_LINES = st.one_of(
    st.floats().map(repr),  # out of range, inf and nan too
    st.floats(0.0, 1.0).map(repr),
    st.text(max_size=10),
)


@settings(max_examples=100, deadline=None)
@given(header=st.sampled_from(["offset=-2\n", "offset=x\n", ""]),
       lines=st.lists(ENV_LINES, max_size=6), tail=st.binary(max_size=4))
@example(header="offset=-2\n", lines=["0.5", "nan", "0.5"], tail=b"")
@example(header="offset=-2\n", lines=["0.5"], tail=b"\xff")
def test_loaded_environment_is_valid_or_rejected(tmp_path_factory, header, lines, tail):
    path = tmp_path_factory.mktemp("env") / "env.txt"
    path.write_bytes((header + "\n".join(lines) + "\n").encode() + tail)
    try:
        env = load_environment(path)
    except DomainError:
        return
    assert np.all((env.omegas >= 0.0) & (env.omegas <= 1.0))
