"""The stepped-wedge array type, its design, and the CSV boundary
around it."""

import json
import math
import string
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtnd import Panel, SteppedWedgeScheme, sw_log_contrast
from crtnd.dataio import parse_dataset
from crtnd.errors import DimensionMismatch, ZeroCount

from conftest import AWKWARD_COUNTS, emit_dataset


def panel(**overrides):
    fields = dict(
        cluster_ids=("a", "b", "c", "d"),
        start_periods=(1, 2, 2, 3),
        y=[[10.0, 11.0, 12.0], [20.0, 21.0, 22.0], [30.0, 31.0, 32.0],
           [40.0, 41.0, 42.0]],
        z=np.full((4, 3), 50.0),
    )
    return Panel(**{**fields, **overrides})


def with_cell(value, i=2, t=1):
    """Test-positive counts of :func:`panel` with cell (i, t) set to ``value``."""
    y = np.array(panel().y)
    y[i, t] = value
    return y


class TestConstruction:
    def test_arrays_are_read_only_copies(self):
        y = np.arange(1.0, 13.0).reshape(4, 3)
        p = panel(y=y, start_periods=np.array([1, 2, 2, 3]))
        y[0, 0] = 99.0
        assert p.y[0, 0] == 1.0
        for arr in (p.y, p.z):
            with pytest.raises(ValueError):
                arr[1, 1] = 1.0
        assert p.start_periods == (1, 2, 2, 3)
        assert all(type(a) is int for a in p.start_periods)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cluster_ids": ("a", "b", "a", "d")},
            {"cluster_ids": ()},
            {"start_periods": (0, 2, 2, 3)},
            {"start_periods": (1, 2, 2)},
            {"start_periods": (1.0, 2.0, 2.0, 3.0)},
            {"y": with_cell(math.nan)},
            {"y": with_cell(math.inf)},
            {"z": with_cell(-1.0)},
        ],
    )
    def test_invalid_values(self, overrides):
        with pytest.raises(ValueError):
            panel(**overrides)

    def test_bad_count_names_its_cell(self):
        with pytest.raises(ValueError, match=r"^cluster 'c', period 2: y_count must"):
            panel(y=with_cell(-1.0))

    @pytest.mark.parametrize("y_cell, z_cell, name, which", [
        ((2, 1), (3, 0), "c@2", "test-positive"),
        ((3, 0), (2, 1), "c@2", "test-negative"),
        ((1, 2), (1, 2), "b@3", "test-positive"),
    ])
    def test_log_contrasts_name_the_first_zero_cell(self, y_cell, z_cell, name, which):
        y, z = np.array(panel().y), np.array(panel().z)
        y[y_cell] = z[z_cell] = 0.0
        with pytest.raises(ZeroCount) as exc:
            panel(y=y, z=z).log_contrast_matrix()
        assert (exc.value.cluster_id, exc.value.which) == (name, which)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"z": np.full((4, 2), 50.0)},
            {"z": np.full((3, 3), 50.0)},
            {"y": np.ones(4), "z": np.ones(4)},
            {"y": np.ones((4, 0)), "z": np.ones((4, 0))},
        ],
    )
    def test_shapes(self, overrides):
        with pytest.raises(DimensionMismatch):
            panel(**overrides)

    def test_equality_compares_arrays(self):
        assert panel() == panel()
        assert panel() != panel(start_periods=(1, 2, 3, 3))
        assert panel() != panel(z=np.full((4, 3), 51.0))
        assert panel() != panel(cluster_ids=("a", "b", "c", "e"))
        with pytest.raises(TypeError):
            hash(panel())


class TestDesign:
    def test_scheme_counts_starts_beyond_the_window(self):
        p = panel(start_periods=(3, 1, 5, 2))
        assert p.scheme == SteppedWedgeScheme(4, (1, 1, 1, 1))  # 5 is T+1
        assert p.analysis_periods == (1, 2)
        assert p.treated.tolist() == [
            [False, False, True], [True, True, True],
            [False, False, False], [False, True, True],
        ]

    def test_far_starts_are_numbered_by_rank(self):
        # labels past the window become T+1, T+2, ... in their order, so
        # the scheme's size follows m and T, not the largest start
        p = panel(start_periods=(10**9, 1, 10**6, 10**9))
        start = time.perf_counter()
        assert p.scheme == SteppedWedgeScheme(4, (1, 0, 0, 1, 2))
        assert time.perf_counter() - start < 0.1
        assert p.analysis_periods == (1, 2)

    @pytest.mark.parametrize("mode", [["--mode", "exact"],
                                      ["--mode", "monte-carlo", "--n-draws", "200"]])
    def test_analyze_sw_with_a_far_start(self, tmp_path, mode):
        # a start of 10**9 and one of T+1 give one scheme, so the same
        # draws, p-values and test-inversion CI
        from crtnd.cli import main

        rng = np.random.default_rng(5)
        counts = rng.integers(20, 90, size=(8, 3, 2))
        results = []
        for far in (4, 10**9):
            data, out = tmp_path / f"p{far}.csv", tmp_path / f"p{far}.json"
            data.write_text("cluster_id,period,start_period,y_count,z_count\n" + "".join(
                f"c{i},{t + 1},{s},{counts[i, t, 0]},{counts[i, t, 1]}\n"
                for i, s in enumerate((1, 1, 2, 2, 2, 3, 3, far)) for t in range(3)))
            assert main(["analyze-sw", "--input", str(data), *mode,
                         "--ci-method", "invert-permutation", "--out", str(out)]) == 0
            results.append(json.loads(out.read_text())["results"])
        assert results[0] == results[1]
        assert results[0][0]["ci_method"] == "test_inversion"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n_periods: st.tuples(
        st.just(n_periods),
        st.lists(st.integers(1, n_periods + 2), min_size=2, max_size=8),
    )))
    def test_design_follows_the_definition(self, case):
        # analysis periods: the t in 1..T-1 with m_t in 1..m-1, where m_t
        # counts the starts <= t
        n_periods, starts = case
        m = len(starts)
        ones = np.ones((m, n_periods))
        p = Panel(tuple(f"c{i}" for i in range(m)), tuple(starts), ones, ones)
        m_t = {t: sum(a <= t for a in starts) for t in range(n_periods + 1)}
        expected = tuple(t for t in range(1, n_periods) if 1 <= m_t[t] <= m - 1)
        if not expected:
            with pytest.raises(ValueError):
                p.analysis_periods
            return
        assert p.analysis_periods == expected
        assert all(p.scheme.m_t(t) == m_t[t] for t in m_t)
        assert p.treated.sum(axis=0).tolist() == [m_t[t] for t in range(1, n_periods + 1)]

    @pytest.mark.parametrize(
        "starts, n_periods",
        [((2, 2, 2, 2), 3),  # the scheme has no analysis period
         ((2, 2, 3, 3), 2)],  # the scheme's one analysis period is past the window
    )
    def test_no_analysis_period_fails_once(self, starts, n_periods):
        ones = np.ones((4, n_periods))
        p = Panel(("a", "b", "c", "d"), starts, ones, ones)
        with pytest.raises(ValueError) as exc:
            sw_log_contrast(p, estimate_covariance=False)
        assert str(exc.value) == (
            "no analysis period has both a treated and an untreated cluster"
        )


# --------------------------------------------------------------------- #
# The CSV boundary
# --------------------------------------------------------------------- #


@st.composite
def panels(draw):
    """Sorted-id panels over 1-5 periods, with starts up to two periods
    beyond the window."""
    m = draw(st.integers(1, 8))
    n_periods = draw(st.integers(1, 5))
    ids = sorted(draw(st.sets(
        st.text(string.ascii_letters + string.digits + "_-", min_size=1, max_size=5),
        min_size=m, max_size=m,
    )))
    starts = draw(st.lists(st.integers(1, n_periods + 2), min_size=m, max_size=m))
    counts = st.lists(st.lists(AWKWARD_COUNTS, min_size=n_periods, max_size=n_periods),
                      min_size=m, max_size=m)
    return Panel(tuple(ids), tuple(starts), draw(counts), draw(counts))


@settings(max_examples=150, deadline=None)
@given(panels())
def test_parse_of_emit_round_trips(tmp_path_factory, p):
    path = tmp_path_factory.mktemp("rt") / "panel.csv"
    emit_dataset(p, path)
    kind, parsed = parse_dataset(path)
    assert kind == "sw"
    assert parsed == p
