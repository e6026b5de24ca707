"""Stratified percentile reports over per-case scores.

Reports slice a score table by (group, region) and summarize each stratum
with mean, population std, and the nearest-rank percentiles p50/p25/p10/p5.
Low percentiles are the point: a model can look fine on averages while its
worst decile on a rare subgroup collapses, and that is exactly what the p10
and p5 columns surface.

Statistics are computed on raw scores in [0, 1], carried at full precision
in percent scale, and rounded (half away from zero, one decimal) only when
rendered.  Group and region ordering follows first encounter in the input
so reports are stable under re-runs but follow the data, not the alphabet.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .objectives import nearest_rank
from .scores import ScoreTable

__all__ = [
    "CELL_NAMES",
    "StratumStats",
    "GroupBlock",
    "PercentileReport",
    "ReportComparison",
    "percentile_report",
    "compare_reports",
    "render_value",
    "render_delta",
    "render_text",
    "render_json",
    "render_comparison_text",
    "render_comparison_json",
]

CELL_NAMES = ("mean", "std", "p50", "p25", "p10", "p5")

PERCENTILE_ALPHAS = {"p50": 0.50, "p25": 0.25, "p10": 0.10, "p5": 0.05}


@dataclass(frozen=True)
class StratumStats:
    """Full-precision percent-scale summary of one (group, region) stratum."""

    count: int
    mean: float
    std: float
    p50: float
    p25: float
    p10: float
    p5: float

    def cells(self) -> tuple:
        return (self.mean, self.std, self.p50, self.p25, self.p10, self.p5)


@dataclass
class GroupBlock:
    name: str
    cases: int
    regions: list


@dataclass
class PercentileReport:
    groups: list

    def keys(self) -> list:
        return [(g.name, region) for g in self.groups for region, _ in g.regions]


@dataclass
class ReportComparison:
    """Per-cell deltas (second report minus first), percent points."""

    groups: list


def _stratum(scores: np.ndarray) -> StratumStats:
    """The stats of one stratum's scores, in row order; one sort serves
    every percentile."""
    ordered = np.sort(scores)
    stats = {
        name: 100.0 * float(ordered[nearest_rank(scores.size, a) - 1]) for name, a in PERCENTILE_ALPHAS.items()
    }
    return StratumStats(
        count=scores.size,
        mean=100.0 * float(scores.mean()),
        std=100.0 * float(scores.std(ddof=0)),
        **stats,
    )


def _codes(column) -> tuple:
    """``(codes, names)``: the column's distinct values in order of first
    appearance, and each entry's index among them as an intp array."""
    index = dict.fromkeys(column)
    if len(index) == 1:
        return np.zeros(len(column), np.intp), list(index)
    for code, name in enumerate(index):
        index[name] = code
    return np.fromiter(map(index.__getitem__, column), np.intp, len(column)), list(index)


def percentile_report(table: ScoreTable) -> PercentileReport:
    """Summarize every (group, region) stratum observed in the table.

    The rows are grouped into strata by one stable sort of their (group,
    region) codes, so each stratum's scores are gathered in row order.  A
    group's case count is its stratum's size when it has one region, as
    (case_id, region) pairs are unique; else its distinct case ids.
    """
    if len(table) == 0:
        raise ValueError("cannot report on an empty score table")
    groups, group_names = _codes(table.groups)
    regions, region_names = _codes(table.regions)
    keys = groups * len(region_names) + regions
    order = np.argsort(keys, kind="stable")
    strata = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
    # Groups in order of first appearance, and each group's regions in
    # order of their first row in it.
    strata.sort(key=lambda rows: (groups[rows[0]], rows[0]))
    blocks = []
    for g, group_strata in itertools.groupby(strata, key=lambda rows: groups[rows[0]]):
        group_strata = list(group_strata)
        if len(group_strata) == 1:
            cases = group_strata[0].size
        else:
            cases = len(set(map(table.case_ids.__getitem__, np.concatenate(group_strata).tolist())))
        stats = [(region_names[regions[rows[0]]], _stratum(table.scores[rows])) for rows in group_strata]
        blocks.append(GroupBlock(group_names[g], cases, stats))
    return PercentileReport(blocks)


def compare_reports(a: PercentileReport, b: PercentileReport) -> ReportComparison:
    """Cellwise b − a, keyed and ordered like ``a``; key sets must match."""
    keys_a, keys_b = a.keys(), b.keys()
    if set(keys_a) != set(keys_b):
        only_a = sorted(set(keys_a) - set(keys_b))
        only_b = sorted(set(keys_b) - set(keys_a))
        raise ValueError(
            f"reports cover different strata: only in first {only_a}, only in second {only_b}"
        )
    lookup = {(g.name, region): s for g in b.groups for region, s in g.regions}
    groups = []
    for block in a.groups:
        deltas = []
        for region, stats in block.regions:
            other = lookup[(block.name, region)]
            deltas.append(
                (region, tuple(ob - ours for ours, ob in zip(stats.cells(), other.cells())))
            )
        groups.append(GroupBlock(block.name, block.cases, deltas))
    return ReportComparison(groups)


def _rounded(value: float, plus: str) -> str:
    """|value| to one decimal, half away from zero, after a '-' when it is
    negative and does not round to zero, else after ``plus``."""
    magnitude = math.floor(abs(value) * 10.0 + 0.5) / 10.0
    return ("-" if value < 0 and magnitude else plus) + f"{magnitude:.1f}"


def render_value(value: float) -> str:
    """One decimal, half away from zero: 80.25 -> '80.3' (not banker's)."""
    return _rounded(value, "")


def render_delta(value: float) -> str:
    """Signed one-decimal delta; anything rounding to zero is '+0.0'."""
    return _rounded(value, "+")


def _render_blocks(groups, title, cells) -> str:
    """Aligned per-group tables: the line ``title(block)``, a header, and a
    row per region of the rendered cells ``cells(value)``."""
    cell_w = 8
    region_w = max([len("Region")] + [len(r) for g in groups for r, _ in g.regions])
    header = "  " + "Region".ljust(region_w) + "".join(
        name.rjust(cell_w) for name in ("Mean", "Std", "p50", "p25", "p10", "p5")
    )
    lines = []
    for block in groups:
        lines += [title(block), header]
        for region, value in block.regions:
            lines.append("  " + region.ljust(region_w) + "".join(c.rjust(cell_w) for c in cells(value)))
        lines.append("")
    return "\n".join(lines)


def render_text(report: PercentileReport) -> str:
    """Aligned per-group blocks; byte-stable for a given report."""
    return _render_blocks(
        report.groups, lambda b: f"{b.name} ({b.cases} cases)", lambda s: map(render_value, s.cells())
    )


def render_comparison_text(comparison: ReportComparison) -> str:
    return _render_blocks(comparison.groups, lambda b: b.name, lambda deltas: map(render_delta, deltas))


def _render_json(groups, group_fields, cells) -> str:
    """The ``{"groups": [...]}`` document: each group's name, the fields
    ``group_fields(block)`` and its regions, each region's name followed by
    the fields ``cells(value)``."""
    doc = {
        "groups": [
            {"name": g.name}
            | group_fields(g)
            | {"regions": [{"name": region} | cells(value) for region, value in g.regions]}
            for g in groups
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


def render_json(report: PercentileReport) -> str:
    """Machine-readable form: full-precision percent values, stable order."""
    return _render_json(
        report.groups,
        lambda g: {"cases": g.cases},
        lambda s: {"count": s.count} | dict(zip(CELL_NAMES, s.cells())),
    )


def render_comparison_json(comparison: ReportComparison) -> str:
    return _render_json(comparison.groups, lambda g: {}, lambda deltas: dict(zip(CELL_NAMES, deltas)))
