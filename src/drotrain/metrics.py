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

Everything here is plain Python, so ``report`` runs without numpy, yet the
mean and std are numpy's to the bit: ``np.mean`` and ``np.std`` of a
contiguous f64 array sum by numpy's pairwise order, restated by
:func:`_pairwise`.  The sum starts from ``0.0`` and adds ``pw(a)``,
where for ``n`` values ``pw`` adds them left to right from ``0.0`` when
``n < 8``; keeps 8 lane sums when ``8 <= n <= 128`` (lane ``j`` adds
``a[j], a[j+8], ...`` up to the last multiple of 8), combines them as
``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the rest left to right;
and is ``pw(a[:n2]) + pw(a[n2:])`` when ``n > 128``, ``n2`` being ``n//2``
rounded down to a multiple of 8.  The mean is that sum over ``n``; the
population std is the square root of the same sum of ``(v-mean)*(v-mean)``
over ``n``.  Built-in ``sum`` (compensated from Python 3.12 on) and
``math.fsum`` would round differently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .scores import ScoreTable

__all__ = [
    "CELL_NAMES",
    "StratumStats",
    "GroupBlock",
    "PercentileReport",
    "ReportComparison",
    "nearest_rank",
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

# numpy's pairwise summation: values are summed in this many lanes, within
# blocks of at most PAIRWISE_BLOCK values.
LANES = 8
PAIRWISE_BLOCK = 128


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


def nearest_rank(n: int, alpha: float) -> int:
    """The rank of the nearest-rank percentile at level ``alpha`` of ``n``
    scores: it is the k-th smallest, k = max(1, ceil(alpha * n))."""
    return max(1, math.ceil(alpha * n))


def _pairwise(values: list, start: int, n: int) -> float:
    """numpy's pairwise sum ``pw`` of the ``n`` values from ``start`` (see
    the module docstring); the 8 lane sums of a block are kept in
    locals and advanced a row of 8 values at a time."""
    if n < LANES:
        total = 0.0
        for v in values[start : start + n]:
            total += v
        return total
    if n <= PAIRWISE_BLOCK:
        end = start + n - n % LANES
        rows = zip(*[iter(values[start:end])] * LANES)
        r0, r1, r2, r3, r4, r5, r6, r7 = next(rows)
        for a0, a1, a2, a3, a4, a5, a6, a7 in rows:
            r0 += a0
            r1 += a1
            r2 += a2
            r3 += a3
            r4 += a4
            r5 += a5
            r6 += a6
            r7 += a7
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for v in values[end : start + n]:
            total += v
        return total
    half = n // 2 - n // 2 % LANES
    return _pairwise(values, start, half) + _pairwise(values, start + half, n - half)


def _sum(values: list) -> float:
    """``np.add.reduce`` of the f64 ``values``, bit for bit: ``0.0`` plus
    their pairwise sum."""
    return 0.0 + _pairwise(values, 0, len(values))


def _stratum(scores: list) -> StratumStats:
    """The stats of one stratum's scores, given in row order as a list
    that is sorted in place once the mean and std are taken; one sort
    serves every percentile."""
    n = len(scores)
    mean = _sum(scores) / n
    std = math.sqrt(_sum([(d := v - mean) * d for v in scores]) / n)
    scores.sort()
    return StratumStats(
        count=n,
        mean=100.0 * mean,
        std=100.0 * std,
        **{name: 100.0 * scores[nearest_rank(n, a) - 1] for name, a in PERCENTILE_ALPHAS.items()},
    )


def _split(keys, values) -> dict:
    """``key -> [values]``: the ``values`` of each distinct key, in row
    order, with the keys in order of first appearance."""
    out: dict = {}
    for key, value in zip(keys, values):
        if key in out:
            out[key].append(value)
        else:
            out[key] = [value]
    return out


def percentile_report(table: ScoreTable) -> PercentileReport:
    """Summarize every (group, region) stratum observed in the table.

    The rows are split into strata in one pass, so each stratum's scores
    are gathered in row order.  Groups come in order of first appearance,
    and each group's regions in order of their first row in it.  A group's
    case count is its stratum's size when it has one region, as (case_id,
    region) pairs are unique; else its distinct case ids.
    """
    if len(table) == 0:
        raise ValueError("cannot report on an empty score table")
    regions = table.regions
    if regions.count(regions[0]) == len(regions):
        strata = {(g, regions[0]): s for g, s in _split(table.groups, table.scores).items()}
    else:
        strata = _split(zip(table.groups, regions), table.scores)
    by_group: dict = {}
    for (g, region), values in strata.items():
        by_group.setdefault(g, []).append((region, values))
    ids_of = None
    blocks = []
    for g, group_strata in by_group.items():
        if len(group_strata) == 1:
            cases = len(group_strata[0][1])
        else:
            if ids_of is None:
                ids_of = _split(table.groups, table.case_ids)
            cases = len(set(ids_of[g]))
        blocks.append(GroupBlock(g, cases, [(region, _stratum(values)) for region, values in group_strata]))
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
