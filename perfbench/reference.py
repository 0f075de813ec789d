"""Reference fronts and front-quality scoring for the benchmark.

``label_front`` computes the exact (length, energy, risk) Pareto front of a
world by multicriteria label setting (Martins 1984) over the column-monotone
state graph. Moves never go west and revisits are banned, so inside one column
a path runs straight north or straight south. The state (cell, run direction,
entry level) is therefore acyclic, every continuation depends only on the
state, and per-state Pareto labels are exact. Each label accumulates its
segment terms left to right from zero, in the order ``solution.evaluate`` sums
them, so its objective triples are bit-identical to the evaluator's.

``score`` rates a run's archive against a reference front the way
``overfly.cli.oracle_hv_ratio`` does: both at weight 0.5, under the
reference's own normalisation bounds and shared reference point.
"""

from __future__ import annotations

import bisect
import math
import warnings

import numpy as np

Triple = tuple[float, float, float]

# Directions inside a column: entered from the west (or the start), then
# running north or running south.
_ENTERED, _NORTH, _SOUTH = 0, 1, 2


def _pareto(labels: list) -> list:
    """Non-dominated labels (objective triple first), one per distinct triple.

    After a lexicographic sort, whatever dominates a label precedes it, so a
    label survives when no earlier survivor is at or below it in both of the
    last two objectives. Survivors' (second, third) pairs are kept as a
    staircase (second ascending, third descending) to answer that in
    logarithmic time.
    """
    labels.sort(key=lambda lab: lab[0])
    kept: list = []
    stair_b: list[float] = []
    stair_c: list[float] = []
    for lab in labels:
        _, b, c = lab[0]
        if kept and kept[-1][0] == lab[0]:
            continue
        i = bisect.bisect_right(stair_b, b)
        if i and stair_c[i - 1] <= c:
            continue
        kept.append(lab)
        j = i
        while j < len(stair_b) and stair_c[j] >= c:
            j += 1
        stair_b[i:j] = [b]
        stair_c[i:j] = [c]
    return kept


def label_front(env, params) -> list[tuple[Triple, tuple, tuple]]:
    """Exact Pareto front as (objectives, cells, entry levels), sorted."""
    from overfly.physics import average_density, segment_energy
    from overfly.solution import max_risk_between

    spec = env.spec
    levels_m = spec.levels_m
    rows, cols = spec.rows, spec.cols

    def moves(cell, direction) -> list:
        """(next cell, its direction) pairs a label in this state may take."""
        row, col = cell
        out = []
        if direction != _SOUTH and row > 0:
            out.append(((row - 1, col), _NORTH))
        if direction != _NORTH and row < rows - 1:
            out.append(((row + 1, col), _SOUTH))
        if col < cols - 1:
            out.extend(((row + dr, col + 1), _ENTERED) for dr in (-1, 0, 1) if 0 <= row + dr < rows)
        return [(to, d) for to, d in out if env.passable(to)]

    def arcs(frm, to, la) -> list:
        """(next level, objective increment) for every feasible next level."""
        d = env.distance(frm, to)
        lo, hi = env.feasible_levels(to)
        out = []
        for lb in range(lo, hi + 1):
            climb = levels_m[lb] - levels_m[la]
            rho = average_density(levels_m[la], levels_m[lb], params)
            out.append((lb, (
                math.sqrt(d * d + climb * climb),
                segment_energy(d, climb, rho, params),
                max_risk_between(env, frm, la, lb)[0],
            )))
        return out

    # state (cell, direction, level) -> labels (triple, parent, cell, level)
    pending: dict[tuple, list] = {
        (spec.start_cell, _ENTERED, spec.start_level): [
            ((0.0, 0.0, 0.0), None, spec.start_cell, spec.start_level)
        ]
    }
    final: list = []
    for col in range(spec.start_cell[1], cols):
        order = (
            [(r, _ENTERED) for r in range(rows)]
            + [(r, _NORTH) for r in range(rows - 1, -1, -1)]
            + [(r, _SOUTH) for r in range(rows)]
        )
        for row, direction in order:
            cell = (row, col)
            for level in range(spec.level_count):
                labels = pending.pop((cell, direction, level), None)
                if not labels:
                    continue
                labels = _pareto(labels)
                for to, to_dir in moves(cell, direction):
                    for lb, (dl, de, dr) in arcs(cell, to, level):
                        dest = final if to == spec.goal_cell else pending.setdefault((to, to_dir, lb), [])
                        dest.extend(
                            ((lab[0][0] + dl, lab[0][1] + de, lab[0][2] + dr), lab, to, lb)
                            for lab in labels
                        )
    front = []
    for lab in _pareto(final) if final else []:
        triple, cells, lvls = lab[0], [], []
        while lab is not None:
            cells.append(lab[2])
            lvls.append(lab[3])
            lab = lab[1]
        front.append((triple, tuple(reversed(cells)), tuple(reversed(lvls))))
    return sorted(front)


def score(archive: np.ndarray, reference: np.ndarray) -> float:
    """Hypervolume of ``archive`` over that of ``reference`` (both (n, 3))."""
    from overfly.evolution import combined_points
    from overfly.metrics import hypervolume_2d, shared_reference
    from overfly.solution import NormBounds

    bounds = NormBounds.from_vectors([tuple(t) for t in reference])
    ref_pts = combined_points(reference, 0.5, bounds)
    point = shared_reference([ref_pts])
    ref_hv = hypervolume_2d(ref_pts, point)
    if ref_hv == 0.0:
        return 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hypervolume_2d(combined_points(archive, 0.5, bounds), point) / ref_hv
