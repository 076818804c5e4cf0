"""Statistics of the benchmark: medians, quartiles, and the rules by which
two sets of runs (a parent commit and a change) are compared.

Every run is one sample. Runs of the two sides are paired in the order
given (the same seeds, alternately run first).
"""

import math
import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median. 0 when the median is 0."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def geomean(values):
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def worsening(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`;
    negative when it is better. `better` is "lower" or "higher"."""
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(parent)


def is_better(a, b, better):
    """True when value `a` is strictly better than value `b`."""
    return a < b if better == "lower" else a > b


def within_bound(parent_values, change_values, better, bound):
    """The change's median is no worse than the parent's by more than
    `bound` (a share of the parent's median)."""
    return worsening(median(parent_values), median(change_values),
                     better) <= bound


def wins(parent_values, change_values, better):
    """(pairs the change wins, pairs run). Ties count for neither side."""
    if len(parent_values) != len(change_values):
        raise ValueError("both sides need the same number of runs")
    won = sum(1 for p, c in zip(parent_values, change_values)
              if is_better(c, p, better))
    return won, len(parent_values)


def claims_gain(parent_values, change_values, better, min_win_share=0.9):
    """A gain holds when the change wins at least nine tenths of all pairs
    and the medians differ by more than the parent's own quartile
    distance."""
    won, pairs = wins(parent_values, change_values, better)
    if pairs == 0 or won < min_win_share * pairs:
        return False
    q1, q2, q3 = quartiles(parent_values)
    return (is_better(median(change_values), q2, better)
            and abs(median(change_values) - q2) > q3 - q1)


def verdict(parent_values, change_values, better, bound):
    """One of "gain", "ok", "regression" or "unresolved".

    "unresolved": the parent's own spread is wider than the bound, so a
    change within the bound cannot be told from noise, unless every run of
    the change is better than every run of the parent.
    """
    if claims_gain(parent_values, change_values, better):
        return "gain"
    if not within_bound(parent_values, change_values, better, bound):
        return "regression"
    if spread(parent_values) > bound:
        all_better = all(is_better(c, p, better)
                         for c in change_values for p in parent_values)
        return "ok" if all_better else "unresolved"
    return "ok"
