"""Leave-one-out data values — the baseline data-valuation method.

LOO(i) = U(D) − U(D ∖ {i}): the performance drop from deleting point i.
Cheap (n retrainings) but, as Ghorbani & Zou show and E7 reproduces, a
much weaker detector of mislabeled data than Shapley-based values because
a single deletion rarely moves the metric when near-duplicates remain.
"""

from __future__ import annotations

import numpy as np

from ..core.explanation import DataAttribution
from .utility import UtilityFunction

__all__ = ["leave_one_out_values"]


def leave_one_out_values(utility: UtilityFunction) -> DataAttribution:
    """LOO value of every training point.

    The n deletions go to the utility as one batch (``scores``), so a
    model that fits many subsets at once fits them together.
    """
    n = utility.n_points
    full = utility.full_score()
    values = full - utility.scores(~np.eye(n, dtype=bool))
    return DataAttribution(
        values=values,
        method="leave_one_out",
        meta={"full_score": full, "n_retrainings": n},
    )
