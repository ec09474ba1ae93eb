"""Schema check for the repo's bench payloads.

The only bench payload the program still writes is
``BENCH_leaderboard.json`` (``repro/leaderboard-bench/v1``, from
``repro leaderboard -o``).  Performance is measured by ``perfbench/``
(see ``perfbench/README.md``), which validates that payload through
this entry point.
"""

from __future__ import annotations

from typing import Any


def validate_bench_payload(payload: Any) -> list[str]:
    """Schema check of a bench document; a list of problems (empty =
    valid).

    An alias of :func:`repro.baselines.eval.validate_leaderboard_payload`,
    imported on first call so ``repro serve`` start-up does not load the
    baselines suite.
    """
    from repro.baselines.eval import validate_leaderboard_payload

    return validate_leaderboard_payload(payload)
