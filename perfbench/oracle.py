"""Verdict oracle: an in-process reference pipeline scores every distinct
input before the timed window; every answer in the window is compared
with it."""

from __future__ import annotations

import math

#: Verdict fields that must match exactly.
EXACT_FIELDS = ("verdict", "action", "accepted", "votes_for_attack", "votes_total")
#: Scores may differ by the numerics contract's relative tolerance, since
#: the stacked batch kernels and the per-image path order sums differently.
SCORE_RTOL = 1e-9


def expected_verdicts(pipeline, images) -> list[dict]:
    """Reference wire verdicts for *images*, scored one by one."""
    from repro.serving.pipeline import verdict_payload

    return [
        verdict_payload(
            pipeline.submit(image, image_id=f"oracle-{index}"),
            request_id="oracle",
            latency_ms=0.0,
        )
        for index, image in enumerate(images)
    ]


def mismatch(expected: dict, got: dict) -> str | None:
    """Why *got* disagrees with *expected*, or None when it agrees."""
    for name in EXACT_FIELDS:
        if got.get(name) != expected[name]:
            return f"{name}: expected {expected[name]!r}, got {got.get(name)!r}"
    scores = got.get("scores") or {}
    if set(scores) != set(expected["scores"]):
        return f"score keys: expected {sorted(expected['scores'])}, got {sorted(scores)}"
    for key, value in expected["scores"].items():
        if not math.isclose(scores[key], value, rel_tol=SCORE_RTOL, abs_tol=1e-12):
            return f"score {key}: expected {value!r}, got {scores[key]!r}"
    return None
