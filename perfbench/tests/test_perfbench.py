"""Tests for the benchmark harness's own parts.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from inputs import encode_png_adaptive, filter_candidates, png_filter_types  # noqa: E402
from oracle import mismatch  # noqa: E402
from stats import min_samples, percentile  # noqa: E402


def _reference_filters(pixels: np.ndarray) -> list[int]:
    """libpng's per-row choice, one byte at a time, straight from the spec."""
    height, width, channels = pixels.shape
    rows = pixels.reshape(height, width * channels).astype(int).tolist()
    chosen = []
    for y, row in enumerate(rows):
        up = rows[y - 1] if y else [0] * len(row)
        costs = []
        for kind in range(5):
            total = 0
            for i, x in enumerate(row):
                a = row[i - channels] if i >= channels else 0
                b = up[i]
                c = up[i - channels] if i >= channels and y else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                paeth = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                predictor = (0, a, b, (a + b) // 2, paeth)[kind]
                value = (x - predictor) & 0xFF
                total += min(value, 256 - value)
            costs.append(total)
        chosen.append(costs.index(min(costs)))
    return chosen


@pytest.mark.parametrize("shape", [(9, 7), (16, 16, 3), (5, 11, 4), (33, 20, 3)])
def test_adaptive_encoder_round_trips_bit_exactly(shape):
    from repro.imaging.png import decode_png

    rng = np.random.default_rng(sum(shape))
    smooth = np.cumsum(rng.integers(-3, 4, size=shape), axis=1)
    pixels = np.clip(smooth + 128, 0, 255).astype(np.uint8)
    payload, filters = encode_png_adaptive(pixels)
    assert np.array_equal(decode_png(payload), pixels)
    assert png_filter_types(payload).tolist() == filters.tolist()
    expanded = pixels if pixels.ndim == 3 else pixels[:, :, None]
    assert filters.tolist() == _reference_filters(expanded)


def test_adaptive_encoder_uses_several_filters_on_real_images():
    from repro.datasets import caltech_like_corpus
    from repro.imaging.image import as_uint8

    images = [as_uint8(x) for x in caltech_like_corpus(4, image_shape=(64, 64), seed=3)]
    used = set()
    for image in images:
        used.update(encode_png_adaptive(image)[1].tolist())
    assert len(used) >= 3
    assert filter_candidates(images[0]).shape == (5, 64, 64 * 3)


def test_accuracy_counts_distinct_inputs_and_every_answer():
    from run import accuracy

    labels = [True, True, False, False]
    # Input 0 is caught every time; input 1 once missed; input 3 once flagged.
    indices = [0, 0, 1, 1, 2, 3, 3]
    verdicts = ["attack", "attack", "attack", "benign", "benign", "benign", "attack"]
    assert accuracy(indices, verdicts, labels) == {"attack_recall": 0.5, "benign_tnr": 0.5}


def _span(span_id, parent, name, start, end, request=None, images=1):
    return (span_id, parent, name, start, end, request, images)


def test_self_time_subtracts_children_and_merges_overlaps():
    spans = [
        _span(1, None, "server.request", 0.0, 1.0, "r1"),
        _span(2, 1, "wire.decode", 0.1, 0.3, "r1"),
        _span(3, 1, "pipeline.submit", 0.4, 0.9, "r1"),
        _span(4, 3, "detector.scaling", 0.5, 0.6, "r1"),
        # Overlaps span 4: the union, not the sum, is subtracted.
        _span(5, 3, "detector.filtering", 0.55, 0.7, "r1"),
        # A child poking past its parent only counts inside the parent.
        _span(6, 2, "audit.append", 0.25, 0.35, "r1"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(1.0 - 0.2 - 0.5)
    assert selfs[2] == pytest.approx(0.2 - 0.05)
    assert selfs[3] == pytest.approx(0.5 - 0.2)
    assert selfs[4] == pytest.approx(0.1)


def test_accounting_adds_up_to_client_latency():
    spans = [
        _span(1, None, "server.request", 0.0, 0.010, "a"),
        _span(2, 1, "wire.decode", 0.001, 0.004, "a"),
        _span(3, 1, "pipeline.submit", 0.004, 0.009, "a"),
        _span(4, None, "server.request", 1.0, 1.020, "b"),
        _span(5, 4, "pipeline.submit", 1.002, 1.018, "b"),
        # Not a measured request: ignored.
        _span(6, None, "server.request", 2.0, 2.5, "warmup"),
    ]
    client = {"a": 12.0, "b": 26.0}
    layers = tracing.account(spans, client)
    assert layers["wire"] == pytest.approx(3.0 / 2)
    assert layers["pipeline"] == pytest.approx((5.0 + 16.0) / 2)
    assert layers["server"] == pytest.approx((2.0 + 4.0) / 2)
    assert layers["unaccounted"] == pytest.approx((2.0 + 6.0) / 2)
    assert sum(layers.values()) == pytest.approx(sum(client.values()) / 2)


def test_tracer_nests_spans_and_passes_request_ids():
    tracer = tracing.Tracer()

    def inner():
        return 7

    def outer():
        return tracer.call("pipeline.submit", inner, (), {})

    assert tracer.call("server.request", outer, (), {}, request_id="r9") == 7
    (child, parent) = tracer.spans
    assert child[1] == parent[0] and parent[1] is None
    assert child[5] == parent[5] == "r9"


def test_percentile_sample_count_rule():
    assert min_samples(95) == 200
    assert min_samples(99) == 1000
    assert min_samples(50) == 20
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert percentile(list(range(101)), 95) == pytest.approx(95.0)


def _expected() -> dict:
    return {
        "verdict": "attack",
        "action": "rejected",
        "accepted": False,
        "votes_for_attack": 3,
        "votes_total": 3,
        "scores": {"scaling/mse": 812.5, "filtering/ssim": 0.41},
    }


def test_oracle_accepts_identical_and_tolerance_level_verdicts():
    got = _expected()
    got["scores"] = {"scaling/mse": 812.5 * (1 + 1e-12), "filtering/ssim": 0.41}
    assert mismatch(_expected(), got) is None


@pytest.mark.parametrize(
    "field, value",
    [("verdict", "benign"), ("action", "accepted"), ("votes_for_attack", 2)],
)
def test_oracle_flags_an_injected_wrong_verdict(field, value):
    got = _expected()
    got[field] = value
    assert field in mismatch(_expected(), got)


def test_oracle_flags_a_drifted_score():
    got = _expected()
    got["scores"] = {"scaling/mse": 812.6, "filtering/ssim": 0.41}
    assert "scaling/mse" in mismatch(_expected(), got)


def test_oracle_flags_a_flipped_verdict_from_a_real_pipeline():
    from repro.datasets import caltech_like_corpus
    from repro.imaging.image import as_uint8
    from repro.serving.pipeline import ProtectedPipeline

    from oracle import expected_verdicts

    images = [as_uint8(x) for x in caltech_like_corpus(24, image_shape=(64, 64), seed=9)]
    pipeline = ProtectedPipeline((16, 16))
    pipeline.calibrate(images[:20])
    expected = expected_verdicts(pipeline, images[20:])
    served = expected_verdicts(pipeline, images[20:])
    assert all(mismatch(e, s) is None for e, s in zip(expected, served))
    served[1] = dict(served[1], verdict="attack" if served[1]["verdict"] == "benign" else "benign")
    assert mismatch(expected[1], served[1]) is not None
