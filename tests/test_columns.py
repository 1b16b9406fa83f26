"""The detections reader's batch: exact against the oracles, and its record fallback.

``load_image_passes`` reads a valid file into one ``DetectionBatch``; these
tests read seeded random files through it, with ties everywhere (equal max
scores, equal corners, exact 0.0 scores) and passes left with 0, 1 and 2 or
more survivors, and hold thresholds and grouping to the brute-force oracles.
A file the batch reader cannot vouch for is read again record by record, and
the error is the record reader's.
"""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxal.certainty import image_certainty
from boxal.data_io import (
    MAX_DETECTIONS_PER_IMAGE,
    ImagePasses,
    _load_by_image,
    _parse_image_passes,
    _read_batch,
    _Recheck,
    apply_thresholds,
    load_image_passes,
)
from boxal.errors import FormatError, ValidationError
from boxal.evaluation import consolidate
from boxal.geometry import iou
from boxal.grouping import group_passes

from oracles import brute_force_grouping, brute_force_nms
from test_readers import DELETE, JUNK, VALID, _mutated, _paths, _write_jsonl

KAPPA = 3
PASSES = 4
CONFIDENCE = 0.5
# equal max scores (0.5, 0.6), exact zeros, and vectors below the confidence cut
SCORES = [
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [1.0, 0.0, 0.0],
    [0.6, 0.4, 0.0],
    [0.4, 0.0, 0.6],
    [0.25, 0.25, 0.5],
    [0.4, 0.3, 0.3],
    [0.2, 0.4, 0.4],
]


def random_file(rng: np.random.Generator, path, images: int = 40) -> None:
    """Detections on a coarse grid, so corners and overlaps tie often."""
    lines = []
    for i in range(images):
        passes = []
        for _ in range(PASSES):
            dets = []
            for _ in range(int(rng.integers(0, 6))):
                x0, y0 = (float(v) * 10.0 for v in rng.integers(0, 6, 2))
                w, h = (float(v) * 10.0 for v in rng.integers(1, 4, 2))
                if rng.random() < 0.3:
                    raw = rng.gamma(1.0, size=KAPPA)
                    scores = (raw / raw.sum()).tolist()
                else:
                    scores = SCORES[int(rng.integers(0, len(SCORES)))]
                dets.append({"bbox": [x0, y0, x0 + w, y0 + h], "scores": scores})
            passes.append(dets)
        lines.append(json.dumps({"image_id": f"img_{i}", "width": 100, "height": 100, "passes": passes}))
    path.write_text("".join(line + "\n" for line in lines))


@pytest.fixture(scope="module", params=range(3), ids=lambda seed: f"seed{seed}")
def images(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("columns") / "d.jsonl"
    random_file(np.random.Generator(np.random.PCG64(request.param)), path)
    images = load_image_passes(path, PASSES, KAPPA)
    assert len({id(img.batch) for img in images}) == 1  # one batch: the file passed every array test
    return images


def test_survivor_counts_cover_0_1_and_more(images):
    counts = {len(p) for img in images for p in apply_thresholds(img, CONFIDENCE, 1.0).passes}
    assert {0, 1, 2} <= counts


@pytest.mark.parametrize("nms_iou", [0.0, 0.3, 1.0])
def test_thresholds_equal_brute_force_nms(images, nms_iou):
    for img in images:
        kept = apply_thresholds(img, CONFIDENCE, nms_iou)
        for p, dets in enumerate(img.passes):
            survivors = [(d.box, max(d.scores), d) for d in dets if max(d.scores) >= CONFIDENCE]
            want = [d for _, _, d in brute_force_nms(survivors, nms_iou, iou)]
            assert list(kept.passes[p]) == want, (img.image_id, p)


@pytest.mark.parametrize("match_iou", [0.0, 0.3, 0.5, 1.0])
def test_grouping_equals_brute_force_grouping(images, match_iou):
    for img in images:
        for image in (img, apply_thresholds(img, CONFIDENCE, 0.3)):
            got = [list(s.members) for s in group_passes(image, match_iou)]
            assert got == brute_force_grouping(image, match_iou, iou), image.image_id


@pytest.mark.parametrize("match_iou", [0.0, 0.3, 0.5, 1.0])
def test_certainty_and_consolidation_equal_those_of_the_record_view(images, match_iou):
    for img in images:
        kept = apply_thresholds(img, CONFIDENCE, 0.3)
        rebuilt = ImagePasses(kept.image_id, kept.width, kept.height, kept.passes)
        assert rebuilt == kept and rebuilt.batch is not kept.batch
        sets, rebuilt_sets = group_passes(kept, match_iou), group_passes(rebuilt, match_iou)
        assert image_certainty(img.image_id, sets, KAPPA, PASSES) == image_certainty(
            img.image_id, rebuilt_sets, KAPPA, PASSES
        )
        assert consolidate(sets) == consolidate(rebuilt_sets)


# ---------------------------------------------------------------------------
# the record fallback

DET = {"bbox": [1.0, 2.0, 11.0, 12.0], "scores": [0.7, 0.3]}


def _line(image_id: str, bbox=DET["bbox"], passes=None) -> str:
    passes = [[dict(DET, bbox=bbox)], [DET]] if passes is None else passes
    return json.dumps({"image_id": image_id, "width": 50, "height": 40, "passes": passes})


def _record_error(path) -> str:
    """The message of the record reader's error on ``path``."""
    with pytest.raises((FormatError, ValidationError)) as excinfo:
        _load_by_image(path, partial(_parse_image_passes, expected_n=2, kappa=2))
    return str(excinfo.value)


def _rejected(path, text: str) -> str:
    """``text`` written to ``path`` is handed to the record reader, whose error load_image_passes raises."""
    path.write_text(text)
    with pytest.raises(_Recheck):
        _read_batch(path, 2, 2)
    with pytest.raises((FormatError, ValidationError)) as excinfo:
        load_image_passes(path, 2, 2)
    assert str(excinfo.value) == _record_error(path)
    return str(excinfo.value)


def test_first_bad_line_after_valid_lines_is_named(tmp_path):
    path = tmp_path / "d.jsonl"
    text = "\n".join([_line("a"), _line("b"), _line("c", bbox=[1.0, 2.0, 60.0, 12.0]), _line("d")]) + "\n"
    message = _rejected(path, text)
    assert message == (
        f"{path}:3: image 'c': box (1.0, 2.0, 60.0, 12.0) outside image bounds [0,50]x[0,40]"
    )


@pytest.mark.parametrize(
    "bbox, message",
    [
        ([1.0, 2.0, True, 12.0], "bbox must be an array of numbers, got [1.0, 2.0, True, 12.0]"),
        ([1.0, 2.0, 10**400, 12.0], "bbox must be an array of numbers, got "),
        ([1.0, 2.0, 11.0], "bbox must hold 4 numbers, got 3"),
    ],
    ids=["true", "beyond-float", "three-numbers"],
)
def test_values_the_buffers_could_misread_take_the_record_reader(tmp_path, bbox, message):
    # array("d") reads true as 1.0, a 3-number bbox would shift every later box, and
    # an integer beyond float range overflows: each goes to the record reader instead
    path = tmp_path / "d.jsonl"
    got = _rejected(path, _line("a") + "\n" + _line("b", bbox=bbox) + "\n")
    assert got.startswith(f"{path}:2: image 'b': {message}"), got


def test_pass_with_one_detection_too_many_is_named(tmp_path):
    path = tmp_path / "d.jsonl"
    full = [[DET] * MAX_DETECTIONS_PER_IMAGE, []]
    path.write_text(_line("a", passes=full) + "\n")
    (img,) = load_image_passes(path, 2, 2)
    assert [len(p) for p in img.passes] == [MAX_DETECTIONS_PER_IMAGE, 0]
    message = _rejected(path, _line("a", passes=full) + "\n" + _line("b", passes=[[], [DET] * 101]) + "\n")
    assert message == f"{path}:2: image 'b': pass 1 holds 101 detections, more than 100"


def test_valid_file_whose_id_contains_true_reads_by_records(tmp_path):
    # the word true in a string sends the file to the record reader, which accepts it
    path = tmp_path / "d.jsonl"
    path.write_text(_line("true-positive") + "\n")
    with pytest.raises(_Recheck):
        _read_batch(path, 2, 2)
    (img,) = load_image_passes(path, 2, 2)
    assert img.image_id == "true-positive" and [len(p) for p in img.passes] == [1, 1]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batch_reader_accepts_only_what_the_record_reader_accepts(tmp_path_factory, data):
    doc = VALID["detections"]
    path = data.draw(st.sampled_from([p for p in _paths(doc) if p]), label="path")
    action = data.draw(st.sampled_from(["replace", "duplicate", DELETE]), label="action")
    mutated = _mutated(doc, path, action, data.draw(st.sampled_from(JUNK), label="junk"))
    target = tmp_path_factory.mktemp("mutated") / "d.jsonl"
    _write_jsonl(target, mutated)
    try:
        batch_images = _read_batch(target, 2, 2)
    except _Recheck:
        return
    record_images = list(_load_by_image(target, partial(_parse_image_passes, expected_n=2, kappa=2)).values())
    assert batch_images == record_images
