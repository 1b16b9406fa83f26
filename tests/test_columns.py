"""The detections reader's batch: exact against the oracles, and the faults it names.

``load_image_passes`` reads a valid file into one ``DetectionBatch``; these
tests read seeded random files through it, with ties everywhere (equal max
scores, equal corners, exact 0.0 scores) and passes left with 0, 1 and 2 or
more survivors, and hold thresholds and grouping to the brute-force oracles.
A line the reader's screen cannot vouch for is walked detection by detection;
the error names the first bad line, even when a later line fails its screen.
"""

import json

import numpy as np
import pytest

from boxal.certainty import image_certainty
from boxal.data_io import MAX_DETECTIONS_PER_IMAGE, apply_thresholds, load_image_passes
from boxal.errors import FormatError, ValidationError
from boxal.evaluation import consolidate
from boxal.geometry import iou
from boxal.grouping import group_passes

from oracles import brute_force_grouping, brute_force_nms, image_key, image_passes

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
        rebuilt = image_passes(kept.image_id, kept.width, kept.height, kept.passes)
        assert image_key(rebuilt) == image_key(kept) and rebuilt.batch is not kept.batch
        sets, rebuilt_sets = group_passes(kept, match_iou), group_passes(rebuilt, match_iou)
        assert image_certainty(img.image_id, sets, KAPPA, PASSES) == image_certainty(
            img.image_id, rebuilt_sets, KAPPA, PASSES
        )
        assert consolidate(sets) == consolidate(rebuilt_sets)


# ---------------------------------------------------------------------------
# the faults the reader names

DET = {"bbox": [1.0, 2.0, 11.0, 12.0], "scores": [0.7, 0.3]}
OUTSIDE = [1.0, 2.0, 60.0, 12.0]  # x_max beyond the 50-wide image


def _line(image_id: str, bbox=DET["bbox"], passes=None) -> str:
    passes = [[dict(DET, bbox=bbox)], [DET]] if passes is None else passes
    return json.dumps({"image_id": image_id, "width": 50, "height": 40, "passes": passes})


def _rejected(path, lines, kappa=2) -> str:
    """The message of the error ``load_image_passes`` raises on ``lines``."""
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises((FormatError, ValidationError)) as excinfo:
        load_image_passes(path, 2, kappa)
    return str(excinfo.value)


def test_first_bad_line_after_valid_lines_is_named(tmp_path):
    path = tmp_path / "d.jsonl"
    message = _rejected(path, [_line("a"), _line("b"), _line("c", bbox=OUTSIDE), _line("d")])
    assert message == (
        f"{path}:3: image 'c': box (1.0, 2.0, 60.0, 12.0) outside image bounds [0,50]x[0,40]"
    )


@pytest.mark.parametrize(
    "line3", ["{not json", _line("c", bbox=[1.0, 2.0, True, 12.0])], ids=["invalid-json", "true-coordinate"]
)
def test_bad_box_is_named_before_a_later_line_that_fails_the_screen(tmp_path, line3):
    path = tmp_path / "d.jsonl"
    message = _rejected(path, [_line("a"), _line("b", bbox=OUTSIDE), line3])
    assert message == (
        f"{path}:2: image 'b': box (1.0, 2.0, 60.0, 12.0) outside image bounds [0,50]x[0,40]"
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
    # array("d") reads true as 1.0, a 3-number bbox would shift every later box, and an integer
    # beyond float range overflows: each such line is walked record by record, detection by detection
    path = tmp_path / "d.jsonl"
    got = _rejected(path, [_line("a"), _line("b", bbox=bbox)])
    assert got.startswith(f"{path}:2: image 'b': {message}"), got


def test_pass_with_one_detection_too_many_is_named(tmp_path):
    path = tmp_path / "d.jsonl"
    full = [[DET] * MAX_DETECTIONS_PER_IMAGE, []]
    path.write_text(_line("a", passes=full) + "\n")
    (img,) = load_image_passes(path, 2, 2)
    assert [len(p) for p in img.passes] == [MAX_DETECTIONS_PER_IMAGE, 0]
    message = _rejected(path, [_line("a", passes=full), _line("b", passes=[[], [DET] * 101])])
    assert message == f"{path}:2: image 'b': pass 1 holds 101 detections, more than 100"


def test_score_vectors_of_another_length_on_a_later_line_are_named(tmp_path):
    # without kappa, the file's first score vector sets the length of all
    path = tmp_path / "d.jsonl"
    wider = {"bbox": DET["bbox"], "scores": [0.5, 0.25, 0.25]}
    message = _rejected(path, [_line("a"), _line("b", passes=[[wider], []])], kappa=None)
    assert message.startswith(f"{path}:2: image 'b': expected 2 scores, got 3"), message


@pytest.mark.parametrize("scores", ["", {}], ids=["string", "object"])
def test_empty_string_or_object_as_the_first_score_vector_is_named(tmp_path, scores):
    # without kappa the first vector sets the length; an empty string or object has length 0 too
    path = tmp_path / "d.jsonl"
    message = _rejected(path, [_line("a", passes=[[dict(DET, scores=scores)], []])], kappa=None)
    assert message.startswith(f"{path}:1: image 'a': scores must be an array, got "), message


def test_valid_file_whose_id_contains_true_reads_by_records(tmp_path):
    # the word true in a string sends its line past the screen, to be walked record by record;
    # the walk reads the same values into the same batch
    walked, screened = tmp_path / "walked.jsonl", tmp_path / "screened.jsonl"
    walked.write_text(_line("a") + "\n" + _line("true-positive") + "\n")
    screened.write_text(_line("a") + "\n" + _line("b") + "\n")
    got, want = load_image_passes(walked, 2, 2), load_image_passes(screened, 2, 2)
    assert [img.image_id for img in got] == ["a", "true-positive"]
    assert [img.passes for img in got] == [img.passes for img in want]
    assert got[1].batch is got[0].batch and got[1].rows.tolist() == want[1].rows.tolist()
