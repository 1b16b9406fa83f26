"""The detections reader's batch: exact against the oracles, and the faults it names.

``load_image_passes`` reads a valid file into one ``DetectionBatch``; these
tests read seeded random files through it, with ties everywhere (equal max
scores, equal corners, exact 0.0 scores) and passes left with 0, 1 and 2 or
more survivors, and hold thresholds and grouping to the brute-force oracles.
The thresholding kernel is also held to greedy NMS on requests built to hit
its corners: passes of 0, 1, 2 and 100 detections, identical boxes and tied
scores, chunk after chunk. Entropies, computed in row chunks, keep the bits
of the whole-batch formula. A line the reader's screen cannot vouch for is walked detection by detection;
the error names the first bad line, even when a later line fails its screen.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from boxal import data_io
from boxal.certainty import image_certainty
from boxal.data_io import MAX_DETECTIONS_PER_IMAGE, Detection, DetectionBatch, apply_thresholds, load_image_passes
from boxal.errors import FormatError, ValidationError
from boxal.evaluation import consolidate
from boxal.geometry import BoundingBox, iou
from boxal.grouping import group_passes

from oracles import brute_force_grouping, brute_force_nms, cap_image, image_key, image_passes, request_of

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
# the thresholding kernel: every pass of a request at once


def nms_request(rng: np.random.Generator, images: int = 30):
    """A request of ``images`` images of 1 to 6 passes, each of 0 to 12 detections, or 100 in a few.

    Corners lie on a coarse grid and scores come from ``SCORES``, so identical boxes and
    tied max scores are common, and every image's first two passes hold a detection and its copy.
    """
    specs = []
    for i in range(images):
        passes = []
        for p in range(int(rng.integers(1, 7))):
            size = MAX_DETECTIONS_PER_IMAGE if (i + p) % 11 == 5 else int(rng.integers(0, 13))
            dets = []
            for _ in range(size):
                x0, y0 = (float(v) * 10.0 for v in rng.integers(0, 6, 2))
                w, h = (float(v) * 10.0 for v in rng.integers(1, 4, 2))
                dets.append(Detection(BoundingBox(x0, y0, x0 + w, y0 + h), tuple(SCORES[int(rng.integers(0, 8))])))
            if p < 2 and dets:
                dets.append(dets[0])
            passes.append(tuple(dets))
        specs.append((f"img_{i}", 100, 100, passes))
    return request_of(specs)


def assert_equals_brute_force_nms(images, confidence, nms_iou):
    for img in images:
        kept = apply_thresholds(img, confidence, nms_iou)
        assert len(kept.passes) == len(img.passes)
        for p, dets in enumerate(img.passes):
            survivors = [(d.box, max(d.scores), d) for d in dets if max(d.scores) >= confidence]
            want = [d for _, _, d in brute_force_nms(survivors, nms_iou, iou)]
            assert list(kept.passes[p]) == want, (img.image_id, p)


@pytest.mark.parametrize("budget", ["real", 50])
@pytest.mark.parametrize("confidence", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("nms_iou", [0.0, 0.3, 0.5, 1.0])
def test_kernel_equals_brute_force_nms_chunk_by_chunk(monkeypatch, budget, confidence, nms_iou):
    if budget != "real":
        monkeypatch.setattr(data_io, "CHUNK_ELEMENTS", budget)
    images = nms_request(np.random.Generator(np.random.PCG64(43)))
    sizes = [len(p) for img in images for p in img.passes]
    assert {0, 1, 2, MAX_DETECTIONS_PER_IMAGE} <= set(sizes)
    crowded = sorted(size for size in sizes if size > 1)  # each pass's survivors at confidence 0
    chunks = list(data_io._nms_chunks(crowded))
    # several chunks, one of passes of unequal sizes (padded), and passes too large to share one
    assert len(chunks) > 1 and any(crowded[part.start] < crowded[part.stop - 1] for part in chunks)
    assert any(part.stop - part.start == 1 for part in chunks)
    assert_equals_brute_force_nms(images, confidence, nms_iou)


def test_kernel_keeps_one_of_identical_boxes_and_the_first_of_tied_scores():
    a, b = BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(20.0, 20.0, 30.0, 30.0)
    first, second = Detection(a, (0.6, 0.4, 0.0)), Detection(a, (0.4, 0.0, 0.6))  # tied max scores
    other = Detection(b, (0.6, 0.4, 0.0))
    images = request_of([("x", 50, 50, [(first, second, other), (second, first)]), ("y", 50, 50, [(), (other,)])])
    kept = [apply_thresholds(img, 0.5, 1.0) for img in images]
    assert kept[0].passes == ((first, other), (second,)) and kept[1].passes == ((), (other,))
    assert_equals_brute_force_nms(images, 0.5, 1.0)


def test_a_request_of_cap_images_thresholds_within_a_few_chunks_of_memory():
    rng = np.random.Generator(np.random.PCG64(47))
    images = request_of([(f"cap{i}", 1000, 1000, cap_image(rng).passes) for i in range(4)])
    tracemalloc.start()
    try:
        kept = apply_thresholds(images[0], 0.5, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk of all 60 passes would hold several 60 x 100 x 100 float64 blocks, 4.8 MB each
    assert peak < 1e6
    assert sum(map(len, kept.passes)) < 15 * 100  # NMS dropped rows: every step ran
    assert_equals_brute_force_nms(images[:1], 0.5, 0.3)


# ---------------------------------------------------------------------------
# entropies in row chunks


def whole_batch_entropies(scores: np.ndarray) -> np.ndarray:
    """The entropies of every row at once, as the batch computed them before it went chunk by chunk."""
    flat = scores.ravel()
    positive = flat > 0.0
    logs = np.zeros_like(flat)
    logs[positive] = [math.log(s) for s in flat[positive].tolist()]
    terms = (flat * logs).reshape(scores.shape)
    return -(np.cumsum(terms, axis=-1)[..., -1] + 0.0)


def score_batch(rng: np.random.Generator, rows: int, kappa: int) -> DetectionBatch:
    """Random score rows, a third of the values exactly 0.0 and some rows one-hot."""
    raw = rng.gamma(1.0, size=(rows, kappa)) * (rng.random((rows, kappa)) > 0.3)
    raw[rows // 2:: 7] = np.eye(kappa)[rng.integers(0, kappa, size=len(raw[rows // 2:: 7]))]
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    scores = raw / raw.sum(axis=1, keepdims=True)
    return DetectionBatch(np.zeros((rows, 4)), scores, scores.max(axis=1), np.zeros(rows, np.intp))


@pytest.mark.parametrize("budget", ["real", 12])
def test_entropies_keep_the_bits_of_the_whole_batch_formula(monkeypatch, budget):
    if budget != "real":
        monkeypatch.setattr(data_io, "CHUNK_ELEMENTS", budget)  # 2 rows of 5 a chunk
    batch = score_batch(np.random.Generator(np.random.PCG64(53)), 4001, 5)
    assert 4001 * 5 > 2 * data_io.CHUNK_ELEMENTS and (batch.scores == 0.0).any()
    got, want = batch.entropies, whole_batch_entropies(batch.scores)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_entropies_of_a_crowded_batch_hold_a_chunk_of_temporaries():
    batch = score_batch(np.random.Generator(np.random.PCG64(59)), 20_000, 20)
    tracemalloc.start()
    try:
        batch.entropies
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result takes 160 KB; the whole-batch formula held several 20,000 x 20 float64 blocks, 3.2 MB each
    assert peak < 1e6


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
