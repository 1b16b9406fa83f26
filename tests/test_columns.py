"""The detections reader's batch: exact against the oracles, and the faults it names.

``load_image_passes`` reads a valid file into one ``DetectionBatch``; these
tests read seeded random files through it, with ties everywhere (equal max
scores, equal corners, exact 0.0 scores) and passes left with 0, 1 and 2 or
more survivors, and hold thresholds and grouping to the brute-force oracles.
The thresholding kernel is also held to greedy NMS on requests built to hit
its corners: passes of 0, 1, 2 and 100 detections, identical boxes and tied
scores, chunk after chunk; ``data_io._chunks``, which orders and cuts the
chunks of NMS, grouping and matching, is checked under the NMS and the
grouping rule on unsorted sizes with zeros and ties. The set kernel's semantic
certainty keeps the bits of the whole-batch entropy formula, and only set
members' scores reach ``math.log``. A line the reader's screen cannot vouch
for is walked detection by detection; the error names the first bad line,
even when a later line fails its screen.
"""

import functools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest

from boxal import certainty, data_io, grouping
from boxal.certainty import image_certainty
from boxal.data_io import (
    MAX_DETECTIONS_PER_IMAGE,
    Detection,
    _image_views,
    apply_thresholds,
    load_image_passes,
)
from boxal.errors import FormatError, ValidationError
from boxal.evaluation import consolidate
from boxal.geometry import BoundingBox, iou
from boxal.grouping import group_passes

from oracles import brute_force_grouping, brute_force_nms, cap_image, image_key, image_passes, members_of, request_of

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
            got = members_of(group_passes(image, match_iou))
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
    assert_equals_brute_force_nms(images, confidence, nms_iou)


RULES = {  # the chunk rules of the NMS kernel and of grouping, and the largest size each sees
    "nms": (lambda b, d: b * d * d <= data_io.CHUNK_ELEMENTS, MAX_DETECTIONS_PER_IMAGE),
    "grouping": (lambda b, d: b * d <= grouping.CHUNK_ROWS and b * d * d <= grouping.CHUNK_IOUS, 1500),
}


@pytest.mark.parametrize("rule", RULES)
def test_chunks_are_the_longest_runs_that_fit(rule):
    fits, largest = RULES[rule]
    rng = np.random.Generator(np.random.PCG64(61))
    seen = {"zero": False, "tie": False, "shared": False, "alone": False, "too large": False}
    for case in range(200):
        # unsorted, with zeros and ties: the // leaves many equal sizes, and 0 below the divisor
        sizes = rng.integers(0, largest + 1, size=int(rng.integers(0, 400))) // rng.choice([1, 4, 30])
        runs = list(data_io._chunks(sizes, fits))
        units = [i for run in runs for i in run.tolist()]
        # the nonzero units, by size and then index
        assert units == sorted(np.flatnonzero(sizes).tolist(), key=lambda i: (sizes[i], i)), case
        ordered, start = sizes[units].tolist(), 0
        for run in runs:
            length, stop = len(run), start + len(run)
            assert length == 1 or fits(length, ordered[stop - 1]), case  # a run of several units fits
            if stop < len(ordered):  # and it was cut where the next unit would not fit
                assert not fits(length + 1, ordered[stop]), case
            if not fits(2, ordered[start]):  # a unit that fits with nothing else stands alone
                assert length == 1, case
            seen["shared"] |= length > 1
            seen["alone"] |= not fits(2, ordered[start])
            seen["too large"] |= not fits(1, ordered[start])
            start = stop
        seen["zero"] |= len(units) < len(sizes)
        seen["tie"] |= len(set(ordered)) < len(ordered)
    assert all(seen.values()), seen


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
# entropies in the set kernel


def whole_batch_entropies(scores: np.ndarray) -> np.ndarray:
    """The entropies of every row at once, as the batch computed them before they went chunk by chunk."""
    flat = scores.ravel()
    positive = flat > 0.0
    logs = np.zeros_like(flat)
    logs[positive] = [math.log(s) for s in flat[positive].tolist()]
    terms = (flat * logs).reshape(scores.shape)
    return -(np.cumsum(terms, axis=-1)[..., -1] + 0.0)


def random_scores(rng: np.random.Generator, rows: int, kappa: int) -> np.ndarray:
    """Random score rows, a third of the values exactly 0.0 and some rows one-hot."""
    raw = rng.gamma(1.0, size=(rows, kappa)) * (rng.random((rows, kappa)) > 0.3)
    raw[rows // 2:: 7] = np.eye(kappa)[rng.integers(0, kappa, size=len(raw[rows // 2:: 7]))]
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("budget", ["real", 12])
def test_entropies_keep_the_bits_of_the_whole_batch_formula(monkeypatch, budget):
    # c_sem of each set is the mean over its members, in pass order, of 1 - H / log(kappa), H as the
    # whole-batch formula computes it; 4,001 rows go into 1,400 one-set images of 4 passes with holes
    if budget != "real":
        monkeypatch.setattr(data_io, "CHUNK_ELEMENTS", budget)  # one set of 4 x 5 scores a chunk
    rng = np.random.Generator(np.random.PCG64(53))
    rows, kappa, passes, set_count = 4001, 5, 4, 1400
    scores = random_scores(rng, rows, kappa)
    slots = np.zeros((set_count, passes), bool)
    slots[np.arange(set_count), rng.integers(0, passes, set_count)] = True  # every set has a member
    slots.flat[rng.choice(np.flatnonzero(~slots), rows - set_count, replace=False)] = True
    members = np.full(slots.shape, -1, np.intp)
    members[slots] = rng.permutation(rows)
    # image s holds row members[s, p] in pass p, all at one box, so its detections make one set, of one request
    boxes = np.tile([0.0, 0.0, 10.0, 10.0], (rows, 1))
    headers = [(f"img_{s}", 10, 10, slots[s].astype(int)) for s in range(set_count)]
    images = _image_views(boxes, scores[members[slots]], headers)
    assert set_count * passes * kappa > 2 * data_io.CHUNK_ELEMENTS and (~slots).any()
    assert (scores == 0.0).any() and (scores == 1.0).any()
    scored = [image_certainty(img.image_id, group_passes(img), kappa, passes) for img in images]
    assert {c.set_count for c in scored} == {1}
    got = np.array([c.min_triple.c_sem for c in scored])
    terms = 1.0 - whole_batch_entropies(scores) / math.log(kappa)
    want = np.array([functools.reduce(operator.add, terms[row[row >= 0]].tolist(), 0.0) for row in members])
    want /= slots.sum(axis=1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_entropies_of_a_crowded_batch_hold_a_chunk_of_temporaries():
    # 50 images of 20 objects, each seen by all 20 passes with jittered corners, kappa 20: certainty
    # of the 1,000 sets of the request's 20,000 rows
    rng = np.random.Generator(np.random.PCG64(59))
    objects = np.array([(x, y, x + 20.0, y + 20.0) for x in range(0, 100, 25) for y in range(0, 125, 25)])
    boxes = np.tile(objects, (50 * 20, 1)) + rng.integers(0, 3, size=(20_000, 4))
    images = _image_views(boxes, random_scores(rng, 20_000, 20),
                          [(f"img_{i}", 130, 130, [20] * 20) for i in range(50)])
    sets = [group_passes(img) for img in images]
    tracemalloc.start()
    try:
        scored = [image_certainty(img.image_id, s, 20, 20) for img, s in zip(images, sets)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [c.set_count for c in scored] == [20] * 50
    # the entropies of every row at once took 160 KB, and the whole-batch formula held several
    # 20,000 x 20 float64 blocks, 3.2 MB each
    assert peak < 1e6


def test_only_the_scores_of_set_members_reach_math_log(tmp_path, monkeypatch):
    # a detector's file may hold rows below the confidence cut; thresholding drops them, and certainty
    # takes the log of the positive scores of the rows it kept, and of kappa, and of nothing else
    full, kept = tmp_path / "full.jsonl", tmp_path / "kept.jsonl"
    random_file(np.random.Generator(np.random.PCG64(67)), full)
    records = [json.loads(line) for line in full.read_text().splitlines()]
    dropped = sum(max(d["scores"]) < CONFIDENCE for r in records for p in r["passes"] for d in p)
    for record in records:
        record["passes"] = [[d for d in p if max(d["scores"]) >= CONFIDENCE] for p in record["passes"]]
    kept.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert dropped > 0

    logged = []

    class CountingMath:
        """``math``, whose ``log`` records each argument."""

        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def log(value):
            logged.append(value)
            return math.log(value)

    def scored(path):
        images = [apply_thresholds(img, CONFIDENCE, 0.3) for img in load_image_passes(path, PASSES, KAPPA)]
        return images, [image_certainty(img.image_id, group_passes(img), KAPPA, PASSES) for img in images]

    monkeypatch.setattr(certainty, "math", CountingMath())
    images, got = scored(full)
    members = [d for img in images for found in members_of(group_passes(img)) for _, d in found]
    assert sorted(logged) == sorted([KAPPA] + [v for d in members for v in d.scores if v > 0.0])
    _, want = scored(kept)
    assert got == want and [c.c_min for c in got] == [c.c_min for c in want]


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
