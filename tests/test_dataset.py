"""Annotation parsing and scale-bucket coverage analytics."""

import dataclasses
import io
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlap import dataset, matching
from anchorlap.dataset import (
    MAX_TRIALS,
    AnnotationError,
    JitterReport,
    ParsedAnnotations,
    bounding_plane,
    bucket_bounds,
    bucket_stats,
    jitter_experiment,
    parse_annotations,
)
from anchorlap.emo import EmoQuery, emo_closed_form
from anchorlap.geometry import FaceTable, RectBox
from anchorlap.layout import AnchorSpec, build_layout, effective_anchor_stride
from anchorlap.matching import apply_jitter
from anchorlap.rng import stream
from anchorlap.specfile import load_spec
from helpers import brute_jitter, face_lines, per_line_parse

DATA = Path(__file__).parent / "data"

LISTING = """\
events/a.jpg
2
10 20 30 40
5 5 8 8
events/b.jpg
1
0 0 16 16
"""


class TestParsing:
    def test_basic_listing(self):
        parsed = parse_annotations(LISTING)
        assert isinstance(parsed, ParsedAnnotations)
        assert parsed.skipped == 0
        table = parsed.records
        assert [table.image_ids[k] for k in table.image] == [
            "events/a.jpg", "events/a.jpg", "events/b.jpg"
        ]
        assert table.image_ids == ("events/a.jpg", "events/b.jpg")
        first = table[0]
        assert (first.x, first.y, first.w, first.h) == (10, 20, 30, 40)

    def test_accepts_line_iterables(self, tmp_path):
        path = tmp_path / "faces.txt"
        path.write_text(LISTING)
        with open(path) as fh:
            parsed = parse_annotations(fh)
        assert len(parsed.records) == 3

    def test_crlf_lines(self):
        parsed = parse_annotations(LISTING.replace("\n", "\r\n").splitlines(True))
        assert len(parsed.records) == 3

    def test_extra_columns_ignored(self):
        parsed = parse_annotations("a.jpg\n1\n1 2 3 4 0 0 1 0 2 0\n")
        box = parsed.records[0]
        assert (box.x, box.y, box.w, box.h) == (1.0, 2.0, 3.0, 4.0)

    def test_blank_lines_between_groups(self):
        parsed = parse_annotations("a.jpg\n1\n1 1 4 4\n\n\nb.jpg\n1\n2 2 4 4\n")
        assert len(parsed.records) == 2

    def test_zero_count_placeholder_consumed(self):
        text = "empty.jpg\n0\n0 0 0 0 0 0 0 0 0 0\nnext.jpg\n1\n3 3 9 9\n"
        parsed = parse_annotations(text)
        assert len(parsed.records) == 1
        assert parsed.records.image_ids[parsed.records.image[0]] == "next.jpg"
        assert parsed.skipped == 1

    def test_image_index_follows_first_appearance(self):
        table = parse_annotations("a.jpg\n0\nb.jpg\n1\n1 1 4 4\na.jpg\n1\n2 2 4 4\n").records
        assert table.image_ids == ("a.jpg", "b.jpg")
        assert table.image.tolist() == [1, 0]

    def test_zero_count_without_placeholder(self):
        parsed = parse_annotations("empty.jpg\n0\nnext.jpg\n1\n3 3 9 9\n")
        assert len(parsed.records) == 1
        assert parsed.skipped == 0

    def test_degenerate_box_skipped(self):
        parsed = parse_annotations("b.jpg\n1\n0 0 0 0\n")
        assert len(parsed.records) == 0
        assert parsed.skipped == 1
        assert face_lines(parsed) == 1

    def test_area_underflowing_to_zero_skipped(self):
        # 1e-300 * 1e-300 is 0.0, which would make every IoU 0/0.
        parsed = parse_annotations("d.jpg\n3\n8 8 1e-300 1e-300\n8 8 1e-150 1e-150\n8 8 1e-300 1e300\n")
        assert parsed.records.w.tolist() == [1e-150, 1e-300]
        assert parsed.skipped == 1

    # (w, h, kept): the area w * h must lie in (2**-1000, 2**1000).
    AREA_RANGE = [(1e-150, 1e-150, True), (1e-300, 1e300, True), (2.0**-500, 2.0**-499, True),
                  (2.0**499, 2.0**500, True), (1e150, 1e150, True), (1e-300, 1e-300, False),
                  (2.0**-500, 2.0**-500, False), (2.0**500, 2.0**500, False), (1e200, 1e200, False)]

    @pytest.mark.parametrize("w, h, kept", AREA_RANGE)
    def test_area_range_is_one_rule_for_listings_tables_and_boxes(self, w, h, kept):
        parsed = parse_annotations(f"a.jpg\n2\n0 0 {w!r} {h!r}\n1 1 4 4\n")
        assert (len(parsed.records), parsed.skipped) == (1 + kept, 1 - kept)
        columns = ([0.0], [0.0], [w], [h], [0], ("a.jpg",))
        if kept:
            assert RectBox(0.0, 0.0, w, h).w == FaceTable(*columns).w[0] == w
        else:
            with pytest.raises(ValueError, match="a scale in range"):
                RectBox(0.0, 0.0, w, h)
            with pytest.raises(ValueError, match="scales in range"):
                FaceTable(*columns)

    def test_parse_peak_stays_within_a_few_times_the_kept_columns(self):
        lines = []
        for i in range(200):
            lines += [f"img/{i}.jpg\n", "100\n"]
            lines += [f"{j % 97 * 7.5} {i * 3.25} {8 + j % 40} {9 + j % 33} 0 1 0 0 0 0\n" for j in range(100)]
        tracemalloc.start()
        try:
            table = parse_annotations(lines).records
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(getattr(table, name).nbytes for name in ("x", "y", "w", "h", "image"))
        assert len(table) == 20_000
        # About 3.7x at 20,000 faces; a list of each line's tokens made it 11x.
        assert peak < 5 * columns

    def test_negative_width_skipped(self):
        parsed = parse_annotations("c.jpg\n2\n5 5 -3 10\n5 5 3 10\n")
        assert len(parsed.records) == 1
        assert parsed.skipped == 1

    def test_counts_are_conserved(self):
        parsed = parse_annotations(LISTING + "d.jpg\n1\n0 0 0 0\n")
        assert face_lines(parsed) == len(parsed.records) + parsed.skipped == 4

    @pytest.mark.parametrize(
        "text,line",
        [
            ("a.jpg\n3\n1 1 5 5\n", 3),          # declared 3, listing ends after 1
            ("a.jpg\nxx\n", 2),                   # count is not an integer
            ("a.jpg\n-1\n", 2),                   # negative count
            ("a.jpg\n", 1),                       # no count line at all
            ("a.jpg\n1\n1 2 three 4\n", 3),       # non-numeric coordinate
            ("a.jpg\n1\n1 2 3\n", 3),             # too few numbers
            # The first error in file order wins:
            ("a.jpg\n1\n1 2 x 4\nb.jpg\nyy\n", 3),  # a bad face line before a bad count
            ("a.jpg\n3\n1 2 3\n4 4 4 4\n", 3),     # a short line in a truncated group
            ("a.jpg\n1\n1 1 4 4\nb.jpg\n-2\n", 5),  # a negative count after a valid group
        ],
    )
    def test_structural_errors_carry_line(self, text, line):
        with pytest.raises(AnnotationError) as err:
            parse_annotations(text)
        assert err.value.line == line
        assert f"line {line}:" in str(err.value)

    def test_empty_source(self):
        parsed = parse_annotations("")
        assert len(parsed.records) == 0 and parsed.skipped == 0

    # str.splitlines() breaks at each of these; a text-mode file does not.
    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                             ids=lambda brk: f"U+{ord(brk):04X}")
    def test_text_and_file_split_lines_alike(self, tmp_path, brk):
        text = f"a.jpg\n1\n10 20 30 40{brk}\nb.jpg\n1\n5 5 8 8{brk} 1\n"
        path = tmp_path / "faces.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            from_file = parse_annotations(fh)
        from_text = parse_annotations(text)
        assert from_text.skipped == from_file.skipped == 0
        assert from_text.records.image_ids == from_file.records.image_ids == ("a.jpg", "b.jpg")
        for name in ("x", "y", "w", "h", "image"):
            assert np.array_equal(getattr(from_text.records, name), getattr(from_file.records, name))


# Tokens for mangled listings: plain numbers, texts that Python's float
# reads its own way, and texts that are not numbers at all.
NUMBERS = ["1", "4", "16", "2.5", "30", "1E2"] * 3 + ["0", "-3", "-0", "1e-300", "1e300", "nan", "-inf",
                                                     "1e400", "1_0", "\u0663", "+7"]
NOT_NUMBERS = ["x", "1e", "0x10", "--1", "1__0", "#", '"1"']
COUNTS = ["0", "1", "2", "3", " +2 ", "00"] * 3 + ["-1", "1.5", "x", "1_0"]
# Token separators: str.split() splits on each; numpy's text reader must too.
SEPARATORS = [" "] * 6 + ["\t", "\xa0", "\x1c", "\u3000"]
BLANK_LINES = ["", " ", "\t \xa0", "\u3000"]


@st.composite
def mangled_listings(draw):
    """A listing of up to 4 groups, its lines ended by ``\n`` or ``\r\n``:
    repeated paths, blank lines, zero-count placeholders, counts that are
    negative, not integers or past the listing's end, and face lines with
    extra, too few or non-numeric tokens, tokens parted by non-ASCII or
    control whitespace or by a ``\r``, or no tokens at all.  A group may
    hold one face line fewer than its count, which truncates it or misreads
    the next group."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        lines += [""] * draw(st.integers(0, 1))
        lines.append(draw(st.sampled_from(["a.jpg", "b.jpg", " c d.jpg "])))
        count = draw(st.sampled_from(COUNTS))
        lines.append(count)
        declared = int(count) if count.strip().lstrip("+").isdigit() else 1
        if declared == 0 and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["0 0 0 0", "0 0 0 0 0 0", "0 0 0", "-0 0 0 0"])))
        for _ in range(declared - (draw(st.integers(0, 7)) == 0)):
            line = draw(st.lists(st.sampled_from(NUMBERS), min_size=4, max_size=6))
            seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(line), max_size=len(line)))
            mangle = draw(st.integers(0, 19))
            if mangle == 0:
                line = line[:3]
            elif mangle == 1:
                line[draw(st.integers(0, 3))] = draw(st.sampled_from(NOT_NUMBERS))
            elif mangle == 2:
                seps[draw(st.integers(0, len(line) - 2))] = "\r"
            lines.append(draw(st.sampled_from(BLANK_LINES)) if mangle == 3
                         else "".join(t + sep for t, sep in zip(line, seps))[:-1])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def parse_outcome(parse, source):
    """Bit patterns of the parsed columns with the image ids and skip count,
    or the line and message of the AnnotationError."""
    try:
        parsed = parse(source)
    except AnnotationError as exc:
        return exc.line, str(exc)
    table = parsed.records
    columns = [getattr(table, name) for name in ("x", "y", "w", "h", "image")]
    return [(c.dtype.str, c.tobytes()) for c in columns], table.image_ids, parsed.skipped


class TestBatchParse:
    """``parse_annotations`` converts face lines with numpy's text reader,
    falling back to the per-line rule; the listing parsed one line at a time
    (``per_line_parse``) is its oracle."""

    @settings(max_examples=250, deadline=None)
    @given(text=mangled_listings())
    def test_equals_the_per_line_parse(self, text):
        # The last source keeps a \r inside a line, as a file opened with newline="\n" does.
        for source in (text, text.splitlines(True), io.StringIO(text, newline="\n").readlines()):
            assert parse_outcome(parse_annotations, source) == parse_outcome(per_line_parse, source)

    @pytest.mark.parametrize("text", ["a.jpg\n2\n1_0 2 3 4\n\u0663 1e400 nan 4\n",
                                      "a.jpg\n1\n1 2 3 4 x\nb.jpg\n1\n0x1 2 3 4\n"])
    def test_python_float_rules(self, text):
        assert parse_outcome(parse_annotations, text) == parse_outcome(per_line_parse, text)

    @pytest.fixture
    def per_line_calls(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return per_line_values(*args)

        per_line_values = dataset._per_line_values
        monkeypatch.setattr(dataset, "_per_line_values", spy)
        return calls

    def test_plain_ascii_listing_never_takes_the_per_line_rule(self, per_line_calls):
        golden = (DATA / "golden_faces.txt").read_text()
        # A WIDER-style face-less image: a count of 0 and one all-zero placeholder line.
        text = golden + "empty.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n"
        for source in (text, text.splitlines(True), text.replace("\n", "\r\n").splitlines(True)):
            assert parse_outcome(parse_annotations, source) == parse_outcome(per_line_parse, source)
        assert per_line_calls == []
        without = parse_annotations(golden)
        parsed = parse_annotations(text)
        assert parsed.skipped == without.skipped + 1
        assert parsed.records.image_ids == (*without.records.image_ids, "empty.jpg")
        parse_annotations("a.jpg\n1\n1_0 2 3 4\n")  # the spy sees a fallback
        assert len(per_line_calls) == 1

    def test_bytes_lines_take_the_per_line_rule(self, per_line_calls):
        # numpy would decode bytes as Latin-1 and split on \x1c or \xa0, which bytes.split() keeps.
        text = (DATA / "golden_faces.txt").read_text()
        as_bytes = parse_outcome(parse_annotations, [ln.encode() for ln in text.splitlines(True)])
        assert len(per_line_calls) == 1
        columns, image_ids, skipped = parse_outcome(parse_annotations, text)
        assert as_bytes == (columns, tuple(path.encode() for path in image_ids), skipped)

    @settings(max_examples=100, deadline=None)
    @given(text=mangled_listings())
    def test_bytes_lines_return_or_raise_an_annotation_error(self, text):
        try:
            parse_annotations(text.encode().splitlines(True))
        except AnnotationError:
            pass

    @pytest.mark.parametrize("line, message", [(b"1 2 x 4\n", "non-numeric face coordinates in b'1 2 x 4'"),
                                               (b"1 2 4\n", "face line needs at least 4 numbers, got b'1 2 4'")])
    def test_bytes_face_line_errors(self, line, message):
        with pytest.raises(AnnotationError, match=f"^line 3: {message}$") as err:
            parse_annotations([b"a.jpg\n", b"1\n", line])
        assert err.value.line == 3

    @pytest.mark.parametrize("text, line, blank", [("a.jpg\n1\n\n", 3, ""), ("a.jpg\n2\n \n\t\n", 3, " "),
                                                  ("a.jpg\n1\n\u3000\r\nb.jpg\n0\n", 3, "\u3000"),
                                                  ("a.jpg\n2\n1 2 3 4\n  \n", 4, "  "),
                                                  ("a.jpg\n3\n\n\n\n", 3, "")])
    def test_blank_face_lines_raise_without_a_warning(self, text, line, blank):
        # numpy's reader warns "input contained no data" when it reads no row,
        # and reads one row as a 1-D array unless told otherwise.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = parse_outcome(parse_annotations, text)
        assert outcome == parse_outcome(per_line_parse, text)
        assert outcome == (line, f"line {line}: face line needs at least 4 numbers, got {blank!r}")


# Face lines for the reader contract: each separator str.split() knows,
# line breaks and texts the reader must not read as a row, tokens float()
# reads its own way, too few tokens and no tokens at all.
READER_LINES = (
    [f"1{sep}2{sep}3{sep}4{sep}5" for sep in ("\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u3000", " \t")]
    + ["1 2\r3 4", "1 2 3 4\r5 6 7 8", "1 2 3 4\r\n", "1 2 3 4\n", "# 1 2 3 4", "1 2 3 4 # x", '"1" 2 3 4',
       "1 2 3 4\x00", "1 2 3\x00 4"]
    + [f"{token} 2 3 4" for token in ("1_0", "\u0663", "\uff11", "nan", "-NaN", "Infinity", "-inf", "1e400",
                                      "1e-320", "-0", "+5", "4.", ".5", "1E2", "0x10", "1e", "")]
    + ["1 2 3", "1 2 3\n", "", " ", "\t\xa0\u3000", "\n"]
)


def reader_row(line):
    """The bit pattern of the one row numpy's text reader reads from
    ``line``, or None when it raises, warns or reads another row count."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt([line], np.float64, comments=None, usecols=(0, 1, 2, 3), ndmin=2)
    except (ValueError, Warning):
        return None
    return rows.tobytes() if rows.shape == (1, 4) else None


def per_line_row(line):
    """The bit pattern of the per-line rule's row, or None when it fails."""
    head = line.split(None, 4)[:4]
    try:
        return np.array([float(t) for t in head], np.float64).tobytes() if len(head) == 4 else None
    except ValueError:
        return None


class TestReaderContract:
    """What ``parse_annotations`` takes from numpy's text reader must equal
    the per-line rule bit for bit: for every face line the reader either
    gives up (raises, warns, or reads no row or more than one) or reads
    exactly the bits of ``float()`` of ``split(None, 4)[:4]``."""

    @pytest.mark.parametrize("line", READER_LINES, ids=ascii)
    def test_reader_gives_up_or_reads_the_per_line_bits(self, line):
        assert reader_row(line) in (None, per_line_row(line))

    def test_reader_reads_plain_numbers(self):
        # The fast path is worth having only if the common lines take it.
        for line in ("1 2 3 4", "50.5 60.25 6 7 0 1", "-0 nan inf 1e-320", "1\xa02\x1c3\u30004\r\n"):
            assert reader_row(line) == per_line_row(line) is not None

    def test_one_call_over_many_lines_reads_each_line_alone(self):
        lines = [line for line in READER_LINES if reader_row(line) is not None]
        rows = np.loadtxt(lines, np.float64, comments=None, usecols=(0, 1, 2, 3), ndmin=2)
        assert rows.tobytes() == b"".join(per_line_row(line) for line in lines)


def l16_layout(plane=256.0, divisor=1):
    spec = AnchorSpec(scales=(16.0,), base_stride=16.0, stride_divisor=divisor)
    return build_layout(spec, plane, plane)


class TestBucketStats:
    def test_perfect_faces(self):
        layout = l16_layout(64.0)
        report = bucket_stats([RectBox(0.0, 0.0, 16.0, 16.0)], layout)
        b = 2  # scale 16 lands in [16, 32)
        assert report.counts[b] == 1
        assert report.mean_max_iou[b] == 1.0
        assert report.recall[b] == 1.0
        lo, hi = bucket_bounds(report.edges)
        assert (lo[b], hi[b]) == (16.0, 32.0)
        assert sum(report.counts) == 1

    def test_boundary_scale_goes_to_upper_bucket(self):
        layout = l16_layout(64.0)
        report = bucket_stats([RectBox(0.0, 0.0, 8.0, 8.0)], layout)
        assert report.counts[1] == 1  # [8, 16), not [0, 8)
        assert report.counts[0] == 0

    def test_empty_buckets_are_nan(self):
        layout = l16_layout(64.0)
        report = bucket_stats([RectBox(0.0, 0.0, 16.0, 16.0)], layout)
        assert math.isnan(report.mean_max_iou[0])
        assert math.isnan(report.recall[0])
        assert report.counts[0] == 0

    def test_records_and_boxes_agree(self):
        layout = l16_layout(64.0)
        boxes = [RectBox(3.0, 5.0, 16.0, 16.0), RectBox(20.0, 9.0, 40.0, 40.0)]
        table = parse_annotations("x.jpg\n2\n3 5 16 16\n20 9 40 40\n").records
        assert bucket_stats(boxes, layout) == bucket_stats(table, layout)

    def test_recall_never_rises_with_tau(self):
        layout = l16_layout(128.0)
        rng = np.random.default_rng(3)
        boxes = [
            RectBox(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 16.0, 16.0)
            for _ in range(200)
        ]
        taus = [0.2, 0.4, 0.6, 0.8]
        recalls = [bucket_stats(boxes, layout, tau=t).recall[2] for t in taus]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_single_bucket_mode(self):
        layout = l16_layout(64.0)
        report = bucket_stats([RectBox(0, 0, 16, 16), RectBox(0, 0, 100, 100)], layout, edges=())
        assert report.counts == (2,)
        assert bucket_bounds(report.edges) == ((0.0,), (math.inf,))

    def test_more_anchors_never_hurt(self):
        """Adding a shifted sub-lattice keeps every anchor of the base grid."""
        rng = np.random.default_rng(14)
        plain = build_layout(AnchorSpec(scales=(16.0,), base_stride=16.0), 128.0, 128.0)
        dense = build_layout(
            AnchorSpec(scales=(16.0,), base_stride=16.0, shifts_per_scale={16.0: 1}),
            128.0, 128.0,
        )
        boxes = [
            RectBox(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 16.0, 16.0)
            for _ in range(300)
        ]
        a = bucket_stats(boxes, plain, edges=())
        b = bucket_stats(boxes, dense, edges=())
        assert b.mean_max_iou[0] > a.mean_max_iou[0]

    def test_validation(self):
        layout = l16_layout(64.0)
        with pytest.raises(ValueError):
            bucket_stats([], layout)
        with pytest.raises(ValueError):
            bucket_stats([RectBox(0, 0, 4, 4)], layout, tau=0.0)
        with pytest.raises(ValueError):
            bucket_stats([RectBox(0, 0, 4, 4)], layout, edges=(16.0, 8.0))
        with pytest.raises(ValueError):
            bucket_stats([RectBox(0, 0, 4, 4)], layout, edges=(-4.0,))


def uniform_small_faces(n, seed):
    """l=16 faces with centers uniform over whole periods of strides 16 and 8."""
    rng = np.random.default_rng(seed)
    cx = rng.uniform(64.0, 192.0, size=n)
    cy = rng.uniform(64.0, 192.0, size=n)
    return [RectBox(float(a - 8.0), float(b - 8.0), 16.0, 16.0) for a, b in zip(cx, cy)]


class TestAgainstTheory:
    def test_uniform_small_faces_hit_the_predicted_mean(self):
        faces = uniform_small_faces(10_000, seed=60)
        report = bucket_stats(faces, l16_layout(), edges=())
        predicted = emo_closed_form(EmoQuery(face_side=16.0, anchor_stride=16.0)).value
        x, y, w, h = np.array([[b.x, b.y, b.w, b.h] for b in faces]).T
        from anchorlap.matching import max_overlap_values

        vals = max_overlap_values(l16_layout(), x, y, w, h)
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(faces))
        assert abs(report.mean_max_iou[0] - predicted) <= 3.0 * se

    def test_halving_the_stride_raises_small_face_means(self):
        faces = uniform_small_faces(4_000, seed=61)
        a = bucket_stats(faces, l16_layout(divisor=1), edges=())
        b = bucket_stats(faces, l16_layout(divisor=2), edges=())
        assert b.mean_max_iou[0] > a.mean_max_iou[0]
        assert b.recall[0] > a.recall[0]


class TestJitterExperiment:
    def test_unit_offset_layout_reduces_to_bucket_stats(self):
        # effective stride 2 forces the offset to (0, 0) in every trial
        layout = build_layout(AnchorSpec(scales=(2.0,), base_stride=2.0), 16.0, 16.0)
        faces = [RectBox(3.0, 3.0, 2.0, 2.0), RectBox(7.5, 4.0, 2.0, 2.0)]
        report = jitter_experiment(faces, layout, trials=5, seed=0, edges=())
        plain = bucket_stats(faces, layout, edges=())
        assert report.counts == plain.counts
        assert report.mean_of_means[0] == plain.mean_max_iou[0]
        assert report.min_mean[0] == report.max_mean[0] == plain.mean_max_iou[0]

    def test_corner_pinned_faces_improve_under_jitter(self):
        layout = l16_layout(128.0)
        # centers on lattice cell corners: the unjittered worst case
        faces = [
            RectBox(cx - 8.0, cy - 8.0, 16.0, 16.0)
            for cx in (16.0, 32.0, 48.0) for cy in (16.0, 32.0, 48.0)
        ]
        plain = bucket_stats(faces, layout, edges=())
        report = jitter_experiment(faces, layout, trials=16, seed=2, edges=())
        assert plain.mean_max_iou[0] == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert report.mean_of_means[0] > plain.mean_max_iou[0]
        assert report.min_mean[0] >= plain.mean_max_iou[0]

    def test_deterministic_in_seed(self):
        layout = l16_layout(128.0)
        faces = uniform_small_faces(50, seed=64)
        a = jitter_experiment(faces, layout, trials=4, seed=9)
        b = jitter_experiment(faces, layout, trials=4, seed=9)
        c = jitter_experiment(faces, layout, trials=4, seed=10)
        assert a == b
        assert a != c

    def test_validation(self):
        layout = l16_layout(64.0)
        with pytest.raises(ValueError):
            jitter_experiment([RectBox(0, 0, 4, 4)], layout, trials=0, seed=0)

    def test_trials_over_the_cap_raise_before_any_is_drawn(self, monkeypatch):
        monkeypatch.setattr(dataset, "_jitter_offsets", None)  # a draw would fail on calling it
        with pytest.raises(ValueError, match=f"^{MAX_TRIALS + 1} trials are over the cap of {MAX_TRIALS}$"):
            jitter_experiment([RectBox(0, 0, 4, 4)], l16_layout(64.0), trials=MAX_TRIALS + 1, seed=0)

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            jitter_experiment([RectBox(0, 0, 4, 4)], l16_layout(64.0), trials=trials, seed=0)


# Specs over scales 16-64 whose smallest effective stride b gives
# floor(b/2)**2 distinct jitter offsets, keyed by that count.
OFFSET_SPECS = {
    1: dict(stride_divisor=4, shifts_per_scale={16.0: 3}),
    4: dict(stride_divisor=2, shifts_per_scale={16.0: 3}),
    16: dict(stride_divisor=2),
    25: dict(shifts_per_scale={16.0: 1}),
    64: dict(),
}


def offset_layout(distinct):
    spec = AnchorSpec(scales=(16.0, 32.0, 64.0), base_stride=16.0, **OFFSET_SPECS[distinct])
    return build_layout(spec, 256.0, 192.0)


def mixed_faces(n, seed):
    """Faces of sides 6-90 px (so the buckets above 128 stay empty),
    heights 0.9-1.3 times the width, on a 256x192 plane."""
    rng = np.random.default_rng(seed)
    w = np.exp(rng.uniform(math.log(6.0), math.log(90.0), size=n))
    h = w * rng.uniform(0.9, 1.3, size=n)
    x = rng.uniform(0.0, 256.0 - w)
    y = rng.uniform(0.0, 192.0 - h)
    return FaceTable(x, y, w, h, np.zeros(n, dtype=np.int64), ("",))


def golden_jitter_inputs():
    faces = parse_annotations((DATA / "golden_faces.txt").read_text()).records
    layout = build_layout(load_spec(str(DATA / "golden_spec.json")), *bounding_plane(faces))
    return faces, layout


@pytest.fixture
def kernel_passes(monkeypatch):
    """Records every ``dataset.bucket_stats`` call made through the module."""
    calls = []
    real = dataset.bucket_stats

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dataset, "bucket_stats", counting)
    return calls


@pytest.fixture
def shifted_tables(monkeypatch):
    """Records the offset of every shifted ``FaceTable`` built."""
    offsets = []
    real = FaceTable.translated

    def counting(self, dx, dy):
        offsets.append((dx, dy))
        return real(self, dx, dy)

    monkeypatch.setattr(FaceTable, "translated", counting)
    return offsets


@pytest.fixture
def stream_calls(monkeypatch):
    """Records every ``rng.stream`` call that jitter draws make."""
    calls = []
    real = matching.stream
    monkeypatch.setattr(matching, "stream", lambda *args: calls.append(args) or real(*args))
    return calls


class TestJitterOnePassPerOffset:
    """``jitter_experiment`` runs the kernel once per distinct offset, and its
    report equals one full ``bucket_stats`` per trial (``brute_jitter``)."""

    @pytest.mark.parametrize("trials", [1, 3, 16, 100])
    @pytest.mark.parametrize("distinct", sorted(OFFSET_SPECS))
    def test_equals_a_pass_per_trial(self, distinct, trials):
        layout = offset_layout(distinct)
        drawn = {c for t in range(100) for c in apply_jitter([], layout, 0, stream_index=t)[1]}
        assert len(drawn) ** 2 == distinct
        faces = mixed_faces(120, seed=distinct)
        got = jitter_experiment(faces, layout, trials, seed=trials)
        want = brute_jitter(faces, layout, trials, seed=trials)
        for field in dataclasses.fields(JitterReport):
            assert getattr(got, field.name) == getattr(want, field.name), field.name
        assert 1 <= got.distinct_offsets <= min(trials, distinct)

    def test_golden_spec_draws_each_of_its_four_offsets_once(self, kernel_passes):
        faces, layout = golden_jitter_inputs()
        report = jitter_experiment(faces, layout, trials=64, seed=3)
        assert len(kernel_passes) == report.distinct_offsets == 4

    def test_golden_spec_builds_one_shifted_table_per_offset(self, shifted_tables, stream_calls):
        faces, layout = golden_jitter_inputs()
        bound = int(min(effective_anchor_stride(layout.spec, s) for s in layout.spec.scales) // 2)
        drawn = [tuple(int(v) for v in stream(3, t).integers(0, bound, 2)) for t in range(64)]
        assert [apply_jitter(faces, layout, 3, stream_index=t)[1] for t in range(64)] == drawn
        shifted_tables.clear()
        stream_calls.clear()
        report = jitter_experiment(faces, layout, trials=64, seed=3)
        assert shifted_tables == list(dict.fromkeys(drawn))  # in order of first draw
        assert len(shifted_tables) == report.distinct_offsets == 4
        assert stream_calls == [(3, t) for t in range(64)]

    def test_single_offset_spec_makes_one_pass_of_unshifted_faces(self, kernel_passes):
        faces = mixed_faces(60, seed=7)
        layout = offset_layout(1)
        report = jitter_experiment(faces, layout, trials=16, seed=5)
        assert len(kernel_passes) == report.distinct_offsets == 1
        shifted = kernel_passes[0][0]
        assert all(np.array_equal(getattr(shifted, c), getattr(faces, c)) for c in "xywh")
        plain = bucket_stats(faces, layout)
        assert report.min_mean == report.max_mean == plain.mean_max_iou


class TestBoundingPlane:
    def test_covers_all_faces(self):
        faces = [RectBox(10.0, 5.0, 30.5, 60.0), RectBox(80.0, 2.0, 20.4, 10.0)]
        assert bounding_plane(faces) == (101.0, 65.0)

    def test_minimum_side(self):
        assert bounding_plane([RectBox(0, 0, 4, 4)]) == (64.0, 64.0)
        assert bounding_plane([]) == (64.0, 64.0)
