"""Tests for the tensor.json encoder and the CSV ingest against references.

``reference_ingest_rows`` is a row-by-row ingest, kept as the reference
for ``ingest_csv`` and ``ingest_csv_text``: their results, error messages,
line numbers and warnings, whether a file takes the numpy read of plain
files or the record-by-record ``csv`` read.  The encoder is checked against
``canonical_json(tensor.to_json_dict())``, the generic encoding of the same
document.
"""

import csv
import io
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetkit import (
    EnsembleSpec,
    FacetIds,
    IngestError,
    RatingsTensor,
    ScaleSpec,
    build_ensemble,
    ingest_csv,
    ingest_csv_text,
)
from facetkit import ratings
from facetkit.ratings import canonical_json
from conftest import score_of


def reference_records(reader, source):
    """(line, record) for each record after the header; a record the csv
    module cannot read raises at its line, and text that is not UTF-8
    raises as the file's fault."""
    lineno = 2
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise IngestError(f"{source}: unreadable record at line {lineno} ({e})") from None
        except UnicodeDecodeError:
            raise IngestError(f"{source}: not UTF-8 text") from None
        yield lineno, row
        lineno += 1


def reference_ingest_rows(reader, scale_min, scale_max, source):
    try:
        header = next(reader, None)
    except csv.Error as e:
        raise IngestError(f"{source}: unreadable record at line 1 ({e})") from None
    except UnicodeDecodeError:
        raise IngestError(f"{source}: not UTF-8 text") from None
    if header is None:
        raise IngestError(f"{source}: empty file")
    header = [h.strip().lower() for h in header]
    if header != ["person_id", "item_id", "rater_id", "score"]:
        raise IngestError(
            f"{source}: expected header person_id,item_id,rater_id,score, got {','.join(header)}"
        )

    persons, items, raters = [], [], []
    pseen, iseen, rseen = set(), set(), set()
    rows = []
    seen = {}
    for lineno, row in reference_records(reader, source):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise IngestError(f"{source}: malformed row at line {lineno} (expected 4 fields)")
        person, item, rater, score_text = (c.strip() for c in row)
        if not person or not item or not rater:
            raise IngestError(f"{source}: malformed row at line {lineno} (blank identifier)")
        if score_text == "":
            score = None
        else:
            try:
                score = int(score_text)
            except ValueError:
                raise IngestError(
                    f"{source}: non-integer score {score_text!r} at line {lineno}"
                ) from None
        if (person, item, rater) in seen:
            raise IngestError(
                f"{source}: duplicate ({person},{item},{rater}) at line {lineno} "
                f"(first seen at line {seen[(person, item, rater)]})"
            )
        seen[(person, item, rater)] = lineno
        if person not in pseen:
            pseen.add(person)
            persons.append(person)
        if item not in iseen:
            iseen.add(item)
            items.append(item)
        if rater not in rseen:
            rseen.add(rater)
            raters.append(rater)
        rows.append((lineno, person, item, rater, score))

    if not rows:
        raise IngestError(f"{source}: no data rows")

    observed = [s for _, _, _, _, s in rows if s is not None]
    if not observed:
        raise IngestError(f"{source}: every score is missing")
    lo = min(observed) if scale_min is None else scale_min
    hi = max(observed) if scale_max is None else scale_max
    if lo >= hi:
        raise IngestError(
            f"{source}: cannot infer a scale from scores spanning [{lo}, {hi}]; "
            "declare scale_min/scale_max"
        )
    scale = ScaleSpec(lo, hi)

    ids = FacetIds(tuple(persons), tuple(items), tuple(raters))
    P, I, R = len(persons), len(items), len(raters)
    values = np.full((P, I, R), np.nan)
    declared = np.zeros((P, I, R), dtype=bool)
    for lineno, person, item, rater, score in rows:
        p, i, r = ids.person_index[person], ids.item_index[item], ids.rater_index[rater]
        if score is None:
            declared[p, i, r] = True
        else:
            if score < scale.min_score or score > scale.max_score:
                raise IngestError(f"{source}: score out of range at line {lineno}")
            values[p, i, r] = score
    if min(observed) > lo or max(observed) < hi:
        warnings.warn(
            f"observed scores span [{min(observed)}, {max(observed)}], narrower "
            f"than the declared scale [{lo}, {hi}]",
            stacklevel=3,
        )
    return RatingsTensor(scale, ids, values, declared)


# -- differential ingest ---------------------------------------------------

# raw ids: " pad " strips to "pad", so those two collide after stripping;
# "n\nl" spans two physical lines inside one quoted CSV record; a str may
# hold a lone surrogate, which has no UTF-8 encoding
IDS = ["p1", "p2", "é", "日本", "a,b", 'q"t', "x\\y", " pad ", "pad", "n\nl", "s\ud800"]
GOOD_SCORES = ["0", "1", "2", "3", "0", "1", "2", "3", "", " ", " 4 ", "+3", "٣", "1_0", "-1"]
BAD_SCORES = ["3.0", "x", "1e3", "--1", "3 4"]
SCALES = [(None, None), (None, None), (0, 4), (-1, 10), (1, 3)]
# no field of the drawn inputs is longer than FIELD_LIMIT characters; while
# ingest_outcome lowers the csv module's limit to it, csv.reader raises on
# the longer field of UNREADABLE, as it does at any limit on a longer one
FIELD_LIMIT = 16
UNREADABLE = "p" + "x" * FIELD_LIMIT
HEADER = "person_id,item_id,rater_id,score\n"
# plain ids: ASCII, no quote, comma or edge space; some longer than the 8
# bytes of one word, some alike in their first 8 bytes, one at the limit
PLAIN_IDS = ["p1", "p2", "x\\y", "a b", "abcdefgh", "abcdefghi", "student_000001",
             "student_000002", "student_0000010", "q" * FIELD_LIMIT]
PLAIN_CHARS = "".join(chr(b) for b in range(33, 127) if chr(b) not in '",')
PLAIN_SCORES = ["0", "1", "2", "3", "", "+3", "1_0", "-1"]


def csv_line(fields):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


@st.composite
def ingest_records(draw):
    """The header, the records and the scale of :func:`ingest_inputs`."""
    persons = draw(st.lists(st.sampled_from(IDS), min_size=2, max_size=4, unique=True))
    items = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=3, unique=True))
    raters = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=3, unique=True))
    grid = [(p, i, r) for p in persons for i in items for r in raters]
    cells = draw(st.permutations(grid))[:draw(st.integers(2, len(grid)))]
    lines = [csv_line([*cell, draw(st.sampled_from(GOOD_SCORES))]) for cell in cells]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(
            ["short", "long", "blank_id", "bad_score", "duplicate", "blank_line",
             "unreadable"]))
        at = draw(st.integers(0, len(lines)))
        cell = list(draw(st.sampled_from(grid)))
        if kind == "short":
            line = csv_line(cell)
        elif kind == "long":
            line = csv_line([*cell, "1", "2"])
        elif kind == "blank_id":
            cell[draw(st.integers(0, 2))] = draw(st.sampled_from(["", "  "]))
            line = csv_line([*cell, "1"])
        elif kind == "bad_score":
            line = csv_line([*cell, draw(st.sampled_from(BAD_SCORES))])
        elif kind == "duplicate":
            line = lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "unreadable":
            line = f"{UNREADABLE},i1,r1,1\n"
        else:
            line = draw(st.sampled_from(["\n", "   \n", ",,,\n", '""\n']))
        lines.insert(at, line)
    header = draw(st.sampled_from(["person_id,item_id,rater_id,score\n",
                                   " Person_ID , item_id,RATER_ID,score\n"]))
    return header, lines, draw(st.sampled_from(SCALES))


def ingest_inputs():
    """A ratings CSV of distinct cells with up to three injected faults."""
    return ingest_records().map(lambda d: (d[0] + "".join(d[1]), d[2]))


# a text file is decoded this many bytes at a time
DECODE_CHUNK = 8192


@st.composite
def undecodable_inputs(draw):
    """The bytes of an :func:`ingest_inputs` file with a latin-1 record put
    in, its lone surrogates kept as their bytes, and its scale: neither is
    UTF-8.  The record lies in the decoder's first chunk, or past it after
    a run of blank records that starts at a drawn record and ends near the
    chunk's end, so that the chunk ends among the blank records, among the
    records between them and the latin-1 one, or in that one."""
    header, lines, scale = draw(ingest_records())
    data = [line.encode("utf-8", "surrogatepass") for line in lines]
    at = draw(st.integers(0, len(data)))
    data.insert(at, "José,i1,r1,3\n".encode("latin-1"))
    if draw(st.booleans()):
        pad = draw(st.integers(0, at))
        before = len(header.encode()) + sum(map(len, data[:pad]))
        between = sum(map(len, data[pad:at]))
        # the chunk ends that many bytes after the blank records
        after = draw(st.integers(-64, between + 2))
        data.insert(pad, b"\n" * (DECODE_CHUNK - before - after))
    return header.encode() + b"".join(data), scale


@st.composite
def plain_inputs(draw):
    """A plain ratings CSV, the kind read without the csv module, with up to
    three injected faults that only later checks name, its lines all ending
    in a line feed, or all in a carriage return and a line feed."""
    ids = st.one_of(st.sampled_from(PLAIN_IDS), st.text(PLAIN_CHARS, min_size=1, max_size=4))
    persons = draw(st.lists(ids, min_size=2, max_size=4, unique=True))
    items = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    raters = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    grid = [(p, i, r) for p in persons for i in items for r in raters]
    cells = draw(st.permutations(grid))[:draw(st.integers(2, len(grid)))]
    lines = [f"{p},{i},{r},{draw(st.sampled_from(PLAIN_SCORES))}\n" for p, i, r in cells]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(["blank_id", "bad_score", "duplicate"]))
        cell = list(draw(st.sampled_from(grid)))
        if kind == "blank_id":
            cell[draw(st.integers(0, 2))] = ""
            line = f"{','.join(cell)},1\n"
        elif kind == "bad_score":
            line = f"{','.join(cell)},{draw(st.sampled_from(BAD_SCORES))}\n"
        else:
            line = lines[draw(st.integers(0, len(lines) - 1))]
        lines.insert(draw(st.integers(0, len(lines))), line)
    text = (HEADER + "".join(lines)).replace("\n", draw(st.sampled_from(["\n", "\r\n"])))
    return text, draw(st.sampled_from(SCALES))


def ingest_outcome(ingest, scale):
    """The tensor of ``ingest(*scale)``, or the exception type and message,
    plus the warnings, with the csv module's field limit at FIELD_LIMIT."""
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                tensor = ingest(*scale)
            except Exception as e:  # the exception itself is the outcome compared
                result = (type(e), str(e))
            else:
                result = (tensor, tensor.to_json_text(),
                          type(tensor.scale.min_score), type(tensor.scale.max_score))
    finally:
        csv.field_size_limit(limit)
    return result, [(w.category, str(w.message)) for w in caught]


def reference_outcome(f, scale, source):
    """The reference's outcome on the open text ``f``, read with ``newline=""``."""
    return ingest_outcome(lambda *s: reference_ingest_rows(csv.reader(f), *s, source), scale)


def assert_same_outcome(text, scale):
    """``ingest_csv_text`` on ``text``, and ``ingest_csv`` on a file of it
    in UTF-8 where it has one, against the reference."""
    got = ingest_outcome(lambda *s: ingest_csv_text(text, *s), scale)
    assert got == reference_outcome(io.StringIO(text, newline=""), scale, "<text>")
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return got
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ratings.csv"
        path.write_bytes(data)
        with open(path, encoding="utf-8", newline="") as f:
            expected = reference_outcome(f, scale, str(path))
        assert ingest_outcome(lambda *s: ingest_csv(path, *s), scale) == expected
    return got


def is_plain(text):
    """Whether ingest reads ``text`` without the csv module, at FIELD_LIMIT."""
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        return ratings._plain_read(text.encode("utf-8", "surrogatepass")) is not None
    finally:
        csv.field_size_limit(limit)


class TestIngestMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(ingest_inputs())
    def test_random_files(self, case):
        assert_same_outcome(*case)

    @settings(max_examples=300, deadline=None)
    @given(undecodable_inputs())
    def test_random_files_not_utf8(self, case):
        # the read ends where the decoder meets the byte, so a fault on a
        # line read before it still wins
        data, scale = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ratings.csv"
            path.write_bytes(data)
            with open(path, encoding="utf-8", newline="") as f:
                expected = reference_outcome(f, scale, str(path))
            assert ingest_outcome(lambda *s: ingest_csv(path, *s), scale) == expected

    @settings(max_examples=300, deadline=None)
    @given(plain_inputs())
    def test_random_plain_files(self, case):
        # the numpy read meets every fault that the checks after it name
        assert is_plain(case[0])
        assert_same_outcome(*case)

    @pytest.mark.parametrize("rows", [
        ["p1,i1,r1,3", "student_000001,i1,r1,", "p1,i2,r1,0"],
        ["p1,i1,r1,3", "p1,i1,r2,x", "p1,i1,r1,3"],
    ])
    def test_plain_file_never_calls_csv_reader(self, tmp_path, rows):
        for newline in ("\n", "\r\n"):
            text = (HEADER + "\n".join(rows) + "\n").replace("\n", newline)
            path = tmp_path / "plain.csv"
            path.write_bytes(text.encode("utf-8"))
            with open(path, encoding="utf-8", newline="") as f:
                from_file = reference_outcome(f, (0, 6), str(path))
            from_text = reference_outcome(io.StringIO(text, newline=""), (0, 6), "<text>")
            with mock.patch.object(csv, "reader",
                                   side_effect=AssertionError("csv.reader called")):
                assert ingest_outcome(lambda *s: ingest_csv_text(text, *s), (0, 6)) == from_text
                assert ingest_outcome(lambda *s: ingest_csv(path, *s), (0, 6)) == from_file

    @pytest.mark.parametrize("text", [
        pytest.param(HEADER + '"p1",i1,r1,3\np1,i1,r2,2\n', id="quote"),
        # a header ending in \n, records in \r\n
        pytest.param(HEADER + "p1,i1,r1,3\r\np1,i1,r2,2\r\n", id="CR"),
        pytest.param((HEADER + "p1,i1,r1,3\np1,i1,r2,2\n").replace("\n", "\r"), id="lone-CR"),
        # \r\n line ends, and one \r more inside a field
        pytest.param((HEADER + "p1,i1,r1,3\n").replace("\n", "\r\n") + "p\r2,i1,r1,3\r\n",
                     id="CRLF-and-lone-CR"),
        pytest.param((HEADER + "p1,i1,r1,3\n\np1,i1,r2,2\n").replace("\n", "\r\n"),
                     id="CRLF-blank-line"),
        pytest.param(HEADER + "p\x001,i1,r1,3\np1,i1,r2,2\n", id="NUL"),
        # str.strip removes \x0b, so the two p1 collide
        pytest.param(HEADER + "p1\x0b,i1,r1,3\np1,i1,r1,2\n", id="VT"),
        pytest.param(HEADER + "p1,i1,r1,3\n\np1,i1,r2,2\n", id="blank-line"),
        pytest.param(HEADER + "p1,i1,r1,3\np1,i1,r2\n", id="short-row"),
        pytest.param(HEADER + "p1,i1,r1,3\np1,i1,r2,2,4\n", id="long-row"),
        # as many commas as four-field rows have, in the wrong places
        pytest.param(HEADER + "p1,i1,r1\np1,i1,r2,2,4\n", id="short-then-long-row"),
        pytest.param(HEADER + f"p1,i1,r1,3\n{UNREADABLE},i1,r1,3\n", id="over-the-limit"),
        pytest.param(HEADER + "é,i1,r1,3\np1,i1,r2,2\n", id="non-ASCII"),
        pytest.param(HEADER + "p1,i1,r1,3\n p1,i1,r1,2\n", id="leading-space"),
        pytest.param(HEADER + "p1,i1,r1,3\np1,i1,r2,2 \n", id="trailing-space"),
        pytest.param(HEADER + "p1,i1,r1,3\np1,i1,r2,2", id="no-final-newline"),
        pytest.param(HEADER + "p1,i1,r1,3\np2", id="no-final-newline-nor-comma"),
        pytest.param(" person_id ,item_id,rater_id,score\np1,i1,r1,3\n", id="spaced-header"),
        pytest.param("PERSON_ID,item_id,rater_id,score\np1,i1,r1,3\n", id="upper-header"),
    ])
    def test_fallback_reads_as_the_csv_path(self, text):
        assert not is_plain(text)
        assert_same_outcome(text, (0, 6))

    @pytest.mark.parametrize("rows, message", [
        # the earliest faulty line wins, whatever the fault
        (["p1,i1,r1,3", "p1,i1,r2,2", "p1,i1,r1,4", "p2,i1,r1,x"],
         "duplicate (p1,i1,r1) at line 4 (first seen at line 2)"),
        (["p1,i1,r1,3", "p1,i1,r2,3.0", "p1,i1,r1,4", "p2,i1,r1"],
         "non-integer score '3.0' at line 3"),
        (["p1,i1,r1,3", ",i1,r2,3", "p1,i1,r1,4.5"],
         "malformed row at line 3 (blank identifier)"),
        (["p1,i1,,3", " ,i1,r1,2"], "malformed row at line 2 (blank identifier)"),
        (["p1,i1,r1,3", "p1,i1", "p1,i1,r1,3"],
         "malformed row at line 3 (expected 4 fields)"),
        # on one line: field count, blank identifier, score text, duplicate
        (["p1,i1,r1,3", "p1,i1,r1,x"], "non-integer score 'x' at line 3"),
        (["p1,i1,r1,3", "p1, ,r1,x"], "malformed row at line 3 (blank identifier)"),
        (["p1,i1,r1,3", " ,i1,r1,3,9"], "malformed row at line 3 (expected 4 fields)"),
        # blank records count as lines; a quoted newline does not
        (["p1,i1,r1,3", "", "   ", '"p\n2",i1,r1,2', "p1,i1,r1,1"],
         "duplicate (p1,i1,r1) at line 6 (first seen at line 2)"),
        # then the file-level checks, in order
        (["", "  "], "no data rows"),
        (["p1,i1,r1,", "p1,i1,r2,9x"], "non-integer score '9x' at line 3"),
        (["p1,i1,r1,", "p1,i1,r2,"], "every score is missing"),
        # per-line faults come before the out-of-range check
        (["p1,i1,r1,9", "p1,i1,r2,x"], "non-integer score 'x' at line 3"),
        (["p1,i1,r1,3", "p1,i1,r2,9", "p2,i1,r1,-1"], "score out of range at line 3"),
    ])
    def test_fault_precedence(self, rows, message):
        text = "person_id,item_id,rater_id,score\n" + "\n".join(rows) + "\n"
        (kind, got), _ = assert_same_outcome(text, (0, 6))
        assert kind is IngestError
        assert got == f"<text>: {message}"

    @pytest.mark.parametrize("rows, message", [
        # an unreadable record ranks as a wrong field count on its line
        (["p1,i1,r1,3", "p1,i1", f"{UNREADABLE},i1,r1,3"],
         "malformed row at line 3 (expected 4 fields)"),
        (["p1,i1,r1,3", f"{UNREADABLE},i1,r1,3", "p1,i1"], "unreadable record at line 3 ("),
        (["p1,i1,r1,x", f"{UNREADABLE},i1,r1,3"], "non-integer score 'x' at line 2"),
        (["p1,i1,r1,3", "p1,i1,r1,3", f"{UNREADABLE},i1,r1,3"],
         "duplicate (p1,i1,r1) at line 3 (first seen at line 2)"),
        (["p1,i1,r1,3", "", f"{UNREADABLE},i1,r1,3"], "unreadable record at line 4 ("),
    ])
    def test_unreadable_record(self, rows, message):
        text = "person_id,item_id,rater_id,score\n" + "\n".join(rows) + "\n"
        (kind, got), _ = assert_same_outcome(text, (0, 6))
        assert kind is IngestError
        assert got.startswith(f"<text>: {message}")

    def test_unreadable_header(self):
        (kind, got), _ = assert_same_outcome(f"person_id,{UNREADABLE},rater_id,score\n",
                                             (0, 6))
        assert kind is IngestError
        assert got.startswith("<text>: unreadable record at line 1 (")

    def test_score_text_is_parsed_by_int(self):
        text = "person_id,item_id,rater_id,score\np1,i1,r1,+3\np1,i1,r2, 4 \np2,i1,r1,1_0\n"
        (tensor, *_), warned = assert_same_outcome(text, (None, None))
        assert np.array_equal(tensor.values[:, 0, :], [[3.0, 4.0], [10.0, np.nan]],
                              equal_nan=True)
        assert tensor.scale == ScaleSpec(3, 10)
        assert warned == []


class TestIngestFile:
    def test_field_over_the_csv_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("person_id,item_id,rater_id,score\np1,i1,r1,3\n"
                        f"p{'x' * csv.field_size_limit()},i1,r1,3\n", encoding="utf-8")
        with pytest.raises(IngestError) as e:
            ingest_csv(path)
        assert str(e.value) == (f"{path}: unreadable record at line 3 (field larger "
                                f"than field limit ({csv.field_size_limit()}))")

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_line_ends_read_alike_from_file_and_text(self, tmp_path, newline):
        rows = ["person_id,item_id,rater_id,score", '"p\rq",i1,r1,3', "p2,i1,r1,1",
                "p2,i1,r2,"]
        text = newline.join(rows) + newline
        path = tmp_path / "line_ends.csv"
        path.write_bytes(text.encode("utf-8"))
        from_text = ingest_csv_text(text)
        assert ingest_csv(path) == from_text == ingest_csv_text("\n".join(rows) + "\n")
        assert from_text.ids.persons == ("p\rq", "p2")
        assert score_of(from_text, "p\rq", "i1", "r1") == 3.0

    def test_latin1_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("person_id,item_id,rater_id,score\nJosé,i1,r1,3\n".encode("latin-1"))
        with pytest.raises(IngestError) as e:
            ingest_csv(path)
        assert str(e.value) == f"{path}: not UTF-8 text"

    @pytest.mark.parametrize("row, message", [
        ("p1,i1", "malformed row at line 3 (expected 4 fields)"),
        ("p2,i1,r1,x", "non-integer score 'x' at line 3"),
        (",i1,r1,3", "malformed row at line 3 (blank identifier)"),
        ("p1,i1,r1,2", "duplicate (p1,i1,r1) at line 3 (first seen at line 2)"),
    ])
    @pytest.mark.parametrize("rows_between", [0, 2500])
    def test_fault_before_a_latin1_byte(self, tmp_path, row, message, rows_between):
        # 2500 rows put the byte some 30 KB past line 3, beyond the decoder's
        # first chunk, so line 3 is read first and its fault wins; with none
        # between, the decoder meets the byte before the header is read
        rows = ["p1,i1,r1,3", row, *(f"q{k},i1,r1,3" for k in range(rows_between)),
                "José,i1,r1,3"]
        path = tmp_path / "latin1.csv"
        path.write_bytes((HEADER + "\n".join(rows) + "\n").encode("latin-1"))
        with open(path, encoding="utf-8", newline="") as f:
            expected = reference_outcome(f, (0, 6), str(path))
        (kind, got), _ = outcome = ingest_outcome(lambda *s: ingest_csv(path, *s), (0, 6))
        assert outcome == expected
        assert kind is IngestError
        assert got == f"{path}: {message if rows_between else 'not UTF-8 text'}"

    def test_memory_per_row(self, tmp_path):
        """A 100 000-row crossed file (2500 x 4 x 10) of short ids: the numpy
        read keeps its positions in 32 bits and codes one column at a time."""
        assert_memory_per_row(tmp_path, "p{}")

    def test_memory_per_row_long_ids(self, tmp_path):
        """The same file with person ids of 14 bytes, each coded in two words."""
        assert_memory_per_row(tmp_path, "student_{:06d}")

    def test_memory_per_row_csv_read(self, tmp_path):
        """The short-id file with a quoted header, which only the csv read
        takes, peaks under 120 traced bytes a row: the read holds one record
        at a time, where holding them all takes over 250 a row by itself."""
        path = tmp_path / "quoted_header.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write('"person_id",item_id,rater_id,score\n')
            f.writelines(f"p{p},i{i},r{r},{(p + i + r) % 7}\n"
                         for p in range(2500) for i in range(4) for r in range(10))
        tracemalloc.start()
        try:
            tensor = ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensor.n_cells == 100_000
        assert peak < 120 * tensor.n_cells, peak / tensor.n_cells


def assert_memory_per_row(tmp_path, person):
    """Ingest of a 100 000-row crossed file, read without the csv module,
    peaks under 200 traced bytes a row."""
    path = tmp_path / "crossed.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(HEADER)
        f.writelines(f"{person.format(p)},i{i},r{r},{(p + i + r) % 7}\n"
                     for p in range(2500) for i in range(4) for r in range(10))
    tracemalloc.start()
    try:
        with mock.patch.object(csv, "reader", side_effect=AssertionError("csv.reader called")):
            tensor = ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tensor.n_cells == 100_000
    assert peak < 200 * tensor.n_cells, peak / tensor.n_cells


# -- the tensor.json encoder -----------------------------------------------

def edge_tensors():
    """Tensors at the corners of the encoder: escapes, missing cells, floats."""
    nan = np.nan
    ids = FacetIds(("Zoë", "日本", "🙂"), ('a"b', "c\\d"), ("e,f", " r 2"))
    scores = np.array([[[3, nan], [nan, 0]], [[6, 1], [nan, nan]], [[nan, nan], [2, 5]]])
    declared = np.isnan(scores) & (np.arange(12).reshape(3, 2, 2) % 3 == 0)
    means = np.array([[[10 / 3, 2.5], [3.0, nan]], [[nan, 0.1], [6.0, 1 / 7]]])
    empty = np.full((1, 1, 2), nan)
    return {
        "ids_with_escapes": RatingsTensor(ScaleSpec(0, 6), ids, scores, declared),
        "non_integer_means": RatingsTensor(
            ScaleSpec(0, 6), FacetIds(("p1", "p2"), ("i1", "i2"), ("E1", "E2")),
            means, np.isnan(means), integer_scores=False),
        "negative_scale": RatingsTensor(
            ScaleSpec(-3, 3), FacetIds(("p1",), ("i1",), ("r1", "r2", "r3")),
            np.array([[[-3.0, -0.0, 3.0]]])),
        "non_string_ids": RatingsTensor(
            ScaleSpec(1, 2), FacetIds((1, 2), (1.5,), (True,)), np.array([[[1.0]], [[2.0]]])),
        "no_listed_cells": RatingsTensor(ScaleSpec(0, 3), FacetIds(("p",), ("i",), ("a", "b")),
                                         empty),
        "no_listed_cells_float": RatingsTensor(
            ScaleSpec(0, 3), FacetIds(("p",), ("i",), ("a", "b")), empty, integer_scores=False),
        "only_declared_missing": RatingsTensor(
            ScaleSpec(0, 3), FacetIds(("p",), ("i",), ("a", "b")), empty, np.isnan(empty)),
    }


class TestJsonEncoder:
    @pytest.mark.parametrize("name", list(edge_tensors()))
    def test_bytes_match_the_generic_encoder(self, name):
        tensor = edge_tensors()[name]
        text = tensor.to_json_text()
        assert text == canonical_json(tensor.to_json_dict())
        back = RatingsTensor.from_json_dict(json.loads(text))
        assert back == tensor
        assert back.integer_scores == tensor.integer_scores
        assert back.to_json_text() == text

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", list(edge_tensors()))
    def test_blocks_keep_the_bytes(self, name, block):
        # 1, 2 and 4 divide the 8 listed cells of the first two tensors, so
        # their last block ends at the last cell; 3 leaves a short last block
        tensor = edge_tensors()[name]
        with mock.patch.object(ratings, "_JSON_BLOCK_CELLS", block):
            chunks = list(tensor.json_chunks())
            assert tensor.to_json_text() == "".join(chunks)
        n = tensor.listed_codes.size
        assert len(chunks) == (-(-n // block) + 2 if n else 1)
        assert "".join(chunks) == canonical_json(tensor.to_json_dict())

    def test_blocks_of_a_simulated_study(self, paper_tensor):
        text = paper_tensor.to_json_text()
        for block in (480, 1000):   # 3 blocks of the 1440 cells, and 2 uneven ones
            with mock.patch.object(ratings, "_JSON_BLOCK_CELLS", block):
                assert len(list(paper_tensor.json_chunks())) == -(-1440 // block) + 2
                assert paper_tensor.to_json_text() == text
        assert text == canonical_json(paper_tensor.to_json_dict())

    def test_empty_cells_and_key_order(self):
        text = edge_tensors()["no_listed_cells_float"].to_json_text()
        assert text.startswith('{\n  "cells": [],\n  "facets": {\n')
        assert '\n  },\n  "integer_scores": false,\n  "scale": {\n' in text

    def test_score_forms(self):
        cells = json.loads(edge_tensors()["non_integer_means"].to_json_text())["cells"]
        assert [row[3] for row in cells] == [10 / 3, 2.5, 3, None, None, 0.1, 6, 1 / 7]
        assert isinstance(cells[2][3], int)


# -- round trips -----------------------------------------------------------

ID_TEXT = st.text(alphabet='ab,"é日\\ -', min_size=1, max_size=4).filter(
    lambda s: s == s.strip())


@st.composite
def listed_tensors(draw, first_person_lists_all=False):
    """Small integer tensors with absent and declared-missing cells.

    Every person lists at least one cell and cell (0, 0, 0) is scored.
    With ``first_person_lists_all`` the first person lists every (item,
    rater) pair, so the ids of the person-major listing appear in tensor
    order and a CSV re-ingest rebuilds the same ids.
    """
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)))
    ids = FacetIds(*(draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))
                     for n in shape))
    lo = draw(st.integers(-2, 1))
    hi = lo + draw(st.integers(1, 6))
    # 0 absent, 1 declared missing, 2 scored
    kind = np.array(draw(st.lists(st.sampled_from([0, 1, 2, 2]),
                                  min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)
    kind[0, 0, 0] = 2
    if first_person_lists_all:
        kind[0][kind[0] == 0] = 1
    kind[kind.reshape(shape[0], -1).max(axis=1) == 0, 0, 0] = 1
    scores = np.array(draw(st.lists(st.integers(lo, hi), min_size=kind.size,
                                    max_size=kind.size)), float).reshape(shape)
    return RatingsTensor(ScaleSpec(lo, hi), ids, np.where(kind == 2, scores, np.nan), kind == 1)


class TestRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(listed_tensors(first_person_lists_all=True))
    def test_csv_tensor_json_tensor_csv(self, tensor):
        text = tensor.to_csv_text()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the observed range may be narrower
            again = ingest_csv_text(text, tensor.scale.min_score, tensor.scale.max_score)
        assert again == tensor
        back = RatingsTensor.from_json_dict(json.loads(again.to_json_text()))
        assert back == tensor
        assert back.to_csv_text() == text

    @settings(max_examples=200, deadline=None)
    @given(listed_tensors(), st.booleans(), st.data())
    def test_tensor_json_tensor(self, tensor, with_ensemble, data):
        if with_ensemble:
            members = data.draw(st.lists(st.sampled_from(tensor.ids.raters), min_size=1,
                                         unique=True))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # cells no member scored
                tensor = build_ensemble(tensor, EnsembleSpec("E#", members, "none"))
        text = tensor.to_json_text()
        assert text == canonical_json(tensor.to_json_dict())
        back = RatingsTensor.from_json_dict(json.loads(text))
        assert back == tensor
        assert back.integer_scores == tensor.integer_scores
        assert back.to_json_text() == text


class TestFromCells:
    ids = FacetIds(("p1", "p2"), ("i1",), ("r1", "r2"))

    def build(self, cells):
        return RatingsTensor.from_cells(ScaleSpec(0, 3), self.ids, cells)

    def test_unknown_identifier(self):
        with pytest.raises(KeyError) as e:
            self.build([("p1", "i1", "r1", 1), ("p1", "zz", "r9", 2)])
        assert e.value.args == ("unknown identifier 'zz'",)

    def test_duplicate_cell(self):
        with pytest.raises(IngestError) as e:
            self.build([("p1", "i1", "r1", 1), ("p2", "i1", "r1", None),
                        ("p1", "i1", "r1", 2), ("p9", "i1", "r1", 2)])
        assert str(e.value) == "duplicate cell ('p1', 'i1', 'r1')"

    def test_first_faulty_cell_wins(self):
        with pytest.raises(KeyError, match="'r7'"):
            self.build([("p1", "i1", "r1", 1), ("p1", "i1", "r7", 2), ("p1", "i1", "r1", 2)])

    def test_cells_fill_the_cube(self):
        tensor = self.build([("p2", "i1", "r2", 3), ("p1", "i1", "r2", None)])
        assert np.array_equal(tensor.values[:, 0, :], [[np.nan, np.nan], [np.nan, 3.0]],
                              equal_nan=True)
        assert tensor.declared_missing[:, 0, :].tolist() == [[False, True], [False, False]]

    def test_nan_score_raises(self):
        # Python's json reads the NaN literal as a float NaN, not as a blank
        text = ('{"cells": [["p1", "i1", "r1", 2], ["p2", "i1", "r1", NaN]], '
                '"facets": {"items": ["i1"], "persons": ["p1", "p2"], "raters": ["r1"]}, '
                '"scale": {"max_score": 3, "min_score": 0}}')
        with pytest.raises(IngestError) as e:
            RatingsTensor.from_json_dict(json.loads(text))
        assert str(e.value) == "NaN score in cell ('p2', 'i1', 'r1')"

    @pytest.mark.parametrize("cells, error, message", [
        # on one cell: unknown identifier, then duplicate, then NaN score
        ([("p1", "i1", "r1", 1), ("p1", "zz", "r1", np.nan)], KeyError, "'zz'"),
        ([("p1", "i1", "r1", 1), ("p1", "i1", "r1", float("nan"))], IngestError,
         "duplicate cell"),
        # otherwise the earliest faulty cell wins
        ([("p1", "i1", "r1", np.nan), ("p1", "zz", "r1", 1)], IngestError, "NaN score"),
        ([("p1", "i1", "r1", np.nan), ("p2", "i1", "r1", 1), ("p2", "i1", "r1", 1)],
         IngestError, "NaN score"),
        ([("p1", "zz", "r1", 1), ("p2", "i1", "r1", np.nan)], KeyError, "'zz'"),
    ])
    def test_nan_score_precedence(self, cells, error, message):
        with pytest.raises(error, match=message):
            self.build(cells)


def test_equality_compares_integer_scores():
    ids = FacetIds(("p1", "p2"), ("i1",), ("r1",))
    cube = np.array([[[1.0]], [[2.0]]])
    tensor = RatingsTensor(ScaleSpec(0, 3), ids, cube)
    floats = RatingsTensor(ScaleSpec(0, 3), ids, cube, integer_scores=False)
    assert tensor != floats
    assert tensor == RatingsTensor(ScaleSpec(0, 3), ids, cube.copy())
