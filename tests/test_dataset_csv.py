"""The dataset CSV loader and writer against the per-line versions they replaced.

`reference_load` and `reference_save` are the previous implementations, kept
as oracles. For any CSV text the whole-array loader must return bit-identical
arrays or raise the same error class for the same line; the writer must write
the same bytes. The float grammar is now numpy's, which differs from Python's
`float` in three token classes that are asserted separately and kept out of
the oracle's inputs: underscores, non-ASCII digits and U+001F padding.

The loader reads the file in blocks; a second oracle checks that tiny blocks
give the arrays or the error message of one block holding the whole file, and
tracemalloc guards bound the memory that loading and saving take.
"""

import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mice import data
from mice.data import Dataset, SyntheticSpec, generate, load_dataset, save_dataset
from mice.errors import DimensionMismatchError, InvalidInputError, MiceError, ParseError

INT64_MAX = 2**63 - 1


def reference_load(path):
    """The per-line loader this package shipped before the whole-array parse."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines()]
    if not lines:
        raise ParseError("line 1: empty dataset file")
    header = lines[0].split(",")
    has_truth = header[-1] == "truth"
    dim_columns = header[:-1] if has_truth else header
    if not dim_columns:
        raise ParseError("line 1: no data columns in header")
    for i, name in enumerate(dim_columns):
        if name != f"dim_{i}":
            raise ParseError(f"line 1: expected column dim_{i}, found {name!r}")
    d = len(dim_columns)
    expected_fields = d + (1 if has_truth else 0)
    points = []
    truth = [] if has_truth else None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != expected_fields:
            raise DimensionMismatchError(
                f"line {lineno}: expected {expected_fields} fields, found {len(fields)}"
            )
        try:
            row = [float(x) for x in fields[:d]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not all(np.isfinite(row)):
            raise ParseError(f"line {lineno}: non-finite value")
        points.append(row)
        if has_truth:
            raw_label = fields[d].strip()
            if not re.fullmatch(r"\d+", raw_label) or int(raw_label) < 1:
                raise ParseError(f"line {lineno}: truth label {raw_label!r} is not a positive integer")
            truth.append(int(raw_label))
    if not points:
        raise ParseError("line 2: dataset has a header but no rows")
    pts = np.asarray(points, dtype=np.float64)
    return Dataset(pts, np.asarray(truth, dtype=np.int64) if has_truth else None)


def reference_save(dataset, path):
    """The per-row writer this package shipped before."""
    d = dataset.points.shape[1]
    header = ",".join(f"dim_{i}" for i in range(d))
    if dataset.truth is not None:
        header += ",truth"
    lines = [header]
    for i in range(dataset.points.shape[0]):
        row = ",".join(repr(float(x)) for x in dataset.points[i])
        if dataset.truth is not None:
            row += f",{int(dataset.truth[i])}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def error_line(exc) -> int:
    return int(re.match(r"line (\d+): ", str(exc)).group(1))


def outcome(load, path):
    """('ok', points, truth) or ('error', class, line number)."""
    try:
        ds = load(path)
    except MiceError as exc:
        return "error", type(exc), error_line(exc)
    return "ok", ds.points, ds.truth


def assert_same_outcome(new, ref):
    assert new[0] == ref[0], (new, ref)
    if new[0] == "error":
        assert new[1:] == ref[1:]
        return
    assert new[1].dtype == ref[1].dtype == np.float64
    assert new[1].tobytes() == ref[1].tobytes()  # bit for bit, -0.0 and subnormals included
    if ref[2] is None:
        assert new[2] is None
    else:
        np.testing.assert_array_equal(new[2], ref[2])
        assert new[2].dtype == np.int64


# -- the oracle ------------------------------------------------------------------------

PAD = st.sampled_from(["", "", "", " ", "\t", "\xa0", "　"])
GOOD_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"[+-]?([0-9]{1,4}\.?[0-9]{0,4}|\.[0-9]{1,4})([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)
BAD_FLOAT = st.sampled_from(
    ["", " ", "abc", "1.2.3", "0x10", "nan(1)", "--1", "1e", "e5", "1 2", "1\x00", "'1'", "1j"]
)
NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "-nan", "Infinity", "+INF", "1e400", "-1e999"])
GOOD_LABEL = st.one_of(
    st.integers(1, 40).map(str),
    st.integers(1, INT64_MAX).map(str),
    st.integers(1, 9).map(lambda n: "00" + str(n)),
    st.sampled_from(["١", "٣٠"]),  # Arabic-Indic digits are \d
)
BAD_LABEL = st.sampled_from(["0", "000", "-1", "+1", "1.5", "1e2", "one", "", " ", "1 2", "1_0"])
HUGE_LABEL = st.sampled_from([str(INT64_MAX + 1), "99999999999999999999", "1" * 30])


@st.composite
def csv_lines(draw):
    d = draw(st.integers(1, 3))
    has_truth = draw(st.booleans())
    header = ",".join(f"dim_{i}" for i in range(d)) + (",truth" if has_truth else "")
    lines = [header]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(
            ["good"] * 6 + ["blank", "bad_float", "non_finite", "fields", "bad_label", "huge_label"]
        ))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t ", "\xa0"])))
            continue
        floats = [draw(GOOD_FLOAT) for _ in range(d)]
        label = draw(GOOD_LABEL)
        if kind in ("bad_float", "non_finite"):
            floats[draw(st.integers(0, d - 1))] = draw(BAD_FLOAT if kind == "bad_float" else NON_FINITE)
        elif kind == "bad_label" and has_truth:
            label = draw(BAD_LABEL)
        elif kind == "huge_label" and has_truth:
            label = draw(HUGE_LABEL)
        fields = [draw(PAD) + f + draw(PAD) for f in floats]
        if has_truth:
            fields.append(draw(PAD) + label + draw(PAD))
        if kind == "fields":
            fields = fields[:-1] if draw(st.booleans()) else fields + [draw(GOOD_FLOAT)]
        lines.append(",".join(fields))
    return lines


@st.composite
def csv_texts(draw):
    lines = draw(csv_lines())
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def first_huge_label_line(text: str) -> int | None:
    lines = text.splitlines()
    if not lines[0].endswith(",truth"):
        return None
    for lineno, line in enumerate(lines[1:], start=2):
        label = line.split(",")[-1].strip()
        if label.isdecimal() and int(label) > INT64_MAX:
            return lineno
    return None


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_loader_matches_the_per_line_reference(tmp_path, text):
    path = tmp_path / "oracle.csv"
    path.write_bytes(text.encode("utf-8"))
    new = outcome(load_dataset, path)
    try:
        ref = outcome(reference_load, path)
    except OverflowError:  # the reference converts labels to int64 after the last line
        ref = None
    huge = first_huge_label_line(text)
    if huge is not None and (ref is None or ref[2] > huge):
        # A label beyond int64 is now a bad line like any other.
        assert new == ("error", ParseError, huge)
        return
    assert_same_outcome(new, ref)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_per_line_scan_agrees_with_the_whole_array_parse(tmp_path, text):
    """The scan that names bad lines accepts exactly what the fast path accepts."""
    path = tmp_path / "scan.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = outcome(load_dataset, path)
    with mock.patch.object(data, "_parse_rows", return_value=None):
        scanned = outcome(load_dataset, path)
    assert_same_outcome(scanned, fast)


LINE_BREAK = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"])
NOT_UTF8 = st.sampled_from([b"\xff", b"\xe9", b"\xc3(", b"\xe2\x80", b"\xed\xa0\x80"])


@st.composite
def csv_files(draw):
    """CSV bytes with mixed line breaks, sometimes no break after the last line, and
    sometimes a byte sequence that is not UTF-8."""
    lines = draw(csv_lines())
    breaks = [draw(LINE_BREAK) for _ in lines]
    if draw(st.booleans()):
        breaks[-1] = ""
    raw = "".join(line + end for line, end in zip(lines, breaks)).encode("utf-8")
    if draw(st.integers(0, 2)) == 0:  # often late, after a bad row it must outrank
        at = draw(st.integers(0, len(raw)) | st.integers(len(raw) // 2, len(raw)))
        raw = raw[:at] + draw(NOT_UTF8) + raw[at:]
    return raw


def load_result(path):
    """(points bytes, truth bytes or None), or (error class, message)."""
    try:
        ds = load_dataset(path)
    except MiceError as exc:
        return type(exc), str(exc)
    return ds.points.tobytes(), None if ds.truth is None else ds.truth.tobytes()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=csv_files(), block=st.integers(1, 64))
def test_small_read_blocks_load_like_one_block(tmp_path, raw, block):
    """Any read block size gives the arrays, or the error class and message, of one
    block holding the whole file."""
    path = tmp_path / "blocks.csv"
    path.write_bytes(raw)
    assert len(raw) < data._READ_BYTES
    whole = load_result(path)
    with mock.patch.object(data, "_READ_BYTES", block):
        assert load_result(path) == whole


class TestReadBlocks:
    def write(self, tmp_path, raw):
        path = tmp_path / "blocks.csv"
        path.write_bytes(raw)
        return path

    def test_bad_utf8_in_a_later_block_outranks_a_bad_row(self, tmp_path):
        path = self.write(tmp_path, b"dim_0\n0.5\nabc\n" + b"0.25\n" * 50 + b"0.5\xff\n")
        with mock.patch.object(data, "_READ_BYTES", 8):
            with pytest.raises(ParseError, match="line 54: not valid UTF-8"):
                load_dataset(path)

    def test_a_bad_header_waits_for_the_rest_of_the_file(self, tmp_path):
        path = self.write(tmp_path, b"x\n" + b"0.25\n" * 50)
        with mock.patch.object(data, "_READ_BYTES", 8):
            with pytest.raises(ParseError, match="line 1: expected column dim_0, found 'x'"):
                load_dataset(path)

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
    def test_line_numbers_count_across_blocks(self, tmp_path, block):
        path = self.write(tmp_path, b"dim_0,truth\r\n" + b"0.5,1\r\n\r\n" * 40 + b"0.5,0\r\n")
        with mock.patch.object(data, "_READ_BYTES", block):
            with pytest.raises(ParseError, match="line 82: truth label '0'"):
                load_dataset(path)

    def test_a_line_longer_than_a_block(self, tmp_path):
        width = 300
        header = ",".join(f"dim_{i}" for i in range(width))
        row = ",".join(["0.125"] * width)
        path = self.write(tmp_path, f"{header}\n{row}\n{row}".encode())
        with mock.patch.object(data, "_READ_BYTES", 100):
            np.testing.assert_array_equal(load_dataset(path).points, np.full((2, width), 0.125))


BOM = "\ufeff".encode("utf-8")


class TestByteOrderMark:
    """One UTF-8 byte-order mark at the start of the file is ignored, as editors such
    as Notepad and Excel write it; the loader counts lines as without it."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 20])
    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
    def test_loads_the_same_arrays(self, tmp_path, block, with_truth):
        dataset = generate(SyntheticSpec(3, 4, 5, 10.0, seed=1))
        if not with_truth:
            dataset = Dataset(dataset.points)
        save_dataset(dataset, tmp_path / "plain.csv")
        (tmp_path / "bom.csv").write_bytes(BOM + (tmp_path / "plain.csv").read_bytes())
        with mock.patch.object(data, "_READ_BYTES", block):
            result = load_result(tmp_path / "bom.csv")
        assert isinstance(result[0], bytes), result
        assert result == load_result(tmp_path / "plain.csv")

    @pytest.mark.parametrize("block", [1, 1 << 20])
    def test_a_bad_byte_names_its_line(self, tmp_path, block):
        path = tmp_path / "bom.csv"
        with mock.patch.object(data, "_READ_BYTES", block):
            path.write_bytes(BOM + b"dim_0\n0.5\n0.5\n")
            np.testing.assert_array_equal(load_dataset(path).points, [[0.5], [0.5]])
            path.write_bytes(BOM + b"dim_0\n0.5\n0.5\xff\n")
            with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
                load_dataset(path)

    def test_only_one_mark_is_ignored(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + BOM + b"dim_0\n0.5\n")
        message = "line 1: expected column dim_0, found '\\ufeffdim_0'"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_dataset(path)


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    """20000 points in 16 dims with truth: 6.3 MiB on disk, 2.7 MiB parsed."""
    path = tmp_path_factory.mktemp("large") / "large.csv"
    dataset = generate(SyntheticSpec(4, 16, 5000, 10.0, seed=7))
    save_dataset(dataset, path)
    return dataset, path


def traced_peak(thunk) -> int:
    thunk()  # warm numpy's and the allocator's caches
    tracemalloc.start()
    try:
        thunk()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_generate_peaks_near_its_points():
    """generate normalizes in row blocks: no (N, d) temporary beside the points."""
    spec = SyntheticSpec(4, 16, 5000, 50.0)
    points_bytes = spec.num_clusters * spec.points_per_cluster * spec.input_dim * 8
    assert traced_peak(lambda: generate(spec)) <= 1.5 * points_bytes


def test_load_peaks_under_eight_mib(large_csv):
    """About one read block plus the parsed arrays, not the whole file as Python objects."""
    dataset, path = large_csv
    assert traced_peak(lambda: load_dataset(path)) < 8 * 2**20
    back = load_dataset(path)
    assert back.points.tobytes() == dataset.points.tobytes()
    np.testing.assert_array_equal(back.truth, dataset.truth)


def test_save_peaks_under_two_mib(large_csv, tmp_path):
    dataset, path = large_csv
    assert traced_peak(lambda: save_dataset(dataset, tmp_path / "again.csv")) < 2 * 2**20
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


# Tokens mix digits, signs, exponents, padding and the characters on which numpy's
# float parser and Python's float() disagree.
TOKEN = st.text(
    alphabet=st.sampled_from(list("0123456789.eE+-_ \tinfaINFAty") + ["\xa0", "\x1f", "١", "\x00"]),
    min_size=1,
    max_size=8,
)


@settings(max_examples=1000, deadline=None)
@given(token=TOKEN)
def test_scan_float_grammar_is_numpys(token):
    try:
        expected = repr(np.loadtxt([token], delimiter=",", comments=None, ndmin=2)[0, 0])
    except ValueError:
        expected = "error"
    try:
        got = repr(np.float64(data._to_float(token)))
    except ValueError:
        got = "error"
    assert got == expected


class TestGrammarChanges:
    """Where numpy's float grammar differs from Python's float()."""

    def load(self, tmp_path, text):
        path = tmp_path / "grammar.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    def test_underscore_float_is_a_parse_error(self, tmp_path):
        path = self.load(tmp_path, "dim_0,dim_1\n0.5,0.25\n1_0,0.5\n")
        assert reference_load(path).points[1, 0] == 10.0
        with pytest.raises(ParseError, match=r"line 3: could not convert string to float: '1_0'"):
            load_dataset(path)

    def test_non_ascii_digits_are_a_parse_error(self, tmp_path):
        path = self.load(tmp_path, "dim_0\n١.5\n")
        assert reference_load(path).points[0, 0] == 1.5
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_unit_separator_pads_like_whitespace(self, tmp_path):
        path = self.load(tmp_path, "dim_0,dim_1\n\x1f0.5,0.25\x1f\n")
        with pytest.raises(ParseError, match="line 2"):
            reference_load(path)
        np.testing.assert_array_equal(load_dataset(path).points, [[0.5, 0.25]])


class TestHostileInput:
    def test_non_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"dim_0,dim_1\n0.5,0.25\r\n0.5,1\xff\n")
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            load_dataset(path)

    def test_non_utf8_right_after_a_line_break(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"dim_0\n0.5\n\xe90.5\n")
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            load_dataset(path)

    def test_label_beyond_int64(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("dim_0,truth\n0.5,1\n0.5,99999999999999999999\n")
        with pytest.raises(ParseError, match="line 3: truth label '99999999999999999999' does not fit in int64"):
            load_dataset(path)

    def test_int64_max_label_loads(self, tmp_path):
        path = tmp_path / "max.csv"
        path.write_text(f"dim_0,truth\n0.5,{INT64_MAX}\n")
        assert load_dataset(path).truth.tolist() == [INT64_MAX]

    def test_label_longer_than_int_converts(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("dim_0,truth\n0.5," + "1" * 5000 + "\n")
        with pytest.raises(ParseError, match="line 2: truth label .* does not fit in int64"):
            load_dataset(path)


# -- the writer ----------------------------------------------------------------------

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456789.125]


@pytest.mark.parametrize("with_truth", [False, True])
def test_writer_bytes_match_the_per_row_writer(tmp_path, with_truth):
    points = np.array(EDGE_VALUES).reshape(-1, 1) * np.ones((1, 3))
    truth = np.arange(1, len(EDGE_VALUES) + 1) * (10**17) if with_truth else None
    ds = Dataset(points, truth)
    save_dataset(ds, tmp_path / "new.csv")
    reference_save(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = load_dataset(tmp_path / "new.csv")
    assert back.points.tobytes() == points.tobytes()


@pytest.mark.parametrize("shape", [(0, 2), (3, 1)])
def test_writer_bytes_match_on_small_shapes(tmp_path, shape):
    ds = Dataset(np.full(shape, 0.5))
    save_dataset(ds, tmp_path / "new.csv")
    reference_save(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


MATRICES = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(1, 4)),
    elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(points=MATRICES, data_=st.data())
def test_save_load_round_trip_is_bitwise(tmp_path, points, data_):
    truth = None
    if data_.draw(st.booleans()):
        truth = np.array(data_.draw(st.lists(
            st.integers(1, INT64_MAX), min_size=len(points), max_size=len(points)
        )), dtype=np.int64)
    ds = Dataset(points, truth)
    save_dataset(ds, tmp_path / "rt.csv")
    reference_save(ds, tmp_path / "ref.csv")
    assert (tmp_path / "rt.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    with mock.patch.object(data, "_scan_lines", side_effect=AssertionError("fast path failed")):
        back = load_dataset(tmp_path / "rt.csv")
    assert back.points.tobytes() == points.tobytes()
    if truth is None:
        assert back.truth is None
    else:
        np.testing.assert_array_equal(back.truth, truth)


@pytest.mark.parametrize(
    "points, truth",
    [
        ([["a"]], None),
        ([[1.0], [2.0, 3.0]], None),
        ([[1.0 + 1.0j]], None),
        ([[None]], None),
        ([[0.0], [1.0]], [1.5, 2]),
        ([[0.0], [1.0]], np.array([np.nan, 1.0])),
        ([[0.0], [1.0]], np.array([np.inf, 1.0])),
        ([[0.0], [1.0]], [1e30, 1.0]),
        ([[0.0], [1.0]], ["1", "2"]),
        ([[0.0], [1.0]], [True, False]),
        ([[np.nan, 1.0], [0.5, 0.5]], [1, 2]),
        ([[0.5, -np.inf]], None),
        ([[0.0], [1.0]], [0, 2]),
        ([[0.0], [1.0]], [-3, 2]),
        (np.zeros((2, 0)), None),
        (np.zeros((0, 0)), None),
    ],
    ids=[
        "string-point", "ragged-points", "complex-point", "none-point", "fractional-truth",
        "nan-truth", "inf-truth", "truth-beyond-int64", "string-truth", "bool-truth",
        "nan-point", "inf-point", "zero-truth", "negative-truth", "no-columns", "no-rows-no-columns",
    ],
)
def test_dataset_rejects_malformed_values(points, truth):
    """Non-numeric or non-finite points, points without columns, and non-integral,
    non-finite or non-positive truth are an InvalidInputError, not a numpy error, a
    silent truncation, a cast to garbage or a file that load_dataset refuses."""
    with pytest.raises(InvalidInputError):
        Dataset(points, truth)


def test_dataset_converts_integral_float_truth():
    ds = Dataset([[0.0], [1.0]], np.array([2.0, 1.0]))
    assert ds.truth.dtype == np.int64 and ds.truth.tolist() == [2, 1]
