"""On-disk formats: bitwise round trips at stated precision and typed
errors on malformed input."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgeo.errors import FormatError
from flowgeo.geometry import DepthMap, FlowField, Image
from flowgeo.io_formats import (
    read_csv,
    read_depth_pfm,
    read_flow,
    read_image_pnm,
    write_csv,
    write_depth_pfm,
    write_flow,
    write_image_pnm,
)

RNG = np.random.default_rng(21)


class TestFlowFiles:
    def test_round_trip_bitwise_at_f32(self, tmp_path):
        values = RNG.normal(scale=7.0, size=(4, 5, 2))
        path = tmp_path / "f.flo"
        write_flow(path, FlowField(values))
        back = read_flow(path)
        np.testing.assert_array_equal(back.values, values.astype("<f4").astype(np.float64))
        assert path.stat().st_size == 12 + 8 * 4 * 5

    def test_f32_values_round_trip_exactly(self, tmp_path):
        values = RNG.normal(size=(3, 3, 2)).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.flo"
        write_flow(path, FlowField(values))
        np.testing.assert_array_equal(read_flow(path).values, values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.flo"
        write_flow(path, FlowField(np.zeros((2, 2, 2))))
        data = bytearray(path.read_bytes())
        data[0:4] = b"XIEH"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_flow(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "f.flo"
        write_flow(path, FlowField(np.zeros((4, 5, 2))))
        path.write_bytes(path.read_bytes()[:-12])  # drop 3 floats
        with pytest.raises(FormatError, match="truncated"):
            read_flow(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "f.flo"
        with open(path, "wb") as fh:
            fh.write(b"PIEH")
            fh.write(np.array([10**6, 2], dtype="<i4").tobytes())
        with pytest.raises(FormatError, match="range"):
            read_flow(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.flo"
        write_flow(path, FlowField(np.zeros((2, 2, 2))))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            read_flow(path)

    def test_nonfinite_rejected_on_write(self, tmp_path):
        values = np.zeros((2, 2, 2))
        values[0, 0, 0] = np.inf
        flow = FlowField(values, mask=np.array([[False, True], [True, True]]))
        with pytest.raises(FormatError):
            write_flow(tmp_path / "f.flo", flow)


@pytest.mark.parametrize("kind", ["flow", "depth"])
def test_float32_overflow_rejected_without_warning(tmp_path, kind):
    # finite float64 values past the float32 range must end in the writer's
    # FormatError alone, with no RuntimeWarning from the cast
    if kind == "flow":
        write, field = write_flow, FlowField(np.full((2, 2, 2), 1e200))
    else:
        write, field = write_depth_pfm, DepthMap(np.full((2, 2), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="finite"):
            write(tmp_path / "out", field)


class TestPfm:
    def test_round_trip_bitwise(self, tmp_path):
        values = RNG.uniform(0.5, 9.0, (6, 7))
        path = tmp_path / "d.pfm"
        write_depth_pfm(path, DepthMap(values))
        back = read_depth_pfm(path)
        np.testing.assert_array_equal(back.values, values.astype("<f4").astype(np.float64))

    def test_constant_plane_round_trip(self, tmp_path):
        path = tmp_path / "d.pfm"
        write_depth_pfm(path, DepthMap(np.full((4, 4), 5.0)))
        np.testing.assert_array_equal(read_depth_pfm(path).values, 5.0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(FormatError, match="header"):
            read_depth_pfm(path)

    def test_big_endian_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\n2 2\n1.0\n" + b"\x00" * 16)
        with pytest.raises(FormatError, match="endian"):
            read_depth_pfm(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "d.pfm"
        payload = np.full(4, np.nan, dtype="<f4").tobytes()
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
        with pytest.raises(FormatError, match="NaN"):
            read_depth_pfm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "d.pfm"
        write_depth_pfm(path, DepthMap(np.full((4, 4), 2.0)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated"):
            read_depth_pfm(path)


class TestPnm:
    def test_gray_round_trip_quantized(self, tmp_path):
        values = RNG.uniform(0, 1, (5, 6))
        path = tmp_path / "i.pgm"
        write_image_pnm(path, Image(values))
        back = read_image_pnm(path)
        quantized = np.rint(values * 65535.0) / 65535.0
        np.testing.assert_allclose(back.values, quantized, atol=1e-12)
        # a second round trip is exact: quantization is idempotent
        write_image_pnm(path, back)
        np.testing.assert_array_equal(read_image_pnm(path).values, back.values)

    def test_color_round_trip(self, tmp_path):
        values = RNG.uniform(0, 1, (4, 4, 3))
        path = tmp_path / "i.ppm"
        write_image_pnm(path, Image(values))
        back = read_image_pnm(path)
        assert back.values.shape == (4, 4, 3)

    def test_endpoint_quantization(self, tmp_path):
        path = tmp_path / "i.pgm"
        write_image_pnm(path, Image(np.array([[1.0, 0.0]])))
        raw = path.read_bytes()
        assert raw.endswith(b"\xff\xff\x00\x00")  # 65535 then 0, big-endian

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P7\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            read_image_pnm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(FormatError, match="maxval"):
            read_image_pnm(path)


class TestCsv:
    def test_headers_and_rows(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": -0.125}]
        path = tmp_path / "t.csv"
        write_csv(path, rows)
        text = path.read_text()
        assert text == "a,b\n1,2.5\n3,-0.125\n"
        back = read_csv(path)
        assert len(back) == 2 and back[1]["b"] == "-0.125"

    def test_deterministic_bytes(self, tmp_path):
        rows = [{"x": 0.1 + 0.2, "y": 1 / 3}]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, rows)
        write_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float_repr_round_trips(self, tmp_path):
        value = float(np.pi) / 7.0
        path = tmp_path / "t.csv"
        write_csv(path, [{"v": value}])
        assert float(read_csv(path)[0]["v"]) == value

    def test_row_count_matches(self, tmp_path):
        rows = [{"i": i} for i in range(17)]
        path = tmp_path / "t.csv"
        write_csv(path, rows)
        assert len(read_csv(path)) == 17

    def test_columns_come_from_every_row(self, tmp_path):
        # a key that first appears in a later row still gets its column,
        # placed where it first appears; missing keys are empty cells
        rows = [{"a": 1, "error": "boom"}, {"a": 2, "error": "", "b": 0.5}, {"c": True, "a": 3}]
        path = tmp_path / "t.csv"
        write_csv(path, rows)
        assert path.read_text() == "a,error,b,c\n1,boom,,\n2,,0.5,\n3,,,1\n"

    def test_zero_rows_raise(self, tmp_path):
        with pytest.raises(FormatError):
            write_csv(tmp_path / "t.csv", [])


@given(
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_flow_round_trip_property(tmp_path_factory, h, w, seed):
    values = np.random.default_rng(seed).normal(scale=100.0, size=(h, w, 2))
    path = tmp_path_factory.mktemp("flo") / "f.flo"
    write_flow(path, FlowField(values))
    np.testing.assert_array_equal(
        read_flow(path).values, values.astype("<f4").astype(np.float64)
    )


# -- malformed bytes -------------------------------------------------------------


READERS = {"flow": read_flow, "depth": read_depth_pfm, "image": read_image_pnm}


def valid_file_bytes(kind, path):
    """A well-formed 16x12 file of each kind, as the writers produce it."""
    rng = np.random.default_rng(4)
    if kind == "flow":
        write_flow(path, FlowField(rng.normal(scale=3.0, size=(12, 16, 2))))
    elif kind == "depth":
        write_depth_pfm(path, DepthMap(rng.uniform(1.0, 5.0, (12, 16))))
    else:
        write_image_pnm(path, Image(rng.uniform(0.0, 1.0, (12, 16, 3))))
    return path.read_bytes()


_EDIT = st.tuples(
    st.sampled_from(["set", "insert", "delete", "truncate"]),
    st.one_of(st.integers(0, 40), st.integers(0, 2000)),  # headers sit up front
    st.binary(min_size=1, max_size=8),
)


def mutate(data, edits):
    data = bytearray(data)
    for op, position, chunk in edits:
        at = position % (len(data) + 1)
        if op == "set":
            data[at : at + len(chunk)] = chunk
        elif op == "insert":
            data[at:at] = chunk
        elif op == "delete":
            del data[at : at + len(chunk)]
        else:
            del data[at:]
    return bytes(data)


def assert_reads_or_format_error(kind, path):
    """The reader returns a value or raises FormatError, and warns about
    nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            READERS[kind](path)
        except FormatError:
            pass
    assert not caught


MAGIC_LENGTH = {"flow": 4, "depth": 3, "image": 3}


@pytest.mark.parametrize("kind", sorted(READERS))
@given(edits=st.lists(_EDIT, max_size=4),
       noise=st.one_of(st.none(), st.binary(max_size=120)))
@settings(max_examples=120, deadline=None)
def test_malformed_bytes_raise_only_format_error(tmp_path_factory, kind, edits, noise):
    # a valid file after a few byte edits, or its magic and random bytes
    path = tmp_path_factory.getbasetemp() / f"malformed-{kind}"
    valid = valid_file_bytes(kind, path)
    start = valid if noise is None else valid[: MAGIC_LENGTH[kind]] + noise
    path.write_bytes(mutate(start, edits))
    assert_reads_or_format_error(kind, path)


def f4(*values):
    return np.array(values, dtype="<f4").tobytes()


@pytest.mark.parametrize("kind, data", [
    pytest.param("flow", b"PIEH" + np.array([2, 1], "<i4").tobytes() + f4(np.nan, 0, 0, 0),
                 id="flow-nan"),
    pytest.param("flow", b"PIEH" + np.array([2, 1], "<i4").tobytes() + f4(0, np.inf, 0, 0),
                 id="flow-inf"),
    pytest.param("flow", b"PIEH" + np.array([100_000, 100_000], "<i4").tobytes() + f4(0, 0),
                 id="flow-claims-80GB"),
    pytest.param("depth", b"Pf\n2 1\n-1.0\n" + f4(np.inf, 1.0), id="depth-inf"),
    pytest.param("depth", b"Pf\n2 1\nnan\n" + f4(1.0, 1.0), id="depth-nan-scale"),
    pytest.param("depth", b"Pf\n100000 100000\n-1.0\n" + f4(1.0, 1.0), id="depth-claims-40GB"),
    pytest.param("image", b"P6\n100000 100000\n65535\n" + bytes(12), id="image-claims-60GB"),
    pytest.param("flow", b"PIEH" + np.array([2, 1], "<i4").tobytes() + f4(0, 0, 0, 0) + b"x",
                 id="flow-trailing-byte"),
    pytest.param("depth", b"Pf\n2 1\n-1.0\n" + f4(1.0, 1.0) + b"x", id="depth-trailing-byte"),
    pytest.param("depth", b"Pf\n2 1\n-1.0\n" + f4(1.0, 1.0) + b"\n", id="depth-trailing-newline"),
    pytest.param("image", b"P5\n2 1\n65535\n" + bytes(4) + b"x", id="image-trailing-byte"),
    pytest.param("image", b"P6\n1 1\n65535\n" + bytes(6) + b"\n", id="image-trailing-newline"),
])
def test_payloads_no_writer_makes_are_format_errors(tmp_path, kind, data):
    # non-finite payloads, headers that claim gigabytes the file lacks, and
    # bytes after the payload
    path = tmp_path / kind
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError):
            READERS[kind](path)
