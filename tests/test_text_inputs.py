"""The outside text inputs: the CSV number grammar both CSV readers share,
mutation fuzzing of every reader that takes a file from outside, and payload
mutants through every command that computes on a cube or mask payload."""

import contextlib
import hashlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsadapt.cli import main
from hsadapt.cube_io import (
    HyperCube,
    LabelMask,
    read_cube,
    read_mask,
    read_targets_csv,
    write_cube,
    write_mask,
)
from hsadapt.errors import FormatError, HsadaptError, ValidationError
from hsadapt.spectral import parse_sensor_spec, parse_srf_table

REPO = Path(__file__).resolve().parents[1]
SPEC_B1 = parse_sensor_spec('{"sensor": "s", "bands": [{"name": "B1", "center_nm": 500}]}')


def srf_cell(cell: str) -> float:
    """The cell read as the only sensitivity of a one-row SRF table."""
    return parse_srf_table(f"wavelength_nm,B1\n500,{cell}\n", SPEC_B1).sensitivities[0][0]


def targets_cell(cell: str) -> float:
    """The cell read as the only value of a one-row targets CSV."""
    return float(read_targets_csv(f"sample_id,K\na,{cell}\n")[2][0, 0])


READERS = {"srf": srf_cell, "targets": targets_cell}
NOT_NUMBERS = ["1_0", "0x10", "١", "", "1d5", "1 2", "#1"]
NUMBERS = {" 1 ": "1", "+1": "+1", ".5": ".5", "1e-3": "1e-3", '"2"': "2", "-0": "-0"}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("cell", NOT_NUMBERS)
def test_cell_that_is_not_a_number_names_its_line(reader, cell):
    with pytest.raises(FormatError, match="line 2: non-numeric cell"):
        READERS[reader](cell)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("cell", sorted(NUMBERS))
def test_number_cell_reads_as_float_does(reader, cell):
    got = READERS[reader](cell)
    assert np.float64(got).tobytes() == np.float64(float(NUMBERS[cell])).tobytes()


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_number_is_a_validation_error(reader, cell):
    with pytest.raises(ValidationError, match="non-finite"):
        READERS[reader](cell)


@pytest.mark.parametrize(
    "parse, text",
    [
        (read_targets_csv, "sample_id,K\n\n\na,1\nb,x\n"),
        (lambda t: parse_srf_table(t, SPEC_B1), "wavelength_nm,B1\n\n\n490,1\n500,x\n"),
    ],
    ids=["targets", "srf"],
)
def test_errors_name_the_physical_line(parse, text):
    with pytest.raises(FormatError, match="line 5: non-numeric cell"):
        parse(text)
    with pytest.raises(FormatError, match="line 5: ragged row"):
        parse(text.replace(",x\n", ",1,2\n"))


CSV_READERS = {
    "targets": (read_targets_csv, "sample_id,K"),
    "srf": (lambda t: parse_srf_table(t, SPEC_B1), "wavelength_nm,B1"),
}


@pytest.mark.parametrize("name", sorted(CSV_READERS))
def test_line_numbers_count_blank_and_quoted_lines(name):
    """A reported line is the physical line that ends the row: blank lines
    count, and so does each line of a quoted cell that spans lines."""
    parse, header = CSV_READERS[name]
    text = f'{header}\n\n490,1\n\n\n"500",1\n\n510,"2\n"\n520,x\n'
    with pytest.raises(FormatError, match="line 10: non-numeric cell"):
        parse(text)
    with pytest.raises(FormatError, match="line 10: ragged row"):
        parse(text.replace("520,x", "520,1,1"))


@pytest.mark.parametrize("name", sorted(CSV_READERS))
def test_csv_faults_are_reported_in_grammar_order(name):
    """Every line is read before any fault is reported. So an unreadable line
    comes before a bad header or a ragged row, and a ragged row before a
    non-numeric cell on an earlier line."""
    parse, header = CSV_READERS[name]
    huge = "1" * 200_000  # past the csv module's field size limit
    with pytest.raises(FormatError, match="line 4: ragged row"):
        parse(f"{header}\n490,x\n500,1\n510,1,1\n520,y\n")
    with pytest.raises(FormatError, match="unreadable"):
        parse(f"{header}\n490,1,1\n500,{huge}\n")
    with pytest.raises(FormatError, match="unreadable"):
        parse(f"wrong,B1\n490,1\n500,{huge}\n")
    with pytest.raises(FormatError, match="line 3: non-numeric cell"):
        parse(f"{header}\n490,1\n500,x\n510,y\n")


def test_configs_srf_table_reads_as_float_does():
    text = (REPO / "configs" / "sentinel2_l2a_gaussian_srf.csv").read_text()
    spec = parse_sensor_spec(
        json.dumps({"sensor": "s", "bands": [{"name": "B02", "center_nm": 490}]})
    )
    rows = [line.split(",") for line in text.splitlines()[1:]]
    table = parse_srf_table(text, spec)
    assert table.grid == tuple(float(r[0]) for r in rows)
    assert table.sensitivities.tolist() == [[float(r[2]) for r in rows]]


@pytest.mark.parametrize(
    "parse, text",
    [
        (read_targets_csv, "sample_id,K,K\na,1,2\n"),
        (lambda t: parse_srf_table(t, SPEC_B1), "wavelength_nm,B1,B1\n490,0.5,0.1\n510,0.5,0.2\n"),
    ],
    ids=["targets", "srf"],
)
def test_repeated_column_name_is_format_error(parse, text):
    with pytest.raises(FormatError, match="header repeats column '(K|B1)'"):
        parse(text)


@pytest.mark.parametrize("utf", ["utf-16", "utf-32"])
def test_container_header_must_be_utf8(utf):
    stream = write_mask(LabelMask(labels=np.zeros((1, 1), dtype=np.int16)))
    hdr = json.dumps({"h": 1, "w": 1, "dtype": "i16le", "ignore_value": -1}).encode(utf)
    with pytest.raises(FormatError, match="not valid JSON"):
        read_mask(b"HSM1" + struct.pack("<Q", len(hdr)) + hdr + stream[-2:])


# ---------------------------------------------------------------- mutation fuzz

SPEC_TEXT = json.dumps({"sensor": "s", "bands": [{"name": "B1", "center_nm": 500},
                                                 {"name": "B2", "center_nm": 520.5}]})
SRF_TEXT = "wavelength_nm,B1,B2\n490,0.5,0\n500,1,0.25\n510,0.5,1\n520,0,0.5\n"
TARGETS_TEXT = "sample_id,K,pH\na,1,6.5\nb,2.5e1,7\n"
CUBE_STREAM = write_cube(HyperCube(
    data=np.linspace(0.0, 1.0, 16, dtype=np.float32).reshape(2, 2, 4),
    wavelengths=(490.0, 500.0, 510.0, 520.0)))
MASK_STREAM = write_mask(LabelMask(labels=np.asarray([[0, 1], [1, -1]], dtype=np.int16)))
SWAPS = [None, True, False, 0, -1, 1.5, 10**400, "x", "١", [], {}, [1, 2], {"a": 1}]


def header_span(stream: bytes) -> int:
    (hlen,) = struct.unpack("<Q", stream[4:12])
    return 12 + hlen


def swap_json_value(doc, draw):
    """`doc` with one value, picked by `draw`, replaced by a value of another type."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
        key = draw(st.sampled_from(keys))
        out = dict(doc) if isinstance(doc, dict) else list(doc)
        out[key] = swap_json_value(doc[key], draw)
        return out
    return draw(st.sampled_from([v for v in SWAPS if type(v) is not type(doc)]))


@st.composite
def mutants(draw, base: bytes, span: int, json_at: int | None):
    """`base` after one to three mutations inside its first `span` bytes.
    `json_at` is where a JSON document starts in `base`, if it holds one."""
    data = base
    for _ in range(draw(st.integers(1, 3))):
        span = min(span, len(data))
        kinds = ["truncate", "flip", "splice", "insert"]
        kind = draw(st.sampled_from(kinds + (["swap"] if json_at is not None else [])))
        i = draw(st.integers(0, span))
        if kind == "truncate":
            data = data[:i]
        elif kind == "flip" and i < len(data):
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
        elif kind == "splice":
            j = draw(st.integers(0, span))
            piece = data[min(i, j):max(i, j)]
            k = draw(st.integers(0, span))
            if draw(st.booleans()):
                data = data[:k] + piece + data[k:]
            else:
                data = data[:min(i, j)] + data[max(i, j):]
        elif kind == "insert":
            data = data[:i] + draw(st.sampled_from(["_", "١", "३", " "])).encode() + data[i:]
        elif kind == "swap":
            try:
                end = header_span(data) if json_at else len(data)
                doc = json.loads(data[json_at:end])
            except (ValueError, struct.error):
                continue  # an earlier mutation already broke the document
            text = json.dumps(swap_json_value(doc, draw)).encode()
            if json_at:  # a container: repack the header behind a new length
                text = data[:4] + struct.pack("<Q", len(text)) + text + data[end:]
            data = text
    return data


def decoded(data: bytes) -> str:
    return data.decode("utf-8", "replace")


# Each case: the unmutated input, how many leading bytes may be mutated, where
# its JSON starts (None: not JSON), the direct call, and the CLI argv with the
# mutant at the path `{m}`.
CASES = {
    "srf": (SRF_TEXT.encode(), 1 << 30, None,
            lambda b: parse_srf_table(decoded(b), parse_sensor_spec(SPEC_TEXT)),
            "adapt --method srf --srf {m} --sensor {d}/spec.json --input {d}/cube.hsc "
            "--output {d}/o.hsc"),
    "targets": (TARGETS_TEXT.encode(), 1 << 30, None, lambda b: read_targets_csv(decoded(b)),
                "metrics reg --pred {m} --truth {d}/targets.csv --train {d}/targets.csv"),
    "spec": (SPEC_TEXT.encode(), 1 << 30, 0, lambda b: parse_sensor_spec(decoded(b)),
             "adapt --method naive --sensor {m} --input {d}/cube.hsc --output {d}/o.hsc"),
    "cube": (CUBE_STREAM, header_span(CUBE_STREAM), 12, read_cube,
             "adapt --method naive --sensor {d}/spec.json --input {m} --output {d}/o.hsc"),
    "mask": (MASK_STREAM, header_span(MASK_STREAM), 12, read_mask,
             "metrics seg --pred-dir {d}/pred --truth-dir {d}/truth --classes 2"),
}


# Each input file of the work directory and its bytes; the mutant is written beside them.
INPUTS = {"spec.json": SPEC_TEXT.encode(), "srf.csv": SRF_TEXT.encode(),
          "targets.csv": TARGETS_TEXT.encode(), "cube.hsc": CUBE_STREAM,
          "pred/chip.hsm": MASK_STREAM, "truth/chip.hsm": MASK_STREAM}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for side in ("pred", "truth"):
        (d / side).mkdir()
    for name, content in INPUTS.items():
        (d / name).write_bytes(content)
    return d


def outputs(workdir) -> tuple[Path, Path]:
    """The output cube an `adapt` case writes and its manifest."""
    return workdir / "o.hsc", workdir / "o.hsc.manifest.json"


def run_in(workdir, argv: str, mutant: Path, stream: bytes, base: bytes) -> int:
    """Run `argv` on `mutant` holding `stream`, with no earlier output left, then
    put `base` back. Returns the exit code, 0 or 1, after checking what the run
    printed and left: an error line on failure, every input as it was, no
    output, manifest or temporary file after a failure, and a manifest whose
    output digest is the output's after a successful `adapt`."""
    for path in outputs(workdir):
        path.unlink(missing_ok=True)
    mutant.write_bytes(stream)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv.format(m=mutant, d=workdir).split())
        assert mutant.read_bytes() == stream
    finally:
        mutant.write_bytes(base)
    assert rc in (0, 1)
    assert rc == 0 or err.getvalue().startswith("hsadapt: error:")
    for name, content in INPUTS.items():
        assert (workdir / name).read_bytes() == content, name
    out, manifest = outputs(workdir)
    if rc == 1:
        assert not out.exists() and not manifest.exists()
        assert not list(workdir.rglob(".*.tmp"))
    elif argv.startswith("adapt"):
        digests = json.loads(manifest.read_text())["output_digests"]
        assert digests == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}
    return rc


@pytest.mark.parametrize("name", sorted(CASES))
def test_unmutated_inputs_are_accepted(workdir, name):
    base, _, _, parse, argv = CASES[name]
    parse(base)
    mutant = workdir / "pred" / "chip.hsm" if name == "mask" else workdir / "mutant"
    mutant.write_bytes(base)
    assert main(argv.format(m=mutant, d=workdir).split()) == 0


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_is_a_value_or_a_data_error(workdir, name, data):
    base, span, json_at, parse, argv = CASES[name]
    stream = data.draw(mutants(base, span, json_at))
    with contextlib.suppress(HsadaptError):
        parse(stream)
    mutant = workdir / "pred" / "chip.hsm" if name == "mask" else workdir / "mutant"
    run_in(workdir, argv, mutant, stream, base)


# ---------------------------------------------------------------- payload mutants

# Little-endian float32 bit patterns: quiet NaN (canonical, negative, with a
# payload), signalling NaN, ±inf, subnormals and values near the float32 limit.
SPECIAL_F32 = [
    struct.pack("<I", bits)
    for bits in (0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7FA00001, 0x7F800000, 0xFF800000)
] + [struct.pack("<f", x) for x in (1e-45, -1e-40, 3e38, -3e38)]


@st.composite
def payload_mutants(draw, base: bytes):
    """`base` with its header intact: a few 4-byte payload slots overwritten
    with special float32 values, then the stream cut or extended by a few bytes."""
    data = bytearray(base)
    start = header_span(base)
    slots = st.integers(0, (len(base) - start) // 4 - 1)
    for _ in range(draw(st.integers(0, 4))):
        at = start + 4 * draw(slots)
        data[at:at + 4] = draw(st.sampled_from(SPECIAL_F32))
    change = draw(st.one_of(st.just(0), st.integers(-7, 7)))  # the length kept half the time
    if change < 0:
        del data[change:]
    else:
        data += draw(st.binary(min_size=change, max_size=change))
    return bytes(data)


ADAPT = "adapt --sensor {d}/spec.json --input {m} --output {d}/o.hsc --method "
PAYLOAD_CASES = {
    "srf": ADAPT + "srf --srf {d}/srf.csv",
    "srf-allow-nan": ADAPT + "srf --srf {d}/srf.csv --allow-nan",
    "naive": ADAPT + "naive",
    "inspect": "inspect {m}",
    "seg": "metrics seg --pred-dir {d}/pred --truth-dir {d}/truth --classes 2",
}


@pytest.mark.parametrize("name", sorted(PAYLOAD_CASES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_payload_mutant_exits_0_or_1(workdir, name, data):
    if name == "seg":
        base = MASK_STREAM
        mutant = workdir / data.draw(st.sampled_from(["pred", "truth"])) / "chip.hsm"
    else:
        base, mutant = CUBE_STREAM, workdir / "mutant"
    rc = run_in(workdir, PAYLOAD_CASES[name], mutant, data.draw(payload_mutants(base)), base)
    if name == "srf" and rc == 0:
        out = read_cube(outputs(workdir)[0].read_bytes(), allow_non_finite=True)
        assert np.all(np.isfinite(out.data))
