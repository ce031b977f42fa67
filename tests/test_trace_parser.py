"""The trace parser against the streaming loop it replaced as the common path.

``generate_workload`` parses most trace files with numpy's C reader and
leaves the rest, and every error message, to a streaming ``csv.reader``
loop. ``oracle_trace`` below is that loop on its own. Every mutated trace
text must give the same requests, bit for bit and type for type, or the
same exception with the same message, through both. The parser's rows are
compared as ``Workload.requests()`` gives them.
"""

import csv
import io
import json
import math
import tempfile
from contextlib import redirect_stderr
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from studentpar import cli
from studentpar import servesim as sim


def oracle_trace(path, scale=1.0):
    """The streaming loop of ``generate_workload``'s trace branch, copied as it stands, with its
    rows kept as ``Request``s."""
    requests = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != ["arrival_ms", "length_tokens"]:
                raise ValueError(f"trace line 1: expected header arrival_ms,length_tokens, got {header}")
            last_t = -math.inf
            for lineno, row in enumerate(reader, start=2):
                try:
                    t, length = float(row[0]), int(row[1])
                except (ValueError, IndexError) as exc:
                    raise ValueError(f"trace line {lineno}: malformed row {row!r}") from exc
                if not math.isfinite(t):
                    raise ValueError(f"trace line {lineno}: arrival_ms must be finite, got {row[0]!r}")
                if not math.isfinite(t * scale):
                    raise ValueError(f"trace line {lineno}: arrival_ms times scale must be finite, "
                                     f"got {row[0]!r} * {scale!r}")
                if t < last_t:
                    raise ValueError(f"trace line {lineno}: arrival times must be nondecreasing")
                if not 1 <= length < 2**63:  # an int64, as the latency columns hold it
                    raise ValueError(f"trace line {lineno}: length must lie in [1, 2**63 - 1], got {row[1]!r}")
                last_t = t
                requests.append(sim.Request(len(requests), t * scale, length))
        except csv.Error as exc:
            raise ValueError(f"trace line {reader.line_num}: {exc}") from exc
    return requests


def outcome(parse, path, scale):
    """``repr`` of the requests (exact floats, and the types of every field), or the error."""
    try:
        return "ok", repr(parse(path, scale))
    except Exception as exc:  # the loop may raise ValueError or UnicodeDecodeError
        return type(exc).__name__, str(exc)


def parse(path, scale):
    return sim.generate_workload(sim.TraceFile(str(path), scale=scale), seed=0).requests()


# -- mutated trace texts ---------------------------------------------------------------

HEADER = "arrival_ms,length_tokens"
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
FIELD_MUTANTS = {  # what a mutated field becomes, given the field
    "quoted": lambda f: f'"{f}"',
    "hash": lambda f: f"#{f}",
    "underscore": lambda f: f[:1] + "_" + f[1:] if len(f) > 1 else f"1_{f}",
    "full_width": lambda f: f.translate(FULL_WIDTH),
    "padded": lambda f: f" {f}\t",
    "form_feed": lambda f: f"{f}\x0c",
    "unit_separator": lambda f: f"\x1f{f}",
    "no_break_space": lambda f: f"\xa0{f}",
    "nul": lambda f: f"{f}\x00",
    "plus": lambda f: f"+{f}",
    "minus": lambda f: f"-{f}",
    "empty": lambda f: "",
    "as_float": lambda f: f"{f}.0",
    "exponent": lambda f: f"{f}e0",
    "hex": lambda f: f"0x{f}",
}
SPECIAL_TIMES = ["1e400", "-1e400", "1e308", "1.7976931348623157e308", "nan", "inf", "-inf",
                 "1e-400", "-0.0", "0", "1e15", "9007199254740993"]
SPECIAL_LENGTHS = ["0", "-3", "5.0", str(2**63 - 1), str(2**63), str(2**64 + 7), "-" + str(2**63 + 1),
                   "007", "1_0", "５"]
LINE_MUTANTS = ["", " ", "\t", " \t ", "#", "# comment", "1.0", "1.0,2,3", "1.0,2,", ",", '"1.0",2',
                '"1.0\n",2', "\r"]


@st.composite
def trace_texts(draw):
    """A header and rows of a valid trace, then a few mutations, joined with chosen line ends."""
    n = draw(st.integers(0, 6))
    gaps = draw(st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=n, max_size=n))
    formats = draw(st.lists(st.sampled_from(["{:.6f}", "{!r}", "{:.3e}", "{:g}"]), min_size=n, max_size=n))
    rows = [[fmt.format(t), str(length)] for fmt, t, length in
            zip(formats, accumulate(gaps), draw(st.lists(st.integers(1, 300), min_size=n, max_size=n)))]
    lines = [HEADER] + [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(["field", "time", "length", "line", "extra", "swap", "drop_rows"]))
        if kind == "drop_rows":
            del lines[1:]
            continue
        if kind == "line":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(LINE_MUTANTS)))
            continue
        if len(lines) == 1:
            continue
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split(",")
        if kind == "field":
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = FIELD_MUTANTS[draw(st.sampled_from(sorted(FIELD_MUTANTS)))](fields[j])
        elif kind == "time":
            fields[0] = draw(st.sampled_from(SPECIAL_TIMES))
        elif kind == "length" and len(fields) > 1:
            fields[1] = draw(st.sampled_from(SPECIAL_LENGTHS))
        elif kind == "extra":
            fields.append(draw(st.sampled_from(["7", "", "x", " "])))
        elif kind == "swap":
            k = draw(st.integers(1, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
            continue
        lines[i] = ",".join(fields)
    header_mutant = draw(st.sampled_from([""] * 12 + ["bom", "space", "case", "cr"]))
    lines[0] = {"": HEADER, "bom": "\ufeff" + HEADER, "space": "arrival_ms, length_tokens",
                "case": "Arrival_ms,length_tokens", "cr": HEADER + "\r"}[header_mutant]
    ends = draw(st.sampled_from(["\n", "\n", "\r\n", "\r\n", "\r\n", "\r", "mixed"]))
    if ends == "mixed":
        text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    else:
        text = ends.join(lines) + ends
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text.encode("utf-8") + draw(st.sampled_from([b""] * 18 + [b"\xff", b"\xc3"]))  # bad UTF-8


SCALES = st.sampled_from([1.0, 1, 0.5, 2, 10.0, 1e-3, 1e-300, 1e300])


@pytest.fixture(scope="module")
def trace_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "trace.csv"


@settings(max_examples=400, deadline=None)
@given(text=trace_texts(), scale=SCALES)
@example(text=b"arrival_ms,length_tokens\r\n0.5,4\r\n1.5,16\r\n", scale=1.0)
@example(text=b"arrival_ms,length_tokens\n0.5,4\n\n1.5,16\n", scale=1.0)
@example(text=b"arrival_ms,length_tokens\n0.5,4\n  \n1.5,16\n", scale=1.0)
@example(text=b"arrival_ms,length_tokens\r\r\n0.5,4\n", scale=1.0)
@example(text=b"arrival_ms,length_tokens\n0.5,4\r\n\r1.5,16\n", scale=1.0)
@example(text=b"arrival_ms,length_tokens\n1e308,4\n", scale=10.0)
@example(text=b"arrival_ms,length_tokens\n2.0,4\n1.0,4\n", scale=1e-320)
@example(text=b"arrival_ms,length_tokens\n", scale=1.0)
@example(text=b"arrival_ms,length_tokens", scale=1.0)
@example(text=b"\xef\xbb\xbfarrival_ms,length_tokens\n0.5,4\n", scale=1.0)
def test_trace_parser_equals_the_streaming_loop(trace_path, text, scale):
    trace_path.write_bytes(text)
    assert outcome(parse, trace_path, scale) == outcome(oracle_trace, trace_path, scale)


NUMBER = st.from_regex(r"\A[ \t]?[+-]{0,2}[0-9]{0,4}\.?[0-9]{0,3}([eE][+-]?[0-9]{0,3})?[ \t]?\Z")
INTEGER = st.from_regex(r"\A[ \t]?[+-]?[0-9]{1,20}[ \t]?\Z")


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(st.tuples(NUMBER, INTEGER).map(",".join), st.lists(NUMBER, max_size=3).map(",".join)),
                      max_size=5),
       ends=st.sampled_from(["\n", "\r\n"]), last_end=st.booleans(), scale=SCALES)
def test_numeric_fields_parse_as_the_streaming_loop_parses_them(trace_path, lines, ends, last_end, scale):
    """Rows drawn from the characters the C reader is given, where the two readers could disagree."""
    trace_path.write_text(ends.join([HEADER, *lines]) + (ends if last_end else ""), newline="")
    assert outcome(parse, trace_path, scale) == outcome(oracle_trace, trace_path, scale)


def test_a_line_past_the_csv_field_limit_is_left_to_the_loop(tmp_path):
    """numpy would parse this padded length; csv.reader refuses the field, and the
    loop names its line."""
    path = tmp_path / "long.csv"
    path.write_text(f"{HEADER}\n0.5,4{' ' * (csv.field_size_limit() + 1)}\n")
    want = outcome(oracle_trace, path, 1.0)
    assert want == ("ValueError", f"trace line 2: field larger than field limit ({csv.field_size_limit()})")
    assert outcome(parse, path, 1.0) == want


def csv_writer_trace(path, n=500):
    """A trace written as perfbench writes its own: csv.writer, so every line ends in \\r\\n."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arrival_ms", "length_tokens"])
        writer.writerows([f"{0.37 * i:.6f}", 1 + (7 * i) % 128] for i in range(n))


def test_a_csv_writer_trace_takes_the_fast_path(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    csv_writer_trace(path)
    assert b"\r\n" in path.read_bytes()
    want = oracle_trace(path, 0.5)

    def no_loop(*args, **kwargs):
        raise AssertionError("the streaming loop ran")

    monkeypatch.setattr(sim.csv, "reader", no_loop)
    got = parse(path, 0.5)
    assert repr(got) == repr(want) and len(got) == 500


@pytest.mark.parametrize("text, scale", [
    (f"{HEADER}\n0.5,4\n\n1.5,16\n", 1.0),          # a blank line, which numpy skips
    (f"{HEADER}\n0.5,4\n \n1.5,16\n", 1.0),         # a whitespace-only line
    (f"{HEADER}\r0.5,4\r1.5,16\r", 1.0),            # lone \r line ends
    (f'{HEADER}\n"0.5",4\n', 1.0),                  # a quoted field
    (f"{HEADER}\n0.5,4,9\n", 1.0),                  # an extra column
    (f"{HEADER}\n0.5,5.0\n", 1.0),                  # a length written as a float
    (f"{HEADER}\n1_0,4\n", 1.0),                    # an underscore, which float() takes
    (f"{HEADER}\n\uff10.\uff15,4\n", 1.0),          # full-width digits
    (f"{HEADER}\n1e400,4\n", 1.0),                  # a time that overflows
    (f"{HEADER}\n1e308,4\n", 10.0),                 # a time that overflows once scaled
    (f"{HEADER}\n2.0,4\n1.0,4\n", 1.0),             # times out of order
    (f"{HEADER}\n", 1.0),                           # no rows
])
def test_traces_outside_the_fast_path_go_to_the_loop(tmp_path, monkeypatch, text, scale):
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8", newline="")

    def loop_ran(*args, **kwargs):
        raise LookupError("the streaming loop ran")

    monkeypatch.setattr(sim.csv, "reader", loop_ran)
    with pytest.raises(LookupError, match="the streaming loop ran"):
        parse(path, scale)


# -- the same texts through the command line ----------------------------------------------


def trace_simulate_config(root, scale):
    return {
        "mode": "simulate", "seed": 1, "out_dir": str(root / "s"),
        "accuracy_table": {"kind": "flat", "students": 3},
        "cluster": {"nodes": 2, "gpus_per_node": 2, "group_size": 2, "replicas_per_gpu": 2,
                    "controller": {"min_students": 1, "max_students": 3, "idle_window_ms": 50}},
        "factors": {"depth": 2, "width_per_student": 64},
        "workload": {"kind": "trace", "path": str(root / "trace.csv"), "scale": scale},
    }


@settings(max_examples=120, deadline=None)
@given(text=trace_texts(), scale=SCALES)
@example(text=b"arrival_ms,length_tokens\n0.5,4\n1.5,16\n1e308,8\n", scale=10.0)
@example(text=b"arrival_ms,length_tokens\n0.5,4\n1e300,8\n", scale=1.0)
@example(text=b"arrival_ms,length_tokens\n0.5,4" + b" " * 140_000 + b"\n", scale=1.0)  # past csv's field limit
def test_fuzzed_traces_exit_cleanly(text, scale):
    """A trace the loop refuses exits 2; an accepted one runs (exit 0), or exits 3
    once its clock passes 2**53 ms. None ends in a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "trace.csv").write_bytes(text)
        (root / "cfg.json").write_text(json.dumps(trace_simulate_config(root, scale)))
        with redirect_stderr(io.StringIO()) as err:
            code = cli.main(["simulate", "--config", str(root / "cfg.json")])
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG) or (code == cli.EXIT_NUMERIC and "2**53" in err), err
    if code == cli.EXIT_CONFIG:
        assert "trace line" in err or "codec can't decode" in err, err
