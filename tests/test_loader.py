"""``load_views``: the parallel parse gives the serial loader's views and
errors, leaves no child process behind, and forks only when it is chosen.

The parallel path is forced on small files by setting the size threshold
to 0; it then splits the bodies into one run per usable CPU (at least two).
Chunk boundaries are swept over every line by replacing ``_cuts``.
"""

import logging
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scca import DimensionError, ParseError, SccaError, cores, covariance, load_view, load_views
from scca.cli import main

from conftest import no_children, run_fresh

needs_fork = pytest.mark.skipif(
    len(cores.usable_cpus()) < 2,
    reason="the parallel parse needs os.fork and at least two usable CPUs")


def _fork_counter(monkeypatch) -> list:
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return calls


def _same_views(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.names == b.names
        assert a.data.shape == b.data.shape
        assert a.data.tobytes() == b.data.tobytes()


CELL = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def view_files(draw):
    """Text and sample count of 1-3 view files, each with 2-6 rows of 1-4
    columns, a header or not, comma or tab, LF, CRLF or CR endings, 0-2
    trailing blank lines and a leading UTF-8 BOM or not."""
    files = []
    for k in range(draw(st.integers(1, 3))):
        n, p = draw(st.integers(2, 6)), draw(st.integers(1, 4))
        ext = draw(st.sampled_from([".csv", ".tsv"]))
        sep = "\t" if ext == ".tsv" else ","
        rows = [[draw(CELL) for _ in range(p)] for _ in range(n)]
        if draw(st.booleans()):
            rows.insert(0, [f"v{k}_{j}" for j in range(p)])
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        tail = draw(st.sampled_from(["", end, end + "  " + end]))
        bom = draw(st.sampled_from(["", "\ufeff"]))
        files.append((ext, bom + end.join(sep.join(row) for row in rows) + end + tail, n))
    return files


@needs_fork
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(files=view_files())
def test_parallel_parse_is_bit_identical_at_every_chunk_boundary(tmp_path_factory, files):
    root = tmp_path_factory.mktemp("views")
    paths = []
    for k, (ext, text, _n) in enumerate(files):
        path = root / f"x{k}{ext}"
        path.write_bytes(text.encode())
        paths.append(str(path))
    want = [load_view(path) for path in paths]
    assert [view.n for view in want] == [n for _ext, _text, n in files]
    lines = sum(view.n for view in want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covariance, "_PARALLEL_MIN_BYTES", 0)
        forks = _fork_counter(mp)
        _same_views(load_views(paths), want)
        assert forks
        for cut in range(1, lines):
            mp.setattr(covariance, "_cuts", lambda _bytes, _parts, cut=cut: [0, cut, lines])
            _same_views(load_views(paths), want)
    assert len(forks) == lines
    assert no_children()


def test_cuts_are_line_aligned_non_empty_and_balanced():
    sizes = np.array([10.0, 10, 10, 10, 40, 10, 10])
    cuts = covariance._cuts(sizes, 2)
    assert cuts == [0, 4, 7]     # 40 bytes before the middle line's midpoint, 50 after
    assert covariance._cuts(sizes, 3) == [0, 3, 5, 7]
    assert covariance._cuts(np.array([100.0, 1.0]), 4) == [0, 1, 2]
    for parts in range(1, 9):
        cuts = covariance._cuts(sizes, parts)
        assert cuts[0] == 0 and cuts[-1] == sizes.size
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert len(cuts) - 1 <= parts


def _bad_files(tmp_path) -> dict:
    """Paths of two 6 x 3 views that fit and of broken variants of them."""
    rng = np.random.default_rng(5)
    good = [rng.standard_normal((6, 3)), rng.standard_normal((6, 3))]
    text = [["a1,a2,a3"] + [",".join(repr(float(x)) for x in row) for row in good[0]],
            ["b1,b2,b3"] + [",".join(repr(float(x)) for x in row) for row in good[1]]]

    def edit(lines, line, value):
        out = list(lines)
        out[line - 1] = value
        return out

    cells = text[0][3].split(",")
    variants = {
        "x1": text[0], "x2": text[1],
        "nan": edit(text[0], 4, ",".join([cells[0], "nan", cells[2]])),
        "inf": edit(text[0], 4, ",".join([cells[0], cells[1], "-inf"])),
        "ragged": edit(text[0], 4, ",".join(cells[:2])),
        "token": edit(text[0], 4, ",".join([cells[0], "1.5x", cells[2]])),
        "blank": edit(text[0], 1, "a1,,a3"),
        "duplicate": edit(text[0], 1, "a1,a2,a1"),
        "short": text[1][:4],
        "empty": [],
    }
    paths = {name: tmp_path / f"{name}.csv" for name in variants}
    for name, lines in variants.items():
        paths[name].write_text("\n".join(lines) + ("\n" if lines else ""))
    paths["missing"] = tmp_path / "missing.csv"
    return {name: str(path) for name, path in paths.items()}


@needs_fork
@pytest.mark.parametrize("command", ["scca", "tune"])
@pytest.mark.parametrize("x1,x2", [
    ("nan", "x2"), ("inf", "x2"), ("ragged", "x2"), ("token", "x2"), ("blank", "x2"),
    ("duplicate", "x2"), ("x1", "short"), ("missing", "x2"), ("x1", "empty"),
    ("x2", "nan"), ("x2", "token"), ("nan", "missing"), ("ragged", "token"), ("x1", "x2")])
def test_parallel_and_serial_paths_fail_alike(tmp_path, monkeypatch, capsys, command, x1, x2):
    paths = _bad_files(tmp_path)
    argv = [command, "--x1", paths[x1], "--x2", paths[x2], "--out", str(tmp_path / "o")]
    if command == "tune":
        argv += ["--gamma1-grid", "0.1", "--gamma2-grid", "0.1", "--permutations", "3"]
    outcomes = []
    serial, parallel = (covariance._PARALLEL_MIN_BYTES, []), (0, cores.usable_cpus())
    for threshold, cpus in (serial, parallel):
        monkeypatch.setattr(covariance, "_PARALLEL_MIN_BYTES", threshold)
        monkeypatch.setattr(cores, "usable_cpus", lambda cpus=cpus: cpus)
        code = main(argv)
        outcomes.append((code, capsys.readouterr().err))
        assert no_children()
    assert outcomes[1] == outcomes[0]
    assert (outcomes[0][0] == 0) == ((x1, x2) == ("x1", "x2"))


@needs_fork
def test_a_bad_row_in_any_run_gives_the_serial_error(tmp_path, monkeypatch):
    paths = _bad_files(tmp_path)
    with pytest.raises(ParseError) as serial:
        load_view(paths["ragged"])
    monkeypatch.setattr(covariance, "_PARALLEL_MIN_BYTES", 0)
    for cut in range(1, 12):
        monkeypatch.setattr(covariance, "_cuts", lambda _bytes, _parts, cut=cut: [0, cut, 12])
        with pytest.raises(ParseError) as parallel:
            load_views([paths["x2"], paths["ragged"]])
        assert str(parallel.value) == str(serial.value)
        assert no_children()


@needs_fork
@pytest.mark.parametrize("x1,x2", [("x1", "x2"), ("x2", "ragged"), ("token", "nan")])
def test_a_forked_load_with_more_runs_than_cpus_gives_the_serial_outcome(tmp_path, monkeypatch,
                                                                         x1, x2):
    # one run per row: more runs than processes, which each take runs until none is left
    paths = _bad_files(tmp_path)
    want = _outcome(lambda: [load_view(paths[x1]), load_view(paths[x2])])
    monkeypatch.setattr(covariance, "_PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(covariance, "_cuts", lambda _bytes, _parts: list(range(_bytes.size + 1)))
    assert len(cores.usable_cpus()) < 12
    assert _outcome(lambda: load_views([paths[x1], paths[x2]])) == want
    assert no_children()


def test_nan_is_reported_before_a_missing_second_file(tmp_path, monkeypatch, capsys):
    paths = _bad_files(tmp_path)
    monkeypatch.setattr(covariance, "_PARALLEL_MIN_BYTES", 0)
    assert main(["scca", "--x1", paths["nan"], "--x2", paths["missing"],
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: line 4: non-finite value 'nan' in column 2\n"


@needs_fork
@pytest.mark.parametrize("x1,x2", [
    ("duplicate", "nan"), ("blank", "token"), ("nan", "ragged"), ("duplicate", "empty"),
    ("x1", "missing")])
def test_the_first_files_first_error_wins_at_every_cut(tmp_path, monkeypatch, x1, x2):
    # a header error of the first file beats a bad row of the second, a bad
    # row beats a later row's, and the second file's scan error comes last
    paths = _bad_files(tmp_path)
    want = _outcome(lambda: [load_view(paths[x1]), load_view(paths[x2])])
    assert not isinstance(want, list)
    monkeypatch.setattr(covariance, "_PARALLEL_MIN_BYTES", 0)
    for cut in range(1, 12):
        monkeypatch.setattr(covariance, "_cuts", lambda _bytes, _parts, cut=cut:
                            [0, min(cut, _bytes.size - 1), _bytes.size])
        assert _outcome(lambda: load_views([paths[x1], paths[x2]])) == want
        assert no_children()


def _raise_on_fork():
    raise AssertionError("os.fork was called")


def test_small_files_and_one_cpu_never_fork(tmp_path, monkeypatch):
    paths = _bad_files(tmp_path)
    want = [load_view(paths["x1"]), load_view(paths["x2"])]
    monkeypatch.setattr(os, "fork", _raise_on_fork)
    _same_views(load_views([paths["x1"], paths["x2"]]), want)     # below the threshold
    monkeypatch.setattr(covariance, "_PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    _same_views(load_views([paths["x1"], paths["x2"]]), want)     # one usable CPU


@needs_fork
def test_files_past_the_threshold_parse_on_one_process_per_cpu(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    paths = []
    for k in range(2):
        path = tmp_path / f"x{k}.csv"
        np.savetxt(path, rng.standard_normal((40, 1500)), delimiter=",", fmt="%.17g")
        paths.append(str(path))
    size = sum(os.path.getsize(path) for path in paths)
    assert size >= covariance._PARALLEL_MIN_BYTES
    forks = _fork_counter(monkeypatch)
    views = load_views(paths)
    _same_views(views, [load_view(path) for path in paths])
    assert len(forks) == min(len(cores.usable_cpus()), size >> 20) - 1
    assert no_children()


ROWS = ["1.5,-2,3e-3", "4,5.25,-6", "7,8,9.125", "-1e2,0.5,2"]


def _lines(rows, end="\n", header="a,b,c"):
    return end.join([header, *rows]) + end


def _swap(row: int, text: str):
    return ROWS[:row] + [text] + ROWS[row + 1:]


def _read_text(path):
    """The reader the byte reader replaced, kept as a reference: it decodes
    the whole file and splits it into lines with ``str.splitlines``."""
    delimiter = covariance._delimiter(path, None)
    lines = Path(path).read_text().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty file", line=1)
    names = covariance._header_names(lines[0], delimiter)
    body, first_line = (lines[1:], 2) if names is not None else (lines, 1)
    if not body:
        raise DimensionError("need at least 2 samples, got 0")
    p = len(body[0].split(delimiter))
    data = covariance._parse_body(body, delimiter, p)
    if data is None:
        data = covariance._parse_cells(body, delimiter, p, first_line)
    return covariance._view(names, data)


# odd inputs, read as the reference reads them unless NEW_OUTCOMES says otherwise
ODD_FILES = {
    "blank line mid-body": _lines(ROWS[:2] + [""] + ROWS[2:]),
    "blank CRLF line mid-body": _lines(ROWS[:2] + [""] + ROWS[2:], "\r\n"),
    "spaces-only line mid-body": _lines(ROWS[:2] + ["   "] + ROWS[2:]),
    "no final newline": _lines(ROWS)[:-1],
    "whitespace-only trailing lines": _lines(ROWS) + "  \n\t\n \n  ",
    "no-break space line at the end": _lines(ROWS) + "\xa0\n",
    "CRLF": _lines(ROWS, "\r\n"),
    "CRLF, no final newline": _lines(ROWS, "\r\n")[:-2],
    "CRLF and blank trailing lines": _lines(ROWS, "\r\n") + "\r\n \r\n",
    "CR": _lines(ROWS, "\r"),
    "UTF-8 BOM before a header": "\ufeff" + _lines(ROWS),
    "UTF-8 BOM before the data": "\ufeff" + "\n".join(ROWS) + "\n",
    "no header": "\n".join(ROWS) + "\n",
    "spaces and tabs around cells": _lines(_swap(1, " 4 ,\t5.25, -6 ")),
    "form feed inside a row": _lines(_swap(1, "4,5.25\x0c,-6")),
    "form feed splitting a row": _lines(_swap(1, "4,5.25,-6\x0c7,8,9")),
    "form feed ending a row": _lines(_swap(3, "-1e2,0.5,2\x0c")),
    "form feed line at the end": _lines(ROWS) + "\x0c\n",
    "vertical tab inside a row": _lines(_swap(2, "7,\x0b8,9.125")),
    "NEL inside a row": _lines(_swap(1, "4,5.25\x85,-6")),
    "NEL splitting a row": _lines(_swap(1, "4,5.25,-6\x857,8,9")),
    "line separator inside a row": _lines(_swap(2, "7,8\u2028,9.125")),
    "line separator splitting a row": _lines(_swap(2, "7,8,9.125\u20281,2,3")),
    "no-break space inside a row": _lines(_swap(2, "7,\xa08,9.125")),
    "lone CR splitting a row": _lines(_swap(1, "4,5.25,-6\r7,8,9")),
    "one CRLF row among LF rows": _lines(_swap(1, "4,5.25,-6\r")),
    "CR CR LF ending a row": _lines(_swap(1, "4,5.25,-6\r"), "\r\n"),
    "line separator in the header": _lines(ROWS, header="a,b\u2028,c"),
    "non-ASCII header": _lines(ROWS, header="\u03b1,\u03b2,\u03b3"),
    "header only": "a,b,c\n",
    "one row": _lines(ROWS[:1]),
    "non-finite cell": _lines(_swap(2, "7,inf,9.125")),
    "FS, GS, RS and US around cells": _lines(_swap(1, "\x1c4,5.25\x1d,\x1e-6\x1f")),
    "FS, GS, RS and US around cells, a bad row later":
        _lines(_swap(1, "\x1c4,5.25\x1d,\x1e-6\x1f")[:3] + ["-1e2,inf,2"]),
    "US in the first row of headerless data": "\n".join(_swap(0, "\x1f1.5,-2,3e-3")) + "\n",
}

# where the reader differs from the reference: a row ends only at LF, CRLF or
# CR, so other line breaks of str.splitlines are cell text, and a leading BOM
# is skipped. FS, GS, RS and US around a number are whitespace, whether the
# batch is parsed whole or cell by cell and in the header check, so their rows
# read as the same files without them. An error is (type, text, line); a text
# is a file read alike.
NEW_OUTCOMES = {
    "form feed splitting a row": ("ParseError", "line 3: expected 3 fields, got 5", 3),
    "NEL splitting a row": ("ParseError", "line 3: expected 3 fields, got 5", 3),
    "line separator splitting a row": ("ParseError", "line 4: expected 3 fields, got 5", 4),
    "form feed inside a row": _lines(ROWS),
    "vertical tab inside a row": _lines(ROWS),
    "NEL inside a row": _lines(ROWS),
    "line separator inside a row": _lines(ROWS),
    "line separator in the header": _lines(ROWS),
    "UTF-8 BOM before a header": _lines(ROWS),
    "UTF-8 BOM before the data": "\n".join(ROWS) + "\n",
    "FS, GS, RS and US around cells": _lines(ROWS),
    "FS, GS, RS and US around cells, a bad row later": _lines(ROWS[:3] + ["-1e2,inf,2"]),
    "US in the first row of headerless data": "\n".join(ROWS) + "\n",
}


def _outcome(read):
    """The views a reader gives (names and bits), or its error's type, text and line."""
    try:
        views = read()
    except (SccaError, OSError, ValueError) as err:
        return type(err).__name__, str(err), getattr(err, "line", None)
    return [(view.names, view.data.shape, view.data.tobytes()) for view in views]


@pytest.mark.parametrize("case", sorted(ODD_FILES))
def test_odd_files_read_as_the_text_reader_reads_them(tmp_path, monkeypatch, case):
    path = tmp_path / "x.csv"
    path.write_bytes(ODD_FILES[case].encode())
    good = tmp_path / "good.csv"
    good.write_text(_lines(ROWS))
    want = NEW_OUTCOMES.get(case)
    if not isinstance(want, tuple):
        alike = tmp_path / "alike.csv"
        alike.write_bytes(ODD_FILES[case].encode() if want is None else want.encode())
        want = _outcome(lambda: [_read_text(alike)])
    want_pair = _outcome(lambda: [_read_text(good)]) + want if isinstance(want, list) else want
    assert _outcome(lambda: [load_view(path)]) == want
    assert _outcome(lambda: load_views([good, path])) == want_pair
    if len(cores.usable_cpus()) > 1:
        monkeypatch.setattr(covariance, "_PARALLEL_MIN_BYTES", 0)
        monkeypatch.setattr(covariance, "_cuts", lambda _bytes, _parts: [0, 2, _bytes.size])
        assert _outcome(lambda: load_views([good, path])) == want_pair
        assert no_children()


def _wide_file(path, n=60, p=4000):
    rng = np.random.default_rng(4)
    names = ",".join(f"v{j}" for j in range(p))
    np.savetxt(path, rng.standard_normal((n, p)), delimiter=",", fmt="%.17g",
               header=names, comments="")
    return path.stat().st_size


@pytest.mark.parametrize("forked", [False, True])
def test_the_loader_never_holds_a_files_text(tmp_path, monkeypatch, forked):
    import tracemalloc
    if forked and len(cores.usable_cpus()) < 2:
        pytest.skip("the forked parse needs os.fork and at least two usable CPUs")
    size = _wide_file(tmp_path / "x.csv")
    assert size >= covariance._PARALLEL_MIN_BYTES
    if not forked:
        monkeypatch.setattr(cores, "usable_cpus", lambda: [])
    forks = _fork_counter(monkeypatch)
    tracemalloc.start()
    try:
        (view,) = load_views([str(tmp_path / "x.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bool(forks) == forked
    # a forked load writes the views into a shared mapping, which is not traced
    held = peak - (0 if forked else view.data.nbytes)
    assert held < size / 2, (held, size)
    assert view.data.shape == (60, 4000)


def test_a_bad_last_row_raises_without_holding_the_files_text(tmp_path, monkeypatch):
    import tracemalloc
    data = np.random.default_rng(4).standard_normal((60, 4000))
    data[-1, 7] = np.nan
    path = tmp_path / "x.csv"
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    size = path.stat().st_size
    monkeypatch.setattr(cores, "usable_cpus", lambda: [])
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            load_views([str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "line 60: non-finite value 'nan' in column 8"
    # the rows before the last batch are parsed into the view's array first
    held = peak - data.nbytes
    assert held < size / 2, (held, size)


def test_each_load_logs_one_debug_record(tmp_path, monkeypatch, caplog):
    paths = _bad_files(tmp_path)
    forkable = len(cores.usable_cpus()) > 1
    caplog.set_level(logging.DEBUG, logger="scca")
    monkeypatch.setattr(cores, "usable_cpus", lambda: [])
    load_views([paths["x1"], paths["x2"]])
    # each file has a 9-byte header
    rows = {name: os.path.getsize(paths[name]) - 9 for name in ("x1", "x2")}
    assert [r.getMessage() for r in caplog.records] == [
        f"view load of 2 file(s), {sum(rows.values())} bytes of rows: 1 run(s) on 1 process(es)"]
    caplog.clear()
    # a load that fails raises its error and logs nothing
    with pytest.raises(ParseError):
        load_view(paths["nan"])
    assert not caplog.records
    if forkable:
        monkeypatch.undo()
        caplog.set_level(logging.DEBUG, logger="scca")
        caplog.clear()
        monkeypatch.setattr(covariance, "_PARALLEL_MIN_BYTES", 0)
        load_views([paths["x1"], paths["x2"]])
        (record,) = caplog.records
        found = re.fullmatch(
            f"view load of 2 file\\(s\\), {sum(rows.values())} bytes of rows: 2 run\\(s\\) "
            r"on 2 process\(es\) \(runs per process: (\d+), (\d+)\)", record.getMessage())
        assert found, record.getMessage()
        assert sum(map(int, found.groups())) == 2
        assert no_children()


def test_loading_a_view_leaves_numpy_ma_unimported(tmp_path):
    # the row-end search must not import numpy.ma, whatever the file's row ends,
    # so that a fresh process does not pay for that import on its first load
    paths = []
    for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_bytes(_lines(ROWS, end).encode())
    script = ("import sys\n"
              "from scca import load_view\n"
              f"for path in {[str(p) for p in paths]!r}:\n"
              "    assert load_view(path).data.shape == (4, 3)\n"
              "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by the load'\n")
    run_fresh(script)
