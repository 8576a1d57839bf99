"""``load_views``: the parallel parse gives the serial loader's views and
errors, leaves no child process behind, and forks only when it is chosen.

The parallel path is forced on small files by setting the size threshold
to 0; it then splits the bodies into one run per usable CPU (at least two).
Chunk boundaries are swept over every line by replacing ``_cuts``.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scca import ParseError, cores, covariance, load_view, load_views
from scca.cli import main

from conftest import no_children

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
    """Text of 1-3 view files, each with 2-6 rows of 1-4 columns, a header
    or not, comma or tab, LF or CRLF endings, and 0-2 trailing blank lines."""
    files = []
    for k in range(draw(st.integers(1, 3))):
        n, p = draw(st.integers(2, 6)), draw(st.integers(1, 4))
        ext = draw(st.sampled_from([".csv", ".tsv"]))
        sep = "\t" if ext == ".tsv" else ","
        rows = [[draw(CELL) for _ in range(p)] for _ in range(n)]
        if draw(st.booleans()):
            rows.insert(0, [f"v{k}_{j}" for j in range(p)])
        end = draw(st.sampled_from(["\n", "\r\n"]))
        tail = draw(st.sampled_from(["", end, end + "  " + end]))
        files.append((ext, end.join(sep.join(row) for row in rows) + end + tail))
    return files


@needs_fork
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(files=view_files())
def test_parallel_parse_is_bit_identical_at_every_chunk_boundary(tmp_path_factory, files):
    root = tmp_path_factory.mktemp("views")
    paths = []
    for k, (ext, text) in enumerate(files):
        path = root / f"x{k}{ext}"
        path.write_bytes(text.encode())
        paths.append(str(path))
    want = [load_view(path) for path in paths]
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


def test_nan_is_reported_before_a_missing_second_file(tmp_path, monkeypatch, capsys):
    paths = _bad_files(tmp_path)
    monkeypatch.setattr(covariance, "_PARALLEL_MIN_BYTES", 0)
    assert main(["scca", "--x1", paths["nan"], "--x2", paths["missing"],
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: line 4: non-finite value 'nan' in column 2\n"


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
