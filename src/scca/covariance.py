"""Dataset ingestion, centering/scaling and cross-covariance blocks.

Views are n x p observation matrices (rows = samples). Cross-covariance
blocks divide by n. ``load_view`` parses a view file from its bytes,
a batch of rows at a time; ``load_views`` reads several view files at once,
parsing large ones on every usable CPU. ``CrossOperator`` keeps a
cross-covariance as the centred data plus a low-rank deflation correction,
so restricting it to a sparsity pattern selects data columns instead of
copying a block.
``PermutedCross`` is a batch of such blocks, one per row permutation of
the first view, for permutation tuning.
"""

from __future__ import annotations

import io
import logging
import mmap
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import cores
from .errors import DimensionError, ParseError, SccaError, StateError

_MEAN_TOL = 1e-10

_log = logging.getLogger("scca")


@dataclass(frozen=True, eq=False)
class SparsityPattern:
    """Boolean mask over the coordinates of one canonical direction."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 1:
            raise DimensionError("pattern bits must be a 1-d boolean vector")
        object.__setattr__(self, "bits", bits)

    @property
    def size(self) -> int:
        return int(self.bits.size)

    @property
    def active_count(self) -> int:
        return int(self.bits.sum())

    def indices(self) -> np.ndarray:
        """Indices of the active coordinates, in increasing order."""
        return np.flatnonzero(self.bits)


@dataclass(eq=False)
class ViewMatrix:
    """One view: n samples of p variables, with names and transform state."""

    data: np.ndarray
    names: list[str]
    centered: bool = False
    scaled: bool = False
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise DimensionError("view data must be a 2-d matrix")
        n, p = self.data.shape
        if n < 2:
            raise DimensionError(f"need at least 2 samples, got {n}")
        if p < 1:
            raise DimensionError("need at least 1 variable")
        if not np.all(np.isfinite(self.data)):
            raise DimensionError("view contains non-finite entries")
        if len(self.names) != p:
            raise DimensionError(f"{len(self.names)} names for {p} columns")
        if self.centered:
            tol = _MEAN_TOL * (np.abs(self.data).max(axis=0, initial=0.0) + 1.0)
            bad = np.abs(self.data.mean(axis=0)) > tol
            if bad.any():
                raise StateError(
                    f"view marked centered but column {np.flatnonzero(bad)[0]} has "
                    "non-zero mean")

    @property
    def n(self) -> int:
        return int(self.data.shape[0])

    @property
    def p(self) -> int:
        return int(self.data.shape[1])


def _default_names(p: int) -> list[str]:
    return [f"V{j + 1}" for j in range(p)]


def _is_number(token: str) -> bool:
    try:
        value = float(token.strip())
    except ValueError:
        return False
    return np.isfinite(value)


def _parse_body(lines: list[str], delimiter: str, p: int) -> np.ndarray | None:
    """Vectorised parse of the data rows; None when the rows need the
    per-cell path (any parse failure, ragged or blank row, non-finite value),
    which then reports the exact line and column."""
    try:
        data = np.loadtxt(lines, dtype=float, delimiter=delimiter, comments=None, ndmin=2)
    except (ValueError, TypeError):
        return None
    if data.shape != (len(lines), p) or not np.isfinite(data).all():
        return None
    return data


def _parse_cells(lines: list[str], delimiter: str, p: int, first_line: int) -> np.ndarray:
    data = np.empty((len(lines), p), dtype=float)
    for k, line in enumerate(lines):
        row = line.split(delimiter)
        lineno = first_line + k
        if len(row) != p:
            raise ParseError(f"expected {p} fields, got {len(row)}", line=lineno)
        for j, tok in enumerate(row):
            try:
                # stripped as np.loadtxt strips a cell: float keeps FS, GS,
                # RS and US, which str.strip removes as whitespace
                value = float(tok.strip())
            except ValueError:
                raise ParseError(f"non-numeric value {tok.strip()!r} in column {j + 1}",
                                 line=lineno) from None
            if not np.isfinite(value):
                raise ParseError(f"non-finite value {tok.strip()!r} in column {j + 1}",
                                 line=lineno)
            data[k, j] = value
    return data


def _check_names(names: list[str]) -> None:
    """Header names must be non-blank and distinct: outputs are keyed by them."""
    seen: dict[str, int] = {}
    for j, name in enumerate(names, start=1):
        if not name:
            raise ParseError(f"blank name in column {j}", line=1)
        if name in seen:
            raise ParseError(f"duplicate name {name!r} in columns {seen[name]} and {j}",
                             line=1)
        seen[name] = j


def _delimiter(path, delimiter: str | None) -> str:
    if delimiter is None:
        delimiter = "\t" if Path(path).suffix.lower() in {".tsv", ".tab"} else ","
    return delimiter


def _header_names(first: str, delimiter: str) -> list[str] | None:
    """The names of a file whose first line is ``first``, or None when that
    line is data: it is a header iff any of its cells is not a finite number."""
    first_row = first.split(delimiter)
    if all(_is_number(tok) for tok in first_row):
        return None
    return [tok.strip() for tok in first_row]


def _view(names: list[str] | None, data: np.ndarray) -> ViewMatrix:
    p = data.shape[1]
    if names is None:
        names = _default_names(p)
    elif len(names) != p:
        raise ParseError(f"header has {len(names)} names for {p} columns", line=1)
    else:
        _check_names(names)
    return ViewMatrix(data, names, centered=False, scaled=False)


# The reader reads this many bytes at a time, and parses batches of rows that
# span about as many.
_BLOCK = 1 << 18

_BOM = b"\xef\xbb\xbf"


class _Body(NamedTuple):
    """Where a view file's rows are, as the scan found them."""

    path: str
    delimiter: str
    names: list[str] | None
    p: int
    starts: np.ndarray    # byte offset of each row, then the end of the last one


def _text(fh, lo, hi) -> str:
    """Bytes [lo, hi) of a file, whole rows, decoded as ``Path.read_text``
    decodes a file: each row end (LF, CRLF or a lone CR) becomes one LF."""
    fh.seek(int(lo))
    raw = fh.read(int(hi - lo))
    return io.TextIOWrapper(io.BytesIO(raw), encoding=io.text_encoding(None)).read()


def _row_ends(fh, start: int, stop: int) -> np.ndarray:
    """The offsets just past each row end in [start, stop), by a vectorised
    search: an LF, or a CR that no LF follows (a CRLF ends at its LF)."""
    fh.seek(start)
    block = bytearray(_BLOCK)
    lfs, crs, at = [np.empty(0, int)], [np.empty(0, int)], start
    while at < stop:
        got = fh.readinto(memoryview(block)[:min(_BLOCK, stop - at)])
        if not got:
            raise OSError(f"{fh.name}: the file changed while it was read")
        raw = np.frombuffer(block, np.uint8, got)
        lfs.append(np.flatnonzero(raw == 10) + at)
        crs.append(np.flatnonzero(raw == 13) + at)
        at += got
    lf, cr = np.concatenate(lfs), np.concatenate(crs)
    # both runs are sorted and disjoint, so a search finds the CRs of CRLFs and
    # a stable sort merges the rest in; unlike np.isin and np.union1d, neither
    # imports numpy.ma
    crlf = np.append(lf, -1)[np.searchsorted(lf, cr + 1)] == cr + 1
    return np.sort(np.concatenate((lf, cr[~crlf])), kind="stable") + 1


def _scan(path, delimiter: str | None) -> _Body:
    """A view file's header and the byte offsets of its body rows, found
    without decoding the body. A leading UTF-8 BOM is skipped, and lines at
    the end that ``str.strip`` leaves empty are not rows. Raises ParseError
    for a file of blank lines, DimensionError for a header with no rows."""
    delimiter = _delimiter(path, delimiter)
    with open(path, "rb") as fh:
        start = len(_BOM) if fh.read(len(_BOM)) == _BOM else 0
        size = os.fstat(fh.fileno()).st_size
        starts = np.concatenate([[start], _row_ends(fh, start, size), [size]])
        rows = starts.size - 1
        while rows and not _text(fh, starts[rows - 1], starts[rows]).strip():
            rows -= 1
        if not rows:
            raise ParseError("empty file", line=1)
        names = _header_names(_text(fh, starts[0], starts[1]), delimiter)
        starts = starts[int(names is not None):rows + 1]
        if starts.size == 1:
            raise DimensionError("need at least 2 samples, got 0")
        p = len(_text(fh, starts[0], starts[1]).split(delimiter))
    return _Body(str(path), delimiter, names, p, starts)


def _parse_rows(body: _Body, lo: int, hi: int, out: np.ndarray) -> None:
    """Body rows [lo, hi) into ``out[lo:hi]``, read straight from the file in
    batches of about _BLOCK bytes. A batch that ``np.loadtxt`` cannot take
    (a blank, ragged, non-numeric or non-finite row) is parsed cell by cell,
    which raises its first error with its line and column."""
    starts = body.starts
    batch = max(1, _BLOCK * (hi - lo) // int(starts[hi] - starts[lo]))
    first_line = 1 if body.names is None else 2
    with open(body.path, "rb") as fh, warnings.catch_warnings():
        # an all-blank batch makes loadtxt warn; the cell parse reports it
        warnings.simplefilter("ignore")
        for at in range(lo, hi, batch):
            end = min(at + batch, hi)
            lines = _text(fh, starts[at], starts[end]).split("\n")
            if len(lines) < end - at:
                raise OSError(f"{body.path}: the file changed while it was read")
            del lines[end - at:]
            data = _parse_body(lines, body.delimiter, body.p)
            if data is None:
                data = _parse_cells(lines, body.delimiter, body.p, first_line + at)
            out[at:end] = data


# Files that total fewer bytes are parsed in one process. On a 2-core VM a
# forked parse cost 3-6 ms more than its share of the work (fork, wait, the
# shared buffer), so it lost below about 0.6 MiB of CSV and saved 28-30 % of
# the parse at 1.5-3 MiB.
_PARALLEL_MIN_BYTES = 2 << 20


def _cuts(line_bytes: np.ndarray, parts: int) -> list[int]:
    """Line indices that split lines of the given sizes into at most
    ``parts`` non-empty runs of about equal bytes: a line goes to the run
    its midpoint falls in. Starts at 0 and ends at the line count."""
    ends = np.cumsum(line_bytes)
    mids = ends - line_bytes / 2.0
    inner = np.searchsorted(mids, ends[-1] * np.arange(1, parts) / parts)
    return sorted({0, *(int(c) for c in inner), int(ends.size)})


def _parse_run(files: list[_Body], arrays, start: int,
               stop: int) -> tuple[int, Exception] | None:
    """Parse rows [start, stop) of the concatenated bodies into ``arrays``;
    None, or the index of the first file with a bad row in the run and the
    error of its first bad row."""
    offset = 0
    for k, (body, out) in enumerate(zip(files, arrays)):
        rows = body.starts.size - 1
        lo, hi = max(start - offset, 0), min(stop - offset, rows)
        if lo < hi:
            try:
                _parse_rows(body, lo, hi, out)
            except (SccaError, OSError, ValueError) as err:
                return k, err
        offset += rows
    return None


def _load(paths: list, delimiter: str | None, cpus: list[int]) -> list[ViewMatrix]:
    """The views of ``paths``: each file is scanned for its header and row
    offsets, and the rows of all files are parsed in line-aligned runs of
    about equal bytes, one per MiB and at least two (one run with no CPUs).
    The runs are pulled from one queue by one process per CPU of ``cpus``,
    at most one per run. Raises the first error of the first file that has
    one: its scan error (no later file is scanned), then its first bad
    row, then its header or view error."""
    files, failed = [], None
    for path in paths:
        try:
            files.append(_scan(path, delimiter))
        except (SccaError, OSError, ValueError) as err:
            failed = err
            break
    if not files:
        if failed is None:
            return []
        raise failed
    line_bytes = np.concatenate([np.diff(body.starts) for body in files])
    size = int(line_bytes.sum())
    cuts = _cuts(line_bytes, max(2, size >> 20)) if cpus else [0, line_bytes.size]
    runs = len(cuts) - 1
    shapes = [(body.starts.size - 1, body.p) for body in files]
    if runs > 1:
        shared = mmap.mmap(-1, 8 * sum(n * p for n, p in shapes))
        arrays, offset = [], 0
        for n, p in shapes:
            arrays.append(np.frombuffer(shared, dtype=float, count=n * p,
                                        offset=offset).reshape(n, p))
            offset += 8 * n * p
        # each run writes its rows into the shared mapping, so a forked
        # parser returns only its first bad row's error, if it has one
        errors, taken = cores.run_queue(
            lambda k: _parse_run(files, arrays, cuts[k], cuts[k + 1]), runs, cpus[:runs])
    else:
        arrays = [np.empty(shape) for shape in shapes]
        errors, taken = [_parse_run(files, arrays, 0, cuts[-1])], [1]
    bad, err = next((error for error in errors if error is not None), (len(files), None))
    views = [_view(body.names, data) for body, data in zip(files[:bad], arrays)]
    if err is not None:
        raise err
    if failed is not None:
        raise failed
    _log.debug("view load of %d file(s), %d bytes of rows: %d run(s) on %d process(es)%s",
               len(paths), size, runs, len(taken),
               f" (runs per process: {', '.join(map(str, taken))})" if runs > 1 else "")
    return views


def load_view(path, delimiter: str | None = None) -> ViewMatrix:
    """Read a delimited numeric matrix into a ViewMatrix.

    The delimiter is inferred from the extension (.tsv/.tab -> tab, else
    comma) unless given. The first row is a header iff any of its cells is
    not a finite number. A blank or repeated header name raises ParseError
    on line 1. A leading UTF-8 BOM is skipped, and lines at the end of the
    file that ``str.strip`` leaves empty are ignored.

    A row ends at LF, CRLF or a lone CR, as in Python's text mode; any
    other character (a form feed, NEL, U+2028, FS/GS/RS/US) is cell text.
    A cell is stripped as ``str.strip`` strips it, so such a character
    around a number is whitespace, and one inside a number fails the row.
    The reader finds the rows by a vectorised search of the file's bytes
    and parses them from the file in batches of about 256 KiB, so the
    file's text is never held whole. A batch that ``np.loadtxt`` cannot
    take is parsed cell by cell, which raises the first bad row's
    ParseError with its line and column; the file is read once.
    """
    return _load([path], delimiter, [])[0]


def load_views(paths, delimiter: str | None = None) -> list[ViewMatrix]:
    """Read several view files: the same views, and the same first error,
    as ``[load_view(path, delimiter) for path in paths]``.

    Where ``os.fork`` exists, more than one CPU is usable and the files
    total at least 2 MiB, the body rows of all files are split into
    line-aligned runs of about equal bytes, one per MiB, and parsed at
    once by one process per usable CPU (at most one per run): this one and
    forked children, each taking the next run that no process has taken
    yet until none is left. A parser reads its runs' byte ranges of the
    file and writes their rows into a shared output buffer. Each parser is
    pinned to its own CPU while it parses: on a 2-core VM the scheduler
    otherwise kept the child on its parent's CPU, and each half took as
    long as the whole. A run stops at its first bad row and returns that
    row's error, and the errors are raised in file order as ``load_view``
    raises them. Each load that succeeds logs one debug record on the
    ``scca`` logger: the files, bytes, runs and processes, and how many
    runs each process parsed.
    """
    paths = list(paths)
    cpus = cores.usable_cpus()
    if len(cpus) > 1:
        try:
            big = sum(os.path.getsize(path) for path in paths) >= _PARALLEL_MIN_BYTES
        except OSError:
            big = False
        if big:
            return _load(paths, delimiter, cpus)
    return [load_view(path, delimiter=delimiter) for path in paths]


def write_view(view: ViewMatrix, path, delimiter: str | None = None,
               header: bool = True) -> Path:
    """Write a view back to disk with full-precision floats (round-trips to 1e-12)."""
    path = Path(path)
    delimiter = _delimiter(path, delimiter)
    lines = []
    if header:
        lines.append(delimiter.join(view.names))
    for row in view.data:
        lines.append(delimiter.join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _standardize_owned(data: np.ndarray, scale: bool):
    """:func:`standardize` of ``data`` written over ``data``, by the same
    operations, so the bits match: (means, sds, constant)."""
    if scale:
        # max |x| per column, before centring, without an |x| copy of data
        top = np.maximum(data.max(axis=0), -data.min(axis=0))
    mean = data.mean(axis=0)
    data -= mean
    sd = np.ones(data.shape[1])
    constant = np.zeros(data.shape[1], dtype=bool)
    if scale:
        sd = data.std(axis=0, ddof=1)
        constant = sd <= 1e-12 * (top + 1.0)
        data[:, constant] = 0.0
        sd = np.where(constant, 1.0, sd)
        data /= sd
    return mean, sd, constant


def standardize(data: np.ndarray, scale: bool = False):
    """Centre the columns of ``data`` and, with ``scale``, divide them by
    their sample sd. Returns (data, means, sds, constant): the sds are 1
    where nothing was divided, and constant columns (sd at rounding level)
    come back all-zero, so rows held out of ``data`` map as (x - means) / sds.
    ``data`` itself is left as it is.
    """
    out = np.array(data, dtype=float)
    return (out, *_standardize_owned(out, scale))


def _centered(v: ViewMatrix, data: np.ndarray, scale: bool) -> ViewMatrix:
    _mean, _sd, constant = _standardize_owned(data, scale)
    notes = tuple(v.warnings) + tuple(f"constant column {v.names[j]!r} zeroed during "
                                      "scaling" for j in np.flatnonzero(constant))
    return ViewMatrix(data, list(v.names), centered=True, scaled=scale or v.scaled,
                      warnings=notes)


def center_scale(v: ViewMatrix, scale: bool = False) -> ViewMatrix:
    """Remove column means; optionally rescale columns to unit sample sd.

    Columns that are constant (zero variance after centering) are left
    all-zero and reported in the returned view's warning list rather than
    rejected, so column indices stay stable. ``v`` is left as it is.
    """
    return _centered(v, np.array(v.data), scale)


def center_scale_owned(v: ViewMatrix, scale: bool = False) -> ViewMatrix:
    """:func:`center_scale` written over ``v.data``, for a view nobody else
    holds, such as one just loaded: the same bits without a copy of the data.
    ``v`` must not be used after."""
    return _centered(v, v.data, scale)


def _check_pair(a: ViewMatrix, b: ViewMatrix) -> None:
    if a.n != b.n:
        raise DimensionError(f"sample counts differ: {a.n} vs {b.n}")
    if not (a.centered and b.centered):
        raise StateError("cross_covariance requires centered views")


def cross_covariance(a: ViewMatrix, b: ViewMatrix) -> np.ndarray:
    """Sample cross-covariance block A'B/n of two centered views sharing samples."""
    _check_pair(a, b)
    return a.data.T @ b.data / a.n


@dataclass(frozen=True, eq=False)
class CrossOperator:
    """The cross-covariance C = A'B/div - U diag(s) V', kept as its parts.

    A (n x p_r) and B (n x p_s) are the centred (and scaled) data and
    (U, s, V) a rank-k deflation correction. The p_r x p_s block is never
    formed: a product with a vector costs O(n (p_r + p_s)), column norms come
    from the n x n Gram AA', the Frobenius norm from the R factors of [A', U]
    and [B', V], a row or column subset selects columns of A/B and rows of
    U/V, and ``dense`` forms only the (shrunken) block it is asked for.

    ``np.asarray(op)`` is ``op.dense()``; ``ndarray @ op`` raises TypeError
    rather than forming the block behind the caller's back.
    """

    __array_ufunc__ = None

    a: np.ndarray
    b: np.ndarray
    div: float
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        k = self.s.shape[0]
        if (self.a.shape[0] != self.b.shape[0] or self.u.shape != (self.a.shape[1], k)
                or self.v.shape != (self.b.shape[1], k)):
            raise DimensionError("cross operator parts do not match")

    @classmethod
    def from_views(cls, a: ViewMatrix, b: ViewMatrix) -> "CrossOperator":
        """The operator of ``cross_covariance(a, b)``; shares the views' data."""
        _check_pair(a, b)
        return cls(a.data, b.data, a.n,
                   np.empty((a.p, 0)), np.empty(0), np.empty((b.p, 0)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape[1], self.b.shape[1]

    @property
    def T(self) -> "CrossOperator":
        return CrossOperator(self.b, self.a, self.div, self.v, self.s, self.u)

    def __matmul__(self, z) -> np.ndarray:
        """C z for a vector, or C Z for a p_s x B block of vectors."""
        z = np.asarray(z, dtype=float)
        if z.ndim not in (1, 2):
            raise DimensionError("a cross operator multiplies vectors or blocks of vectors")
        out = self.a.T @ (self.b @ z) / self.div
        if self.s.size:
            out -= self.u @ (self.s * (self.v.T @ z).T).T
        return out

    def column(self, j: int) -> np.ndarray:
        return self.a.T @ self.b[:, j] / self.div - self.u @ (self.s * self.v[j])

    def col_norms(self) -> np.ndarray:
        """Euclidean column norms, from the Gram AA' and the correction terms."""
        sq = np.einsum("ij,ij->j", self.b, (self.a @ self.a.T) @ self.b) / self.div ** 2
        if self.s.size:
            sv = self.v * self.s
            cross = self.b.T @ (self.a @ self.u) / self.div
            sq = sq + np.einsum("jk,jk->j", sv @ (self.u.T @ self.u) - 2.0 * cross, sv)
        return np.sqrt(np.maximum(sq, 0.0))

    def fro_norm(self) -> float:
        """Frobenius norm.

        With a correction it is the norm of R1 diag(1/div, ..., 1/div, -s) R2',
        for the R factors of [A', U] and [B', V], whose rounding stays at the
        size of C's entries. The Gram form of ``col_norms`` would carry that of
        a difference of squares, about sqrt(eps) of the uncorrected norm, which
        an exhausted residual could not get below. Without a correction the
        Gram form has no such difference.
        """
        if not self.s.size:
            return float(np.linalg.norm(self.col_norms()))
        r1 = np.linalg.qr(np.hstack([self.a.T, self.u]), mode="r")
        r2 = np.linalg.qr(np.hstack([self.b.T, self.v]), mode="r")
        weights = np.concatenate([np.full(self.a.shape[0], 1.0 / self.div), -self.s])
        return float(np.linalg.norm((r1 * weights) @ r2.T))

    def rows(self, idx) -> "CrossOperator":
        return CrossOperator(self.a[:, idx], self.b, self.div, self.u[idx], self.s, self.v)

    def cols(self, idx) -> "CrossOperator":
        return CrossOperator(self.a, self.b[:, idx], self.div, self.u, self.s, self.v[idx])

    def dense(self) -> np.ndarray:
        """The explicit block: call it on a row/column subset, not on a wide operator."""
        block = self.a.T @ self.b / self.div
        if self.s.size:
            block -= (self.u * self.s) @ self.v.T
        return block

    def __array__(self, dtype=None, copy=None):
        block = self.dense()
        return block if dtype is None else block.astype(dtype, copy=False)

    def deflated(self, u: np.ndarray, v: np.ndarray) -> "CrossOperator":
        """C - (u'Cv) uv', by appending one correction term."""
        scale = float(u @ (self @ v))
        return CrossOperator(self.a, self.b, self.div, np.column_stack([self.u, u]),
                             np.append(self.s, scale), np.column_stack([self.v, v]))


def _split_nonzero(mask: np.ndarray) -> list[np.ndarray]:
    """The indices of the True entries of each column of a boolean block."""
    members, where = np.nonzero(mask.T)
    return np.split(where, np.searchsorted(members, np.arange(1, mask.shape[1])))


@dataclass(frozen=True, eq=False)
class PermutedCross:
    """A batch of K cross-covariances: member k is C_k = A[idx_k]'B/div, with
    its rows and columns optionally masked, diag(r_k) C_k diag(c_k).

    Column k of ``idx`` (n x K) permutes the rows of A and column k of ``inv``
    is its inverse, so C_k = A'B[inv_k]/div too. A product with a p_s x K
    block, one column per member, is two GEMMs and a per-column row gather;
    permuted copies of A or B are never stacked. ``gram_a`` and ``gram_b`` are
    AA' and BB', shared by every member: member k's column norms come from
    gram_a gathered by idx_k. The masks (p_r x K and p_s x K booleans) restrict
    each member to its own support, which stands in for shrinking members to
    different sizes.

    ``root_a`` and ``root_b`` are thin factors of A and B: n x r matrices F
    with FF' = AA' (r <= n), say from a thin QR A' = QF'. ``thin`` puts
    root_a in A's place, so member k becomes F[idx_k]'B/div = Q'C_k, an
    isometric image of C_k on the row space of A, where every iterate of an
    ascent whose updates are C_k w lies. Projections, update norms and the
    column norms (the same gram_a) are unchanged, and a member-step costs
    n(r + p_s) instead of n(p_r + p_s).
    """

    __array_ufunc__ = None

    a: np.ndarray
    b: np.ndarray
    div: float
    idx: np.ndarray
    inv: np.ndarray
    gram_a: np.ndarray
    gram_b: np.ndarray
    root_a: np.ndarray
    root_b: np.ndarray
    rmask: np.ndarray | None = None
    cmask: np.ndarray | None = None

    def __post_init__(self):
        # y[inv_k, k] for every k as one flat take from an n x K block
        k = self.inv.shape[1]
        object.__setattr__(self, "_gather", self.inv * k + np.arange(k))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape[1], self.b.shape[1]

    @property
    def T(self) -> "PermutedCross":
        # B'A[idx] = B[inv]'A: the transpose permutes B by the inverses
        return PermutedCross(self.b, self.a, self.div, self.inv, self.idx, self.gram_b,
                             self.gram_a, self.root_b, self.root_a, self.cmask, self.rmask)

    def thin(self) -> "PermutedCross":
        """The unmasked batch on root_a in A's place (see the class notes)."""
        return replace(self, a=self.root_a)

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        """C_k z_k for every member k, z_k being column k of the p_s x K block z."""
        return self.product(z)

    def product(self, z: np.ndarray, out: np.ndarray | None = None,
                masked: np.ndarray | None = None) -> np.ndarray:
        """``self @ z``, written to ``out`` (p_r x K) when given; with a
        column mask, the masked z is written to ``masked`` (p_s x K) when
        given. The buffers change where the result goes, not its bits."""
        if self.cmask is not None:
            z = np.multiply(z, self.cmask, out=masked)
        return self._lift(self.b @ z, out)

    def _lift(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A[idx_k]'y_k/div for every column k of the n x K block y, row-masked,
        written to ``out`` when given."""
        # dividing the gathered n x K block costs less than the p_r x K product
        gathered = y.take(self._gather)
        gathered /= self.div
        out = np.matmul(self.a.T, gathered, out=out)
        if self.rmask is not None:
            out *= self.rmask
        return out

    def take(self, members) -> "PermutedCross":
        """The batch of the members listed in ``members``, in that order."""
        return PermutedCross(self.a, self.b, self.div, self.idx[:, members],
                             self.inv[:, members], self.gram_a, self.gram_b, self.root_a,
                             self.root_b,
                             None if self.rmask is None else self.rmask[:, members],
                             None if self.cmask is None else self.cmask[:, members])

    def cols(self, mask: np.ndarray) -> "PermutedCross":
        """Every member k with the columns outside column k of ``mask`` zeroed."""
        return replace(self, cmask=mask)

    def col_norms(self) -> np.ndarray:
        """Euclidean column norms of every member (p_s x K).

        Unmasked, b_j' gram_a[idx_k, idx_k] b_j for every column j and
        member k is a sum over B's row pairs i <= l of b_ij b_lj times each
        member's gathered Gram entry (off the diagonal twice): one GEMM per
        row i for the whole batch, half the work of a Gram product per
        member. A row-masked member's norms come from its kept columns
        A[idx_k, S]: as (A_S'B)'s column norms when |S| < n, else from
        their Gram; with a column mask too, only the member's kept columns
        of B enter."""
        n = self.a.shape[0]
        sq = np.zeros((self.b.shape[1], self.idx.shape[1]))
        if self.rmask is None:
            iu, ju = np.triu_indices(n)
            grams = self.gram_a.ravel().take(self.idx[iu] * n + self.idx[ju])
            grams[iu != ju] *= 2.0
            for i, start in enumerate(np.flatnonzero(iu == ju)):
                sq += (self.b[i] * self.b[i:]).T @ grams[start:start + n - i]
            if self.cmask is not None:
                sq *= self.cmask
        else:
            # every member's kept rows (and columns), found in one pass each
            rows = _split_nonzero(self.rmask)
            cols = ([slice(None)] * len(rows) if self.cmask is None
                    else _split_nonzero(self.cmask))
            by_member = sq.T
            for k, idx in enumerate(self.idx.T):
                kept = self.a.take(rows[k], axis=1).take(idx, axis=0)
                b = self.b[:, cols[k]]
                if kept.shape[1] < n:
                    proj = kept.T @ b
                    by_member[k, cols[k]] = np.einsum("ij,ij->j", proj, proj)
                else:
                    by_member[k, cols[k]] = np.einsum("ij,ij->j", b, (kept @ kept.T) @ b)
        return np.sqrt(np.maximum(sq / self.div ** 2, 0.0))

    def columns(self, js: np.ndarray) -> np.ndarray:
        """Column js[k] of every member k, as a p_r x K block."""
        y = self.b[:, js]
        if self.cmask is not None:
            y = y * self.cmask[js, np.arange(js.size)]
        return self._lift(y)

    def member(self, k: int) -> CrossOperator:
        """Member k, masks left out, as a CrossOperator on A[idx_k] and B."""
        return CrossOperator(self.a[self.idx[:, k]], self.b, self.div,
                             np.empty((self.a.shape[1], 0)), np.empty(0),
                             np.empty((self.b.shape[1], 0)))
