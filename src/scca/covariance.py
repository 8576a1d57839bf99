"""Dataset ingestion, centering/scaling and cross-covariance blocks.

Views are n x p observation matrices (rows = samples). Cross-covariance
blocks use the divisor n by default; ``divisor="n-1"`` is available for
cross-tool comparison. ``load_views`` reads several view files at once,
parsing large ones on every usable CPU. ``CrossOperator`` keeps a
cross-covariance as the centred data plus a low-rank deflation correction,
so restricting it to a sparsity pattern selects data columns instead of
copying a block.
``PermutedCross`` is a batch of such blocks, one per row permutation of
the first view, for permutation tuning.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import cores
from .errors import DimensionError, ParseError, SccaError, StateError

_MEAN_TOL = 1e-10


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
        value = float(token)
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
                value = float(tok)
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


def _read_rows(path, delimiter: str | None, header: bool | None):
    """A view file as ``load_view`` reads it: (delimiter, header names or
    None, body lines, line number of the first body line)."""
    path = Path(path)
    if delimiter is None:
        delimiter = "\t" if path.suffix.lower() in {".tsv", ".tab"} else ","
    lines = path.read_text().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty file", line=1)

    first_row = lines[0].split(delimiter)
    if header is None:
        header = not all(_is_number(tok) for tok in first_row)
    if header:
        names = [tok.strip() for tok in first_row]
        body, first_line = lines[1:], 2
    else:
        names = None
        body, first_line = lines, 1
    if not body:
        raise DimensionError("need at least 2 samples, got 0")
    return delimiter, names, body, first_line


def _view(names: list[str] | None, data: np.ndarray) -> ViewMatrix:
    p = data.shape[1]
    if names is None:
        names = _default_names(p)
    elif len(names) != p:
        raise ParseError(f"header has {len(names)} names for {p} columns", line=1)
    else:
        _check_names(names)
    return ViewMatrix(data, names, centered=False, scaled=False)


def load_view(path, delimiter: str | None = None, header: bool | None = None) -> ViewMatrix:
    """Read a delimited numeric matrix into a ViewMatrix.

    The delimiter is inferred from the extension (.tsv/.tab -> tab, else
    comma) unless given. ``header=None`` auto-detects a name row: the first
    row is a header iff any of its cells is not a finite number. A blank or
    repeated header name raises ParseError on line 1.
    """
    delimiter, names, body, first_line = _read_rows(path, delimiter, header)
    p = len(body[0].split(delimiter))
    data = _parse_body(body, delimiter, p)
    if data is None:
        data = _parse_cells(body, delimiter, p, first_line)
    return _view(names, data)


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


def _parse_run(files, arrays, start: int, stop: int) -> bool:
    """Parse lines [start, stop) of the concatenated bodies into ``arrays``;
    False at the first piece that ``_parse_body`` refuses."""
    offset = 0
    for (delimiter, _names, body, p), out in zip(files, arrays):
        lo, hi = max(start - offset, 0), min(stop - offset, len(body))
        if lo < hi:
            data = _parse_body(body[lo:hi], delimiter, p)
            if data is None:
                return False
            out[lo:hi] = data
        offset += len(body)
    return True


def _load_parallel(paths, delimiter: str | None, cpus: list[int]) -> list[ViewMatrix] | None:
    """The views of ``paths`` with their body rows parsed on up to one
    process per CPU of ``cpus``; None when a file needs ``load_view``'s
    error path (it cannot be read, has a bad header or too few rows, or a
    run of its rows fails to parse)."""
    try:
        files = []
        for path in paths:
            delim, names, body, _first = _read_rows(path, delimiter, None)
            files.append((delim, names, body, len(body[0].split(delim))))
    except (SccaError, OSError, ValueError):
        return None
    line_bytes = np.array([len(line) + 1 for _d, _n, body, _p in files for line in body],
                          dtype=float)
    parts = min(len(cpus), max(2, int(line_bytes.sum()) >> 20))
    shapes = [(len(body), p) for _d, _n, body, p in files]
    shared = mmap.mmap(-1, 8 * sum(n * p for n, p in shapes))
    arrays, offset = [], 0
    for n, p in shapes:
        arrays.append(np.frombuffer(shared, dtype=float, count=n * p,
                                    offset=offset).reshape(n, p))
        offset += 8 * n * p
    cuts = _cuts(line_bytes, parts)
    # each run writes its rows into the shared mapping, so a forked parser
    # returns only whether its run parsed
    if not all(cores.run_shares(lambda k: _parse_run(files, arrays, cuts[k], cuts[k + 1]),
                                cpus[:len(cuts) - 1])):
        return None
    try:
        return [_view(names, data) for (_d, names, _b, _p), data in zip(files, arrays)]
    except SccaError:
        return None


def load_views(paths, delimiter: str | None = None) -> list[ViewMatrix]:
    """Read several view files: the same views, and the same first error,
    as ``[load_view(path, delimiter) for path in paths]``.

    Where ``os.fork`` exists, more than one CPU is usable and the files
    total at least 2 MiB, the body rows of all files are split into
    line-aligned runs of about equal bytes, at most one per usable CPU and
    one per MiB, and parsed at once: one run in this process, each other
    in a forked child that writes its rows into a shared output buffer.
    Each parser is pinned to its own CPU while it parses: on a 2-core VM
    the scheduler otherwise kept the child on its parent's CPU, and each
    half took as long as the whole. The values are bit-identical to the
    serial parse. A file that this path cannot take whole (missing, a bad
    header or cell, too few rows) sends every file through ``load_view``
    in order, so the error is the one the serial loop raises.
    """
    paths = list(paths)
    cpus = cores.usable_cpus()
    if len(cpus) > 1:
        try:
            big = sum(os.path.getsize(path) for path in paths) >= _PARALLEL_MIN_BYTES
        except OSError:
            big = False
        views = _load_parallel(paths, delimiter, cpus) if big else None
        if views is not None:
            return views
    return [load_view(path, delimiter=delimiter) for path in paths]


def write_view(view: ViewMatrix, path, delimiter: str | None = None,
               header: bool = True) -> Path:
    """Write a view back to disk with full-precision floats (round-trips to 1e-12)."""
    path = Path(path)
    if delimiter is None:
        delimiter = "\t" if path.suffix.lower() in {".tsv", ".tab"} else ","
    lines = []
    if header:
        lines.append(delimiter.join(view.names))
    for row in view.data:
        lines.append(delimiter.join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def standardize(data: np.ndarray, scale: bool = False):
    """Centre the columns of ``data`` and, with ``scale``, divide them by
    their sample sd. Returns (data, means, sds, constant): the sds are 1
    where nothing was divided, and constant columns (sd at rounding level)
    come back all-zero, so rows held out of ``data`` map as (x - means) / sds.
    """
    mean = data.mean(axis=0)
    out = data - mean
    sd = np.ones(data.shape[1])
    constant = np.zeros(data.shape[1], dtype=bool)
    if scale:
        sd = out.std(axis=0, ddof=1)
        constant = sd <= 1e-12 * (np.abs(data).max(axis=0, initial=0.0) + 1.0)
        out[:, constant] = 0.0
        sd = np.where(constant, 1.0, sd)
        out = out / sd
    return out, mean, sd, constant


def center_scale(v: ViewMatrix, scale: bool = False) -> ViewMatrix:
    """Remove column means; optionally rescale columns to unit sample sd.

    Columns that are constant (zero variance after centering) are left
    all-zero and reported in the returned view's warning list rather than
    rejected, so column indices stay stable.
    """
    data, _mean, _sd, constant = standardize(v.data, scale)
    warnings = list(v.warnings)
    warnings += [f"constant column {v.names[j]!r} zeroed during scaling"
                 for j in np.flatnonzero(constant)]
    return ViewMatrix(data, list(v.names), centered=True, scaled=scale or v.scaled,
                      warnings=tuple(warnings))


def _divisor(n: int, divisor: str) -> int:
    if divisor == "n":
        return n
    if divisor in ("n-1", "nm1"):
        return n - 1
    raise ValueError(f"unknown divisor {divisor!r}")


def _check_pair(a: ViewMatrix, b: ViewMatrix) -> None:
    if a.n != b.n:
        raise DimensionError(f"sample counts differ: {a.n} vs {b.n}")
    if not (a.centered and b.centered):
        raise StateError("cross_covariance requires centered views")


def cross_covariance(a: ViewMatrix, b: ViewMatrix, divisor: str = "n") -> np.ndarray:
    """Sample cross-covariance block of two centered views sharing samples."""
    _check_pair(a, b)
    return a.data.T @ b.data / _divisor(a.n, divisor)


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
    def from_views(cls, a: ViewMatrix, b: ViewMatrix, divisor: str = "n") -> "CrossOperator":
        """The operator of ``cross_covariance(a, b, divisor)``; shares the views' data."""
        _check_pair(a, b)
        return cls(a.data, b.data, _divisor(a.n, divisor),
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
        out = np.matmul(self.a.T, y.take(self._gather), out=out)
        out /= self.div
        if self.rmask is not None:
            out *= self.rmask
        return out

    def take(self, members) -> "PermutedCross":
        """The batch of the members listed in ``members``, in that order."""
        return replace(self, idx=self.idx[:, members], inv=self.inv[:, members],
                       rmask=None if self.rmask is None else self.rmask[:, members],
                       cmask=None if self.cmask is None else self.cmask[:, members])

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
