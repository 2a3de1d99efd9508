"""Longitudinal data container, preprocessing, and the design [y X Btilde(t)] and its Gram.

Expected file format: long CSV with header ``subject,time,y,<covariate...>``.
Rows may arrive in any order; a dataset stores them once, stacked by subject
(first-appearance order) and by time within subject, with each subject's row
offsets.  Observation times are rescaled to [0,1] by the pooled (min, max) so
one basis serves all subjects.

The accepted grammar: UTF-8 text (a leading byte-order mark is skipped),
comma-separated, every row with as many fields as the header, whose names
are distinct once surrounding spaces are stripped.  A field may be quoted
with ``"`` (``""`` inside quotes is a literal quote).  Numbers use Python
``float`` syntax in ASCII without underscores (``1.5``, ``-2e-05``, ``.5``)
and may be padded with spaces; NaN and inf are rejected.  Empty lines are
skipped but still counted in the row numbers of error messages; a line of
spaces or of empty fields is an error.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NoReturn

import numpy as np

from .basis import CenteredSplineBasis
from .errors import DegenerateColumnError, DegenerateDesignError, DimensionError, ParseError


SubjectRecord = namedtuple("SubjectRecord", "subject_id times responses covariates")

# rows of [C Z_1 ... Z_p] stacked at a time while forming the design Gram: an
# eighth of the design (so the chunk adds at most an eighth to its memory),
# within [128, 4096] rows (fewer rows per product run the BLAS slower)
GRAM_CHUNK_ROWS = (128, 4096)
# lambda_min <= this * lambda_max of the constant design's Gram: cond([1 X]) >= 1e6
CONSTANT_GRAM_RCOND = 1e-12


@dataclass(frozen=True)
class PreprocessState:
    """How raw rows reach the model scale; the default is the identity map."""

    demeaned: bool = False
    center: np.ndarray | None = None        # per-covariate standardization
    scale: np.ndarray | None = None
    time_domain: tuple = (0.0, 1.0)         # raw (min, max) of the times, mapped onto [0,1]

    @property
    def standardized(self) -> bool:
        return self.center is not None

    def to_model_scale(self, X: np.ndarray, times: np.ndarray) -> tuple:
        """Raw rows' (X, times) on the model scale: X standardized, times (t - lo) / (hi - lo).

        For new rows only: a dataset's stored times are mapped already, and
        de-meaning needs a subject's rows, not the record.
        """
        if self.standardized:
            X = (X - self.center) / self.scale
        lo, hi = self.time_domain
        return X, (times - lo) / (hi - lo)


@dataclass(frozen=True)
class LongitudinalDataset:
    """Read-only y, X, times stacked by subject; subject i owns rows bounds[i]:bounds[i+1]."""

    subject_ids: tuple
    bounds: np.ndarray                      # (n_subjects + 1,) row offsets
    y: np.ndarray
    X: np.ndarray
    times: np.ndarray                       # rescaled to [0,1]
    covariate_names: tuple
    preprocessing: PreprocessState = field(default_factory=PreprocessState)

    def __post_init__(self):
        for arr in (self.bounds, self.y, self.X, self.times):
            arr.setflags(write=False)

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def n_total(self) -> int:
        return len(self.y)

    @property
    def subjects(self) -> tuple:
        return tuple(SubjectRecord(sid, self.times[lo:hi], self.y[lo:hi], self.X[lo:hi])
                     for sid, lo, hi in zip(self.subject_ids, self.bounds, self.bounds[1:]))

    def row_subject_ids(self) -> np.ndarray:
        return np.repeat(np.array(self.subject_ids, dtype=object), np.diff(self.bounds))

    def stacked(self):
        """(y, X, t), the stored arrays themselves."""
        return self.y, self.X, self.times


@dataclass(frozen=True)
class DesignBlocks:
    """Stacked y, X and B = Btilde(t) at each row; no spline block Z_k = diag(x_k) B is stored.

    What the design alone determines is formed on first use and shared by its
    fits: `gram` (the Gram of [A y], A = [C Z_1 ... Z_p]), `cold_constants`,
    `sweep_tables`, `block_factors` and `rotated_gram`.  A `replace` copy
    forms its own; `with_gram` sets the Gram.
    """

    y: np.ndarray
    X: np.ndarray                    # (n, p)
    B: np.ndarray                    # (n, q): Btilde(t) at each row
    intercept_included: bool
    # (lambda2, Omega bytes) -> the block factorizations, filled by `solver.fit_bcd`
    block_factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the same key -> `solver.rotated_gram` of those factors, for the last key swept only
    rotated_gram: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.B.shape[1]

    @property
    def Z(self) -> tuple:
        """The p spline blocks Z_k = diag(x_k) B, each (n, q), formed anew at each read."""
        return tuple(self.X[:, k:k + 1] * self.B for k in range(self.p))

    @property
    def block_slices(self) -> list[slice]:
        """Columns of each spline block Z_k in A = [C Z_1 ... Z_p]."""
        m, q = self.p + self.intercept_included, self.q
        return [slice(m + k * q, m + (k + 1) * q) for k in range(self.p)]

    @cached_property
    def gram(self) -> np.ndarray:
        return design_gram(self)

    @cached_property
    def cold_constants(self) -> np.ndarray:
        """solve(C'C, C'y) from `gram`, refusing a zero column or cond(C) >= 1e6."""
        m, gram = self.p + self.intercept_included, self.gram
        ctc = gram[:m, :m]
        c_sq = ctc.diagonal()
        if (c_sq == 0.0).any():
            k_bad = int(np.argmin(c_sq)) - self.intercept_included
            raise DegenerateColumnError(
                f"covariate column {k_bad} has zero norm: it is zero, or too small in "
                "magnitude for its squares to be summed; rescale it")
        eig = np.linalg.eigvalsh(ctc)
        if eig[0] <= CONSTANT_GRAM_RCOND * eig[-1]:
            design_name = "[1 X]" if self.intercept_included else "X"
            raise DegenerateDesignError(
                f"the constant design {design_name} is rank-deficient or nearly so "
                f"(eigenvalue ratio {max(eig[0], 0.0) / eig[-1]:.1e} of its Gram matrix): "
                f"the constant effects are not identified")
        c = np.linalg.solve(ctc, gram[:m, -1])
        c.setflags(write=False)
        return c

    @cached_property
    def sweep_tables(self) -> tuple:
        """(inv(tril(C'C)), [G_kk]) from `gram`: the BCD sweep's and the block factors' tables.

        One Gauss-Seidel pass over the constants is forward substitution with
        tril(C'C), so inv(tril(C'C)) makes it one product.  Each block's G_kk
        is a contiguous copy.
        """
        m, G = self.p + self.intercept_included, self.gram[:-1, :-1]
        gauss_seidel = np.linalg.inv(np.tril(G[:m, :m]))
        gauss_seidel.setflags(write=False)
        return gauss_seidel, [np.ascontiguousarray(G[cols, cols]) for cols in self.block_slices]

    def with_gram(self, gram: np.ndarray) -> DesignBlocks:
        """A copy whose `gram` is the given Gram of [A y], such as a sum of fold Grams.

        A Gram with a non-finite entry raises `DegenerateDesignError`.
        """
        width = self.p + self.intercept_included + self.p * self.q + 1
        if gram.shape != (width, width):
            raise DimensionError(f"Gram of shape {gram.shape}, the design needs {(width, width)}")
        design = replace(self)
        object.__setattr__(design, "gram", _finite_gram(gram.view()))
        return design


def design_gram(design: DesignBlocks) -> np.ndarray:
    """The Gram of [A y] for A = [C Z_1 ... Z_p] over the design's rows.

    For A of width w: the (w+1) x (w+1) matrix [[G, A'y], [y'A, y'y]], G = A'A.
    [A y]' is stacked a chunk of rows at a time (GRAM_CHUNK_ROWS) and never
    whole, block k's rows as B[chunk]' * x_k[chunk], so forming it costs a
    fraction of the design's memory.  Stacking [A y]' (contiguous rows per
    column) copies several times faster than stacking [A y].  A
    cross-validation fold's Gram is its held-out design's own
    (`tuning.tune_cv`).  Read-only; an entry that overflows raises
    `DegenerateDesignError`.
    """
    m = design.p + design.intercept_included
    width = m + design.p * design.q
    chunk = int(np.clip(design.n // 8, *GRAM_CHUNK_ROWS))
    gram = np.zeros((width + 1, width + 1))
    buf = np.empty((width + 1, min(chunk, design.n)))
    buf[0] = 1.0                    # the intercept row, when C has one
    for start in range(0, design.n, chunk):
        stop = min(start + chunk, design.n)
        At = buf[:, :stop - start]
        At[m - design.p:m] = design.X.T[:, start:stop]
        for xk, cols in zip(At[m - design.p:m], design.block_slices):
            np.multiply(design.B.T[:, start:stop], xk, out=At[cols])
        At[width] = design.y[start:stop]
        with np.errstate(over="ignore", invalid="ignore"):  # `_finite_gram` refuses it
            gram += At @ At.T
    return _finite_gram(gram)


def _finite_gram(gram: np.ndarray) -> np.ndarray:
    """The Gram made read-only; one whose entries overflow raises `DegenerateDesignError`.

    So does a nonzero response whose squares underflow: y'y below the least
    normal float while A'y is not zero.
    """
    if not np.isfinite(gram).all():
        raise DegenerateDesignError("the design's Gram matrix is not finite: y or a covariate "
                                    "is too large in magnitude for its squares to be summed")
    if gram[-1, -1] < np.finfo(float).tiny and gram[:-1, -1].any():
        raise DegenerateDesignError("the response y is too small in magnitude for its squares "
                                    "to be summed; rescale it")
    gram.setflags(write=False)
    return gram


def from_arrays(subject_ids, times, y, X, covariate_names=None,
                rescale: bool = True) -> LongitudinalDataset:
    """Build a dataset from parallel arrays (one entry per observation)."""
    times = np.asarray(times, dtype=float)
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    for name, arr in (("time", times), ("y", y), ("covariates", X)):
        if not np.isfinite(arr).all():
            raise ParseError(f"{name} contains NaN or inf")
    if covariate_names is None:
        covariate_names = tuple(f"x{k + 1}" for k in range(X.shape[1]))

    lo, hi = float(times.min()), float(times.max())
    if rescale:
        if hi == lo:
            raise DegenerateDesignError("all observation times are identical; cannot rescale to [0,1]")
        t01 = (times - lo) / (hi - lo)
    else:
        t01 = times
        lo, hi = 0.0, 1.0

    # subjects by first appearance, rows by time within a subject; the stable
    # lexsort keeps file order among tied times.  Object dtype, because a
    # fixed-width str array would drop trailing NULs from the ids.
    ids = np.array([str(s) for s in subject_ids], dtype=object)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    row_rank = np.argsort(np.argsort(first))[inverse]
    order = np.lexsort((t01, row_rank))
    return LongitudinalDataset(
        subject_ids=tuple(ids[np.sort(first)]),
        bounds=np.concatenate([[0], np.cumsum(np.bincount(row_rank))]),
        y=y[order], X=X[order], times=t01[order],
        covariate_names=tuple(covariate_names),
        preprocessing=PreprocessState(time_domain=(lo, hi)),
    )


def load_long_csv(path, rescale: bool = True) -> LongitudinalDataset:
    """Read a long-format CSV; times are rescaled to [0,1] by the global range.

    `rescale=False` keeps the times as read (used when scoring new data
    against a previously fitted time domain).  numpy's C reader parses the
    data rows in one pass; only when it refuses the file does a csv scan
    look for the row and column to name in the error.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
        header = [h.strip() for h in header]
        for j, name in enumerate(header):
            if name in header[:j]:
                raise ParseError(f"{path}: column name '{name}' appears more than once "
                                 "in the header")
        required = ("subject", "time", "y")
        for col in required:
            if col not in header:
                raise ParseError(f"{path}: missing required column '{col}'")
        col_idx = {name: header.index(name) for name in required}
        cov_names = [h for h in header if h not in required]
        cov_idx = [header.index(h) for h in cov_names]
        if not cov_names:
            raise ParseError(f"{path}: no covariate columns found beyond subject,time,y")

        # numeric columns as (index, name), in the order errors are checked
        numeric = [(col_idx["time"], "time"), (col_idx["y"], "y"), *zip(cov_idx, cov_names)]
        used = {j for j, _ in numeric}
        fields = np.dtype([(f"c{j}", float if j in used else object)
                           for j in range(len(header))])
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, dtype=fields, delimiter=",", comments=None,
                                   quotechar='"', ndmin=1)
        except ValueError as exc:
            _raise_first_bad_row(fh, path, len(header), numeric, str(exc))
        if len(table) == 0:
            raise ParseError(f"{path}: no data rows")
        values = np.column_stack([table[f"c{j}"] for j, _ in numeric])
        if not np.isfinite(values).all():
            _raise_first_bad_row(fh, path, len(header), numeric, "NaN or inf found")

    sids = [sid.strip() for sid in table[f"c{col_idx['subject']}"]]
    return from_arrays(sids, values[:, 0], values[:, 1], values[:, 2:],
                       covariate_names=tuple(cov_names), rescale=rescale)


def _parse_number(raw: str) -> float:
    """float(raw) restricted to what numpy's reader takes: ASCII, no underscores."""
    if "_" in raw or not raw.isascii():
        raise ValueError(raw)
    return float(raw)


def _raise_first_bad_row(fh, path, n_fields, numeric, reason: str) -> NoReturn:
    """Re-read the data rows with csv and raise a ParseError naming the first bad one.

    Rows are numbered as in the file, the header being row 1.  If every row
    passes, `reason` (the reader's own message) is reported.
    """
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    try:
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_fields:
                raise ParseError(f"{path}: row {rownum} has {len(row)} fields, expected {n_fields}")
            for j, name in numeric:
                raw = row[j].strip()
                try:
                    val = _parse_number(raw)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {rownum}, column '{name}': cannot parse '{raw}' as a number"
                    ) from None
                if not math.isfinite(val):
                    raise ParseError(f"{path}: row {rownum}, column '{name}': "
                                     f"'{raw}' is not allowed (NaN and inf are rejected)")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err}") from None
    raise ParseError(f"{path}: cannot read the data rows: {reason}")


def demean_within_subject(dataset: LongitudinalDataset) -> LongitudinalDataset:
    """Subtract subject means from the response and every covariate column.

    Absorbs subject-specific intercepts; idempotent.  A covariate constant
    within subject is annihilated up to roundoff, at most n_i * eps/2 * |x|
    for the mean of n_i values x; so a column whose de-meaned magnitude is at
    most n_max * eps (n_max the largest subject) times its magnitude before
    raises `DegenerateColumnError`: its constant effect would be noise.  A
    response that de-means to roundoff the same way raises it too.
    """
    if dataset.preprocessing.demeaned:
        return dataset
    # Each run of consecutive subjects with n_i rows each is viewed as (subjects, n_i[, p])
    # and reduced over its row axis: the same sums in the same order as each subject
    # slice's own mean (pairwise for y, row by row for X).  A grouped sum
    # (np.add.reduceat) rounds differently.
    sizes = np.diff(dataset.bounds)
    y, X = np.empty(dataset.n_total), np.empty((dataset.n_total, dataset.p))
    firsts = np.flatnonzero(np.diff(sizes, prepend=-1))
    for first, stop in zip(firsts, [*firsts[1:], len(sizes)]):
        rows, n_i = slice(dataset.bounds[first], dataset.bounds[stop]), sizes[first]
        for src, dst in ((dataset.y, y), (dataset.X, X)):
            runs = src[rows].reshape(stop - first, n_i, *src.shape[1:])
            np.subtract(runs, runs.mean(axis=1, keepdims=True), out=dst[rows].reshape(runs.shape))
    rel_bound = sizes.max() * np.finfo(float).eps
    if np.abs(y).max() <= rel_bound * np.abs(dataset.y).max():
        raise DegenerateColumnError("the response is constant within every subject, "
                                    "so de-meaning leaves nothing to fit")
    for k in np.flatnonzero(np.abs(X).max(axis=0) <= rel_bound * np.abs(dataset.X).max(axis=0)):
        raise DegenerateColumnError(f"covariate '{dataset.covariate_names[k]}' is constant within "
                                    "every subject; fit without de-meaning (--no-demean)")
    state = replace(dataset.preprocessing, demeaned=True)
    return replace(dataset, y=y, X=X, preprocessing=state)


def standardize(dataset: LongitudinalDataset, binary_columns=()) -> LongitudinalDataset:
    """Scale each covariate column to pooled mean 0, variance 1.

    Columns named in `binary_columns` are passed through untouched
    (center 0, scale 1).  Degenerate (zero-variance) columns raise.
    """
    binary = set(binary_columns)
    unknown = binary - set(dataset.covariate_names)
    if unknown:
        raise DegenerateColumnError(f"unknown binary column(s): {sorted(unknown)}")
    _, X, _ = dataset.stacked()
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    for k, name in enumerate(dataset.covariate_names):
        if name in binary:
            center[k], scale[k] = 0.0, 1.0
        elif scale[k] == 0.0:
            raise DegenerateColumnError(f"covariate '{name}' has zero pooled variance")
    state = replace(dataset.preprocessing, center=center, scale=scale)
    return replace(dataset, X=(X - center) / scale, preprocessing=state)


def subset_subjects(dataset: LongitudinalDataset, named,
                    others: bool = False) -> LongitudinalDataset:
    """The subjects in `named` (with `others`, the ones not in it), rows as stored.

    Only the returned subjects' rows are copied, so taking the two sides of a
    split copies each row once.
    """
    named, ids = set(named), np.array(dataset.subject_ids, dtype=object)
    keep = np.array([(sid in named) != others for sid in ids], dtype=bool)
    sizes = np.diff(dataset.bounds)
    rows = np.repeat(keep, sizes)
    return replace(dataset, subject_ids=tuple(ids[keep]),
                   bounds=np.concatenate([[0], np.cumsum(sizes[keep])]),
                   y=dataset.y[rows], X=dataset.X[rows], times=dataset.times[rows])


def build_design(dataset: LongitudinalDataset, basis: CenteredSplineBasis) -> DesignBlocks:
    """Assemble y, X and B = Btilde(t) at each row; block Z_k has rows x_ijk * Btilde(t_ij)'.

    The intercept is included unless the data were de-meaned.
    """
    y, X, t = dataset.stacked()
    B = basis.eval_centered(t)                     # (n, q); y and X are read-only already
    B.setflags(write=False)
    return DesignBlocks(y=y, X=X, B=B, intercept_included=not dataset.preprocessing.demeaned)
