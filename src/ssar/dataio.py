"""On-disk formats: instance blocks, dataset manifests, trace dumps, record streams.

Instance blocks are written as ``.npy`` and read by suffix, as ``.npy`` or else as
header-less CSV at 17 significant digits; both round-trip float64 exactly.  A
``.npy`` block's header is checked against the file's size before any array
is allocated for it, and a C-order block's data is read straight into the
array that holds it, for a dataset's two design blocks the halves of its one
stack; no file is mapped.  A dataset manifest is a JSON object with the
dimensions and relative paths of the block files, and optionally of the
stored thin SVD of the stacked design.
Traces and report streams are JSON lines, one record per line, so long sweeps
can append and resume; every record line is strict JSON, with a non-finite
float written as ``null``.  A trace dump holds every field of an
:class:`~ssar.asura.AsuraTrace`, so a loaded dump equals the live trace.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .asura import AsuraTrace
from .core import Dataset, SvdFactors
from .errors import InvalidInputError
from .verify import LemmaReport

__all__ = [
    "save_block",
    "load_matrix",
    "load_vector",
    "save_dataset",
    "load_dataset",
    "dump_trace",
    "load_trace",
    "solution_record",
    "lemma_report_to_dict",
    "json_line",
    "write_jsonl",
]

def save_block(out_dir, name: str, arr) -> str:
    """Write ``arr`` as the float64 block ``<name>.npy`` in ``out_dir``; returns the file name."""
    np.save(os.path.join(out_dir, f"{name}.npy"), np.asarray(arr, dtype=float))
    return f"{name}.npy"


@contextmanager
def _reading(path):
    """Report a file that does not parse, or lacks a key, as bad input naming the file."""
    try:
        yield
    except InvalidInputError:
        raise
    except KeyError as exc:
        raise InvalidInputError(f"{path}: missing key {exc}") from None
    except (EOFError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


# The readers of the .npy header versions.  A version 3.0 header differs from
# a 2.0 one only in being UTF-8, not Latin-1; a float64 block's header is
# ASCII, on which the two agree, and any other dtype is refused.
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0,
                (3, 0): np.lib.format.read_array_header_2_0}


def _npy_block(path, ndim: int) -> tuple[tuple, bool, int]:
    """The shape, Fortran-order flag and data offset of the ``ndim``-D float64
    ``.npy`` block at ``path``, read from its header alone, and checked
    against the file's size before any array is allocated."""
    magic = np.lib.format.MAGIC_PREFIX  # b"\x93NUMPY"
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise InvalidInputError(f"{path}: not a .npy file")
        fh.seek(0)
        with _reading(path):
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_HEADERS:
                raise InvalidInputError(f"{path}: unsupported .npy version {version}")
            shape, fortran, dtype = _NPY_HEADERS[version](fh)
        data, size = fh.tell(), os.fstat(fh.fileno()).st_size
    if dtype != np.float64 or len(shape) != ndim or min(shape, default=0) < 0:
        raise InvalidInputError(f"{path}: expected a {ndim}-D float64 array")
    if size - data < 8 * math.prod(shape):
        raise InvalidInputError(f"{path}: the file ends before its {shape} data")
    return shape, fortran, data


def _read_into(path, offset: int, out: np.ndarray) -> None:
    """Read the data at ``offset`` in ``path`` straight into the C-contiguous
    float64 ``out``."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        got = fh.readinto(out.reshape(-1).view(np.uint8))
    if got != out.nbytes:
        raise InvalidInputError(f"{path}: the file ends before its {out.shape} data")


def _read_npy(path, shape: tuple, fortran: bool, offset: int) -> np.ndarray:
    """The data of a ``.npy`` block that :func:`_npy_block` described, in a new array.

    Fortran-order data is the C-order data of the transpose, so it is read
    into a C-order array of the reversed shape, whose transpose is returned.
    """
    arr = np.empty(shape[::-1] if fortran else shape)
    _read_into(path, offset, arr)
    return arr.T if fortran else arr


def _load_block(path, ndim: int) -> np.ndarray | None:
    """A float64 array of ``ndim`` dimensions from ``.npy`` or CSV; None for an empty CSV."""
    if str(path).endswith(".npy"):
        return _read_npy(path, *_npy_block(path, ndim))
    if os.path.getsize(path) == 0:
        return None
    with _reading(path):
        return np.loadtxt(path, delimiter="," if ndim == 2 else None, ndmin=ndim)


def _check_columns(path, shape: tuple, cols: int | None) -> None:
    if cols is not None and shape[1] != cols:
        raise InvalidInputError(f"{path}: expected {cols} columns, found {shape[1]}")


def load_matrix(path, cols: int | None = None) -> np.ndarray:
    """A matrix block, checked to have ``cols`` columns if given."""
    arr = _load_block(path, ndim=2)
    if arr is None:
        if cols is None:
            raise InvalidInputError(f"{path} is empty and no column count was given")
        return np.zeros((0, cols))
    _check_columns(path, arr.shape, cols)
    return arr


def _load_stack(manifest_path, blocks, cols: int) -> np.ndarray:
    """The matrix blocks ``(path, rows)`` stacked in one new C-order array.

    A C-order ``.npy`` block's data is read straight into its rows of the
    stack, so the stack is the one copy of the blocks; a Fortran-order
    ``.npy`` block is read whole and then copied in, and a CSV block is
    parsed, before the stack is allocated, and then copied in.  Every
    block's shape is checked before the stack is allocated.
    """
    sources = []  # per block, its parsed CSV array or its .npy (shape, fortran, offset)
    for path, rows in blocks:
        if str(path).endswith(".npy"):
            source = _npy_block(path, ndim=2)
            shape = source[0]
            _check_columns(path, shape, cols)
        else:
            source = load_matrix(path, cols)
            shape = source.shape
        if shape[0] != rows:
            raise InvalidInputError(f"{manifest_path}: row counts do not match the block files")
        sources.append((path, source))
    stack = np.empty((sum(rows for _, rows in blocks), cols))
    start = 0
    for (path, source), (_, rows) in zip(sources, blocks):
        part = stack[start:start + rows]
        if isinstance(source, np.ndarray):
            part[...] = source
        elif source[1]:  # Fortran order
            part[...] = _read_npy(path, *source)
        else:
            _read_into(path, source[2], part)
        start += rows
    return stack


def load_vector(path) -> np.ndarray:
    arr = _load_block(path, ndim=1)
    return np.zeros(0) if arr is None else arr


def _whole(path, name: str, value) -> int:
    """A count or index read from JSON file ``path``: it must be a JSON integer,
    since ``int()`` would cut 9.7 to 9 and take ``"30"`` or ``true``."""
    if type(value) is not int:
        raise InvalidInputError(f"{path}: {name} must be an integer, got {value!r}")
    return value


# Manifest keys of the stored thin SVD of the stacked design, and their fields.
FACTOR_KEYS = {"path_u": "u", "path_sigma": "sigma", "path_v": "v"}


def save_dataset(out_dir, ds: Dataset, full_labels=None, stem: str = "instance") -> str:
    """Write the blocks and ``ds.svd`` as ``.npy`` files plus a JSON manifest;
    returns the manifest path.

    When ``full_labels`` is given, the hidden labels of the unlabeled block are
    stored alongside (test mode); without it the manifest describes a
    deploy-mode instance whose unlabeled rows cannot be evaluated offline.
    The factors need no labels, so an instance is factored once, here.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "d": ds.d, "n1": ds.n1, "n2": ds.n2,
        "path_x1": save_block(out_dir, f"{stem}_x1", ds.x_unlabeled),
        "path_x2": save_block(out_dir, f"{stem}_x2", ds.x_labeled),
        "path_y2": save_block(out_dir, f"{stem}_y2", ds.y_labeled),
        "path_y1_hidden": None,
        **{key: save_block(out_dir, f"{stem}_{name}", getattr(ds.svd, name))
           for key, name in FACTOR_KEYS.items()},
    }
    if full_labels is not None:
        y = np.asarray(full_labels, dtype=float).reshape(-1)
        if y.size != ds.n:
            raise InvalidInputError(f"full_labels must have length {ds.n}")
        manifest["path_y1_hidden"] = save_block(out_dir, f"{stem}_y1_hidden", y[: ds.n1])
    manifest_path = os.path.join(out_dir, f"{stem}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path


def load_dataset(manifest_path) -> tuple[Dataset, np.ndarray | None]:
    """Read a manifest; returns the dataset and, in test mode, the full labels.

    The counts ``d``, ``n1`` and ``n2`` must be JSON integers.  The ``x1``
    and ``x2`` blocks are read into the two halves of one new stack, which
    the dataset adopts (see :func:`_load_stack`).  Factors named
    by the manifest go to the dataset as candidates:
    :func:`~ssar.core.thin_svd` keeps them only if they factor the stack.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path) as fh, _reading(manifest_path):
        manifest = json.load(fh)
        d, n1, n2 = (_whole(manifest_path, k, manifest[k]) for k in ("d", "n1", "n2"))
        x1_path, x2_path, y2_path = (
            os.path.join(base, manifest[k]) for k in ("path_x1", "path_x2", "path_y2")
        )
        hidden = manifest.get("path_y1_hidden")
        y1_path = os.path.join(base, hidden) if hidden else None
        named = {key: manifest[key] for key in FACTOR_KEYS if manifest.get(key) is not None}
        if named and len(named) != len(FACTOR_KEYS):
            raise InvalidInputError(
                f"{manifest_path}: names {sorted(named)} but not all of {list(FACTOR_KEYS)}"
            )
        factor_paths = {key: os.path.join(base, path) for key, path in named.items()}
    # Read straight into the stack that the Dataset adopts: no block file is mapped.
    stack = _load_stack(manifest_path, ((x1_path, n1), (x2_path, n2)), d)
    y2 = load_vector(y2_path)
    factors = None
    if factor_paths:
        factors = SvdFactors(u=load_matrix(factor_paths["path_u"]),
                             sigma=load_vector(factor_paths["path_sigma"]),
                             v=load_matrix(factor_paths["path_v"]))
    ds = Dataset(stack, n1, y2, factors=factors)
    full = None
    if y1_path:
        y1 = load_vector(y1_path)
        if y1.size != ds.n1:
            raise InvalidInputError(f"{manifest_path}: hidden label file does not match n1")
        full = np.concatenate([y1, y2])
    return ds, full


def dump_trace(path, trace: AsuraTrace) -> None:
    """Write one run's scalar trace as JSON lines.

    A header record carries the run constants, one record per iteration holds
    the per-iteration scalars (including the unlabeled-block series
    ``px1_sum`` and ``phi_d``), and a trailer record holds the final barrier
    values.  With the run's factors this determines every running matrix.
    """
    header = {"kind": "header", "gamma": float(trace.gamma), "rank": int(trace.rank),
              "n_rows": int(trace.n_rows), "n_unlabeled": int(trace.n_unlabeled), "m": trace.m}
    series = zip(trace.phi_id.tolist(), trace.sampled_index.tolist(), trace.p_j.tolist(),
                 trace.u.tolist(), trace.l.tolist(), trace.px1_sum.tolist(),
                 trace.phi_d.tolist())
    iterations = (
        {"j": j, "phi_id": phi, "sampled_index": k, "p_j": p, "u_j": u, "l_j": l,
         "px1_sum": px1, "phi_d": phi_d}
        for j, (phi, k, p, u, l, px1, phi_d) in enumerate(series)
    )
    trailer = {"j": trace.m, "u_j": trace.u_final, "l_j": trace.l_final}
    write_jsonl(path, [header, *iterations, trailer])


def load_trace(path) -> AsuraTrace:
    """Read a trace dump back; the result equals the dumped trace field for field.

    A dump with a count or index that is not a JSON integer (``m``,
    ``rank``, ``n_rows``, ``n_unlabeled``, ``sampled_index``), ``gamma``
    outside (0, 1/2), a rank below 1, an ``n_unlabeled`` outside
    ``[0, n_rows]``, a non-finite float, a ``sampled_index`` outside
    ``[0, n_rows)`` or a step weight ``w'_j = gamma / (phi_j p_j)`` that is
    not finite and positive is refused as bad input naming the file.
    """

    with open(path) as fh, _reading(path):
        lines = [json.loads(line) for line in fh if line.strip()]
        if not lines or not isinstance(lines[0], dict) or lines[0].get("kind") != "header":
            raise InvalidInputError(f"{path} is not a trace dump")
        head, body = lines[0], lines[1:]
        m = _whole(path, "m", head["m"])
        if m < 0 or len(body) != m + 1:
            raise InvalidInputError(f"{path}: expected {m + 1} records, found {len(body)}")
        iters, trailer = body[:m], body[m]
        trace = AsuraTrace(
            gamma=float(head["gamma"]),
            rank=_whole(path, "rank", head["rank"]),
            n_rows=_whole(path, "n_rows", head["n_rows"]),
            n_unlabeled=_whole(path, "n_unlabeled", head["n_unlabeled"]),
            phi_id=np.array([rec["phi_id"] for rec in iters], dtype=float),
            u=np.array([rec["u_j"] for rec in iters] + [trailer["u_j"]], dtype=float),
            l=np.array([rec["l_j"] for rec in iters] + [trailer["l_j"]], dtype=float),
            sampled_index=np.array([_whole(path, "sampled_index", rec["sampled_index"])
                                    for rec in iters], dtype=np.int64),
            p_j=np.array([rec["p_j"] for rec in iters], dtype=float),
            px1_sum=np.array([rec["px1_sum"] for rec in iters], dtype=float),
            phi_d=np.array([rec["phi_d"] for rec in iters], dtype=float),
        )
    # The sampler only runs at 0 < gamma < 1/2, and the checks divide by gamma
    # and compare the series: a NaN there would pass every check.
    if not 0.0 < trace.gamma < 0.5:
        raise InvalidInputError(f"{path}: gamma must lie in (0, 1/2), got {trace.gamma}")
    if trace.rank < 1:
        raise InvalidInputError(f"{path}: rank must be at least 1, got {trace.rank}")
    if not 0 <= trace.n_unlabeled <= trace.n_rows:
        raise InvalidInputError(
            f"{path}: n_unlabeled must lie in [0, n_rows = {trace.n_rows}], "
            f"got {trace.n_unlabeled}"
        )
    series = {"phi_id": trace.phi_id, "p_j": trace.p_j, "u_j": trace.u, "l_j": trace.l,
              "px1_sum": trace.px1_sum, "phi_d": trace.phi_d}
    for name, values in series.items():
        if not np.isfinite(values).all():
            raise InvalidInputError(f"{path}: non-finite {name}")
    # The checks index U by the picks and scale each step by sqrt(w'_j).
    if ((trace.sampled_index < 0) | (trace.sampled_index >= trace.n_rows)).any():
        raise InvalidInputError(f"{path}: sampled_index outside [0, {trace.n_rows})")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w_prime = trace.w_prime
    if not (np.isfinite(w_prime) & (w_prime > 0)).all():
        raise InvalidInputError(
            f"{path}: step weight gamma / (phi_id p_j) must be finite and positive"
        )
    return trace


def solution_record(sol, seed: int) -> dict:
    """Solve result as a serializable record."""
    return {
        "beta_hat": np.asarray(sol.beta_hat).tolist(),
        "loss": sol.loss,
        "opt": sol.opt,
        "ratio": sol.ratio,
        "queries": sol.queries,
        "iterations": sol.iterations,
        "seed": int(seed),
    }


def lemma_report_to_dict(rep: LemmaReport) -> dict:
    rec = asdict(rep)
    rec["verdict"] = "pass" if rep.verdict else "fail"
    rec["runs"] = rec.pop("runs_checked")
    return rec


def _finite(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def json_line(rec) -> str:
    """One record as strict JSON: a non-finite float is written as ``null``."""
    return json.dumps(_finite(rec), allow_nan=False)


def write_jsonl(path, records, append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode) as fh:
        for rec in records:
            fh.write(json_line(rec) + "\n")
