"""Experiment front end: dataset I/O, trace persistence, and grid execution."""

from __future__ import annotations

import base64
import configparser
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .adaptive import RHO_NAMES, RhoSequence
from .core import UsageError
from .problems import (
    FactorShape,
    SparseDesign,
    check_seed,
    lasso_problem,
    lasso_synthetic,
    logistic_gamma,
    logistic_problem,
    logistic_synthetic,
    mc_problem,
    mc_synthetic,
    nmf_problem,
    nmf_synthetic,
    quadratic_problem,
    rng,
)
from .solver import ENGINES, TERMINATIONS, IterationRecord, SolverConfig, Trace, run


class ParseError(UsageError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# LIBSVM text format

_LABEL_MAP = {"1": 1.0, "+1": 1.0, "0": 0.0, "-1": 0.0}

#: Characters of line bodies read per block: bounds the parse's working memory.
_BLOCK_CHARS = 1 << 18

#: Indices from this one up are not exact in the float64 the numbers are read as.
_INDEX_LIMIT = 2 ** 53


def _data_blocks(lines):
    """Yield the data lines in blocks of about _BLOCK_CHARS characters, each as
    (line numbers, labels, bodies). A body is the line after its label, so it
    is empty or starts with whitespace. At a line with an unknown label the
    lines before it are yielded first, so that an earlier error wins."""
    linenos, labels, bodies, size = [], [], [], 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label = line.split(None, 1)[0]
        if label not in _LABEL_MAP:
            yield linenos, labels, bodies
            raise ParseError(f"unknown label {label!r}", lineno)
        body = line[len(label):]
        linenos.append(lineno)
        labels.append(_LABEL_MAP[label])
        bodies.append(body)
        size += len(body)
        if size >= _BLOCK_CHARS:
            yield linenos, labels, bodies
            linenos, labels, bodies, size = [], [], [], 0
    yield linenos, labels, bodies


def _colon_positions(b: np.ndarray):
    """The shape of the tokens in the bytes ``b`` of joined bodies ending in
    whitespace, as (p, q, k): the positions p and bytes q of the special bytes
    (all but [0-9+-]) and the places k of the ':' among them. None unless
    every token is `[0-9+-]+:`, then a value free of ':', and tokens are
    separated by spaces and tabs alone.

    The shape is checked on q; it starts and ends with whitespace. In it,
    whitespace is followed by adjacent whitespace or by a ':' with index
    characters between; a ':' comes right after whitespace, so it ends the
    token's index and no token holds two; and a ':' is not followed by
    adjacent whitespace, so its value is not empty."""
    if np.count_nonzero(b < 32) != np.count_nonzero(b == 9):  # a control byte but tab
        return None
    special = b - 48 > 9
    special &= b != 43
    special &= b != 45
    p = np.flatnonzero(special)
    q = b[p]
    # apart: an index character follows, so the next special byte is not adjacent
    ws, nxt_ws, colon, apart = q[:-1] <= 32, q[1:] <= 32, q[1:] == 58, ~special[1:][p[:-1]]
    if (np.any(ws & ~nxt_ws & ~colon) or np.any(ws & nxt_ws & apart)
            or np.any(colon & ~(ws & apart)) or np.any((q[:-1] == 58) & nxt_ws & ~apart)):
        return None
    return p, q, np.flatnonzero(colon) + 1


#: The most characters of an index or a value that the integer read takes:
#: 15 digits are below 2**53, so exact in float64, as is 10**f for f <= 15.
_SHORT_CHARS = 15

_POW10 = np.array([float(10 ** f) for f in range(_SHORT_CHARS + 1)])

_COLON_TO_SPACE = bytes.maketrans(b":", b" ")


def _short_decimals(b: np.ndarray, p: np.ndarray, q: np.ndarray, k: np.ndarray):
    r"""The integer read's plan for a block whose shape _colon_positions gave
    as (p, q, k): each value's digits after its point and whether it is
    negative. None unless every index is digits alone, at most _SHORT_CHARS
    of them, and every value is `[+-]?[0-9]*\.?[0-9]*`, no longer."""
    point = q[k + 1] == 46
    ends = k + 1 + point  # the places in p of the whitespace that must end the values
    if np.any(q[ends] > 32):  # an exponent, a second point or another letter
        return None
    # free each per-token array before the next: a sparse text's parse peaks here
    ends = p[ends]
    colons = p[k]
    if (np.any(colons - p[k - 1] > _SHORT_CHARS + 1)
            or np.any(ends - colons > _SHORT_CHARS + 1)):
        return None
    heads = b[colons + 1]
    neg = heads == 45
    # every '+' and '-' heads a value, so an index holds none
    if (np.count_nonzero(neg) + np.count_nonzero(heads == 43)
            != np.count_nonzero(b == 43) + np.count_nonzero(b == 45)):
        return None
    return ends - p[k + 1] - point, neg


def _numbers(text: bytes, dtype, size: int) -> Optional[np.ndarray]:
    """The whitespace-separated numbers of ``text`` as ``dtype``, or None
    unless it holds ``size`` of them and nothing else."""
    try:
        # a bad number stops the read: with an error, or in NumPy 1.x with a
        # DeprecationWarning and the numbers before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            nums = np.fromstring(text, dtype, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    return nums if nums.size == size else None


def _read_float(raw: bytes, size: int):
    """The general read of ``size`` tokens: every index and value by strtod,
    as (indices, values), or None if one does not read."""
    nums = _numbers(raw.replace(b":", b" "), np.float64, 2 * size)
    if nums is None:
        return None
    # fresh values: a view would hold the indices' buffer until the parse ends
    return nums[0::2], nums[1::2].copy()


def _read_short(raw: bytes, places: np.ndarray, neg: np.ndarray):
    """The integer read, for a block _short_decimals planned: with ':' as a
    space and points and signs deleted, each token is two integers, the index
    and the value's digits M, and the value is M / 10**f for its f digits
    after the point, negated if it was. Clinger's fast path: M < 2**53 and
    10**f are exact, so one correctly rounded division gives strtod's bits;
    a sign applied after it keeps "-0.0" as -0.0. None if a value has no
    digit, for the float read to judge."""
    ints = _numbers(raw.translate(_COLON_TO_SPACE, b".+-"), np.int64, 2 * places.size)
    if ints is None:
        return None
    val = ints[1::2] / _POW10[places]
    np.negative(val, out=val, where=neg)
    return ints[0::2], val


def _read_pairs(bodies):
    """The `<idx>:<val>` tokens of these bodies as (tokens per body, index
    array, value array), or None if one is malformed. A block of short
    decimals takes the integer read, any other the float read."""
    try:
        raw = "".join([*bodies, " "]).encode("ascii")
    except UnicodeEncodeError:
        return None
    b = np.frombuffer(raw, np.uint8)
    shape = _colon_positions(b)
    if shape is None:
        return None
    p, q, k = shape
    counts = np.diff(np.searchsorted(p[k], np.cumsum(np.fromiter(map(len, bodies), np.int64))),
                     prepend=0)
    if not k.size:
        # fromstring reads a blank string as [-1.0]
        return counts, np.empty(0), np.empty(0)
    plan, size = _short_decimals(b, p, q, k), k.size
    del shape, p, q, k  # block-sized: not held through the read
    pairs = None if plan is None else _read_short(raw, *plan)
    if pairs is None:
        pairs = _read_float(raw, size)
    return None if pairs is None else (counts, *pairs)


def _malformed_message(body: str) -> str:
    """The ParseError message for a body that failed to read: its first token
    that fails alone. Runs only on that error path, once per parse."""
    tok = next((t for t in body.split() if _read_pairs([" " + t]) is None), None)
    return f"malformed token {tok!r}" if tok else "tokens must be separated by spaces or tabs"


def _read_block(linenos, bodies, n):
    """One block's (tokens per line, 0-based indices, values); its first bad
    line is raised as a ParseError."""
    pairs, bad = _read_pairs(bodies), None
    if pairs is None:
        # bisect for the first malformed line; the lines before it are checked first
        lo, hi, pairs = 0, len(bodies), _read_pairs([])
        while hi - lo > 1:
            mid = (lo + hi) // 2
            p = _read_pairs(bodies[:mid])
            if p is None:
                hi = mid
            else:
                lo, pairs = mid, p
        bad = lo
    counts, idx, val = pairs
    ends = np.cumsum(counts)
    within = np.ones(idx.size, dtype=bool)  # not the first token of its line
    within[(ends - counts)[counts > 0]] = False
    checks = [
        (idx < 1, "index must be >= 1"),
        (np.r_[False, (np.diff(idx) <= 0) & within[1:]], "indices must be strictly increasing"),
        (~np.isfinite(val), "non-finite value"),
        (idx >= _INDEX_LIMIT, "index must be below 2**53"),
    ]
    if n is not None:
        checks.append((idx > n, f"index exceeds n = {n}"))
    failed = [(int(np.argmax(mask)), what) for mask, what in checks if mask.any()]
    if failed:
        t, what = min(failed, key=lambda f: f[0])
        raise ParseError(f"{what} (entry {idx[t]:.0f}:{float(val[t])!r})",
                         linenos[int(np.searchsorted(ends, t, side="right"))])
    if bad is not None:
        raise ParseError(_malformed_message(bodies[bad]), linenos[bad])
    idx -= 1
    # SciPy keeps int32 indices where they fit; reading them so spares a copy
    fits = not idx.size or idx.max() <= np.iinfo(np.int32).max
    return counts, idx.astype(np.int32 if fits else np.int64), val


def parse_libsvm(source, n: Optional[int] = None) -> SparseDesign:
    """Parse `<label> <idx>:<val> ...` lines (1-based, strictly increasing
    indices) into a 0-based SparseDesign. Blank lines and # comments skipped.
    ``source`` is a string or an iterable of lines, such as an open file; it is
    read in blocks of lines, each checked and converted with array operations.
    The text carries no width: the design has ``n`` columns when given (a
    larger index is an error), else as many as the largest index."""
    if n is not None and n < 1:
        raise UsageError("n must be >= 1")
    lines = source.splitlines() if isinstance(source, str) else source
    labels, counts, indices, data = [], [np.zeros(1, np.int64)], [], []
    for linenos, block_labels, bodies in _data_blocks(lines):
        c, idx, val = _read_block(linenos, bodies, n)
        labels += block_labels
        counts.append(c)
        indices.append(idx)
        data.append(val)
    if not labels:
        raise UsageError("empty dataset")
    indices = np.concatenate(indices)
    data = np.concatenate(data)
    n_max = int(indices.max()) + 1 if indices.size else 0
    return SparseDesign(m=len(labels), n=max(n_max, 1) if n is None else n,
                        indptr=np.cumsum(np.concatenate(counts)), indices=indices,
                        data=data, labels=labels)


def write_libsvm(design: SparseDesign, stream) -> None:
    ptr, indices, data = design.indptr, design.indices.tolist(), design.data.tolist()
    for label, lo, hi in zip(design.labels, ptr[:-1].tolist(), ptr[1:].tolist()):
        parts = ["1" if label == 1.0 else "0"]
        parts.extend(f"{j + 1}:{format(v, '.17g')}" for j, v in zip(indices[lo:hi], data[lo:hi]))
        stream.write(" ".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Trace persistence

#: The persisted trace columns: (column, IterationRecord field, dtype), in the
#: record's field order, so that the reader builds records from the columns
#: positionally. Each column is stored as the base64 of its values' bytes in
#: that NumPy dtype: little-endian int64 for the counters, float64 otherwise.
TRACE_SCHEMA = (
    ("k", "k", "<i8"),
    ("f", "f_value", "<f8"),
    ("F", "F_value", "<f8"),
    ("gradmap_norm", "gradmap_norm", "<f8"),
    ("lambda", "lam", "<f8"),
    ("L_k", "L_k", "<f8"),
    ("l_k", "l_k", "<f8"),
    ("rho", "rho_used", "<f8"),
    ("elapsed_s", "elapsed_seconds", "<f8"),
    ("n_value", "n_value", "<i8"),
    ("n_grad", "n_gradient", "<i8"),
    ("n_prox", "n_prox", "<i8"),
)

#: The layout of a trace file, written as its metadata "version".
TRACE_VERSION = 3

#: The metadata "dtypes" map: each column's NumPy dtype string.
TRACE_DTYPES = {c: dt for c, _, dt in TRACE_SCHEMA}


def _json_float(v: float):
    """A float's JSON value. RFC 8259 has no NaN or infinity: NaN is written
    as null and ±inf as "inf"/"-inf"."""
    if math.isfinite(v):
        return v
    return None if math.isnan(v) else ("inf" if v > 0 else "-inf")


def write_trace(trace: Trace, fmt: str, path: str) -> None:
    """Persist a trace as one strict JSON object: the run metadata, with the
    layout version and the columns' dtypes, and one base64 string per
    TRACE_SCHEMA column, holding its values' raw bytes, k = 0 first. ``fmt``
    must be "json".

    Each column is gathered by Trace.column and encoded on its own, which
    bounds the writer's memory at one column's encoding."""
    if fmt != "json":
        raise UsageError(f"unknown trace format {fmt!r}")
    metadata = {key: getattr(trace, attr) for key, attr, _, _ in _METADATA if attr}
    metadata.update(version=TRACE_VERSION, dtypes=TRACE_DTYPES)
    # encoded before the file is opened, so that metadata strict JSON cannot
    # hold, such as a lambda0 of inf, raises with an existing file unchanged
    head = b'{"metadata": ' + json.dumps(metadata, allow_nan=False).encode() + b', "columns": {'
    with open(path, "wb") as fh:
        fh.write(head)
        sep = b"\n"
        for c, f, dt in TRACE_SCHEMA:
            fh.write(sep + f'"{c}": "'.encode())
            fh.write(base64.b64encode(trace.column(f, dt).tobytes()))
            fh.write(b'"')
            sep = b",\n"
        fh.write(b"\n}}\n")


#: The trace metadata in the order the reader checks it: (key, the Trace
#: attribute it holds, None for "version" and "dtypes", test of its JSON value,
#: what the test asks). The writer writes those two last.
_METADATA = (
    ("version", None, lambda v: type(v) is int and v == TRACE_VERSION, f"{TRACE_VERSION}"),
    ("dtypes", None, lambda v: v == TRACE_DTYPES, f"{TRACE_DTYPES}"),
    ("solver", "engine", lambda v: type(v) is str and v in ENGINES, f"one of {tuple(ENGINES)}"),
    ("seed", "seed", lambda v: v is None or type(v) is int, "an integer or null"),
    ("problem", "problem_name", lambda v: type(v) is str, "a string"),
    ("termination", "termination", lambda v: v in TERMINATIONS, f"one of {TERMINATIONS}"),
    ("lambda0", "lambda0", lambda v: type(v) in (int, float), "a number"),
)


def _reject_constant(token: str):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _read_column(name: str, text, dtype: str) -> list:
    """A column's base64 string as the list of its values, bit for bit."""
    if type(text) is not str:
        raise ValueError(f"column {name!r} is not a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise ValueError(f"column {name!r} is not base64: {exc}") from None
    if len(raw) % 8:
        raise ValueError(f"column {name!r} holds {len(raw)} bytes, not a multiple of 8")
    return np.frombuffer(raw, dtype).tolist()


def read_trace(path: str) -> Trace:
    """Load a JSON trace. A file that is not such a trace, with every metadata
    key present and of its type, the current version and dtypes among them,
    every column a base64 string of whole values, all of one length, and the
    k column 0, 1, ..., K, is a UsageError naming it; so is a file that cannot
    be read.

    Each column's string is dropped as it is decoded, so the file's text and
    the decoded values are not all held at once."""
    try:
        with open(path) as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
        meta = payload["metadata"]
        for key, _, ok, what in _METADATA:
            if not ok(meta[key]):
                raise ValueError(f"metadata {key!r} holds {meta[key]!r}, not {what}")
        columns = payload["columns"]
        cols = [_read_column(c, columns.pop(c), dt) for c, _, dt in TRACE_SCHEMA]
        if len(set(map(len, cols))) > 1:
            raise ValueError("columns of unequal length: " + ", ".join(
                f"{c} {len(v)}" for (c, _, _), v in zip(TRACE_SCHEMA, cols)))
        # the monitor numbers observations by position, so k must be it
        if not cols[0] or cols[0] != list(range(len(cols[0]))):
            raise ValueError("column 'k' is not 0, 1, ..., K")
        init, *records = map(IterationRecord, *cols)
        fields = {attr: meta[key] for key, attr, _, _ in _METADATA if attr}
        fields["lambda0"] = float(fields["lambda0"])  # JSON may hold it as an integer
        return Trace(init=init, records=records, **fields)
    except OSError as exc:
        raise UsageError(f"cannot read trace {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise UsageError(f"trace {path} lacks {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed trace {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Experiment configuration

def _reject_unknown(where: str, keys, known) -> None:
    unknown = set(keys) - set(known)
    if unknown:
        raise UsageError(f"{where} has unknown keys {sorted(unknown)}")


def make_rho(name: str) -> RhoSequence:
    if name not in RHO_NAMES:
        raise UsageError(f"unknown rho sequence {name!r}; choose from {RHO_NAMES}")
    return getattr(RhoSequence, name)()


#: The keys of a [solver <name>] section, which are also solve's solver flags:
#: key -> (SolverConfig field, reader of the key's value).
SOLVER_KEYS = {
    "engine": ("engine", str),
    "rho": ("rho", make_rho),
    "lambda0": ("lambda0", float),
    "max_iters": ("max_iters", int),
    "max_seconds": ("max_seconds", float),
    "tol": ("gradmap_tol", float),
}


def solver_config(where: str, settings, monitor: bool = False) -> SolverConfig:
    """The validated SolverConfig of ``settings``, a mapping of SOLVER_KEYS
    keys to values, each read by its key's reader; a key not given keeps
    SolverConfig's default. An unknown key, or a value its reader refuses, is
    a UsageError naming ``where``."""
    _reject_unknown(where, settings, SOLVER_KEYS)
    fields = {}
    for key, value in settings.items():
        field, read = SOLVER_KEYS[key]
        try:
            fields[field] = read(value)
        except ValueError as exc:
            raise UsageError(f"{where} key {key!r}: {exc}") from None
    config = SolverConfig(monitor=monitor, **fields)
    config.validate()
    return config


@dataclass
class ExperimentConfig:
    problem: Dict[str, str]
    solvers: List[Tuple[str, SolverConfig]]
    seeds: List[int]
    out_dir: str

    def __post_init__(self):
        if not self.solvers:
            raise UsageError("need at least one solver")
        if not self.seeds:
            raise UsageError("need at least one seed")


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment config; a file that cannot be read, or does not
    parse as one, is a UsageError naming it."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
        if "problem" not in cp or "run" not in cp:
            raise UsageError("config needs [problem] and [run] sections")
        problem = dict(cp["problem"])
        problem_params(problem)
        runsec = cp["run"]
        _reject_unknown("[run]", runsec, ("seeds", "out"))
        seeds = [int(s) for s in runsec.get("seeds", "0").split()]
        if any(s < 0 for s in seeds):
            raise UsageError(f"seeds must be non-negative, got {min(seeds)}")
        out_dir = runsec.get("out", "out")
        solvers = [(section[len("solver "):], solver_config(f"[{section}]", cp[section]))
                   for section in cp.sections() if section.startswith("solver ")]
        return ExperimentConfig(problem=problem, solvers=solvers, seeds=seeds, out_dir=out_dir)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from None
    except (configparser.Error, ValueError) as exc:
        raise UsageError(f"config {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Problem construction from a spec dict

def _ranged(read, ok, what):
    """A reader: ``read`` of the value, which must pass ``ok``, else a
    ValueError saying it must be ``what``."""
    def read_ranged(value):
        v = read(value)
        if not ok(v):
            raise ValueError(f"must be {what}, got {v}")
        return v
    return read_ranged


_POSITIVE_INT = _ranged(int, lambda v: v >= 1, "positive")
_FINITE = _ranged(float, math.isfinite, "finite")
_NONNEGATIVE = _ranged(float, lambda v: 0.0 <= v < math.inf, "nonnegative and finite")
_POSITIVE = _ranged(float, lambda v: 0.0 < v < math.inf, "positive and finite")

#: The keys each problem kind reads, besides "kind": key -> (reader of the
#: key's value, default). A reader refuses a value out of the key's own range;
#: limits across keys (mc's nobs <= p*q) are left to the builders. A default of
#: None leaves the value to the build: without a data file the logistic design
#: is drawn, gamma comes from the design, and the lasso weight from its generator.
PROBLEM_KEYS = {
    "quadratic": {"dim": (_POSITIVE_INT, 10), "eig_min": (_FINITE, 1.0),
                  "eig_max": (_FINITE, 1.0)},
    "logistic": {"data": (str, None), "m": (_POSITIVE_INT, 200), "n": (_POSITIVE_INT, 20),
                 "gamma": (_NONNEGATIVE, None)},
    "lasso": {"m": (_POSITIVE_INT, 100), "n": (_POSITIVE_INT, 50),
              "l1_weight": (_POSITIVE, None)},
    "nmf": {"n": (_POSITIVE_INT, 200), "r": (_POSITIVE_INT, 5), "m": (_POSITIVE_INT, 300)},
    "mc": {"p": (_POSITIVE_INT, 15), "q": (_POSITIVE_INT, 12), "r": (_POSITIVE_INT, 3),
           "nobs": (_POSITIVE_INT, 60), "noise": (_NONNEGATIVE, 0.0)},
}


def problem_params(spec) -> Tuple[str, dict]:
    """The spec's kind and {key: value} for every key the kind reads: the
    spec's value by the key's reader, else the key's default. An unknown kind,
    a key the kind does not read, an m beside a logistic data file (whose rows
    set m), or a value its reader refuses, is a UsageError."""
    kind = spec.get("kind", "quadratic")
    if kind not in PROBLEM_KEYS:
        raise UsageError(f"unknown problem kind {kind!r}")
    keys = PROBLEM_KEYS[kind]
    _reject_unknown(f"problem kind {kind!r}", set(spec) - {"kind"}, keys)
    if kind == "logistic" and "data" in spec and "m" in spec:
        raise UsageError("problem kind 'logistic' takes m or data, not both: "
                         "the data file's rows set m")
    params = {}
    for key, (read, default) in keys.items():
        try:
            params[key] = read(spec[key]) if key in spec else default
        except ValueError as exc:
            raise UsageError(f"problem key {key!r}: {exc}") from None
    return kind, params


def build_problem(spec, seed: int):
    """Instantiate (problem, x0) from a flat problem spec, read by
    problem_params, and a seed; a negative seed is a UsageError, also where it
    seeds no generator."""
    kind, p = problem_params(spec)
    check_seed(seed)
    if kind == "quadratic":
        problem = quadratic_problem(np.linspace(p["eig_min"], p["eig_max"], p["dim"]), seed=seed)
        x0 = rng(seed + 1).standard_normal(p["dim"])
    elif kind == "logistic":
        if p["data"] is not None:
            # the file's largest index sets its width unless n is given
            try:
                with open(p["data"]) as fh:
                    design = parse_libsvm(fh, n=p["n"] if "n" in spec else None)
            except OSError as exc:
                raise UsageError(f"cannot read data file {p['data']}: {exc.strerror}") from None
            except UnicodeDecodeError as exc:
                raise UsageError(f"data file {p['data']} is not UTF-8 text "
                                 f"({exc.reason})") from None
        else:
            design = logistic_synthetic(p["m"], p["n"], seed)
        gamma = logistic_gamma(design) if p["gamma"] is None else p["gamma"]
        problem = logistic_problem(design, gamma)
        x0 = np.zeros(design.n)
    elif kind == "lasso":
        A, b, w = lasso_synthetic(p["m"], p["n"], seed)
        problem = lasso_problem(A, b, w if p["l1_weight"] is None else p["l1_weight"])
        x0 = np.zeros(A.shape[1])
    elif kind == "nmf":
        shape = FactorShape(p=p["n"], q=p["m"], r=p["r"])
        problem = nmf_problem(nmf_synthetic(p["n"], p["r"], p["m"], seed), shape)
        x0 = np.abs(rng(seed + 1).standard_normal(shape.dim))
    else:
        shape = FactorShape(p=p["p"], q=p["q"], r=p["r"])
        obs = mc_synthetic(p["p"], p["q"], p["r"], p["nobs"], p["noise"], seed)
        problem = mc_problem(obs, shape)
        x0 = rng(seed + 1).standard_normal(shape.dim)
    return problem, x0


# ---------------------------------------------------------------------------
# Grid execution


@dataclass
class ComparisonRow:
    solver: str
    seed: int
    iterations: int
    grad_res: float
    best_F: float
    opt_gap: float
    wall_seconds: float
    termination: str
    error: Optional[str] = None
    error_type: Optional[str] = None


def run_experiment(config: ExperimentConfig):
    """Execute every (solver, seed) cell, persist one trace per cell, and
    return comparison rows with OptGap measured against the grid minimum."""
    os.makedirs(config.out_dir, exist_ok=True)
    probe = os.path.join(config.out_dir, ".writable")
    try:
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise UsageError(f"output directory not writable: {config.out_dir}: {exc}") from exc

    rows: List[ComparisonRow] = []
    for name, sc in config.solvers:
        for seed in config.seeds:
            t_start = time.perf_counter()
            try:
                problem, x0 = build_problem(config.problem, seed)
                result = run(problem, x0, replace(sc), seed=seed)
                wall = time.perf_counter() - t_start
                path = os.path.join(config.out_dir, f"{name}_seed{seed}.json")
                write_trace(result.trace, "json", path)
                rows.append(ComparisonRow(
                    solver=name, seed=seed,
                    iterations=len(result.trace.records),
                    grad_res=result.trace.min_gradmap(),
                    best_F=result.best_F, opt_gap=math.nan,
                    wall_seconds=wall, termination=result.termination))
            except Exception as exc:  # noqa: BLE001 - cell failures never kill the grid
                rows.append(ComparisonRow(
                    solver=name, seed=seed, iterations=0, grad_res=math.nan,
                    best_F=math.nan, opt_gap=math.nan,
                    wall_seconds=time.perf_counter() - t_start,
                    termination="error", error=str(exc), error_type=type(exc).__name__))

    finite = [r.best_F for r in rows if math.isfinite(r.best_F)]
    fhat = min(finite) if finite else math.nan
    for r in rows:
        if math.isfinite(r.best_F):
            r.opt_gap = r.best_F - fhat
    return rows, fhat


def write_summary(rows: List[ComparisonRow], fhat: float, path: str) -> None:
    """Strict JSON: the NaN figures of failed cells are written as null."""
    payload = {
        "fstar_hat": _json_float(fhat),
        "rows": [
            {"solver": r.solver, "seed": r.seed, "iterations": r.iterations,
             "grad_res": _json_float(r.grad_res), "opt_gap": _json_float(r.opt_gap),
             "wall_seconds": r.wall_seconds, "termination": r.termination,
             "error": r.error, "error_type": r.error_type}
            for r in rows
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, allow_nan=False)
        fh.write("\n")


def summary_table(rows: List[ComparisonRow]) -> str:
    header = f"{'solver':<16}{'seed':>6}{'iters':>8}{'GradRes':>12}{'OptGap':>12}{'time_s':>9}  term"
    lines = [header]
    for r in rows:
        term = r.termination if r.error_type is None else f"{r.termination} ({r.error_type})"
        lines.append(
            f"{r.solver:<16}{r.seed:>6}{r.iterations:>8}{r.grad_res:>12.3e}"
            f"{r.opt_gap:>12.3e}{r.wall_seconds:>9.2f}  {term}")
    return "\n".join(lines)
