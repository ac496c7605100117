import base64
import dataclasses
import io
import json
import math
import os
import struct
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import trace_of

from adaprox import RhoSequence, SolverConfig, UsageError, monitor_check, run
from adaprox.adaptive import RHO_NAMES, rho_total
from adaprox.cli import PROBLEM_FLAGS, cli_main
from adaprox.harness import (
    PROBLEM_KEYS,
    SOLVER_KEYS,
    TRACE_SCHEMA,
    ExperimentConfig,
    ParseError,
    build_problem,
    load_config,
    parse_libsvm,
    problem_params,
    read_trace,
    run_experiment,
    solver_config,
    summary_table,
    write_libsvm,
    write_summary,
    write_trace,
)
from adaprox.problems import FactorShape, nmf_problem, nmf_synthetic, quadratic_problem, rng
from adaprox.solver import ENGINES, IterationRecord

TRACE_COLUMNS = [c for c, _, _ in TRACE_SCHEMA]

#: Floats at the edges of float64: signed zeros, subnormals, the extremes,
#: the infinities and NaN.
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.max,
               -sys.float_info.max, math.inf, -math.inf, math.nan]


def identical(a, b) -> bool:
    """Values of one type and equal; floats bit for bit, so of one sign and,
    for NaN, of one sign and payload."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def from_bits(bits: int) -> float:
    """The float64 whose IEEE 754 bits are ``bits``."""
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def without_elapsed(blob: bytes) -> bytes:
    """A trace file's bytes with the elapsed_s column's string cut out."""
    key = b'"elapsed_s": "'
    start = blob.index(key, blob.index(b'"columns"')) + len(key)
    return blob[:start] + blob[blob.index(b'"', start):]


def decode_column(payload, name) -> np.ndarray:
    """A column of a trace file's JSON payload, decoded by its metadata dtype."""
    dtype = payload["metadata"]["dtypes"][name]
    return np.frombuffer(base64.b64decode(payload["columns"][name]), dtype)


def encode_column(values: np.ndarray) -> str:
    return base64.b64encode(values.tobytes()).decode("ascii")


def edit_column(payload, name, i, value) -> None:
    """Set the i-th value of one column of the payload: decode, edit, re-encode."""
    values = decode_column(payload, name).copy()
    values[i] = value
    payload["columns"][name] = encode_column(values)


class TestLibsvm:
    def test_basic_line(self):
        d = parse_libsvm("1 3:0.5 7:-1.2")
        assert (d.m, d.n) == (1, 7)
        assert d.indptr.tolist() == [0, 2]
        assert d.indices.tolist() == [2, 6]
        assert d.data.tolist() == [0.5, -1.2]
        assert d.labels.tolist() == [1.0]

    def test_label_aliases(self):
        d = parse_libsvm("+1 1:1\n-1 1:2\n0 1:3\n1 1:4")
        assert d.labels.tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_comments_and_blanks_skipped(self):
        d = parse_libsvm("# header\n\n1 1:1.0\n  \n0 2:2.0\n")
        assert d.m == 2 and d.n == 2

    def test_malformed_value_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("1 5:a")
        assert exc.value.line == 1
        assert "line 1" in str(exc.value)

    def test_error_line_number_skips_comments(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("# c\n1 1:1\n1 0:2")
        assert exc.value.line == 3

    def test_nonincreasing_indices_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 2:1 2:2")

    def test_unknown_label_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("2 1:1")

    def test_empty_dataset_rejected(self):
        with pytest.raises(UsageError):
            parse_libsvm("# nothing here")

    @pytest.mark.parametrize("text", ["1\n", "1 1:1\n"], ids=["label-only", "entry"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_width_below_one_rejected(self, text, n):
        with pytest.raises(UsageError, match=r"^n must be >= 1$"):
            parse_libsvm(text, n=n)

    def test_error_message_prints_value_as_float(self):
        with pytest.raises(ParseError, match=r"\(entry 1:1\.0\)$"):
            parse_libsvm("1 1:1 1:1")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_write_parse_round_trip(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 6))
        gen = rng(data.draw(st.integers(0, 10**6)))
        dense = np.where(gen.random((m, n)) < 0.5, gen.standard_normal((m, n)), 0.0)
        labels = (gen.random(m) < 0.5).astype(np.float64)
        from adaprox.problems import SparseDesign

        d = SparseDesign.from_dense(dense, labels)
        buf = io.StringIO()
        write_libsvm(d, buf)
        # the text has no width, so trailing zero columns need n
        d2 = parse_libsvm(buf.getvalue(), n=n)
        assert (d2.m, d2.n) == (d.m, d.n)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(d2, name), getattr(d, name))
        assert np.array_equal(d2.labels, d.labels)

    def test_width_keeps_trailing_zero_columns(self, tmp_path):
        from adaprox.problems import SparseDesign

        d = SparseDesign.from_dense([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], [1.0, 0.0])
        buf = io.StringIO()
        write_libsvm(d, buf)
        assert parse_libsvm(buf.getvalue()).n == 2
        back = parse_libsvm(buf.getvalue(), n=3)
        assert back.n == 3
        assert np.array_equal(back.matrix().toarray(), d.matrix().toarray())
        with pytest.raises(ParseError) as exc:
            parse_libsvm("# c\n1 1:1\n0 2:1 4:1\n", n=3)
        assert exc.value.line == 3
        path = str(tmp_path / "d.libsvm")
        with open(path, "w") as fh:
            fh.write(buf.getvalue())
        problem, x0 = build_problem({"kind": "logistic", "data": path, "n": "3"}, 0)
        assert x0.shape == (3,) and problem.dim == 3


def row_major(payload):
    """A trace payload in the layout before format version 2: one object per
    record, and neither version nor dtypes."""
    meta = {k: v for k, v in payload["metadata"].items() if k not in ("version", "dtypes")}
    cols = {c: [v if math.isfinite(v) else None for v in decode_column(payload, c).tolist()]
            for c in payload["columns"]}
    return {"metadata": meta, "records": [dict(zip(cols, row)) for row in zip(*cols.values())]}


def with_layout_fault(payload, case):
    """The trace payload with the layout fault named by ``case``."""
    meta, cols = payload["metadata"], payload["columns"]
    if case == "unequal_length":
        cols["F"] = encode_column(decode_column(payload, "F")[:-1])
    elif case == "column_not_string":  # the version-2 layout of a column
        cols["lambda"] = decode_column(payload, "lambda").tolist()
    elif case == "non_base64":
        cols["lambda"] = "!" + cols["lambda"][1:]
    elif case == "partial_value":
        cols["F"] = base64.b64encode(base64.b64decode(cols["F"])[:-4]).decode("ascii")
    elif case == "no_dtypes":
        del meta["dtypes"]
    elif case == "big_endian_dtypes":
        meta["dtypes"] = dict(meta["dtypes"], f=">f8")
    elif case == "no_version":
        del meta["version"]
    elif case.startswith("version="):
        meta["version"] = json.loads(case[len("version="):])
    elif case == "k_not_consecutive":
        k = decode_column(payload, "k").copy()
        k[3:5] = 99, -7
        cols["k"] = encode_column(k)
    elif case == "row_major":
        return row_major(payload)
    else:  # row-major records under version-3 metadata
        return dict(row_major(payload), metadata=meta)
    return payload


def small_result(max_iters=8, engine="adapgnc", seed=3):
    p = quadratic_problem([0.5, 1.0, 2.0], seed=0)
    cfg = SolverConfig(engine=engine, max_iters=max_iters)
    return run(p, np.ones(3), cfg, seed=seed)


class TestTracePersistence:
    @pytest.mark.parametrize("fmt", ["json"])
    def test_round_trip_keeps_every_field(self, tmp_path, fmt):
        # gd-ls spends extra f evaluations, so n_value differs from n_gradient
        res = small_result(engine="gd-ls")
        assert res.trace.records[-1].n_value > res.trace.records[-1].n_gradient
        path = str(tmp_path / f"t.{fmt}")
        write_trace(res.trace, fmt, path)
        back = read_trace(path)
        scalars = [f.name for f in dataclasses.fields(IterationRecord)
                   if f.name not in ("x", "grad")]
        assert len(back.all_records()) == len(res.trace.all_records())
        for a, b in zip(res.trace.all_records(), back.all_records()):
            for name in scalars:
                av, bv = getattr(a, name), getattr(b, name)
                assert av == bv or (math.isnan(av) and math.isnan(bv)), (a.k, name)

    def test_json_missing_column_is_usage_error(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_trace(small_result().trace, "json", path)
        with open(path) as fh:
            payload = json.load(fh)
        del payload["columns"]["n_value"]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(UsageError, match="t.json lacks 'n_value'"):
            read_trace(path)

    def test_json_round_trip_keeps_metadata(self, tmp_path):
        res = small_result(seed=11)
        path = str(tmp_path / "t.json")
        write_trace(res.trace, "json", path)
        with open(path) as fh:
            payload = json.load(fh)
        meta = payload["metadata"]
        assert meta["solver"] == "adapgnc"
        assert meta["seed"] == 11
        assert meta["problem"] == "quadratic"
        assert meta["termination"] in ("tol", "max_iters", "max_seconds", "stagnation")
        back = read_trace(path)
        assert back.engine == "adapgnc" and back.seed == 11
        assert back.termination == res.trace.termination
        assert [r.lam for r in back.records] == [r.lam for r in res.trace.records]

    def test_json_is_strict_and_restores_nan(self, tmp_path):
        res = small_result()
        path = str(tmp_path / "t.json")
        write_trace(res.trace, "json", path)

        def reject(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        with open(path) as fh:
            payload = json.loads(fh.read(), parse_constant=reject)
        assert math.isnan(decode_column(payload, "L_k")[0])
        back = read_trace(path)
        for a, b in zip(res.trace.all_records(), back.all_records()):
            for field in ("L_k", "l_k", "rho_used"):
                assert identical(getattr(a, field), getattr(b, field)), (a.k, field)
        assert math.isnan(back.init.L_k) and math.isnan(back.init.rho_used)

    def test_unencodable_metadata_leaves_the_file(self, tmp_path):
        """Metadata that strict JSON cannot hold (a lambda0 of inf, which only
        the API reaches) is refused before the file is opened, so a trace
        already at the path keeps its bytes."""
        trace = small_result().trace
        path = tmp_path / "t.json"
        write_trace(trace, "json", str(path))
        before = path.read_bytes()
        trace.lambda0 = math.inf
        with pytest.raises(ValueError, match="JSON compliant"):
            write_trace(trace, "json", str(path))
        assert path.read_bytes() == before

    def test_unknown_format_rejected(self, tmp_path):
        res = small_result()
        with pytest.raises(UsageError):
            write_trace(res.trace, "yaml", str(tmp_path / "t.yaml"))

    def test_unmonitored_engine_trace_is_refused(self, tmp_path, capsys):
        """A gd-ls trace carries no descent guarantees, so check refuses it."""
        path = str(tmp_path / "t.json")
        write_trace(small_result(engine="gd-ls").trace, "json", path)
        back = read_trace(path)
        assert back.engine == "gd-ls"
        with pytest.raises(UsageError, match="gd-ls"):
            monitor_check(back)
        assert cli_main(["check", path]) == 2
        assert "gd-ls" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("empty.json", ""),
        ("invalid.json", '{"metadata": '),
        ("no_metadata.json", '{"records": []}'),
        ("empty.csv", ""),
        ("abc.csv", ",".join(TRACE_COLUMNS) + "\n0" + ",abc" * (len(TRACE_COLUMNS) - 1) + "\n"),
    ], ids=["empty.json", "invalid.json", "no_metadata.json", "empty.csv", "abc.csv"])
    def test_malformed_trace_is_usage_error(self, tmp_path, capsys, name, text):
        path = str(tmp_path / name)
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(UsageError, match=name):
            read_trace(path)
        assert cli_main(["check", path]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("where, key, value", [
        ("columns", "k", 1.7),
        ("columns", "f", True),
        ("columns", "lambda", "0.5"),
        ("columns", "n_grad", None),
        ("columns", "F", "Infinity"),
        ("columns", "n_prox", "inf"),
        ("columns", "f", 10**400),
        ("metadata", "lambda0", "1.0"),
        ("metadata", "solver", "newton"),
        ("metadata", "solver", None),
        ("metadata", "solver", ["adapgnc"]),
        ("metadata", "termination", "done"),
        ("metadata", "problem", 3),
        ("metadata", "seed", True),
        ("metadata", "seed", 1.0),
    ], ids=["float_k", "bool_f", "string_lambda", "null_count", "Infinity_string_F",
            "inf_string_count", "huge_int_f", "string_lambda0",
            "unknown_solver", "null_solver", "list_solver", "unknown_termination",
            "number_problem",
            "bool_seed", "float_seed"])
    def test_json_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, where, key, value):
        """Each JSON value must be of its key's type, never coerced; the engine
        and the termination must be ones the solver has. A column must be a
        base64 string of whole 8-byte values: a number, boolean or null in its
        place is not a string, "0.5" and "inf" are not base64, and "Infinity"
        decodes to 6 bytes."""
        path = str(tmp_path / "t.json")
        write_trace(small_result().trace, "json", path)
        with open(path) as fh:
            payload = json.load(fh)
        if where == "columns":
            payload["columns"][key] = value
        else:
            payload["metadata"][key] = value
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(UsageError, match=f"t.json.*{key}"):
            read_trace(path)
        assert cli_main(["check", path]) == 2
        assert "t.json" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["solver", "seed", "problem", "termination", "lambda0",
                                     "dtypes"])
    def test_json_missing_metadata_key_is_usage_error(self, tmp_path, capsys, key):
        path = str(tmp_path / "t.json")
        write_trace(small_result().trace, "json", path)
        with open(path) as fh:
            payload = json.load(fh)
        del payload["metadata"][key]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(UsageError, match=f"t.json lacks '{key}'"):
            read_trace(path)
        assert cli_main(["check", path]) == 2

    def test_json_infinity_token_is_usage_error(self, tmp_path, capsys):
        """The writer writes non-finite values as null; a bare NaN or Infinity
        token is not RFC 8259 JSON, so the reader refuses it."""
        path = str(tmp_path / "t.json")
        write_trace(small_result().trace, "json", path)
        with open(path) as fh:
            payload = json.load(fh)
        payload["metadata"]["lambda0"] = math.inf
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(UsageError, match="t.json: Infinity is not RFC 8259 JSON"):
            read_trace(path)
        assert cli_main(["check", path]) == 2

    @pytest.mark.parametrize("case, message", [
        ("unequal_length", "columns of unequal length"),
        ("column_not_string", "column 'lambda' is not a string"),
        ("non_base64", "column 'lambda' is not base64"),
        ("partial_value", r"column 'F' holds \d+ bytes, not a multiple of 8"),
        ("no_dtypes", "lacks 'dtypes'"),
        ("big_endian_dtypes", "'dtypes' holds"),
        ("no_version", "lacks 'version'"),
        ("version=1", "'version' holds 1, not 3"),
        ("version=2", "'version' holds 2, not 3"),
        ("version=4", "'version' holds 4, not 3"),
        ("version=3.0", "'version' holds 3.0, not 3"),
        ("k_not_consecutive", r"column 'k' is not 0, 1, \.\.\., K"),
        ("row_major", "lacks 'version'"),
        ("row_major_version_2", "lacks 'columns'"),
    ], ids=["unequal_length", "column_not_string", "non_base64", "partial_value",
            "no_dtypes", "big_endian_dtypes", "no_version", "version_1", "version_2",
            "version_4", "float_version", "k_not_consecutive", "row_major",
            "row_major_version_2"])
    def test_json_layout_error_is_usage_error(self, tmp_path, capsys, case, message):
        """A file that is not one base64 string of whole values per column, all
        of one length, under metadata of format version 3 with its dtypes is
        refused; no reader takes the row-major layout or version 2's arrays."""
        path = str(tmp_path / "t.json")
        write_trace(small_result().trace, "json", path)
        with open(path) as fh:
            payload = json.load(fh)
        with open(path, "w") as fh:
            json.dump(with_layout_fault(payload, case), fh)
        with pytest.raises(UsageError, match=f"t.json.*{message}"):
            read_trace(path)
        assert cli_main(["check", path]) == 2
        assert "t.json" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_lossless(self, data):
        """Every value reads back bit for bit: the non-finite floats, a NaN's
        sign and payload, and int64's extremes included."""
        nans = st.builds(lambda sign, payload: from_bits(sign << 63 | 0x7FF << 52 | payload),
                         st.integers(0, 1), st.integers(1, 2**52 - 1))
        floats = (st.sampled_from(FLOAT_EDGES) | st.floats() | nans
                  | st.integers(0, 2**64 - 1).map(from_bits))
        ints = st.sampled_from([-2**63, 2**63 - 1]) | st.integers(-2**63, 2**63 - 1)
        n = data.draw(st.integers(1, 5))
        cols = {f: data.draw(st.lists(ints if dt == "<i8" else floats, min_size=n, max_size=n))
                for _, f, dt in TRACE_SCHEMA}
        cols["k"] = list(range(n))  # the reader refuses any other k column
        records = [IterationRecord(**dict(zip(cols, row))) for row in zip(*cols.values())]
        trace = trace_of(records, problem_name="p", lambda0=data.draw(floats.filter(
            math.isfinite)), termination="max_iters", seed=data.draw(ints | st.none()))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.json")
            write_trace(trace, "json", path)
            back = read_trace(path)
        for name in ("problem_name", "engine", "lambda0", "termination", "seed"):
            assert identical(getattr(back, name), getattr(trace, name)), name
        assert len(back.all_records()) == n
        for a, b in zip(trace.all_records(), back.all_records()):
            for _, f, _ in TRACE_SCHEMA:
                assert identical(getattr(b, f), getattr(a, f)), (a.k, f)

    def test_infinite_F_reads_back_and_replays_as_live(self, tmp_path):
        """An x0 outside dom h makes F_0 = inf. The replay of the written trace
        passes and fails the checks the live monitor did."""
        shape = FactorShape(p=6, q=5, r=2)
        problem = nmf_problem(nmf_synthetic(6, 2, 5, 0), shape)
        x0 = np.abs(rng(1).standard_normal(shape.dim))
        x0[0] = -0.5
        config = SolverConfig(engine="adapgnc", max_iters=50, monitor=True)
        live = run(problem, x0, config)
        assert live.trace.init.F_value == math.inf and live.report.passed
        path = str(tmp_path / "t.json")
        write_trace(live.trace, "json", path)
        back = read_trace(path)
        assert back.init.F_value == math.inf
        replay = monitor_check(back, problem, rho_total(config.rho))
        assert ({c.name: c.passed for c in replay.checks}
                == {c.name: c.passed for c in live.report.checks})
        assert cli_main(["check", path]) == 0


class TestConfig:
    def make_config(self, tmp_path):
        return ExperimentConfig(
            problem={"kind": "quadratic", "dim": "4", "eig_min": "0.5", "eig_max": "2.0"},
            solvers=[("branch", SolverConfig(engine="adapgnc", max_iters=15)),
                     ("fixed", SolverConfig(engine="fixed", lambda0=0.4, max_iters=15))],
            seeds=[0, 1],
            out_dir=str(tmp_path / "out"))

    @staticmethod
    def write_config(tmp_path, solvers: str) -> str:
        """A quadratic config whose solver sections are ``solvers``."""
        path = str(tmp_path / "exp.ini")
        with open(path, "w") as fh:
            fh.write(f"[problem]\nkind = quadratic\n[run]\nout = {tmp_path / 'out'}\n"
                     + solvers)
        return path

    @staticmethod
    def solve_configs(monkeypatch, flags) -> list:
        """The SolverConfigs that `adaprox solve --dim 3` with ``flags`` passes
        to run; each run is cut to 2 iterations."""
        configs = []

        def spy(problem, x0, config, seed):
            configs.append(config)
            return run(problem, x0, dataclasses.replace(config, max_iters=2), seed=seed)

        monkeypatch.setattr("adaprox.cli.run", spy)
        assert cli_main(["solve", "--dim", "3", *flags]) == 0
        return configs

    def test_solver_config_without_settings_is_the_default(self):
        assert solver_config("x", {}) == SolverConfig()
        assert solver_config("x", {}, monitor=True) == SolverConfig(monitor=True)

    def test_rho_names_load_as_their_sequences(self, tmp_path):
        path = self.write_config(tmp_path, "".join(
            f"[solver {r}]\nrho = {r}\n" for r in RHO_NAMES))
        back = load_config(path)
        assert [(n, sc.rho) for n, sc in back.solvers] == [
            (r, getattr(RhoSequence, r)()) for r in RHO_NAMES]

    def test_empty_section_and_bare_solve_run_the_default(self, tmp_path, monkeypatch):
        """Neither a [solver s] section without keys nor solve without solver
        flags sets a field: both run SolverConfig()."""
        assert load_config(self.write_config(tmp_path, "[solver s]\n")).solvers == [
            ("s", SolverConfig())]
        assert self.solve_configs(monkeypatch, []) == [SolverConfig()]

    @pytest.mark.parametrize("key, flag, value", [
        ("engine", "--solver", "adgd"), ("rho", "--rho", "rho1"),
        ("lambda0", "--lambda0", "0.25"), ("max_iters", "--max-iters", "7"),
        ("max_seconds", "--max-seconds", "30.5"), ("tol", "--tol", "1e-6"),
    ])
    def test_solve_flag_and_config_key_give_one_config(self, tmp_path, monkeypatch,
                                                       key, flag, value):
        assert set(SOLVER_KEYS) == {"engine", "rho", "lambda0", "max_iters",
                                    "max_seconds", "tol"}
        [(_, from_file)] = load_config(
            self.write_config(tmp_path, f"[solver s]\n{key} = {value}\n")).solvers
        assert from_file != SolverConfig()
        assert self.solve_configs(monkeypatch, [flag, value]) == [from_file]

    @pytest.mark.parametrize("text", [
        "[problem]\nkind = quadratic\n[run]\nseeds = a b\n",
        "kind = quadratic\n",
        "[problem]\nkind = quadratic\n[run]\nseeds = 0\n[solver s]\nlambda0 = x\n",
        "[problem]\nkind = quadratic\ndim = x\n[run]\nseeds = 0\n[solver s]\n",
        "[problem]\nkind = mc\nnoise = x\n[run]\nseeds = 0\n[solver s]\n",
    ], ids=["seeds", "no-section-header", "lambda0", "dim", "noise"])
    def test_malformed_config_is_usage_error(self, tmp_path, monkeypatch, capsys, text):
        """Refused when the file loads, so bench runs no cell and writes no
        output directory."""
        monkeypatch.chdir(tmp_path)
        path = str(tmp_path / "bad.ini")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(UsageError, match="bad.ini"):
            load_config(path)
        assert cli_main(["bench", "--config", path]) == 2
        assert "bad.ini" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, message", [
        ({"dim": "-1"}, "'dim': must be positive, got -1"),
        ({"kind": "lasso", "m": "-1"}, "'m': must be positive, got -1"),
        ({"kind": "lasso", "n": "0"}, "'n': must be positive, got 0"),
        ({"kind": "lasso", "m": "0"}, "'m': must be positive, got 0"),
        ({"kind": "logistic", "gamma": "nan"}, "'gamma': must be nonnegative and finite, got nan"),
        ({"kind": "logistic", "gamma": "inf"}, "'gamma': must be nonnegative and finite, got inf"),
        ({"eig_min": "inf"}, "'eig_min': must be finite, got inf"),
        ({"kind": "lasso", "l1_weight": "inf"}, "'l1_weight': must be positive and finite, got inf"),
        ({"kind": "mc", "noise": "-1"}, "'noise': must be nonnegative and finite, got -1.0"),
        ({"kind": "mc", "noise": "nan"}, "'noise': must be nonnegative and finite, got nan"),
        ({"kind": "mc", "r": "-1"}, "'r': must be positive, got -1"),
    ], ids=["dim", "lasso-m-negative", "lasso-n", "lasso-m-zero", "gamma-nan", "gamma-inf",
            "eig_min", "l1_weight", "noise-negative", "noise-nan", "mc-r"])
    def test_out_of_range_problem_value_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                       spec, message):
        """The reader of the key refuses it, NaN included, so build_problem,
        solve (where the key is a flag) and bench refuse it alike: bench exits
        2 when it loads the config, before any cell runs."""
        with pytest.raises(UsageError, match=message):
            build_problem(spec, 0)
        kind = spec.get("kind", "quadratic")
        keys = set(spec) - {"kind"}
        if keys <= set(PROBLEM_FLAGS):
            flags = [a for key in keys for a in (f"--{key}", spec[key])]
            assert cli_main(["solve", "--problem", kind, *flags, "--max-iters", "1"]) == 2
            assert message in capsys.readouterr().err
        monkeypatch.chdir(tmp_path)
        with open("exp.ini", "w") as fh:
            fh.write("[problem]\n" + "".join(f"{k} = {v}\n" for k, v in spec.items())
                     + "[run]\nseeds = 0\n[solver a]\nmax_iters = 1\n")
        assert cli_main(["bench", "--config", "exp.ini"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("logistic", "data", "d.libsvm"), ("logistic", "m", "30"), ("logistic", "n", "4"),
        ("mc", "p", "5"), ("mc", "q", "4"), ("nmf", "r", "2"), ("quadratic", "dim", "3"),
        ("mc", "nobs", "20"), ("logistic", "gamma", "0.5"),
    ])
    def test_solve_problem_flag_and_config_key_give_one_spec(self, tmp_path, monkeypatch,
                                                             kind, key, value):
        """`solve --problem <kind> --<key> <value>` passes build_problem the
        spec that a [problem] section with that key holds."""
        assert PROBLEM_FLAGS == ("data", "m", "n", "p", "q", "r", "dim", "nobs", "gamma")
        path = str(tmp_path / "exp.ini")
        with open(path, "w") as fh:
            fh.write(f"[problem]\nkind = {kind}\n{key} = {value}\n[run]\n[solver s]\n")
        from_file = load_config(path).problem
        specs = []

        def spy(spec, seed):
            specs.append(spec)
            return build_problem({"dim": "2"}, seed)

        monkeypatch.setattr("adaprox.cli.build_problem", spy)
        assert cli_main(["solve", "--problem", kind, f"--{key}", value, "--max-iters", "2"]) == 0
        assert specs == [from_file]
        kind_read, params = problem_params(from_file)
        assert kind_read == kind and params[key] == PROBLEM_KEYS[kind][key][0](value)

    def test_missing_sections_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ini")
        with open(path, "w") as fh:
            fh.write("[problem]\nkind = quadratic\n")
        with pytest.raises(UsageError):
            load_config(path)

    def test_unknown_solver_key_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ini")
        with open(path, "w") as fh:
            fh.write("[problem]\nkind = quadratic\n[run]\nseeds = 0\n"
                     "[solver f]\nengine = fixed\nlambda0 = 0.5\nfixed_step = 0.1\n")
        with pytest.raises(UsageError, match="fixed_step"):
            load_config(path)

    @pytest.mark.parametrize("line", ["format = csv", "seed = 3"], ids=["format", "seed"])
    def test_unknown_run_key_rejected(self, tmp_path, capsys, line):
        path = str(tmp_path / "bad.ini")
        with open(path, "w") as fh:
            fh.write(f"[problem]\nkind = quadratic\n[run]\n{line}\nout = {tmp_path / 'out'}\n"
                     "[solver s]\nmax_iters = 5\n")
        assert cli_main(["bench", "--config", path]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_unknown_problem_key_rejected(self, tmp_path, capsys):
        spec = {"kind": "quadratic", "m": "9", "data": "nope"}
        with pytest.raises(UsageError, match=r"\['data', 'm'\]"):
            build_problem(spec, 0)
        path = str(tmp_path / "bad.ini")
        with open(path, "w") as fh:
            fh.write("[problem]\nkind = quadratic\nm = 9\ndata = nope\n"
                     f"[run]\nout = {tmp_path / 'out'}\n[solver s]\nmax_iters = 5\n")
        assert cli_main(["bench", "--config", path]) == 2
        assert "['data', 'm']" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "summary.json")

    def test_unknown_problem_kind_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "bad.ini")
        with open(path, "w") as fh:
            fh.write(f"[problem]\nkind = cubic\n[run]\nout = {tmp_path / 'out'}\n"
                     "[solver s]\nmax_iters = 5\n")
        with pytest.raises(UsageError, match="cubic"):
            load_config(path)
        assert cli_main(["bench", "--config", path]) == 2
        assert not os.path.exists(tmp_path / "out")

    def test_logistic_m_beside_data_rejected(self, tmp_path, capsys):
        """A data file's rows set m, so an m beside it is refused, not ignored."""
        data = str(tmp_path / "d.libsvm")
        assert cli_main(["gen", "--m", "30", "--n", "4", "--out", data]) == 0
        with pytest.raises(UsageError, match="m or data"):
            build_problem({"kind": "logistic", "data": data, "m": "5"}, 0)
        path = str(tmp_path / "bad.ini")
        with open(path, "w") as fh:
            fh.write(f"[problem]\nkind = logistic\ndata = {data}\nm = 5\n"
                     f"[run]\nout = {tmp_path / 'out'}\n[solver s]\nmax_iters = 5\n")
        assert cli_main(["bench", "--config", path]) == 2
        assert "m or data" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "bad.ini")
        with open(path, "w") as fh:
            fh.write(f"[problem]\nkind = quadratic\n[run]\nseeds = 0 -1\n"
                     f"out = {tmp_path / 'out'}\n[solver s]\nmax_iters = 5\n")
        with pytest.raises(UsageError, match="non-negative"):
            load_config(path)
        assert cli_main(["bench", "--config", path]) == 2
        assert "seeds must be non-negative" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_grid_rows_and_optgap(self, tmp_path):
        cfg = self.make_config(tmp_path)
        rows, fhat = run_experiment(cfg)
        assert len(rows) == 4  # 2 solvers x 2 seeds
        assert math.isfinite(fhat)
        for r in rows:
            assert r.error is None
            assert r.opt_gap >= 0.0
        assert min(r.opt_gap for r in rows) == 0.0
        table = summary_table(rows)
        assert "OptGap" in table and "branch" in table

    def test_grid_traces_byte_identical_across_runs(self, tmp_path):
        cfg = self.make_config(tmp_path)
        run_experiment(cfg)
        first = {}
        for name in os.listdir(cfg.out_dir):
            with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                first[name] = fh.read()
        run_experiment(self.make_config(tmp_path))
        for name, blob in first.items():
            if name == "summary.json":
                continue
            with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                again = fh.read()
            # the wall-clock column differs; every other byte is the same
            assert without_elapsed(again) == without_elapsed(blob)

    def test_unwritable_out_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = self.make_config(tmp_path)
        cfg.out_dir = str(blocker / "sub")  # a file cannot be a parent dir
        with pytest.raises((UsageError, OSError)):
            run_experiment(cfg)

    def test_failed_cell_reported_not_raised(self, tmp_path):
        cfg = self.make_config(tmp_path)
        cfg.problem = {"kind": "mc", "p": "2", "q": "2", "r": "1", "nobs": "99"}
        rows, fhat = run_experiment(cfg)
        assert all(r.termination == "error" and r.error for r in rows)
        assert math.isnan(fhat)

    def test_failed_cell_keeps_exception_type(self, tmp_path):
        cfg = self.make_config(tmp_path)
        rows, _ = run_experiment(cfg)
        assert all(r.error_type is None for r in rows)
        cfg.problem = {"kind": "mc", "p": "2", "q": "2", "r": "1", "nobs": "99"}
        failed, _ = run_experiment(cfg)
        assert all(r.error_type == "UsageError" for r in failed)
        path = str(tmp_path / "summary.json")
        write_summary(rows[:1] + failed[:1], math.nan, path)
        with open(path) as fh:
            payload = json.load(fh)
        assert [r["error_type"] for r in payload["rows"]] == [None, "UsageError"]
        table = summary_table(rows[:1] + failed[:1]).splitlines()
        assert table[1].endswith(f"  {rows[0].termination}")
        assert table[2].endswith("  error (UsageError)")

    def test_summary_with_failed_cell_is_strict_json(self, tmp_path):
        cfg = self.make_config(tmp_path)
        rows, _ = run_experiment(cfg)
        cfg.problem = {"kind": "mc", "p": "2", "q": "2", "r": "1", "nobs": "99"}
        failed, _ = run_experiment(cfg)
        path = str(tmp_path / "summary.json")
        write_summary(rows + failed[:1], math.nan, path)

        def reject(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        with open(path) as fh:
            payload = json.loads(fh.read(), parse_constant=reject)
        assert payload["fstar_hat"] is None
        bad = payload["rows"][-1]
        assert bad["termination"] == "error"
        assert bad["grad_res"] is None and bad["opt_gap"] is None
        assert payload["rows"][0]["grad_res"] == rows[0].grad_res


def test_build_problem_seed_determinism():
    p1, x1 = build_problem({"kind": "lasso", "m": "10", "n": "5"}, seed=2)
    p2, x2 = build_problem({"kind": "lasso", "m": "10", "n": "5"}, seed=2)
    assert np.array_equal(x1, x2)
    z = rng(0).standard_normal(5)
    assert p1.f_value(z) == p2.f_value(z)


#: The check flags that supply every constant.
CONSTANTS = ("--rho", "rho2", "--known-L", "1", "--fstar", "0")

#: A solve problem whose run does not stop early.
LASSO = ("lasso", "--m", "20", "--n", "10")


class TestCli:
    def test_solve_ok(self, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        code = cli_main(["solve", "--problem", "quadratic", "--dim", "4",
                         "--max-iters", "20", "--out", out])
        assert code == 0
        assert os.path.exists(out)
        assert "terminated by" in capsys.readouterr().out

    def test_solve_with_monitor_ok(self, capsys):
        code = cli_main(["solve", "--problem", "quadratic", "--dim", "3",
                         "--max-iters", "30", "--monitor"])
        assert code == 0
        assert "step_condition: pass" in capsys.readouterr().out

    def test_solve_monitor_failure_exits_3(self, monkeypatch, capsys):
        """A known_fstar above F(x0) + lambda0 ||G0||^2 / 2 makes V0 negative,
        which complexity_bound_realized fails at k = 1: `solve --monitor`
        prints the failure and exits 3."""
        def build(spec, seed):
            p = quadratic_problem([0.5, 1.0, 2.0], seed=7)
            init = run(p, np.ones(3), SolverConfig(max_iters=0)).trace.init
            p.known_fstar = init.F_value + 0.5 * 1.0 * init.gradmap_norm ** 2 + 1.0
            return p, np.ones(3)

        monkeypatch.setattr("adaprox.cli.build_problem", build)
        assert cli_main(["solve", "--max-iters", "20", "--lambda0", "1.0", "--monitor"]) == 3
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if "complexity_bound_realized" in ln]
        assert line.startswith("  monitor complexity_bound_realized: FAIL [")
        assert "(k=1: lhs=" in line

    def test_check_clean_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        assert cli_main(["solve", "--problem", "quadratic", "--dim", "3",
                         "--max-iters", "25", "--out", out]) == 0
        code = cli_main(["check", out, "--rho", "rho2", "--known-L", "1.0",
                         "--fstar", "0.0"])
        assert code == 0

    @staticmethod
    def check_corrupted(tmp_path, column, value, flags=(), problem=("quadratic", "--dim", "3"),
                        metadata=None) -> int:
        """`adaprox check` with ``flags`` on a JSON trace whose k=1 value of one
        column is replaced, or, given ``metadata``, one metadata value."""
        out = str(tmp_path / "trace.json")
        assert cli_main(["solve", "--problem", *problem, "--max-iters", "25", "--out", out]) == 0
        with open(out) as fh:
            payload = json.load(fh)
        if metadata is None:
            edit_column(payload, column, 1, value)
        else:
            payload["metadata"][metadata] = value
        with open(out, "w") as fh:
            json.dump(payload, fh)
        return cli_main(["check", out, *flags])

    def test_check_corrupted_trace_exits_3(self, tmp_path, capsys):
        assert self.check_corrupted(tmp_path, "l_k", 50.0) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_check_nan_observation_exits_3(self, tmp_path, capsys):
        assert self.check_corrupted(tmp_path, "F", math.nan) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_check_rho_below_minus_one(self, tmp_path, capsys):
        """rho_1 = -5 leaves the growth cap sqrt(1 + rho_1) lambda_0 no root,
        which fails growth_cap at k=1 with or without constants (exit 3). It
        also gives a negative omega_1 and NaN weights after it: with the
        constants omega_lower fails; without them it is skipped."""
        assert self.check_corrupted(tmp_path, "rho", -5.0, problem=LASSO) == 3
        out = capsys.readouterr().out
        assert "growth_cap: FAIL [25 checks, worst slack nan] (k=1:" in out
        assert "omega_lower: skipped" in out
        assert self.check_corrupted(tmp_path, "rho", -5.0, CONSTANTS, problem=LASSO) == 3
        assert ("omega_lower: FAIL [25 checks, worst slack nan] (k=1:"
                in capsys.readouterr().out)

    @pytest.mark.filterwarnings("error")
    def test_check_raises_no_numpy_warning(self, tmp_path, capsys):
        """The replay's roots of negatives and overflows show in the report,
        not as NumPy RuntimeWarnings: the inputs of
        test_check_rho_below_minus_one and test_sum_bound_past_float64_is_inf
        with warnings turned into errors."""
        for flags in ((), CONSTANTS):
            assert self.check_corrupted(tmp_path, "rho", -5.0, flags, problem=LASSO) == 3
            assert "growth_cap: FAIL [25 checks, worst slack nan]" in capsys.readouterr().out
        init = IterationRecord(0, 1.0, 1.0, 1.0, 1e155, math.nan, math.nan, math.nan, 0.0, 1, 1, 1)
        rec = IterationRecord(1, 0.5, 0.5, 0.5, 1.0, 0.0, 0.0, 0.1, 0.0, 2, 2, 2)
        trace = trace_of([init, rec], residual_sq=np.array([1.0]))
        rep = monitor_check(trace, None, 0.2, fstar=0.0, known_L=1e-160)
        assert rep.S == math.inf and rep.check("sum_bound").passed

    @pytest.mark.parametrize("flags", [(), CONSTANTS], ids=["bare", "constants"])
    @pytest.mark.parametrize("lam0", [0, -1.0, 0.5], ids=["zero", "negative", "not-lambda_0"])
    def test_check_bad_lambda0_exits_2(self, tmp_path, capsys, flags, lam0):
        """A lasso trace (lambda_0 = 1) whose metadata lambda0 is not positive
        and finite, or not lambda_0, is refused before any check."""
        assert self.check_corrupted(tmp_path, None, lam0, flags, metadata="lambda0",
                                    problem=LASSO) == 2
        captured = capsys.readouterr()
        assert "usage error: trace lambda0 must be" in captured.err
        assert "pass" not in captured.out and "FAIL" not in captured.out

    @pytest.mark.parametrize("flags", [
        ["--known-L", "0"], ["--known-L", "-1"], ["--known-L", "nan"], ["--known-L", "inf"],
        ["--fstar", "nan"], ["--fstar", "inf"],
    ], ids=["L-zero", "L-negative", "L-nan", "L-inf", "fstar-nan", "fstar-inf"])
    def test_check_bad_constant_exits_2(self, tmp_path, capsys, flags):
        out = str(tmp_path / "trace.json")
        assert cli_main(["solve", "--problem", "quadratic", "--dim", "3",
                         "--max-iters", "25", "--out", out]) == 0
        capsys.readouterr()
        assert cli_main(["check", out, "--rho", "rho2"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags[0][2:].replace("-", "_") in captured.err

    def test_solve_uncovered_engine_with_monitor_exits_2(self, monkeypatch, capsys):
        """The pair is refused before the problem is built."""
        import adaprox.cli

        built = []
        monkeypatch.setattr(adaprox.cli, "build_problem",
                            lambda spec, seed: built.append(spec) or build_problem(spec, seed))
        assert cli_main(["solve", "--solver", "gd-ls", "--monitor", "--max-iters", "500"]) == 2
        assert built == []
        out = capsys.readouterr()
        assert "terminated by" not in out.out
        assert "gd-ls" in out.err

    def test_solve_gd_ls_on_lasso_exits_2(self, capsys):
        assert cli_main(["solve", "--problem", "lasso", "--solver", "gd-ls"]) == 2
        out = capsys.readouterr()
        assert "terminated by" not in out.out
        assert "gd-ls" in out.err

    def test_solve_out_then_check(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert cli_main(["solve", "--max-iters", "10", "--out", out]) == 0
        assert cli_main(["check", out]) == 0

    def test_solve_format_flag_is_gone(self, tmp_path, capsys):
        assert cli_main(["solve", "--format", "csv", "--out", str(tmp_path / "t.csv")]) == 2
        assert not os.path.exists(tmp_path / "t.csv")

    @pytest.mark.parametrize("argv", [
        ["--problem", "mc", "--m", "5", "--n", "4"],
        ["--problem", "nmf", "--data", "a.csv"],
        ["--problem", "quadratic", "--m", "9", "--data", "nope"],
    ], ids=["mc-m-n", "nmf-data", "quadratic-m-data"])
    def test_solve_rejects_problem_keys_kind_does_not_read(self, capsys, argv):
        assert cli_main(["solve", "--max-iters", "3"] + argv) == 2
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--dim", "x"), ("--gamma", "x"), ("--lambda0", "x"), ("--max-iters", "2.5"),
    ])
    def test_solve_unreadable_value_exits_2(self, capsys, flag, value):
        """A flag's value is read by its key's reader; one that does not read
        is a usage error naming the key."""
        problem = ["--problem", "logistic"] if flag == "--gamma" else []
        assert cli_main(["solve", *problem, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error: " in captured.err
        assert repr(flag[2:].replace("-", "_")) in captured.err

    def test_solve_non_finite_first_step_exits_1(self, capsys):
        with np.errstate(over="ignore"):
            assert cli_main(["solve", "--lambda0", "1e155"]) == 1
        assert "terminated by non_finite after 0 iterations" in capsys.readouterr().out

    def test_solve_logistic_m_beside_data_exits_2(self, tmp_path, capsys):
        data = str(tmp_path / "d.libsvm")
        assert cli_main(["gen", "--m", "30", "--n", "4", "--out", data]) == 0
        capsys.readouterr()
        assert cli_main(["solve", "--problem", "logistic", "--data", data,
                         "--m", "5", "--max-iters", "3"]) == 2
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "m or data" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["solve", "--seed", "-1", "--max-iters", "3"],
        ["gen", "--seed", "-1", "--out", "d.libsvm"],
        ["solve", "--problem", "logistic", "--data", "data.libsvm", "--seed", "-1",
         "--max-iters", "3", "--out", "t.json"],
    ], ids=["solve", "gen", "solve-data"])
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        """Also with a data file, which seeds no generator."""
        monkeypatch.chdir(tmp_path)
        assert cli_main(["gen", "--m", "20", "--n", "3", "--out", "data.libsvm"]) == 0
        assert cli_main(argv) == 2
        assert not (tmp_path / "t.json").exists()
        err = capsys.readouterr().err
        assert "usage error: seed must be non-negative, got -1" in err
        assert not (tmp_path / "d.libsvm").exists()

    def test_solve_infinite_lambda0_exits_2(self, capsys):
        assert cli_main(["solve", "--problem", "quadratic", "--dim", "3",
                         "--lambda0", "inf"]) == 2
        assert "lambda0" in capsys.readouterr().err

    def test_bench_ok(self, tmp_path, capsys):
        cfgfile = str(tmp_path / "exp.ini")
        out_dir = str(tmp_path / "out")
        with open(cfgfile, "w") as fh:
            fh.write("[problem]\nkind = quadratic\ndim = 4\n"
                     "[run]\nseeds = 0 1\nout = %s\n"
                     "[solver branch]\nengine = adapgnc\nmax_iters = 10\n" % out_dir)
        assert cli_main(["bench", "--config", cfgfile]) == 0
        assert os.path.exists(os.path.join(out_dir, "summary.json"))

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_bench_out_on_a_file_exits_2(self, tmp_path, capsys, sub):
        """An output directory that is an existing file, or lies under one, is
        a usage error naming the directory, and no summary is written."""
        blocker = tmp_path / "f"
        blocker.write_text("x")
        out_dir = str(blocker / sub) if sub else str(blocker)
        cfgfile = str(tmp_path / "exp.ini")
        with open(cfgfile, "w") as fh:
            fh.write("[problem]\nkind = quadratic\ndim = 4\n"
                     "[run]\nseeds = 0\nout = %s\n"
                     "[solver branch]\nmax_iters = 10\n" % out_dir)
        assert cli_main(["bench", "--config", cfgfile]) == 2
        captured = capsys.readouterr()
        assert f"usage error: output directory not writable: {out_dir}: " in captured.err
        assert "summary" not in captured.out
        assert not os.path.exists(os.path.join(out_dir, "summary.json"))
        assert blocker.read_text() == "x"

    @pytest.mark.parametrize(
        "flags",
        [["--solver", e] for e in ENGINES]
        + [["--rho", r] for r in RHO_NAMES],
        ids=lambda flags: flags[1])
    def test_solve_accepts_every_engine_and_rho(self, flags, capsys):
        assert cli_main(["solve", "--problem", "quadratic", "--dim", "3",
                         "--max-iters", "5"] + flags) == 0

    def test_non_finite_run_exits_1(self, tmp_path, monkeypatch, capsys, nan_problem):
        import adaprox.cli
        import adaprox.harness

        def build(spec, seed):
            return nan_problem("f"), np.ones(3)

        monkeypatch.setattr(adaprox.cli, "build_problem", build)
        assert cli_main(["solve", "--max-iters", "20"]) == 1
        assert "terminated by non_finite" in capsys.readouterr().out

        monkeypatch.setattr(adaprox.harness, "build_problem", build)
        cfgfile = str(tmp_path / "exp.ini")
        with open(cfgfile, "w") as fh:
            fh.write("[problem]\nkind = quadratic\n[run]\nseeds = 0\nout = %s\n"
                     "[solver branch]\nmax_iters = 20\n" % (tmp_path / "out"))
        assert cli_main(["bench", "--config", cfgfile]) == 1

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_main(["solve", "--frobnicate"]) == 2
        # fixed steps at --lambda0; there is no separate step flag
        assert cli_main(["solve", "--solver", "fixed", "--fixed-step", "0.2"]) == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--max-it", "3"],
        ["solve", "--pro", "mc"],
        ["check", "t.json", "--known", "1.0"],
        ["gen", "--prob", "nmf", "--out", "a.csv"],
    ], ids=["max-it", "pro", "known", "prob"])
    def test_abbreviated_flag_exits_2(self, capsys, argv):
        assert cli_main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_solve_mc_reads_p_and_q(self, capsys):
        # before --p existed, argparse read it as an abbreviation of --problem
        assert cli_main(["solve", "--problem", "mc", "--p", "5", "--q", "4",
                         "--nobs", "20", "--max-iters", "3"]) == 0
        # 20 observations fill a 5x4 grid and do not fit in a 4x4 one
        assert cli_main(["solve", "--problem", "mc", "--p", "4", "--q", "4",
                         "--nobs", "20", "--max-iters", "3"]) == 2
        assert "from a 4x4 grid" in capsys.readouterr().err

    def test_gen_refuses_mc_and_nmf(self, tmp_path, capsys):
        """Only the logistic kind reads a data file, so gen writes no other
        kind, and the refusal names the kind it writes."""
        out = tmp_path / "d.csv"
        for argv in (["--problem", "mc", "--p", "4", "--q", "3", "--nobs", "12"],
                     ["--problem", "mc", "--m", "4"], ["--problem", "nmf"]):
            assert cli_main(["gen", *argv, "--out", str(out)]) == 2
            assert "choose from 'logistic'" in capsys.readouterr().err
        assert not out.exists()
        # a flag the logistic kind does not read is refused too
        assert cli_main(["gen", "--problem", "logistic", "--dim", "3", "--out", str(out)]) == 2
        assert "--dim" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [["--m", "0"], ["--n", "0"]], ids=["m", "n"])
    def test_gen_empty_design_exits_2(self, tmp_path, capsys, size):
        """An empty design is a file solve --data cannot read, so gen refuses it."""
        out = tmp_path / "d.libsvm"
        assert cli_main(["gen", *size, "--out", str(out)]) == 2
        assert "must be positive, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_subcommand_exits_2(self, capsys):
        assert cli_main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["check", "nope.json"],
        ["bench", "--config", "nope.ini"],
        ["solve", "--problem", "logistic", "--data", "nope.libsvm"],
    ], ids=["check", "bench", "solve"])
    def test_missing_input_file_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        """An input file that cannot be opened is a usage error naming it."""
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot read ") and argv[-1] in err

    @pytest.mark.parametrize("raw", [bytes(range(128, 256)) * 3,
                                     b"1 1:0.5\n0 2:1.5\n" + bytes(range(255, 127, -1))],
                             ids=["first-byte", "third-line"])
    def test_solve_data_not_utf8_exits_2(self, tmp_path, capsys, raw):
        """A data file that is not UTF-8 text is a usage error naming it."""
        data = tmp_path / "d.libsvm"
        data.write_bytes(raw)
        assert cli_main(["solve", "--problem", "logistic", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: data file {data} is not UTF-8 text")

    @pytest.mark.parametrize("text, reason", [
        ("1 1:0.5\n1 2:abc\n", "line 2: malformed token '2:abc'"),
        ("# a comment\n# another\n", "empty dataset"),
    ], ids=["malformed-token", "comment-only"])
    def test_solve_data_that_does_not_parse_exits_2(self, tmp_path, capsys, text, reason):
        """A data file that does not parse is a usage error naming it, then the reason."""
        data = tmp_path / "d.libsvm"
        data.write_text(text)
        assert cli_main(["solve", "--problem", "logistic", "--data", str(data)]) == 2
        assert capsys.readouterr().err == f"usage error: data file {data}: {reason}\n"

    def test_solver_error_exits_1(self, monkeypatch, capsys, nan_problem):
        """An error of the solve that is not a usage error exits 1."""
        import adaprox.cli

        def build(spec, seed):  # f(x0) is NaN
            return nan_problem("f", first_bad_call=1), np.ones(3)

        monkeypatch.setattr(adaprox.cli, "build_problem", build)
        assert cli_main(["solve"]) == 1
        assert "solver error: non-finite f or grad f at x0" in capsys.readouterr().err

    def test_gen_then_solve_from_file(self, tmp_path, capsys):
        data = str(tmp_path / "d.libsvm")
        assert cli_main(["gen", "--problem", "logistic", "--m", "20",
                         "--n", "5", "--out", data]) == 0
        assert cli_main(["solve", "--problem", "logistic", "--data", data,
                         "--max-iters", "15"]) == 0
