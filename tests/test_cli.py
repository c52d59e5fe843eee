import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecf.cli import cli_main, load_sequence

from helpers import run_cli_module


def write_ones_file(path, n=40, r=1):
    doc = {"xs": [{"r": r, "data": np.eye(r).tolist()} for _ in range(n)]}
    path.write_text(json.dumps(doc))


def write_general_file(path):
    doc = {
        "head": {"r": 1, "data": [[1.0]]},
        "xs": [{"r": 1, "data": [[4.0]]}, {"r": 1, "data": [[4.0]]}],
        "ys": [{"r": 1, "data": [[2.0]]}, {"r": 1, "data": [[2.0]]}],
    }
    path.write_text(json.dumps(doc))


class TestEval:
    def test_golden_ratio_printed(self, tmp_path, capsys):
        f = tmp_path / "ones.json"
        write_ones_file(f)
        assert cli_main(["eval", str(f), "--depth", "40"]) == 0
        out = capsys.readouterr().out
        assert "0.6180339887" in out.strip().split("\n")[-1]

    def test_csv_format(self, tmp_path, capsys):
        f = tmp_path / "ones.json"
        write_ones_file(f, n=6)
        assert cli_main(["eval", str(f), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "k,delta_norm,wk_norm,in_cone_margin"
        assert len(lines) == 7

    def test_json_format(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        write_general_file(f)
        assert cli_main(["eval", str(f), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["depth"] == 2
        assert doc["convergents"][1]["matrix"]["data"][0][0] == pytest.approx(2.0)

    def test_missing_file_is_failure(self, capsys):
        assert cli_main(["eval", "/nonexistent/path.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_cone_entry_rejected(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"xs": [{"r": 1, "data": [[-1.0]]}]}))
        assert cli_main(["eval", str(f)]) == 1

    @pytest.mark.parametrize(
        "doc",
        [[], {"xs": 5}, {"xs": [{"r": 2, "data": 7}]}],
        ids=["list", "xs-not-a-list", "data-not-a-list"],
    )
    def test_malformed_document_is_failure(self, tmp_path, capsys, doc):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert cli_main(["eval", str(f)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_quotient_names_its_level(self, tmp_path):
        m = lambda v: {"r": 3, "data": (v * np.eye(3)).tolist()}  # noqa: E731
        f = tmp_path / "overflow.json"
        f.write_text(json.dumps({"xs": [m(1e-300)] * 2, "ys": [m(1e300)] * 2}))
        proc = run_cli_module("eval", str(f))
        assert proc.returncode == 1
        assert proc.stderr == "error: innermost quotient at level 1 overflows\n"


class TestScale:
    @pytest.mark.parametrize("s", [1e200, 1e-11])
    def test_eval_csv_at_extreme_scales(self, tmp_path, s):
        f = tmp_path / "scaled.json"
        f.write_text(json.dumps({"xs": [{"r": 3, "data": (s * np.eye(3)).tolist()}] * 3}))
        proc = run_cli_module("eval", str(f), "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 4
        assert "inf" not in proc.stdout and "nan" not in proc.stdout

    def test_overflowing_levels_fail_cleanly(self, tmp_path, capsys):
        # the quotient of 1e300 by 1e-300 overflows; the eigensolver's
        # failure is reported as an error, not a traceback
        m = lambda v: {"r": 3, "data": (v * np.eye(3)).tolist()}  # noqa: E731
        f = tmp_path / "overflow.json"
        f.write_text(json.dumps({"xs": [m(1e-300)] * 2, "ys": [m(1e300)] * 2}))
        assert cli_main(["eval", str(f)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def fuzz_case(fault, r, n, scale, command, depth_pick):
    """Sequence file text and ``--depth`` flags carrying one fault, with the expected exit code."""
    mat = lambda k: {"r": k, "data": (scale * np.eye(k)).tolist()}  # noqa: E731
    doc = {"xs": [mat(r) for _ in range(n)]}
    top = n if command == "eval" else min(n, 64)
    depth = None if depth_pick is None else 1 + depth_pick % top
    code = 1
    if fault == "nan":
        doc["xs"][-1]["data"][0][0] = float("nan")
    elif fault == "mismatched_r":
        doc["xs"][-1]["r"] = r + 1
    elif fault == "mixed_sizes":
        doc["xs"].append(mat(r + 1))
    elif fault == "bool_r":
        doc["xs"][0]["r"] = True
    elif fault == "empty_xs":
        doc["xs"] = []
        depth = None
    elif fault == "asymmetric":
        doc["xs"] = [mat(r + 1) for _ in range(n)]
        doc["xs"][0]["data"][0][r] += max(scale, 1.0)  # SymMatrix's 1e-9 * (1 + max|a|) rejects it
    elif fault == "ys_length":
        doc["ys"] = [mat(r) for _ in range(n + 1)]
    elif fault == "not_in_cone":
        doc["xs"][-1]["data"][0][0] = -scale
    elif fault == "depth":
        pick = depth_pick or 0
        depth = -pick if pick % 2 else top + 1 + pick
        code = 2
    text = "[" * 100_000 if fault == "deep" else json.dumps(doc)
    return text, [] if depth is None else ["--depth", str(depth)], code


FAULTS = ["nan", "mismatched_r", "mixed_sizes", "bool_r", "empty_xs", "asymmetric",
          "ys_length", "not_in_cone", "depth", "deep"]


class TestMalformedInputFuzz:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.sampled_from(FAULTS),
        st.integers(1, 3),
        st.integers(1, 5),
        st.sampled_from([1e-11, 1.0, 3.0, 1e200]),
        st.sampled_from(["eval", "equiv"]),
        st.none() | st.integers(0, 70),
    )
    def test_every_fault_exits_cleanly(self, fault, r, n, scale, command, depth_pick):
        text, flags, code = fuzz_case(fault, r, n, scale, command, depth_pick)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "seq.json")
            with open(path, "w") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli_main([command, path, *flags])
        assert rc == code, err.getvalue()
        assert err.getvalue().startswith("error: ")

    def test_deep_nesting_is_a_value_error(self, tmp_path):
        f = tmp_path / "deep.json"
        f.write_text("[" * 100_000)
        with pytest.raises(ValueError, match="nests too deeply"):
            load_sequence(str(f))


class TestLoadSequence:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "seq.json"
        write_general_file(f)
        seq = load_sequence(str(f))
        assert len(seq.xs) == 2 and seq.ys is not None and seq.head is not None
        assert seq.head.mat[0, 0] == 1.0


class TestEquiv:
    def test_agreement(self, tmp_path, capsys):
        f = tmp_path / "seq.json"
        write_general_file(f)
        assert cli_main(["equiv", str(f)]) == 0
        assert "max relative deviation" in capsys.readouterr().out

    def test_depth_within_cap_on_longer_file(self, tmp_path, capsys):
        # only the levels up to --depth are transformed, so a file longer
        # than the depth cap still checks at the cap
        f = tmp_path / "ones.json"
        write_ones_file(f, n=70)
        assert cli_main(["equiv", str(f), "--depth", "64"]) == 0
        assert "depths 1..64" in capsys.readouterr().out

    def test_default_depth_is_capped(self, tmp_path, capsys):
        f = tmp_path / "ones.json"
        write_ones_file(f, n=70)
        assert cli_main(["equiv", str(f)]) == 0
        assert "depths 1..64" in capsys.readouterr().out


class TestIdentities:
    def test_rank_one_passes(self, capsys):
        assert cli_main(["identities", "--rank", "1", "--cases", "100", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out


class TestMc:
    ARGS = [
        "mc", "--rank", "1", "--b", "2", "--a", "2", "--a2", "2",
        "--trials", "5", "--depth", "20", "--seed", "3", "--eps", "1e-6",
    ]

    def test_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert cli_main(self.ARGS + ["--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "cone-cf/1"
        assert "fraction_converged" in doc
        lines = out.read_text().strip().split("\n")
        assert len(lines) - 1 == 5 * 19

    def test_byte_identical_reruns(self, tmp_path, capsys):
        blobs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            sout = tmp_path / (name + ".json")
            assert cli_main(self.ARGS + ["--out", str(out), "--summary-out", str(sout)]) == 0
            capsys.readouterr()
            blobs.append((out.read_bytes(), sout.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_identity_law(self, capsys):
        assert cli_main(["mc", "--law", "identity", "--rank", "2", "--trials", "2",
                         "--depth", "25", "--seed", "0", "--eps", "1e-6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fraction_converged"] == 1.0

    def test_bad_shapes_fail(self, capsys):
        assert cli_main(["mc", "--rank", "3", "--b", "0.5", "--trials", "2",
                         "--depth", "10", "--seed", "0"]) == 1


class TestSample:
    def test_beta2_schema(self, tmp_path):
        out = tmp_path / "draws.json"
        rc = cli_main(["sample", "--dist", "beta2", "--rank", "2", "--p", "3", "--q", "3",
                       "--n", "4", "--seed", "9", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["dist"] == "beta2" and doc["n"] == 4 and doc["r"] == 2
        assert {"p", "q", "seed", "samples"} <= set(doc)
        assert len(doc["samples"]) == 4
        assert doc["samples"][0]["r"] == 2

    def test_wishart_schema_stdout(self, capsys):
        assert cli_main(["sample", "--dist", "wishart", "--rank", "1", "--s", "3",
                         "--n", "2", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dist"] == "wishart" and doc["q"] is None

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cli_main(["sample", "--n", "3", "--seed", "4", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_flag(self, capsys):
        assert cli_main(["mc", "--does-not-exist", "1"]) == 2
        capsys.readouterr()

    def test_no_command(self, capsys):
        assert cli_main([]) == 2
        capsys.readouterr()

    def test_sample_count_below_one(self, capsys):
        assert cli_main(["sample", "--dist", "wishart", "--s", "0.1", "--n", "0"]) == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", ["0", "6"])
    def test_eval_depth_out_of_range(self, tmp_path, capsys, depth):
        f = tmp_path / "ones.json"
        write_ones_file(f, n=5)
        assert cli_main(["eval", str(f), "--depth", depth]) == 2
        assert "--depth" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", ["0", "3"])
    def test_equiv_depth_out_of_range(self, tmp_path, capsys, depth):
        f = tmp_path / "seq.json"
        write_general_file(f)
        assert cli_main(["equiv", str(f), "--depth", depth]) == 2
        assert "--depth" in capsys.readouterr().err
