import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from probconn import (
    GraphFileError,
    adjacency_matrix,
    build_graph,
    compute_bounds,
    exact_connectivity,
    format_graph_file,
    mc_connectivity,
    parse_graph_file,
    to_json,
    walk_matrix,
    walk_probabilities,
)
import probconn.cli as cli
from probconn.cli import run_command
from graphgen import random_graph


class TestParseGraphFile:
    def test_minimal(self):
        g = parse_graph_file("n 2\ne 0 1 0.5")
        assert g.n == 2
        assert g.edges == ((0, 1, 0.5),)

    def test_comments_and_blank_lines(self):
        g = parse_graph_file("# c\n\nn 3\ne 0 1 0.9\ne 1 2 0.8\n")
        assert g.n == 3
        assert g.m == 2

    def test_edge_before_header_reports_line_one(self):
        with pytest.raises(GraphFileError, match="line 1") as exc:
            parse_graph_file("e 0 1 0.5")
        assert exc.value.line == 1

    def test_duplicate_header_reports_line(self):
        with pytest.raises(GraphFileError, match="line 3: duplicate"):
            parse_graph_file("n 2\ne 0 1 0.5\nn 2")

    def test_missing_header(self):
        with pytest.raises(GraphFileError, match="missing 'n' header"):
            parse_graph_file("# nothing here\n")

    def test_bad_probability_reports_line(self):
        with pytest.raises(GraphFileError, match="line 2"):
            parse_graph_file("n 2\ne 0 1 1.5")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphFileError, match="line 3: duplicate"):
            parse_graph_file("n 2\ne 0 1 0.5\ne 1 0 0.7")

    def test_unknown_directive(self):
        with pytest.raises(GraphFileError, match="line 2: unknown"):
            parse_graph_file("n 2\nx 0 1")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("n 1_0", 1),  # int() reads 10
            ("n ３", 1),  # full-width three
            ("n 3\ne 0_1 2 0.5", 2),  # int() reads 1
            ("n 2\ne ０ 1 0.5", 2),  # full-width zero
            ("n 2\ne 0 1 0.5_0", 2),  # float() reads 0.5
            ("n 2\ne 0 1 ٠.٥", 2),  # Arabic-Indic 0.5
            ("n 2\n\ne 0 1 1_0e-1", 3),
        ],
        ids=["count-underscore", "count-fullwidth", "endpoint-underscore",
             "endpoint-fullwidth", "probability-underscore", "probability-arabic-indic",
             "exponent-underscore"],
    )
    def test_underscore_and_non_ascii_numbers_rejected(self, text, line):
        with pytest.raises(GraphFileError, match=f"line {line}:") as exc:
            parse_graph_file(text)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "char",
        ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_only_lf_crlf_and_cr_end_a_line(self, char):
        # str.splitlines() also breaks at these; inside a line they are whitespace
        for newline in ("\n", "\r\n", "\r"):
            text = f"n 3{newline}# retired link{char}e 0 1 0.5{newline}e 1 2 0.5{newline}"
            assert parse_graph_file(text).edges == ((1, 2, 0.5),)
            with pytest.raises(GraphFileError, match="line 2:") as exc:
                parse_graph_file(f"n 3{newline}e 0 1 0.5{char}e 1 2 x{newline}")
            assert exc.value.line == 2

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            g = random_graph(rng, m_hi=8)
            assert parse_graph_file(format_graph_file(g)) == g


class TestToJson:
    def test_deterministic_key_order_and_float_format(self):
        doc = {"a": 0.625, "b": [1, 2.5], "c": {"nested": True}, "d": None}
        text = to_json(doc)
        assert text == '{"a":0.625,"b":[1,2.5],"c":{"nested":true},"d":null}'

    def test_floats_round_trip_exactly(self):
        values = [1 / 3, 0.1 + 0.2, 2.0 ** -53, 1e300]
        text = to_json(values)
        assert json.loads(text) == values
        values += [-0.0, 0.0, 1.0, 5e-324, np.float64(0.27885)]
        parsed = json.loads(to_json(values))
        assert parsed == values
        assert all(type(v) is float for v in parsed)
        assert [math.copysign(1, v) for v in parsed] == [
            math.copysign(1, v) for v in values
        ]

    def test_pretty_output_parses(self):
        doc = {"q": [[1.0, 0.5], [0.5, 1.0]], "n": 2}
        assert json.loads(to_json(doc, pretty=True)) == json.loads(to_json(doc))
        assert to_json(doc, pretty=True) == (
            '{\n  "q": [\n    [\n      1.0,\n      0.5\n    ],\n'
            '    [\n      0.5,\n      1.0\n    ]\n  ],\n  "n": 2\n}'
        )
        assert to_json({"a": [], "b": {}}, pretty=True) == '{\n  "a": [],\n  "b": {}\n}'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            to_json({"bad": float("nan")})
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                to_json({"q": [[1.0, 0.5], [0.5, bad]]})


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.pg"
    path.write_text("n 3\ne 0 1 0.5\ne 1 2 0.5\ne 0 2 0.5\n")
    return str(path)


@pytest.fixture
def path4_file(tmp_path):
    path = tmp_path / "p4.pg"
    path.write_text("n 4\ne 0 1 0.9\ne 1 2 0.9\ne 2 3 0.9\n")
    return str(path)


def _run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_compute_document(self, capsys, triangle_file):
        code, out, err = _run(capsys, ["compute", "--input", triangle_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1.0.0"
        assert doc["engine"] == "exact"
        assert doc["n"] == 3 and doc["m"] == 3
        assert doc["q"][0][1] == 0.625
        assert doc["lambda_max"] == pytest.approx(2.25, abs=1e-12)
        assert doc["psd"] is True
        assert doc["bounds"]["violations"] == []
        assert doc["bounds"]["lower"][0][1] == 0.390625
        assert doc["critical_vertices"] == []
        assert doc["components"][0]["vertices"] == [0, 1, 2]

    def test_critical_document(self, capsys, path4_file):
        code, out, _ = _run(capsys, ["critical", "--input", path4_file])
        assert code == 0
        doc = json.loads(out)
        ks = [f["k"] for f in doc["critical_vertices"]]
        assert ks == [1, 2]

    def test_critical_ignores_pairs_within_tolerance_of_zero(self, capsys, tmp_path):
        # q_02 = 1e-12 and q_03 = 9e-13 are read as 0: they witness neither 1 nor the leaf 3
        path = tmp_path / "faint.pg"
        path.write_text("n 4\ne 0 1 1e-6\ne 1 2 1e-6\ne 2 3 0.9\n")
        code, out, _ = _run(capsys, ["critical", "--input", str(path)])
        assert code == 0
        assert [(f["k"], f["witnesses"]) for f in json.loads(out)["critical_vertices"]] == [
            (2, [[1, 3]])]

    def test_spectrum_document(self, capsys, triangle_file):
        code, out, _ = _run(capsys, ["spectrum", "--input", triangle_file])
        doc = json.loads(out)
        assert code == 0
        assert doc["eigenvalues"][0] == pytest.approx(2.25, abs=1e-12)
        assert len(doc["principal_eigenvector"]) == 3

    @pytest.mark.parametrize(
        "command", [["spectrum"], ["compute"], ["mc", "--samples", "2000", "--seed", "1"]]
    )
    def test_tolerance_reaches_the_spectral_verdicts(self, capsys, triangle_file, command):
        # lambda_min = 0.375 at p = 0.5: definite at the default 1e-9 * 3, not at 0.5 * 3
        argv = command + ["--input", triangle_file]
        assert json.loads(_run(capsys, argv)[1])["definite"] is True
        code, out, _ = _run(capsys, argv + ["--tolerance", "0.5"])
        assert code == 0
        assert json.loads(out)["definite"] is False

    def test_mc_runs_are_byte_identical(self, capsys, triangle_file):
        args = ["mc", "--input", triangle_file, "--samples", "20000", "--seed", "7"]
        code1, out1, _ = _run(capsys, args)
        code2, out2, _ = _run(capsys, args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["engine"] == "mc"
        assert doc["mc"]["samples"] == 20000
        assert doc["mc"]["seed"] == 7
        assert doc["q"][0][1] == pytest.approx(0.625, abs=0.04)

    def test_walk_document(self, capsys, path4_file):
        code, out, _ = _run(capsys, ["walk", "--z", "2", "--input", path4_file])
        doc = json.loads(out)
        assert code == 0
        assert doc["z"] == 2
        assert doc["walk"][0][2] == pytest.approx(0.81, abs=1e-12)

    def test_rank_document(self, capsys, path4_file):
        code, out, _ = _run(
            capsys, ["rank", "--input", path4_file, "--include-absent"]
        )
        doc = json.loads(out)
        assert code == 0
        pairs = {(e["i"], e["j"]) for e in doc["ranking"]}
        assert (1, 3) in pairs and (0, 1) in pairs
        gains = [e["projected_gain"] for e in doc["ranking"]]
        assert gains == sorted(gains, reverse=True)

    @pytest.mark.parametrize(
        "text, links, dlambda, gains",
        [
            ("n 1\n", [], [], []),  # no candidates: nothing to stack
            # singleton components: a tied top eigenvalue, so each derivative takes the
            # tied eigenspace (lambda_max rises as 1 + t); each changed block has size 2
            ("n 3\n", [(None, 0, 1, "eigenspace"), (None, 0, 2, "eigenspace"),
                        (None, 1, 2, "eigenspace")], [1.0] * 3, [1.0] * 3),
            # blocks of size 2 (the link (0, 1), and (2, 3) joining two singletons)
            # and size 3 (a singleton joined to the link's component)
            ("n 4\ne 0 1 0.5\n",
             [(None, 0, 2, "rayleigh"), (None, 0, 3, "rayleigh"), (None, 1, 2, "rayleigh"),
              (None, 1, 3, "rayleigh"), (0, 0, 1, "rayleigh"), (None, 2, 3, "rayleigh")],
             [0.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.8660254037844384] * 4 + [0.5, 0.5]),
        ],
    )
    def test_rank_on_degenerate_graphs(self, capsys, tmp_path, text, links, dlambda, gains):
        path = tmp_path / "g.pg"
        path.write_text(text)
        code, out, _ = _run(capsys, ["rank", "--include-absent", "--input", str(path)])
        assert code == 0
        ranking = json.loads(out)["ranking"]
        assert [(e["edge_index"], e["i"], e["j"], e["derivative_method"]) for e in ranking] == links
        assert [e["dlambda"] for e in ranking] == pytest.approx(dlambda, rel=0, abs=1e-15)
        assert [e["projected_gain"] for e in ranking] == pytest.approx(gains, rel=0, abs=1e-15)

    def test_matrices_parse_back_bit_for_bit(self, capsys, tmp_path):
        # two support components, so block zeros are written too
        g = build_graph(
            6,
            [(0, 1, 0.27885), (1, 2, 1 / 3), (0, 2, 0.7), (3, 4, 0.1 + 0.2),
             (4, 5, 0.91), (3, 5, 0.55)],
        )
        path = tmp_path / "g.pg"
        path.write_text(format_graph_file(g))
        q = exact_connectivity(g)

        _, out, _ = _run(capsys, ["compute", "--input", str(path)])
        doc = json.loads(out)
        bounds = compute_bounds(adjacency_matrix(g), q, 1e-12)
        assert np.array_equal(np.array(doc["q"]), q)
        assert np.array_equal(np.array(doc["bounds"]["lower"]), bounds.lower)
        assert np.array_equal(np.array(doc["bounds"]["upper"]), bounds.upper)

        _, out, _ = _run(
            capsys, ["mc", "--input", str(path), "--samples", "500", "--seed", "3"]
        )
        doc = json.loads(out)
        est = mc_connectivity(g, 500, 3)
        assert np.array_equal(np.array(doc["q"]), est.q_hat)
        assert np.array_equal(np.array(doc["mc"]["std_err"]), est.std_err)

        _, out, _ = _run(capsys, ["walk", "--z", "3", "--input", str(path)])
        walked = walk_probabilities(walk_matrix(g), 3)
        assert np.array_equal(np.array(json.loads(out)["walk"]), walked.entries)

    @pytest.mark.parametrize("command", [
        ["compute"], ["mc", "--samples", "500", "--seed", "3"], ["bounds"], ["spectrum"],
        ["critical"], ["walk", "--z", "3"], ["rank", "--include-absent"],
    ])
    def test_documents_are_the_bytes_of_json_dumps(self, capsys, tmp_path, command):
        # sure links in two components, a third component and an isolated vertex:
        # block zeros, exact ones and repeated values in every matrix
        path = tmp_path / "parts.pg"
        path.write_text("n 10\ne 0 1 1\ne 1 2 0.6\ne 2 3 1\ne 0 3 0.6\ne 4 5 0.7\n"
                        "e 5 6 1\ne 4 6 0.2\ne 7 8 0.35\n")
        for pretty, options in (([], {"separators": (",", ":")}), (["--pretty"], {"indent": 2})):
            code, out, _ = _run(capsys, [*command, "--input", str(path), *pretty])
            assert code == 0
            # floats round-trip, so the stdlib re-serializes the very same text
            assert out == json.dumps(json.loads(out), **options) + "\n"

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.pg"
        bad.write_bytes(b"n 2\ne 0 1 0.5\n\xff\xfe\n")
        code, out, err = _run(capsys, ["compute", "--input", str(bad)])
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_byte_order_mark_is_skipped(self, capsys, triangle_file, tmp_path):
        marked = tmp_path / "bom.pg"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(triangle_file).read_bytes())
        expected = _run(capsys, ["compute", "--input", triangle_file])
        assert _run(capsys, ["compute", "--input", str(marked)]) == expected
        assert expected[0] == 0

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        # n 200 gives a 200 x 200 walk matrix, about 160 KB of JSON: far
        # more than a 64 KiB pipe buffer, so the write fails after the close
        path = tmp_path / "wide.pg"
        path.write_text("n 200\n")
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "probconn.cli", "walk", "--z", "1", "--input", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert len(proc.stdout.read(16)) == 16
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err

    def test_importing_the_cli_leaves_statistics_unloaded(self):
        # the CLI never calls ci_halfwidth, and importing statistics loads fractions and decimal;
        # scipy and networkx are installed as the benchmark's references, never the package's
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        unloaded = ["statistics", "scipy", "networkx"]
        done = subprocess.run(
            [sys.executable, "-c", f"import sys, probconn.cli; print([m in sys.modules for m in {unloaded}])"],
            capture_output=True, env=env, timeout=60, check=True, text=True,
        )
        assert done.stdout == f"{[False] * len(unloaded)}\n"

    def test_same_bytes_for_any_blas_thread_count(self, tmp_path):
        # 2^20 and 2^22 states: the exact engine sums each run of states with one gemv
        pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        src = str(Path(cli.__file__).parents[1])
        outputs = {}
        # rank sums each run of its forced pass with one gemv per weight column against a
        # shared table (a gemm's sums varied with the thread count on the 22-link graph),
        # and mc each vertex's pairs in a slice of sampled states with one gemv
        mc = ["mc", "--samples", "20000", "--seed", "1"]
        for m in (20, 22):
            path = tmp_path / f"m{m}.pg"
            path.write_text(format_graph_file(build_graph(10, [(i, j, 0.3 + 0.03 * k)
                                                                for k, (i, j) in enumerate(pairs[:m])])))
            for command in (["compute"], ["rank", "--include-absent"]) + ((mc,) if m == 20 else ()):
                for threads in ("1", "2"):
                    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                        filter(None, [src, os.environ.get("PYTHONPATH")])))
                    done = subprocess.run(
                        [sys.executable, "-m", "probconn.cli", *command, "--input", str(path)],
                        capture_output=True, env=env, timeout=120, check=True,
                    )
                    outputs[command[0], m, threads] = done.stdout
        for command, m, _ in outputs:
            assert outputs[command, m, "1"] == outputs[command, m, "2"]
        assert json.loads(outputs["compute", 20, "1"])["q"][0][9] > 0
        assert len(json.loads(outputs["rank", 20, "1"])["ranking"]) == 45
        assert len(json.loads(outputs["rank", 22, "1"])["ranking"]) == 45

    def test_document_layout(self, capsys, triangle_file, path4_file, monkeypatch):
        head = ["schema_version", "tool_version", "command", "n", "m"]
        spectrum = ["components", "eigenvalues", "lambda_max", "lambda_max_normalized",
                    "psd", "definite"]
        layouts = {
            ("compute",): ["engine", "q", *spectrum, "bounds", "critical_tolerance",
                           "critical_vertices"],
            ("mc", "--samples", "100"): ["engine", "q", *spectrum, "mc"],
            ("bounds",): ["engine", "q", "bounds"],
            ("spectrum",): ["engine", *spectrum, "principal_eigenvector"],
            ("critical",): ["engine", "critical_tolerance", "critical_vertices"],
            ("walk", "--z", "2"): ["z", "walk"],
            ("rank",): ["engine", "lambda_max", "include_absent", "ranking"],
        }
        docs = {}
        for argv, keys in layouts.items():
            code, out, _ = _run(capsys, [*argv, "--input", path4_file])
            assert code == 0
            docs[argv[0]] = doc = json.loads(out)
            assert list(doc) == head + keys, argv[0]
        assert list(docs["compute"]["components"][0]) == ["vertices", "lambda_max"]
        assert list(docs["compute"]["bounds"]) == [
            "lower", "upper", "tolerance", "violations", "unconstrained_pairs"
        ]
        assert list(docs["mc"]["mc"]) == ["samples", "seed", "std_err"]
        assert list(docs["rank"]["ranking"][0]) == [
            "edge_index", "i", "j", "probability", "dlambda", "derivative_method",
            "headroom", "projected_gain",
        ]
        # exact matrices never violate the bounds or warn: lower q_03 of the
        # path 0-1-2-3 below its relay bound 0.729 to get both records
        q = exact_connectivity(parse_graph_file(Path(path4_file).read_text()))
        q[0, 3] = q[3, 0] = 0.7
        monkeypatch.setattr(cli, "exact_connectivity", lambda g, max_edges: q.copy())
        _, out, _ = _run(capsys, ["compute", "--input", path4_file])
        doc = json.loads(out)
        violation = doc["bounds"]["violations"][0]
        assert list(violation) == ["i", "j", "kind", "magnitude"]
        assert violation["i"] == 0 and violation["j"] == 3 and violation["kind"] == "lower"
        finding = doc["critical_vertices"][0]
        assert list(finding) == ["k", "witnesses", "partition", "warnings"]
        assert finding["witnesses"] == [[0, 2]]
        assert finding["partition"] == {"v1": [0], "v3": [2, 3]}
        assert finding["warnings"] == [{"l": 0, "m": 3, "error": pytest.approx(0.029)}]
        assert list(finding["partition"]) == ["v1", "v3"]
        assert list(finding["warnings"][0]) == ["l", "m", "error"]

    def test_pretty_flag_changes_layout_not_content(self, capsys, triangle_file):
        _, flat, _ = _run(capsys, ["compute", "--input", triangle_file])
        _, pretty, _ = _run(capsys, ["compute", "--input", triangle_file, "--pretty"])
        assert flat != pretty
        assert json.loads(flat) == json.loads(pretty)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = _run(capsys, ["compute", "--input", str(tmp_path / "no.pg")])
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_invalid_graph_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.pg"
        bad.write_text("n 2\ne 0 0 0.5\n")
        code, _, err = _run(capsys, ["compute", "--input", str(bad)])
        assert code == 2
        assert "self-loop" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, err = _run(capsys, ["frobnicate", "--input", "x"])
        assert code == 2

    def test_edge_limit_exits_3_and_points_to_mc(self, capsys, triangle_file):
        code, out, err = _run(
            capsys, ["compute", "--input", triangle_file, "--max-edges", "2"]
        )
        assert code == 3
        assert out == ""
        assert "mc" in err

    @pytest.mark.parametrize("command, engine", [
        (["compute"], "exact_connectivity"),
        (["mc", "--samples", "100"], "mc_connectivity"),
        (["walk", "--z", "3"], "walk_probabilities"),
        (["rank"], "rank_improvements"),
    ])
    def test_out_of_memory_exits_3_with_one_line(self, capsys, monkeypatch, triangle_file,
                                                 command, engine):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, engine, exhausted)
        code, out, err = _run(capsys, [*command, "--input", triangle_file])
        assert code == 3
        assert out == ""
        assert err.startswith("probconn: out of memory") and err.count("\n") == 1
        assert "n=3" in err and "m=3" in err and "fewer vertices" in err

    def test_candidate_links_do_not_count_toward_edge_limit(self, capsys, tmp_path):
        path = tmp_path / "p3.pg"
        path.write_text("n 3\ne 0 1 0.9\ne 1 2 0.8\n")
        code, out, _ = _run(
            capsys, ["rank", "--input", str(path), "--include-absent", "--max-edges", "2"]
        )
        assert code == 0
        assert len(json.loads(out)["ranking"]) == 3

    def test_mc_not_subject_to_edge_limit(self, capsys, triangle_file):
        code, out, _ = _run(
            capsys,
            ["mc", "--input", triangle_file, "--samples", "100", "--seed", "1",
             "--max-edges", "1"],
        )
        assert code == 0

    def test_zero_samples_rejected_by_usage(self, capsys, triangle_file):
        code, _, _ = _run(
            capsys, ["mc", "--input", triangle_file, "--samples", "0"]
        )
        assert code == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-9"])
    def test_tolerance_not_finite_and_nonnegative_rejected_by_usage(
        self, capsys, triangle_file, tolerance
    ):
        code, out, err = _run(
            capsys, ["compute", "--input", triangle_file, "--tolerance", tolerance]
        )
        assert code == 2
        assert out == ""
        assert "--tolerance" in err
