import json
import logging
import subprocess
import sys

import pytest

import tables
from binsys import census, is_locally_zero, left_zero, parse_groupoid, product
from binsys.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerive:
    def test_ua_on_bck3(self, capsys, data_dir):
        code, out, _ = run(capsys, "derive", "--method", "ua", str(data_dir / "bck3.gpd"))
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert blocks[0] == "elements: 0 1 2\nzero: 0\ntable:\n0 0 0\n1 1 1\n2 2 2"
        assert blocks[1] == "elements: 0 1 2\nzero: 0\ntable:\n0 0 0\n1 0 1\n2 2 0"
        assert blocks[2] == "reproduces_target: true"

    def test_method_required(self, capsys, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["derive", str(data_dir / "bck3.gpd")])
        assert exc.value.code == 2

    def test_jo_failure_flagged(self, capsys, tmp_path):
        target = tmp_path / "g.gpd"
        target.write_text("elements: 0 1 2\ntable:\n0 0 0\n2 0 0\n0 0 0\n")
        code, out, _ = run(capsys, "derive", "--method", "jo", str(target))
        assert code == 0
        assert out.strip().endswith("reproduces_target: false")


class TestProduct:
    def test_right_zero_squared(self, capsys, data_dir):
        rz = str(data_dir / "rz2.gpd")
        code, out, _ = run(capsys, "product", rz, rz)
        assert code == 0
        assert out == "elements: x y\ntable:\nx x\ny y\n"

    def test_order_mismatch_exit(self, capsys, data_dir):
        code, _, err = run(
            capsys, "product", str(data_dir / "rz2.gpd"), str(data_dir / "bck3.gpd")
        )
        assert code == 2
        assert "error:" in err


class TestClassify:
    def test_json_shape(self, capsys, data_dir):
        code, out, _ = run(capsys, "classify", str(data_dir / "bck3.gpd"))
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["order"] == 3
        assert doc["zero"] == 0
        assert doc["predicates"]["strong"] is True
        assert doc["classification"]["signature_prime"] is True
        assert doc["classification"]["u_normal"] is True
        assert doc["classification"]["semi_normal"] is True

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "no-such-file.gpd")
        assert code == 1
        assert "cannot read" in err


class TestAxioms:
    def test_classes_include_bck(self, capsys, data_dir):
        code, out, _ = run(capsys, "axioms", str(data_dir / "bck3.gpd"))
        assert code == 0
        doc = json.loads(out)
        assert doc["axioms"] == tables.AXIOMS_BCK3
        assert doc["classes"] == tables.CLASSES_BCK3

    def test_zero_required(self, capsys, data_dir):
        code, _, err = run(capsys, "axioms", str(data_dir / "star4.gpd"))
        assert code == 2
        assert "zero" in err


class TestGraph:
    def test_to_dot(self, capsys, data_dir):
        code, out, err = run(capsys, "graph", "to-dot", str(data_dir / "star4.gpd"))
        assert code == 0
        assert out == (
            "graph {\n  a;\n  b;\n  c;\n  d;\n"
            "  a -- b;\n  b -- c;\n  b -- d;\n}\n"
        )
        assert err == ""

    def test_to_dot_warns_when_lossy(self, capsys, data_dir):
        code, _, err = run(capsys, "graph", "to-dot", str(data_dir / "bck3.gpd"))
        assert code == 0
        assert "not locally zero" in err

    def test_from_dot(self, capsys, data_dir):
        code, out, _ = run(capsys, "graph", "from-dot", str(data_dir / "star.dot"))
        assert code == 0
        assert out == (
            "elements: a b c d\ntable:\n"
            "a a c d\nb b b b\na c c d\na d c d\n"
        )

    def test_to_digraph(self, capsys, data_dir):
        code, out, _ = run(capsys, "graph", "to-digraph", str(data_dir / "top3.gpd"))
        assert code == 0
        assert "b -> a;" in out and "c -> a;" in out

    def test_to_digraph_requires_orientation(self, capsys, data_dir):
        code, _, err = run(capsys, "graph", "to-digraph", str(data_dir / "bck3.gpd"))
        assert code == 2
        assert "error:" in err


class TestEnumerate:
    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 16
        assert lines[0] == "0 0 0 0"
        assert lines[-1] == "1 1 1 1"

    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "2", "--census")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 16
        assert doc["counts"] == tables.CENSUS2

    def test_order_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--order", "4")
        assert code == 2
        assert "error:" in err

    def test_census_above_listing_cap(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "4", "--census")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 4_294_967_296
        assert doc["counts"]["strong"] == 764_411_904
        assert doc["counts"]["abelian"] == 1_048_576
        assert doc["counts"]["locally_zero"] == 64

    @pytest.mark.parametrize("order", [51, 64])
    def test_census_past_int_digit_cap(self, capsys, order):
        # order**(order**2) has 4,442 digits at 51 and 7,399 at 64, past
        # CPython's default cap of 4,300 on int-to-str conversion; the counts
        # print exactly, and the cap is back in place afterwards
        limit = getattr(sys, "get_int_max_str_digits", int)()
        code, out, err = run(capsys, "enumerate", "--order", str(order), "--census")
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", int)() == limit
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            doc = json.loads(out)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        report = census(order)
        assert (doc["total"], doc["counts"]) == (report.total, report.counts)

    @pytest.mark.parametrize("order", ["0", "-1"])
    @pytest.mark.parametrize("extra", [[], ["--census"]])
    def test_order_below_one(self, capsys, order, extra):
        code, out, err = run(capsys, "enumerate", "--order", order, *extra)
        assert code == 2
        assert out == ""
        assert "order must be >= 1" in err


class TestVerify:
    def test_exhaustive_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--order", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exhaustive"
        assert doc["sample"] is None
        failing = [c["claim"] for c in doc["claims"] if not c["passed"]]
        assert failing == ["prop-3.2.10-statement", "prop-5.9-magma"]

    def test_sampled(self, capsys):
        code, out, _ = run(capsys, "verify", "--order", "5", "--sample", "40", "--seed", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["sample"] == {"count": 40, "seed": 9}
        assert all(c["passed"] for c in doc["claims"] if c["expected"] == "pass")

    def test_exhaustive_too_large(self, capsys):
        code, _, err = run(capsys, "verify", "--order", "4")
        assert code == 2
        assert "sample" in err

    @pytest.mark.parametrize("order", ["0", "-1"])
    @pytest.mark.parametrize("extra", [[], ["--sample", "5"]])
    def test_order_below_one(self, capsys, order, extra):
        code, out, err = run(capsys, "verify", "--order", order, *extra)
        assert code == 2
        assert out == ""
        assert "order must be >= 1" in err


class TestInverse:
    def test_locally_zero(self, capsys, data_dir):
        code, out, _ = run(capsys, "inverse", str(data_dir / "star4.gpd"))
        assert code == 0
        assert out == (data_dir / "star4.gpd").read_text()

    def test_none(self, capsys, tmp_path):
        f = tmp_path / "c.gpd"
        f.write_text("elements: 0 1\ntable:\n0 0\n0 0\n")
        code, out, _ = run(capsys, "inverse", str(f))
        assert code == 0
        assert out.strip() == "none"

    def test_order_three_not_locally_zero(self, capsys, tmp_path):
        # a 3-cycle on the diagonal; the inverse runs it backwards
        f = tmp_path / "cyc.gpd"
        f.write_text("elements: 0 1 2\ntable:\n1 0 0\n1 2 1\n2 2 0\n")
        code, out, _ = run(capsys, "inverse", str(f))
        assert code == 0
        assert out == "elements: 0 1 2\ntable:\n2 0 0\n1 0 1\n2 2 1\n"

    def test_labels_and_zero_echoed(self, capsys, tmp_path):
        f = tmp_path / "cyc.gpd"
        f.write_text("elements: a b c\nzero: a\ntable:\nb a a\nb c b\nc c a\n")
        code, out, _ = run(capsys, "inverse", str(f))
        assert code == 0
        assert out == "elements: a b c\nzero: a\ntable:\nc a a\nb a b\nc c b\n"

    def test_order_four_not_locally_zero(self, capsys, tmp_path):
        f = tmp_path / "cyc4.gpd"
        f.write_text(
            "elements: 0 1 2 3\ntable:\n1 0 0 0\n1 2 1 1\n2 2 3 2\n3 3 3 0\n"
        )
        code, out, _ = run(capsys, "inverse", str(f))
        assert code == 0
        g, inv = parse_groupoid(f.read_text()), parse_groupoid(out)
        assert not is_locally_zero(g)
        assert product(g, inv) == left_zero(4) == product(inv, g)


class TestParseFailures:
    def test_bad_table_values(self, capsys, tmp_path):
        f = tmp_path / "bad.gpd"
        f.write_text("elements: a b\ntable:\na c\nb a\n")
        code, _, err = run(capsys, "classify", str(f))
        assert code == 1
        assert "undeclared" in err

    def test_keyword_graph_name(self, capsys, tmp_path):
        f = tmp_path / "node.dot"
        f.write_text("graph node { a -- b; }\n")
        code, out, err = run(capsys, "graph", "from-dot", str(f))
        assert code == 1
        assert out == ""
        assert "'node'" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("elements: a\nelements: a\ntable:\na\n", "duplicate elements: line"),
            ("elements: a\nzero:\ntable:\na\n", "empty zero: line"),
            ("elements: a\ntable: a\n", "table: line takes no inline value"),
            ("elements: a\nrows:\ntable:\na\n", "unexpected line 'rows:'"),
        ],
    )
    def test_groupoid_file_errors(self, capsys, tmp_path, text, message):
        f = tmp_path / "bad.gpd"
        f.write_text(text)
        assert run(capsys, "classify", str(f)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("graph { a --", "dangling edge operator"),
            ("graph { a -- b;", "missing closing '}'"),
            ("graph { }", "graph has no vertices"),
        ],
    )
    def test_dot_file_errors(self, capsys, tmp_path, text, message):
        f = tmp_path / "bad.dot"
        f.write_text(text)
        assert run(capsys, "graph", "from-dot", str(f)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [["classify"], ["graph", "from-dot"]])
    def test_non_utf8_file(self, capsys, tmp_path, command):
        f = tmp_path / "bad.gpd"
        f.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, *command, str(f))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {f}: ")
        assert "utf-8" in err


def test_verbose_logs_claim_timings(capsys):
    quiet_code, quiet_out, quiet_err = run(capsys, "verify", "--order", "2")
    code, out, err = run(capsys, "--verbose", "verify", "--order", "2")
    assert quiet_code == code == 0
    assert out == quiet_out
    assert quiet_err == ""
    assert "claim thm-2.4-identity: 16 checked in " in err
    # the switch leaves no handler behind for later in-process calls
    assert logging.getLogger("binsys").handlers == []


def test_closed_stdout_exits_one():
    # the listing is far larger than a pipe buffer, so the writer is
    # still blocked when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "binsys", "enumerate", "--order", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"0 0 0 0 0 0 0 0 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""  # no "internal error" line, no "Exception ignored" trace


def test_module_entry_point(data_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "binsys", "classify", str(data_dir / "bck3.gpd")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classification"]["signature_prime"] is True


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a verify_claims run that may fork imports it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, binsys.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


LAZY_MODULES = ("binsys.axioms", "binsys.enumeration")


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["classify", "bck3.gpd"], []),
    (["derive", "--method", "oj", "bck3.gpd"], []),
    (["product", "rz2.gpd", "rz2.gpd"], []),
    (["graph", "to-dot", "star4.gpd"], []),
    (["graph", "from-dot", "star.dot"], []),
    (["inverse", "bck3.gpd"], []),
    (["axioms", "bck3.gpd"], ["binsys.axioms"]),
], ids=lambda v: " ".join(v) or "import")
def test_command_loads_only_what_it_runs(data_dir, argv, loaded):
    # a fresh interpreter: the verifier and the axiom checks are compiled
    # only by the commands that run them
    argv = [str(data_dir / a) if a.endswith((".gpd", ".dot")) else a for a in argv]
    script = (
        "import contextlib, io, sys, binsys.cli\n"
        f"argv = {argv!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert binsys.cli.main(argv) == 0\n"
        f"print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(loaded)


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "binsys", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for sub in ("product", "derive", "classify", "axioms", "graph",
                "enumerate", "verify", "inverse"):
        assert sub in proc.stdout
