import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hyperreg import (
    family_from_text,
    family_to_text,
    instance_from_text,
    instance_to_text,
    kgraph_from_text,
    kgraph_to_text,
)
from hyperreg.cli import main

from conftest import planted


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def gen_prefix(tmp_path):
    prefix = str(tmp_path / "case")
    code, out, err = run([
        "gen", "--n", "120", "--a", "3", "--density", "1/2",
        "--epsilon", "1/10", "--seed", "17", "--out", prefix,
    ])
    assert code == 0, err
    return prefix


class TestGenCheck:
    def test_round_trip_passes(self, gen_prefix):
        code, out, _ = run([
            "check", "--hypergraph", gen_prefix + ".hg",
            "--instance", gen_prefix + ".ri",
            "--family", gen_prefix + ".pf", "--seed", "23",
        ])
        assert code == 0
        last = out.strip().split("\n")[-1]
        assert last.startswith("witness pass worst_deviation ")

    def test_measure_prints_epsilon(self, tmp_path):
        code, out, _ = run([
            "gen", "--n", "60", "--a", "3", "--density", "1/2",
            "--measure", "--seed", "5", "--out", str(tmp_path / "m"),
        ])
        assert code == 0
        assert out.startswith("achieved_epsilon ")

    def test_gen_writes_starved_plant_relaxed(self, tmp_path):
        # at n = 16 seed 0 leaves a level class empty, so the family is relaxed
        prefix = str(tmp_path / "starved")
        code, _, err = run([
            "gen", "--n", "16", "--a", "4,2,2", "--density", "1/2",
            "--seed", "0", "--out", prefix,
        ])
        assert code == 0, err
        assert Path(prefix + ".pf").read_text().startswith("4 16 4 2 2 relaxed\n")

    def test_wrong_density_fails_with_exit_1(self, gen_prefix, tmp_path):
        R = instance_from_text(Path(gen_prefix + ".ri").read_text())
        from hyperreg import DensityFunction, RegularityInstance
        wrong = RegularityInstance(
            R.epsilon, R.a, DensityFunction.constant(R.a, 1)
        )
        bad = tmp_path / "wrong.ri"
        bad.write_text(instance_to_text(wrong))
        code, out, _ = run([
            "check", "--hypergraph", gen_prefix + ".hg",
            "--instance", str(bad),
            "--family", gen_prefix + ".pf", "--seed", "23",
        ])
        assert code == 1
        assert "witness fail" in out

    def test_corrupted_family_exit_2_with_line(self, gen_prefix, tmp_path):
        text = Path(gen_prefix + ".pf").read_text().split("\n")
        text[1] = "1 zzz : 0 1"
        bad = tmp_path / "bad.pf"
        bad.write_text("\n".join(text))
        code, _, err = run([
            "check", "--hypergraph", gen_prefix + ".hg",
            "--instance", gen_prefix + ".ri",
            "--family", str(bad), "--seed", "23",
        ])
        assert code == 2
        assert "line 2" in err

    def test_zero_trials_refused_under_the_cap(self, tmp_path):
        # at n = 16, a=(2,) the one polyad has 16 vertices, under the cap of
        # 24, so no sampled check runs; trials are refused all the same
        prefix = str(tmp_path / "small")
        code, _, err = run([
            "gen", "--n", "16", "--a", "2", "--density", "1/2", "--seed", "1", "--out", prefix,
        ])
        assert code == 0, err
        code, out, err = run([
            "check", "--hypergraph", prefix + ".hg", "--instance", prefix + ".ri",
            "--family", prefix + ".pf", "--trials", "0", "--seed", "1",
        ])
        assert (code, out, err) == (2, "", "error: trials must be >= 1\n")

    def test_missing_file_exit_2(self, gen_prefix):
        code, _, err = run([
            "check", "--hypergraph", gen_prefix + ".nope",
            "--instance", gen_prefix + ".ri",
            "--family", gen_prefix + ".pf", "--seed", "23",
        ])
        assert code == 2



@pytest.fixture
def gen_prefix_k3(tmp_path):
    prefix = str(tmp_path / "case3")
    code, _, err = run([
        "gen", "--n", "24", "--a", "4,2", "--density", "1/2",
        "--epsilon", "1/10", "--seed", "3", "--out", prefix,
    ])
    assert code == 0, err
    return prefix


class TestMalformedInputs:
    """Each malformed .hg / .pf / .ri file is exit 2 with its line number."""

    @staticmethod
    def lines(prefix, ext):
        return Path(f"{prefix}.{ext}").read_text().splitlines()

    @staticmethod
    def assert_rejected(prefix, tmp_path, ext, lines, line_no):
        bad = tmp_path / f"bad.{ext}"
        bad.write_text("\n".join(lines) + "\n")
        files = {e: f"{prefix}.{e}" for e in ("hg", "pf", "ri")}
        files[ext] = str(bad)
        code, _, err = run([
            "check", "--hypergraph", files["hg"], "--instance", files["ri"],
            "--family", files["pf"], "--seed", "23",
        ])
        assert code == 2
        assert err.startswith("error: ") and re.search(rf"line {line_no}\b", err), err

    def test_vertex_class_index_zero(self, gen_prefix, tmp_path):
        pf = self.lines(gen_prefix, "pf")
        pf[1] = "1 0 :" + pf[1].partition(" :")[2]
        self.assert_rejected(gen_prefix, tmp_path, "pf", pf, 2)

    def test_repeated_vertex_class(self, gen_prefix, tmp_path):
        pf = self.lines(gen_prefix, "pf")
        pf.append(pf[1])
        self.assert_rejected(gen_prefix, tmp_path, "pf", pf, len(pf))

    def test_repeated_level_class(self, gen_prefix_k3, tmp_path):
        pf = self.lines(gen_prefix_k3, "pf")
        pf.append(next(ln for ln in pf if ln.startswith("2 ")))
        self.assert_rejected(gen_prefix_k3, tmp_path, "pf", pf, len(pf))

    # a level-2 line "2 x b : sets" of a=(4,2) on n=24, with one field broken
    @pytest.mark.parametrize("address, label, first_set", [
        ("1,2", "7", None),  # label outside 1..a2
        ("1,9", "1", None),  # class index outside 1..a1
        ("1,2;1", "1", None),  # a level-2 label on a level-2 class
        ("1,2", "1", "0,99"),  # vertex outside [0, n)
        ("1,2", "1", "0,15,23"),  # three vertices at level 2
        ("1,2", "1", "15,15"),  # a repeated vertex
    ], ids=["label", "x1-entry", "label-level", "vertex", "size", "repeat"])
    def test_bad_level_line(self, gen_prefix_k3, tmp_path, address, label, first_set):
        pf = self.lines(gen_prefix_k3, "pf")
        i = next(i for i, ln in enumerate(pf) if ln.startswith("2 1,2 1 : "))
        sets = pf[i].partition(" : ")[2].split()
        if first_set:
            sets[0] = first_set
        pf[i] = f"2 {address} {label} : " + " ".join(sets)
        self.assert_rejected(gen_prefix_k3, tmp_path, "pf", pf, i + 1)

    # a level-2 set outside its polyad's cliques: 0,1 lies inside V_1, and
    # 0,18 crosses V_1 and V_4 but is filed under the classes 1,2
    @pytest.mark.parametrize("first_set", ["0,1", "0,18"], ids=["one-class", "other-polyad"])
    def test_set_outside_polyad_cliques(self, gen_prefix_k3, tmp_path, first_set):
        pf = self.lines(gen_prefix_k3, "pf")
        assert pf[5].startswith("2 1,2 1 : ")
        head, _, sets = pf[5].partition(" : ")
        pf[5] = head + " : " + " ".join([first_set] + sets.split()[1:])
        self.assert_rejected(gen_prefix_k3, tmp_path, "pf", pf, 6)

    def test_gen_k_disagrees_with_shape(self, tmp_path):
        prefix = str(tmp_path / "k")
        code, _, err = run([
            "gen", "--k", "3", "--n", "20", "--a", "4", "--density", "1/2",
            "--seed", "1", "--out", prefix,
        ])
        assert code == 2 and "--k" in err
        assert not (tmp_path / "k.hg").exists()

    def test_level_outside_range(self, gen_prefix, tmp_path):
        pf = self.lines(gen_prefix, "pf")
        pf.append("3 1,2 1 : 0,1,2")
        self.assert_rejected(gen_prefix, tmp_path, "pf", pf, len(pf))

    def test_vertex_class_member_out_of_range(self, gen_prefix, tmp_path):
        pf = self.lines(gen_prefix, "pf")
        pf[1] += " 120"
        self.assert_rejected(gen_prefix, tmp_path, "pf", pf, 2)

    def test_vertex_in_two_classes(self, gen_prefix, tmp_path):
        pf = self.lines(gen_prefix, "pf")
        pf[2] += " " + pf[1].split()[3]
        self.assert_rejected(gen_prefix, tmp_path, "pf", pf, 3)

    def test_edge_of_wrong_size(self, gen_prefix, tmp_path):
        self.assert_rejected(gen_prefix, tmp_path, "hg", ["2 4", "0 1", "0 1 2"], 3)

    def test_edge_out_of_vertex_range(self, gen_prefix, tmp_path):
        self.assert_rejected(gen_prefix, tmp_path, "hg", ["2 4", "0 9", "0 1"], 2)

    def test_edge_with_repeated_vertex(self, gen_prefix, tmp_path):
        self.assert_rejected(gen_prefix, tmp_path, "hg", ["2 4", "0 1", "1 1"], 3)

    def test_negative_vertex_count(self, gen_prefix, tmp_path):
        self.assert_rejected(gen_prefix, tmp_path, "hg", ["2 -1"], 1)

    # a=(3,) on n=120: the header and the first density line, each out of range
    @pytest.mark.parametrize("line_no, text", [
        (1, "0 3"),
        (1, "3/2 3"),
        (2, "1,2 3/2"),
        (2, "1,4 1/2"),
        (2, "2,3;1 1/2"),
    ], ids=["epsilon-zero", "epsilon-high", "density", "class-index", "label"])
    def test_instance_range(self, gen_prefix, tmp_path, line_no, text):
        ri = self.lines(gen_prefix, "ri")
        ri[line_no - 1] = text
        self.assert_rejected(gen_prefix, tmp_path, "ri", ri, line_no)

    def test_instance_a1_below_k(self, gen_prefix, tmp_path):
        # a1 < k leaves no address, so the file is its header alone
        self.assert_rejected(gen_prefix, tmp_path, "ri", ["1/10 1"], 1)

    @pytest.mark.parametrize("fixture, header", [
        ("gen_prefix", "2 120 -1"),
        ("gen_prefix", "2 -120 3"),
        ("gen_prefix", "2 120 0"),
        ("gen_prefix_k3", "3 24 4 0"),
    ], ids=["a1-negative", "n-negative", "a1-zero", "a2-zero"])
    def test_family_header_range(self, request, tmp_path, fixture, header):
        prefix = request.getfixturevalue(fixture)
        pf = self.lines(prefix, "pf")
        pf[0] = header
        self.assert_rejected(prefix, tmp_path, "pf", pf, 1)

    def test_instance_header_without_shape(self, gen_prefix, tmp_path):
        ri = self.lines(gen_prefix, "ri")
        ri[0] = ri[0].split()[0]
        self.assert_rejected(gen_prefix, tmp_path, "ri", ri, 1)

    # blank lines are skipped but still counted
    def test_edge_line_counts_blank_lines(self, gen_prefix, tmp_path):
        self.assert_rejected(gen_prefix, tmp_path, "hg", ["2 4", "", "0 9"], 3)

    def test_family_line_counts_blank_lines(self, gen_prefix, tmp_path):
        pf = self.lines(gen_prefix, "pf")
        pf.insert(1, "")
        pf.append(pf[2])
        self.assert_rejected(gen_prefix, tmp_path, "pf", pf, len(pf))

    def test_instance_line_counts_blank_lines(self, gen_prefix, tmp_path):
        ri = self.lines(gen_prefix, "ri")
        ri.insert(1, "")
        ri.append(ri[2])
        self.assert_rejected(gen_prefix, tmp_path, "ri", ri, len(ri))


class TestMismatchedInputs:
    """Files that each parse but do not belong together are bad input."""

    @staticmethod
    def gen(tmp_path, n, a):
        prefix = str(tmp_path / "other")
        code, _, err = run([
            "gen", "--n", str(n), "--a", a, "--density", "1/2",
            "--epsilon", "1/10", "--seed", "3", "--out", prefix,
        ])
        assert code == 0, err
        return prefix

    @pytest.mark.parametrize("n, a, message", [
        (24, "4", "hypergraph k=2 differs from instance k=3"),
        (30, "4,2", "hypergraph n=30 differs from family n=24"),
    ], ids=["k", "n"])
    def test_check(self, gen_prefix_k3, tmp_path, n, a, message):
        other = self.gen(tmp_path, n, a)
        code, out, err = run([
            "check", "--hypergraph", other + ".hg",
            "--instance", gen_prefix_k3 + ".ri",
            "--family", gen_prefix_k3 + ".pf", "--seed", "23",
        ])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_sample_family_of_other_n(self, gen_prefix_k3, tmp_path):
        other = self.gen(tmp_path, 30, "4,2")
        code, out, err = run([
            "sample", "--hypergraph", other + ".hg",
            "--family", gen_prefix_k3 + ".pf", "--q", "12",
            "--seed", "2", "--out", str(tmp_path / "sub"),
        ])
        assert (code, out, err) == (
            2, "", "error: family n=24 differs from hypergraph n=30\n"
        )
        assert not list(tmp_path.glob("sub.*"))

    def test_count_ic_pattern_of_other_k(self, gen_prefix_k3, tmp_path):
        from hyperreg import KGraph
        pat = tmp_path / "tri.hg"
        pat.write_text(kgraph_to_text(KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})))
        code, out, err = run([
            "count", "--ic", "--pattern", str(pat),
            "--instance", gen_prefix_k3 + ".ri",
        ])
        assert (code, out, err) == (
            2, "", "error: pattern k=2 differs from density k=3\n"
        )


class TestCount:
    def test_ic_all_classes_is_one(self, gen_prefix):
        code, out, _ = run([
            "count", "--ic", "--instance", gen_prefix + ".ri",
            "--all-classes", "3",
        ])
        assert code == 0
        assert out.strip() == "ic_family 1"

    def test_pr_of_pattern(self, gen_prefix, tmp_path):
        from hyperreg import KGraph
        pat = tmp_path / "tri.hg"
        pat.write_text(kgraph_to_text(KGraph(2, 3, {(0, 1), (0, 2), (1, 2)})))
        code, out, _ = run([
            "count", "--pattern", str(pat), "--hypergraph", gen_prefix + ".hg",
        ])
        assert code == 0
        assert out.startswith("pr ")

    @pytest.mark.parametrize("argv, flag", [
        (["--hypergraph", "{p}.hg"], "--pattern"),
        (["--pattern", "{p}.hg"], "--hypergraph"),
        (["--ic"], "--instance"),
        (["--ic", "--instance", "{p}.ri"], "--pattern or --all-classes"),
    ], ids=["no-pattern", "no-hypergraph", "ic-no-instance", "ic-no-pattern"])
    def test_missing_input_named(self, gen_prefix, argv, flag):
        code, _, err = run(["count"] + [x.format(p=gen_prefix) for x in argv])
        assert code == 2
        assert err.startswith("error: ") and flag in err, err

    def test_all_classes_above_a1_rejected(self, gen_prefix):
        # a = (3,): nine classes have no crossing sets, and enumerating
        # every 2-graph on nine vertices would not finish
        code, _, err = run([
            "count", "--ic", "--instance", gen_prefix + ".ri", "--all-classes", "9",
        ])
        assert code == 2
        assert err.startswith("error: ") and "exceeds a1=3" in err, err

    @pytest.mark.parametrize("ell", ["0", "-1"])
    def test_all_classes_below_one_rejected(self, gen_prefix, ell):
        code, _, err = run([
            "count", "--ic", "--instance", gen_prefix + ".ri", "--all-classes", ell,
        ])
        assert code == 2
        assert err == f"error: --all-classes {ell} must be >= 1\n", err


class TestTransformCommands:
    def test_refine_then_reconstruct(self, gen_prefix, tmp_path):
        fine = str(tmp_path / "fine.pf")
        code, _, err = run([
            "refine", "--family", gen_prefix + ".pf", "--b", "6",
            "--seed", "3", "--out", fine,
        ])
        assert code == 0, err
        rec = str(tmp_path / "rec.pf")
        code, _, err = run([
            "reconstruct", "--family", gen_prefix + ".pf",
            "--refined", fine, "--nu", "0", "--out", rec,
        ])
        assert code == 0, err
        assert family_from_text(Path(rec).read_text()).a == (3,)

    def test_equalize(self, gen_prefix, tmp_path):
        out_path = str(tmp_path / "eq.pf")
        code, _, _ = run([
            "equalize", "--family", gen_prefix + ".pf", "--out", out_path,
        ])
        assert code == 0
        F = family_from_text(Path(out_path).read_text())
        sizes = [len(c) for c in F.vertex_classes]
        assert max(sizes) - min(sizes) <= 1

    def test_slice(self, gen_prefix, tmp_path):
        out_prefix = str(tmp_path / "sl")
        code, _, err = run([
            "slice", "--hypergraph", gen_prefix + ".hg",
            "--family", gen_prefix + ".pf", "--address", "1,2",
            "--d", "1/2", "--epsilon", "1/10", "--probs", "1/2,1/2",
            "--seed", "9", "--out", out_prefix,
        ])
        assert code == 0, err
        for i in range(3):
            kgraph_from_text(Path(f"{out_prefix}.{i}.hg").read_text())

    @pytest.mark.parametrize("fixture, address", [
        ("gen_prefix", "1,9"),  # no vertex class 9 at a = (3,)
        ("gen_prefix_k3", "1,2,3;1,1,3"),  # label 3 above a2 = 2
    ])
    def test_slice_foreign_address_rejected(self, request, tmp_path, fixture, address):
        prefix = request.getfixturevalue(fixture)
        code, _, err = run([
            "slice", "--hypergraph", prefix + ".hg", "--family", prefix + ".pf",
            "--address", address, "--d", "1/2", "--epsilon", "1/10",
            "--probs", "1/2,1/2", "--seed", "9", "--out", str(tmp_path / "sl"),
        ])
        assert code == 2
        assert err.startswith("error: ") and "names no top-level polyad" in err, err

    def test_refine_below_shape_rejected(self, gen_prefix, tmp_path):
        code, _, err = run([
            "refine", "--family", gen_prefix + ".pf", "--b", "0",
            "--seed", "3", "--out", str(tmp_path / "fine.pf"),
        ])
        assert code == 2
        assert err.startswith("error: ") and "positive multiple" in err, err

    def test_sample(self, gen_prefix, tmp_path):
        out_prefix = str(tmp_path / "sub")
        code, _, err = run([
            "sample", "--hypergraph", gen_prefix + ".hg",
            "--family", gen_prefix + ".pf", "--q", "40",
            "--seed", "2", "--out", out_prefix,
        ])
        assert code == 0, err
        H = kgraph_from_text(Path(out_prefix + ".hg").read_text())
        F = family_from_text(Path(out_prefix + ".pf").read_text())
        assert H.n == 40 and F.n == 40 and F.relaxed


class TestWrittenFamiliesParse:
    @pytest.mark.parametrize("fixture, b", [("gen_prefix", "6"), ("gen_prefix_k3", "8,2")])
    def test_every_written_family_parses(self, request, tmp_path, fixture, b):
        prefix = request.getfixturevalue(fixture)
        out = str(tmp_path / "w")
        for argv in (
            ["refine", "--family", prefix + ".pf", "--b", b, "--seed", "3", "--out", out + ".fine.pf"],
            ["equalize", "--family", out + ".fine.pf", "--out", out + ".eq.pf"],
            ["reconstruct", "--family", prefix + ".pf", "--refined", out + ".fine.pf",
             "--nu", "0", "--out", out + ".rec.pf"],
            ["sample", "--hypergraph", prefix + ".hg", "--family", prefix + ".pf",
             "--q", "16", "--seed", "2", "--out", out + ".sub"],
        ):
            code, _, err = run(argv)
            assert code == 0, (argv[0], err)
        for path in (prefix, out + ".fine", out + ".eq", out + ".rec", out + ".sub"):
            text = Path(path + ".pf").read_text()
            assert family_to_text(family_from_text(text)) == text, path


class TestExperimentCommand:
    def test_runs_and_writes_csv(self, gen_prefix, tmp_path):
        csv = str(tmp_path / "stats.csv")
        code, out, err = run([
            "experiment", "--instance", gen_prefix + ".ri",
            "--n", "120", "--q", "60", "--delta", "3/10",
            "--trials", "2", "--seed", "31", "--out", csv,
        ])
        assert code == 0, err
        assert out.startswith("q1_rate ")
        lines = Path(csv).read_text().strip().split("\n")
        assert lines[0] == "trial,direction,pass,lambda,worst_deviation"
        assert len(lines) == 5

    @pytest.mark.parametrize("flag, value, message", [
        ("--q", "0", "q=0 outside [a1*k=6, n=120]"),
        ("--q", "121", "q=121 outside [a1*k=6, n=120]"),
        ("--delta", "-1", "delta -1 must be >= 0"),
        ("--trials", "0", "trials 0 must be >= 1"),
    ], ids=["q-low", "q-high", "delta", "trials"])
    def test_bad_arguments_exit_2(self, gen_prefix, tmp_path, flag, value, message):
        argv = {"--n": "120", "--q": "60", "--delta": "3/10", "--trials": "2"}
        argv[flag] = value
        csv = tmp_path / "stats.csv"
        code, out, err = run(
            ["experiment", "--instance", gen_prefix + ".ri", "--seed", "31",
             "--out", str(csv)] + [x for kv in argv.items() for x in kv]
        )
        assert code == 2 and out == ""
        assert err == f"error: {message}\n", err
        assert not csv.exists()


class TestSeedDiscipline:
    def test_missing_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "20", "--a", "3", "--density", "1/2",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_same_seed_same_bytes(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        for prefix in (a, b):
            run(["gen", "--n", "40", "--a", "4", "--density", "2/5",
                 "--seed", "77", "--out", prefix])
        for ext in (".hg", ".pf", ".ri"):
            assert Path(a + ext).read_text() == Path(b + ext).read_text()


class TestSerializationIdentity:
    def test_parse_serialize_fixed_point(self, gen_prefix):
        hg = Path(gen_prefix + ".hg").read_text()
        pf = Path(gen_prefix + ".pf").read_text()
        ri = Path(gen_prefix + ".ri").read_text()
        assert kgraph_to_text(kgraph_from_text(hg)) == hg
        assert family_to_text(family_from_text(pf)) == pf
        assert instance_to_text(instance_from_text(ri)) == ri
