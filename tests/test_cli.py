"""CLI behaviour: verbs, file round trips, exit codes, determinism."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rmcodes
from rmcodes.codes import expand_code, format_code_file, gabidulin
from rmcodes.fields import format_element, parse_field_spec, power_basis
from rmcodes.cli import main
from rmcodes.subspaces import format_subspace_file, lift

from test_equivalence import PREFILTERS, prefilter_pair

F16 = "gf(2,1,4;modulus=[1,1,0,0,1])"
F8 = "gf(2,1,3;modulus=[1,1,0,1])"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestField:
    def test_prints_modulus(self, capsys):
        code, out, _ = run(capsys, "field", "--field", "gf(2,1,4)")
        assert code == 0
        assert "modulus: [1, 1, 0, 0, 1]" in out
        assert "generator: g^1" in out

    # stdout of `field --field "gf(2,1,20)"` from before the tables were lazy
    F_2_20 = (
        "field: gf(2,1,20;modulus=[1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1])\n"
        "p=2 e=1 m=20 q=2 |F|=1048576\n"
        "modulus: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]\n"
        "generator: g^1 (multiplicative order 1048575)\n"
        "subfields: F_2 (d=1), F_4 (d=2), F_16 (d=4), F_32 (d=5), F_1024 (d=10), "
        "F_1048576 (d=20)\n")

    @staticmethod
    def _python(*args):
        env = {**os.environ, "PYTHONPATH": str(Path(rmcodes.__file__).parents[1])}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=60)

    def test_large_field_in_fresh_process(self):
        proc = self._python("-m", "rmcodes.cli", "field", "--field", "gf(2,1,20)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == self.F_2_20

    def test_describing_builds_no_table(self):
        proc = self._python("-c", (
            "from rmcodes.cli import main\n"
            "from rmcodes.fields import _Unbuilt, make_tower\n"
            "assert main(['field', '--field', 'gf(2,1,20)']) == 0\n"
            "t = make_tower(2, 1, 20)\n"
            "assert type(t._exp) is _Unbuilt and type(t._log) is _Unbuilt\n"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == self.F_2_20

    @pytest.mark.parametrize("spec", ["gf(2,1,1)", "gf(3,1,1)", "gf(11,1,1)", "gf(2,1,4)"])
    def test_generator_line_matches_format_element(self, capsys, spec):
        _, out, _ = run(capsys, "field", "--field", spec)
        tower = parse_field_spec(spec)
        line = f"generator: {format_element(tower.generator)} "  # builds the tables
        assert line in out

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["field"])  # missing --field
        assert exc.value.code == 2


class TestGab:
    def test_build_and_mindist(self, capsys, tmp_path):
        path = tmp_path / "c.code"
        code, out, _ = run(capsys, "gab", "--field", F16, "--g", "g^0,g^5",
                           "--k", "1", "--out", str(path))
        assert code == 0
        assert "d_R,min=2" in out
        assert path.read_text().startswith("gabidulin\n")

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "gab", "--field", F16, "--g", "g^0,g^0",
                           "--k", "1")
        assert code == 1
        assert "error:" in err

    def test_deterministic_output(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.code", tmp_path / "b.code"
        run(capsys, "gab", "--field", F16, "--g", "g^0,g^5", "--k", "1",
            "--out", str(p1))
        run(capsys, "gab", "--field", F16, "--g", "g^0,g^5", "--k", "1",
            "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestPipeline:
    @pytest.fixture()
    def gab_file(self, capsys, tmp_path):
        path = tmp_path / "c.code"
        run(capsys, "gab", "--field", F16, "--g", "g^0,g^5", "--k", "1",
            "--out", str(path))
        return path

    def test_expand_lift_unlift(self, capsys, tmp_path, gab_file):
        mat = tmp_path / "m.code"
        code, out, _ = run(capsys, "expand", "--code", str(gab_file),
                           "--out", str(mat))
        assert code == 0 and "dim=4" in out
        sub = tmp_path / "s.code"
        code, out, _ = run(capsys, "lift", "--code", str(mat),
                           "--pivots", "1,2", "--out", str(sub))
        assert code == 0 and "n=6" in out
        back = tmp_path / "u.code"
        code, out, _ = run(capsys, "unlift", "--code", str(sub),
                           "--out", str(back))
        assert code == 0 and "pivots: [1, 2]" in out
        # the recovered basis may differ; the spanned code must not
        from rmcodes.codes import parse_code_file
        assert (parse_code_file(back.read_text())
                == parse_code_file(mat.read_text()))

    def test_unlift_reads_pivots_off_the_zero_word(self, capsys, tmp_path):
        # lifted at (1, 3), most words of this F_81 code have RREF pivots
        # (1, 2); unlift still recovers (1, 3) and the code
        mat = tmp_path / "f3.code"
        mat.write_text("matrix\ngf(3,1,4)\nl=2,m=3,k=2\ng^0,0,1;0,2,0\n0,1,0;1,0,2\n")
        sub, back = tmp_path / "f3s.code", tmp_path / "f3u.code"
        code, _, _ = run(capsys, "lift", "--code", str(mat), "--pivots", "1,3",
                         "--out", str(sub))
        assert code == 0
        code, out, _ = run(capsys, "unlift", "--code", str(sub), "--out", str(back))
        assert code == 0 and "pivots: [1, 3]" in out
        code, out, _ = run(capsys, "equiv", "--code", str(mat), "--code2", str(back),
                           "--mode", "mat-linear")
        assert code == 0 and "EQUIVALENT after 1 maps" in out

    def test_compress_round_trip(self, capsys, tmp_path, gab_file):
        mat = tmp_path / "m.code"
        run(capsys, "expand", "--code", str(gab_file), "--out", str(mat))
        rm = tmp_path / "r.code"
        code, out, _ = run(capsys, "compress", "--code", str(mat),
                           "--out", str(rm))
        assert code == 0 and "l=2, k=1" in out

    def test_compress_refuses_the_zero_code(self, capsys, tmp_path):
        # the same refusal as a rank-metric code file with k = 0
        zero = tmp_path / "zero.code"
        zero.write_text(f"matrix\n{F16}\nl=2,m=4,k=0\n")
        code, _, err = run(capsys, "compress", "--code", str(zero))
        assert code == 1
        assert err == "error: a rank-metric code needs k >= 1\n"
        zero.write_text(f"rankmetric\n{F16}\nl=2,m=4,k=0\n")
        assert run(capsys, "mindist", "--code", str(zero))[1:] == ("", err)

    def test_mindist_subspace(self, capsys, tmp_path, gab_file):
        mat = tmp_path / "m.code"
        run(capsys, "expand", "--code", str(gab_file), "--out", str(mat))
        sub = tmp_path / "s.code"
        run(capsys, "lift", "--code", str(mat), "--pivots", "1,2",
            "--out", str(sub))
        code, out, _ = run(capsys, "mindist", "--code", str(sub))
        assert code == 0 and "d_S,min = 4" in out

    def test_mindist_subspace_obeys_guard(self, capsys, tmp_path, gab_file):
        mat, sub = tmp_path / "m.code", tmp_path / "s.code"
        run(capsys, "expand", "--code", str(gab_file), "--out", str(mat))
        run(capsys, "lift", "--code", str(mat), "--pivots", "1,2", "--out", str(sub))
        # 16 words, and the scan compares all 120 pairs, since d_S,min = 4 > 2
        code, out, _ = run(capsys, "mindist", "--code", str(sub), "--guard", "120")
        assert code == 0 and "d_S,min = 4" in out
        code, out, err = run(capsys, "mindist", "--code", str(sub), "--guard", "119")
        assert code == 1 and "d_S,min" not in out
        assert err == "error: 120 pairs of the first 16 words exceed guard 119\n"
        code, out, err = run(capsys, "mindist", "--code", str(sub), "--guard", "15")
        assert code == 1 and "d_S,min" not in out
        assert err == "error: |code| = 16 exceeds guard 15\n"

    def test_aut_oracle_match(self, capsys, gab_file):
        code, out, _ = run(capsys, "aut", "--code", str(gab_file), "--oracle")
        assert code == 0
        assert "order 45, d = 2" in out
        assert "analytic order 45; brute order 45; MATCH" in out

    def test_aut_full_lists_elements(self, capsys, gab_file):
        code, out, _ = run(capsys, "aut", "--code", str(gab_file), "--full")
        assert code == 0
        assert out.count("rm[alpha=") >= 45

    @pytest.fixture()
    def full_file(self, capsys, tmp_path):
        # k = l: the code is all of F_16^2, with no analytic group
        path = tmp_path / "full.code"
        run(capsys, "gab", "--field", F16, "--g", "g^0,g^1", "--k", "2",
            "--out", str(path))
        return path

    def test_aut_full_space_obeys_guard(self, capsys, full_file):
        code, out, err = run(capsys, "aut", "--code", str(full_file), "--guard", "10")
        assert code == 1
        assert err == "error: group order 90 exceeds guard 10\n"

    def test_aut_full_space_oracle_reuses_the_brute_group(self, capsys, monkeypatch,
                                                          full_file):
        import rmcodes.cli as cli
        calls, real = [], cli.rm_aut_brute

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "rm_aut_brute", counted)
        code, out, _ = run(capsys, "aut", "--code", str(full_file), "--oracle")
        assert code == 0 and len(calls) == 1
        assert "rank-metric automorphism group (brute): order 90\n" in out
        assert "analytic order 90; brute order 90; MATCH\n" in out

    def test_equiv(self, capsys, tmp_path, gab_file):
        other = tmp_path / "o.code"
        run(capsys, "apply", "--field", F16,
            "--map", "rm[alpha=g^0; L=0,g^0;g^0,0; gamma=0]",
            "--code", str(gab_file), "--out", str(other))
        code, out, _ = run(capsys, "equiv", "--code", str(gab_file),
                           "--code2", str(other), "--mode", "rm-linear")
        assert code == 0 and "EQUIVALENT" in out

    @pytest.mark.parametrize("reason", PREFILTERS)
    def test_equiv_prefilter_line(self, capsys, tmp_path, reason):
        paths = [tmp_path / "c1.code", tmp_path / "c2.code"]
        for path, c in zip(paths, prefilter_pair(parse_field_spec(F16), "mat-linear", reason)):
            path.write_text(format_code_file(c))
        code, out, err = run(capsys, "equiv", "--code", str(paths[0]), "--code2", str(paths[1]),
                             "--mode", "mat-linear")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [f"NOT EQUIVALENT ({reason}; 0 maps checked)"]

    def test_equiv_zero_codes(self, capsys, tmp_path):
        """{0} has no minimum distance; the identity is its witness."""
        path = tmp_path / "zero.code"
        path.write_text("matrix\ngf(2,1,2)\nl=2,m=2,k=0\n")
        code, out, err = run(capsys, "equiv", "--code", str(path), "--code2", str(path),
                             "--mode", "mat-linear")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "EQUIVALENT after 1 maps"
        assert out.splitlines()[2] == "witness: mat[L=g^0,0;0,g^0; M=g^0,0;0,g^0; gamma=0]"


class TestClosedStdout:
    def test_no_traceback(self, tmp_path):
        """stdout is a pipe whose read end closed before the process started,
        so the first write fails: exit 1, nothing on stderr."""
        path = tmp_path / "zero.code"
        path.write_text("matrix\ngf(2,1,2)\nl=2,m=2,k=0\n")
        read, write = os.pipe()
        os.close(read)
        try:
            env = {**os.environ, "PYTHONPATH": str(Path(rmcodes.__file__).parents[1])}
            proc = subprocess.run([sys.executable, "-m", "rmcodes.cli", "aut", "--code",
                                   str(path), "--full"], stdout=write, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=60)
        finally:
            os.close(write)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (1, "")


class TestMalformedCodeFiles:
    """Bad code files end in one error line and exit 1, never a traceback
    or a code built from the wrong shape."""

    @pytest.mark.parametrize("text", [
        # shape line says l=2 but the row has 3 entries
        f"rankmetric\n{F16}\nl=2,m=4,k=1\ng^0,g^5,g^7\n",
        # no k= on the shape line
        f"rankmetric\n{F16}\nl=2,m=4\ng^0,g^5\n",
        f"rankmetric\n{F16}\nl=2,m=4,k=x\ng^0,g^5\n",
        f"rankmetric\n{F16}\nl=2,m=3,k=1\ng^0,g^5\n",
        f"gabidulin\n{F16}\nl=2,m=4,k=0\n",
        f"matrix\n{F16}\nl=2,m=2,k=1\n1,0,1;0,1,1\n",
        f"matrix\n{F16}\nl=2,m=2,k=2\n1,0;0,1\n",
        "",
    ], ids=["row-longer-than-l", "no-k", "k-not-integer", "m-not-tower-m",
            "gabidulin-k-0", "matrix-wrong-shape", "fewer-matrices-than-k",
            "empty-file"])
    def test_mindist_rejects(self, capsys, tmp_path, text):
        path = tmp_path / "bad.code"
        path.write_text(text)
        code, out, err = run(capsys, "mindist", "--code", str(path))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert "d_R,min" not in out


    @pytest.mark.parametrize("verb", [["aut"], ["lift", "--pivots", "1,2"], ["mindist"]],
                             ids=["aut", "lift", "mindist"])
    @pytest.mark.parametrize("shape", ["l=-2,m=2", "l=0,m=2", "l=2,m=0"])
    def test_non_positive_matrix_shape(self, capsys, tmp_path, verb, shape):
        path = tmp_path / "bad.code"
        path.write_text(f"matrix\n{F16}\n{shape},k=0\n")
        code, _, err = run(capsys, verb[0], "--code", str(path), *verb[1:])
        assert code == 1
        assert err.startswith("error:") and shape.replace(",", ", ") in err

    @pytest.mark.parametrize("verb", ["mindist", "unlift"])
    @pytest.mark.parametrize("shape,word,dim", [("n=2,l=1", "0,0", 0),
                                                ("n=3,l=2", "1,0,1", 1)],
                             ids=["zero-word", "one-row-word"])
    def test_subspace_word_dimension_not_l(self, capsys, tmp_path, verb, shape, word, dim):
        path = tmp_path / "bad.sub"
        path.write_text(f"subspace\n{F16}\n{shape}\n{word}\n")
        code, out, err = run(capsys, verb, "--code", str(path))
        assert code == 1
        l = shape.partition("l=")[2]
        assert err == f"error: word has dimension {dim}, shape says l={l}\n"
        assert "d_S,min" not in out

    @pytest.mark.parametrize("verb", ["mindist", "unlift"])
    @pytest.mark.parametrize("l", [-1, 3])
    def test_subspace_l_outside_0_n(self, capsys, tmp_path, verb, l):
        path = tmp_path / "bad.sub"
        path.write_text(f"subspace\n{F16}\nn=2,l={l}\n")
        code, out, err = run(capsys, verb, "--code", str(path))
        assert code == 1
        assert err == f"error: need 0 <= l <= n, got l={l}, n=2\n"

    @pytest.mark.parametrize("verb", ["mindist", "unlift"])
    @pytest.mark.parametrize("n", [-1, 0])
    def test_non_positive_subspace_shape(self, capsys, tmp_path, verb, n):
        path = tmp_path / "bad.sub"
        path.write_text(f"subspace\n{F16}\nn={n},l=0\n")
        code, _, err = run(capsys, verb, "--code", str(path))
        assert code == 1
        assert err.startswith("error:") and f"n={n}" in err


class TestAutGolden:
    """The whole `aut` stdout: the analytic generators of a gabidulin file,
    and the greedy ones (picked when first read) of a rankmetric file and a
    matrix file."""

    @pytest.mark.parametrize("text,want", [
        (f"gabidulin\n{F16}\nl=2,m=4,k=1\ng^0,g^5\n",
         f"field: {F16}\n"
         "rank-metric automorphism group: order 45, d = 2\n"
         "generators:\n"
         "  rm[alpha=g^1; L=g^0,0;0,g^0; gamma=0]\n"
         "  rm[alpha=g^0; L=0,g^0;g^0,g^0; gamma=0]\n"),
        (f"rankmetric\n{F16}\nl=2,m=4,k=1\ng^0,g^5\n",
         f"field: {F16}\n"
         "rank-metric automorphism group (brute): order 45\n"
         "generators:\n"
         "  rm[alpha=g^0; L=0,g^0;g^0,g^0; gamma=0]\n"
         "  rm[alpha=g^1; L=0,g^0;g^0,g^0; gamma=0]\n"),
        (f"matrix\n{F8}\nl=2,m=3,k=3\n"
         "g^0,0,0;0,g^0,0\n0,g^0,0;0,0,g^0\n0,0,g^0;g^0,g^0,0\n",
         f"field: {F8}\n"
         "matrix automorphism group: order 21\n"
         "generators:\n"
         "  mat[L=0,g^0;g^0,g^0; M=0,0,g^0;g^0,0,g^0;g^0,g^0,0; gamma=0]\n"
         "  mat[L=0,g^0;g^0,g^0; M=0,g^0,0;g^0,g^0,g^0;0,0,g^0; gamma=0]\n"),
    ], ids=["gabidulin-f16", "rankmetric-f16", "matrix-f8"])
    def test_stdout(self, capsys, tmp_path, text, want):
        path = tmp_path / "c.code"
        path.write_text(text)
        code, out, _ = run(capsys, "aut", "--code", str(path))
        assert code == 0
        assert out == want


class TestMalformedArguments:
    """Bad files, literals and option values end in one error line and
    exit 1, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["mindist", "--code", "{tmp}/missing.code"],
        ["dist", "--field", F16, "--u", "g^x,0", "--v", "0,0"],
        ["apply", "--field", F16, "--map", "rm[alpha=g^1]", "--x", "g^0,g^5"],
        ["apply", "--field", F16, "--map", "rm[alpha=g^1; L=g^0,0;0,g^0; gamma=x]",
         "--x", "g^0,g^5"],
        ["lift", "--code", "{tmp}/mat.code", "--pivots", "1,b"],
        ["field", "--field", "gf(2,1,30)"],
        ["apply", "--field", F16, "--map", "rm[alpha=g^0; L=g^0,g^0;g^0,g^0; gamma=0]",
         "--x", "g^0,g^5"],
        ["apply", "--field", F16, "--map", "rm[alpha=0; L=g^0,0;0,g^0; gamma=0]",
         "--x", "g^0,g^5"],
        ["apply", "--field", F16, "--map",
         "mat[T; L=g^0,0;0,g^0; M=g^0,0,0;0,g^0,0;0,0,g^0; gamma=0]",
         "--x", "g^0,0,0;0,g^0,0"],
        # integers are a sign and ASCII digits; int() read each of these four
        ["mindist", "--code", "{tmp}/arabic.code"],
        ["order", "--field", "gf(2,1,4)",
         "--map", "rm[alpha=g^0; L=g^0,0;0,g^0; gamma=\u0661]"],
        ["lift", "--code", "{tmp}/mat.code", "--pivots", "\u0661,\u0662"],
        ["dist", "--field", "gf(2,1,4)", "--u", "g^1_0,0", "--v", "0,0"],
        # an F_8 map on an F_16 code: an F_8 code built from F_16 codes
        ["apply", "--field", "gf(2,1,3)", "--map", "rm[alpha=g^1; L=g^0,0;0,g^0; gamma=0]",
         "--code", "{tmp}/rm16.code"],
    ], ids=["missing-file", "element-g^x", "map-without-L", "map-gamma-not-integer",
            "pivots-not-integer", "field-too-large", "map-singular-L", "map-alpha-zero",
            "map-transpose-not-square", "shape-arabic-digit", "gamma-arabic-digit",
            "pivots-arabic-digits", "exponent-underscore", "apply-code-other-tower"])
    def test_rejects(self, capsys, tmp_path, argv):
        (tmp_path / "mat.code").write_text(f"matrix\n{F16}\nl=2,m=2,k=1\n1,0;0,1\n")
        (tmp_path / "rm16.code").write_text(f"rankmetric\n{F16}\nl=2,m=4,k=1\ng^0,g^5\n")
        (tmp_path / "arabic.code").write_text(f"matrix\n{F16}\nl=\u0662,m=2,k=1\n"
                                              "g^0,0;0,g^0\n")
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["field", "--field", F16, "--seed", "1"],
        ["field", "--field", F16, "--guard", "10"],
        ["verify-paper", "--example", "f16-aut", "--guard", "10"],
    ])
    def test_options_only_where_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestKeyedText:
    """Map literals and shape lines hold each listed key once: a misspelt,
    unknown, repeated or missing key, or a part that is not key=value, is
    one error line and exit 1, not a dropped or overwritten value."""

    @pytest.mark.parametrize("literal, message", [
        ("rm[alpha=g^0; L=g^0,0;0,g^0; gama=1]", "unknown key 'gama' in map literal"),
        ("rm[alpha=g^0; L=g^0,0;0,g^0; gamma=1; gamma=2]", "repeated key 'gamma'"),
        ("rm[alpha=g^0; L=g^0,0;0,g^0; M=g^0]", "unknown key 'M' in map literal"),
        ("rm[T; alpha=g^0; L=g^0,0;0,g^0]", "'T' is not key=value"),
    ], ids=["misspelt", "repeated", "foreign-key", "rm-transpose"])
    def test_map_literal(self, capsys, literal, message):
        code, out, err = run(capsys, "order", "--field", F16, "--map", literal)
        assert code == 1 and "order =" not in out
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_map_literal_missing_key(self, capsys):
        code, _, err = run(capsys, "order", "--field", F16,
                           "--map", "mat[L=g^0,0;0,g^0; gamma=0]")
        assert code == 1 and err.endswith("lacks M\n")

    def test_transpose_and_gamma_still_read(self, capsys):
        code, out, _ = run(capsys, "order", "--field", F16,
                           "--map", "mat[T; L=g^0,0;0,g^0; M=0,g^0;g^0,0; gamma=1]")
        assert code == 0 and "order = 4" in out

    @pytest.mark.parametrize("shape, message", [
        ("l=2,m=3,k=0,k=1", "repeated key 'k'"),
        ("l=2,m=3,kk=0", "unknown key 'kk'"),
        ("l=2,m=3,0", "'0' is not key=value"),
    ], ids=["repeated", "misspelt", "bare-value"])
    def test_shape_line(self, capsys, tmp_path, shape, message):
        path = tmp_path / "bad.code"
        path.write_text(f"matrix\n{F8}\n{shape}\n")
        code, _, err = run(capsys, "mindist", "--code", str(path))
        assert code == 1 and err.startswith("error: ") and message in err

    @pytest.mark.parametrize("literal", ["²", "g^²", "g^\u0663", "poly:[\u0661]"])
    def test_element_digits_are_ascii(self, capsys, literal):
        code, _, err = run(capsys, "dist", "--field", F16, "--u", literal, "--v", "0")
        assert code == 1 and err == f"error: bad element literal: {literal!r}\n"


class TestFrontDoor:
    """main reads --field and the code files once, refuses a file of a kind
    the verb does not read before any output, and prints the field line."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("files")
        f16 = parse_field_spec(F16)
        c = gabidulin(1, (f16.one, f16.gen_power(5)))
        m = expand_code(c, power_basis(f16))
        (d / "c.code").write_text(format_code_file(c))
        (d / "m.code").write_text(format_code_file(m))
        (d / "s.code").write_text(format_subspace_file(lift(m, (1, 2))))
        return d

    MAP = "rm[alpha=g^5; L=g^0,0;0,g^0; gamma=0]"

    @pytest.mark.parametrize("argv", [
        ["field", "--field", "gf(2,1,4)"],
        ["gab", "--field", "gf(2,1,4)", "--g", "g^0,g^5", "--k", "1"],
        ["expand", "--code", "{d}/c.code"],
        ["compress", "--code", "{d}/m.code"],
        ["lift", "--code", "{d}/m.code", "--pivots", "1,2"],
        ["unlift", "--code", "{d}/s.code"],
        ["dist", "--field", "gf(2,1,4)", "--u", "g^0,g^5", "--v", "0,0"],
        ["mindist", "--code", "{d}/s.code"],
        ["apply", "--field", "gf(2,1,4)", "--map", MAP, "--x", "g^0,g^5"],
        ["compose", "--field", "gf(2,1,4)", "--map", MAP, "--map", MAP],
        ["order", "--field", "gf(2,1,4)", "--map", MAP],
        ["equiv", "--code", "{d}/c.code", "--code2", "{d}/c.code", "--mode", "rm-linear"],
        ["aut", "--code", "{d}/c.code"],
    ], ids=lambda argv: argv[0])
    def test_field_line_first(self, capsys, files, argv):
        code, out, _ = run(capsys, *(a.format(d=files) for a in argv))
        assert code == 0
        assert out.split("\n", 1)[0] == f"field: {F16}"

    @pytest.mark.parametrize("argv", [
        ["expand", "--code", "{d}/m.code"],
        ["compress", "--code", "{d}/c.code"],
        ["lift", "--code", "{d}/c.code", "--pivots", "1,2"],
        ["unlift", "--code", "{d}/m.code"],
    ], ids=lambda argv: argv[0])
    def test_wrong_kind_refused_before_output(self, capsys, files, argv):
        code, out, err = run(capsys, *(a.format(d=files) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_usage_error_before_files_are_read(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.code")
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "--code", missing, "--code2", missing, "--mode", "bogus"])
        assert exc.value.code == 2
        assert "cannot read" not in capsys.readouterr().err


class TestOrderGuardFromShape:
    """A shape whose group order must exceed the guard is refused before the
    order is computed, so no order of unbounded size is built or printed."""

    @pytest.mark.parametrize("shape", ["l=500,m=1", "l=3,m=400", "l=1000000,m=1"])
    @pytest.mark.parametrize("verb", [["aut", "--guard", "10"],
                                      ["equiv", "--mode", "mat-linear"]],
                             ids=["aut", "equiv"])
    def test_refused_quickly(self, capsys, tmp_path, shape, verb):
        path = tmp_path / "big.code"
        path.write_text(f"matrix\n{F8}\n{shape},k=0\n")
        extra = ["--code2", str(path)] if verb[0] == "equiv" else []
        start = time.perf_counter()
        code, _, err = run(capsys, verb[0], "--code", str(path), *verb[1:], *extra)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err.startswith("error: group order of at least 2^") and err.count("\n") == 1


class TestRepeatedMain:
    def test_main_called_repeatedly(self, capsys):
        # one process, one parser: verbs, a usage error and a domain error in turn
        code, first, _ = run(capsys, "field", "--field", F16)
        assert code == 0
        code, out, _ = run(capsys, "order", "--field", F16,
                           "--map", "rm[alpha=g^1; L=g^0,0;0,g^0; gamma=0]")
        assert code == 0 and "order = 15" in out
        with pytest.raises(SystemExit) as exc:
            main(["field"])
        assert exc.value.code == 2 and "--field" in capsys.readouterr().err
        code, out, err = run(capsys, "gab", "--field", F16, "--g", "g^0,g^0", "--k", "1")
        assert code == 1 and err.startswith("error:")
        code, again, _ = run(capsys, "field", "--field", F16)
        assert code == 0 and again == first


class TestMapVerbs:
    def test_apply_vector(self, capsys):
        code, out, _ = run(capsys, "apply", "--field", F16,
                           "--map", "rm[alpha=g^5; L=g^0,0;0,g^0; gamma=0]",
                           "--x", "g^0,g^5")
        assert code == 0
        assert "g^5,g^10" in out

    def test_compose_and_order(self, capsys):
        code, out, _ = run(capsys, "compose", "--field", F16,
                           "--map", "rm[alpha=g^1; L=g^0,0;0,g^0; gamma=0]",
                           "--map", "rm[alpha=g^2; L=g^0,0;0,g^0; gamma=0]")
        assert code == 0 and "alpha=g^3" in out
        code, out, _ = run(capsys, "order", "--field", F16,
                           "--map", "rm[alpha=g^1; L=g^0,0;0,g^0; gamma=0]")
        assert code == 0 and "order = 15" in out

    def test_order_refused_past_the_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(rmcodes.equivalence, "DEFAULT_GUARD", 14)
        code, out, err = run(capsys, "order", "--field", F16,
                             "--map", "rm[alpha=g^1; L=g^0,0;0,g^0; gamma=0]")
        assert (code, err) == (1, "error: map order exceeds guard 14\n")
        assert "order =" not in out

    def test_dist(self, capsys):
        code, out, _ = run(capsys, "dist", "--field", F16, "--kind", "rank",
                           "--u", "g^0,g^5", "--v", "0,0")
        assert code == 0 and "d_R = 2" in out
        code, out, _ = run(capsys, "dist", "--field", F16,
                           "--kind", "subspace",
                           "--u", "g^0,0", "--v", "0,g^0")
        assert code == 0 and "d_S = 2" in out


class TestVerifyPaper:
    @pytest.mark.parametrize("example", [
        "berger-counterexample", "f16-aut", "f64-not-gabidulin",
        "f64-not-direct-product", "f64-full-aut", "distance-law"])
    def test_each_example_passes(self, capsys, example):
        code, out, _ = run(capsys, "verify-paper", "--example", example)
        assert code == 0
        assert "PASS" in out
        assert "MISMATCH" not in out

    def test_unknown_example_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--example", "nope"])
        assert exc.value.code == 2
