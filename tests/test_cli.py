import argparse
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import sortbounds
from sortbounds import Parallel, Series, Singleton, realize, write_poset
from sortbounds.cli import exit_code_for_report, main
from sortbounds.quantum import TECH_MAX_N, BoundsReport, tech_constant
from sortbounds.suites import MAX_SAMPLES

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports the package under
    test, also when only pytest's `pythonpath` setting puts it on the path."""
    src = str(Path(sortbounds.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_analyze_expr_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--expr", "(. * .) + .")
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 3
    assert rep["num_extensions"] == 3
    assert rep["itlb"] == pytest.approx(math.log(3), abs=1e-12)
    assert rep["qlb"] == 1.5
    assert rep["qh"] == pytest.approx(4 / 3)
    assert rep["entropy"] == pytest.approx(0.462098, abs=1e-6)
    assert rep["lemma1_ok"] and rep["lemma2_ok"] and rep["lemma3_ok"] and rep["sandwich_ok"]


def test_analyze_chain_all_zero(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--expr", "chain(6)")
    assert code == 0
    rep = json.loads(out)
    assert rep["num_extensions"] == 1
    assert rep["itlb"] == 0.0
    assert rep["qlb"] == 0.0
    assert abs(rep["lb"]) <= 1e-6
    assert rep["gamma_norm"] == 0.0
    # LB >= 0 exactly: rounding in n (ln n - H) is clamped
    code, out, _ = run_cli(capsys, "analyze", "--expr", "chain(20)")
    assert json.loads(out)["lb"] == 0.0


def test_analyze_cyclic_file_exits_1(capsys, tmp_path):
    bad = tmp_path / "cyclic.poset"
    bad.write_text("3\n1 2\n2 1\n")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 1
    assert "cycle" in err.lower()
    assert out == ""


def test_analyze_parse_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "--expr", ". + * .")
    assert code == 1
    assert "position" in err


def test_analyze_size_failure_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "--expr", "antichain(25)")
    assert code == 1
    assert "max-n" in err


def test_analyze_rejects_oversized_input_before_building(capsys, tmp_path, monkeypatch):
    import sortbounds.cli as cli
    import sortbounds.poset as poset

    def built(*_):
        pytest.fail("a relation was allocated before the --max-n check")

    for mod, name in ((cli, "realize"), (cli, "build_poset"), (poset, "build_poset")):
        monkeypatch.setattr(mod, name, built, raising=False)
    big = tmp_path / "big.poset"
    big.write_text("800\n1 2\n")
    for source in (("--expr", "chain(800)"), (str(big),)):
        code, out, err = run_cli(capsys, "analyze", *source)
        assert code == 1 and out == ""
        assert "max-n" in err


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 48.0 GiB for an array"),
                                 MemoryError()])
def test_analyze_memory_error_exits_1(capsys, monkeypatch, exc):
    # a raised --enum-cap or --matrix-cap can end in numpy's _ArrayMemoryError
    import sortbounds.cli as cli

    def exhausted(*_, **__):
        raise exc

    monkeypatch.setattr(cli, "analyze", exhausted)
    code, out, err = run_cli(capsys, "analyze", "--expr", "antichain(3)")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.strip() != "error:"
    assert "Traceback" not in err


def test_analyze_deep_nesting_exits_1(capsys):
    depth = 5000
    code, out, err = run_cli(capsys, "analyze", "--expr", "(" * depth + "." + ")" * depth)
    assert code == 1 and out == ""
    assert "position" in err


def test_analyze_deep_sp_file_exits_1(capsys, tmp_path):
    # 200 alternating series/parallel levels, 401 elements: twice as deep as
    # any expression the parser accepts, so the decomposition is refused
    # before a structural recursion walks it
    e = Singleton()
    for _ in range(200):
        e = Parallel((Series((e, Singleton())), Singleton()))
    deep = tmp_path / "deep.poset"
    write_poset(realize(e), deep)
    code, out, err = run_cli(capsys, "analyze", str(deep), "--max-n", "1000")
    assert code == 1 and out == ""
    assert "nested deeper" in err


def test_analyze_exponential_chain_set_exits_1(capsys, tmp_path):
    # 12 antichain(3) factors in series have 3**12 maximal chains on 36
    # elements, but no block: the fold lists none, and H = ln 12 (R = 12**36),
    # LB = ln(36**36 / 12**36) = 36 ln 3, QLB = 12 (3 H_3 - 3) = 30
    expr = "*".join(["antichain(3)"] * 12)
    code, out, err = run_cli(capsys, "analyze", "--expr", expr, "--max-n", "40")
    assert code == 0
    rep = json.loads(out)
    assert rep["entropy"] == pytest.approx(math.log(12), abs=1e-12)
    assert rep["lb"] == pytest.approx(36 * math.log(3), abs=1e-12)
    assert rep["qlb"] == 30
    assert rep["sandwich_ok"] is True
    # 12 layers of 3, each element below every element of the next layer but
    # the first below the last: one indecomposable block of 36 elements,
    # refused from its chain count before the chains are listed
    pairs = [(3 * k + a + 1, 3 * k + b + 4) for k in range(11)
             for a in range(3) for b in range(3) if (a, b) != (0, 2)]
    layered = tmp_path / "layered.poset"
    layered.write_text("36\n" + "".join(f"{i} {j}\n" for i, j in pairs), encoding="ascii")
    code, out, err = run_cli(capsys, "analyze", str(layered), "--max-n", "40")
    assert code == 1 and out == ""
    assert "121393 maximal chains exceed the chain cap" in err


def test_analyze_non_sp_over_enum_cap(capsys):
    # N(1)+. has 25 extensions, past the cap of 10, but only its N block is
    # enumerated, and that has 5: QLB = 11/5 + merge cost 5 H_5 - 4 H_4 - 1
    code, out, _ = run_cli(capsys, "analyze", "--expr", "N(1)+.", "--enum-cap", "10")
    assert code == 0
    rep = json.loads(out)
    assert rep["num_extensions"] == 25
    assert rep["qlb"] == float(Fraction(257, 60))
    code, out, _ = run_cli(capsys, "analyze", "--expr", "N(1)+.")
    uncapped = json.loads(out)
    for key in ("qlb", "qh", "gamma_norm", "max_gamma_ij_norm",
                "lemma1_ok", "lemma2_ok", "lemma3_ok", "sandwich_ok"):
        assert rep[key] == uncapped[key], key
    assert rep["lemma1_ok"] and rep["lemma2_ok"] and rep["lemma3_ok"]
    # the N block of N(2)+. has 53 extensions, past the cap: QLB and
    # everything that needs it is null
    code, out, _ = run_cli(capsys, "analyze", "--expr", "N(2)+.", "--enum-cap", "10")
    assert code == 0
    rep = json.loads(out)
    for key in ("qlb", "qh", "gamma_norm", "max_gamma_ij_norm",
                "lemma1_ok", "lemma2_ok", "lemma3_ok"):
        assert rep[key] is None, key
    assert rep["sandwich_ok"] is True


def test_analyze_requires_exactly_one_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1
    f = tmp_path / "p.poset"
    f.write_text("2\n1 2\n")
    code, _, err = run_cli(capsys, "analyze", str(f), "--expr", ".")
    assert code == 1


def test_analyze_file_matches_expr(capsys, tmp_path):
    f = tmp_path / "p.poset"
    f.write_text("# three elements, 2 < 1\n3\n2 1\n")
    code, out_file, _ = run_cli(capsys, "analyze", str(f))
    assert code == 0
    code, out_expr, _ = run_cli(capsys, "analyze", "--expr", "(. * .) + .")
    # isomorphic inputs give identical bound values
    assert json.loads(out_file)["qlb"] == json.loads(out_expr)["qlb"]
    assert json.loads(out_file)["entropy"] == pytest.approx(
        json.loads(out_expr)["entropy"], abs=1e-9
    )


def test_analyze_byte_identical_reruns(capsys):
    argv = ("analyze", "--expr", ". * (.+.+.) * (. + (. * .))")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_analyze_json_key_order(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--expr", ". + .")
    keys = [seg.split('":')[0].strip(' {"') for seg in out.split(",") if '":' in seg]
    assert keys == [
        "n", "num_extensions", "itlb", "entropy", "lb", "qlb", "qh",
        "gamma_norm", "max_gamma_ij_norm",
        "lemma1_ok", "lemma2_ok", "lemma3_ok", "sandwich_ok",
    ]


def test_analyze_large_sp_input_uses_product_count(capsys):
    # 16-element antichain: the DP would touch 2**16 states, the product
    # form is instant and exact
    code, out, _ = run_cli(capsys, "analyze", "--expr", "antichain(16)")
    assert code == 0
    rep = json.loads(out)
    assert rep["num_extensions"] == math.factorial(16)
    assert rep["itlb"] == pytest.approx(math.lgamma(17), rel=1e-12)
    assert rep["qlb"] is not None and rep["gamma_norm"] is None


def test_analyze_formats(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--expr", ". + .", "--format", "csv")
    head, row = out.strip().splitlines()
    assert head.split(",")[0] == "n"
    assert row.split(",")[0] == "2"
    _, out, _ = run_cli(capsys, "analyze", "--expr", ". + .", "--format", "text")
    assert "qlb = 1" in out


def test_analyze_adversary_fields_null_over_cap(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--expr", "antichain(6)", "--matrix-cap", "100"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["gamma_norm"] is None
    assert rep["lemma1_ok"] is None
    assert rep["qlb"] is not None  # structural recursion still applies
    assert rep["sandwich_ok"] is True


def test_analyze_adversary_fields_null_past_n_cap(capsys):
    # 1771 extensions are within the matrix cap, but n = 23 is past the
    # range of the adversary matrix's Lehmer keys
    code, out, _ = run_cli(capsys, "analyze", "--expr", "chain(3)+chain(20)", "--max-n", "23")
    assert code == 0
    rep = json.loads(out)
    assert rep["num_extensions"] == 1771 and rep["qlb"] is not None
    for key in ("gamma_norm", "max_gamma_ij_norm", "lemma1_ok", "lemma2_ok", "lemma3_ok"):
        assert rep[key] is None, key


def test_verify_sp_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "sp", "--seed", "7", "--samples", "500")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("checks passed")


def test_verify_all_output_is_recorded(capsys):
    # the recorded lines of `verify all --seed 42 --samples 100000`
    assert main(["verify", "all", "--seed", "42", "--samples", "100000"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_all_seed42.txt").read_text()


def test_tech_constant_small(capsys):
    code, out, _ = run_cli(capsys, "tech-constant", "--max-n", "2", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("c_min = ")
    assert lines[2] == "n1,n2,ratio"
    first = lines[3].split(",")
    assert first[:2] == ["1", "1"]
    assert float(first[2]) == pytest.approx(1 / math.log(2), abs=1e-12)


def test_tech_constant_json(capsys):
    code, out, _ = run_cli(capsys, "tech-constant", "--max-n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["c_min"] > 0
    assert len(payload["ratios"]) == 6
    tc = tech_constant(3)
    assert payload == {"c_min": tc.c_min, "argmin": list(tc.argmin),
                       "ratios": [[int(a), int(b), r] for a, b, r in tc.table.tolist()]}


def test_tech_constant_csv_is_the_table_alone(capsys):
    # csv prints only the header and the rows; text keeps c_min and argmin
    code, out, _ = run_cli(capsys, "tech-constant", "--max-n", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["n1", "n2", "ratio"]
    assert [(int(a), int(b), float(r)) for a, b, r in rows[1:]] == [
        (int(a), int(b), r) for a, b, r in tech_constant(3).table.tolist()]
    _, text, _ = run_cli(capsys, "tech-constant", "--max-n", "3", "--format", "text")
    assert text.splitlines()[2:] == out.splitlines()


def test_tech_constant_usage_error(monkeypatch):
    import sortbounds.cli as cli

    monkeypatch.setattr(cli, "tech_constant", lambda *a, **k: pytest.fail("scan started"))
    for max_n in ("1", str(TECH_MAX_N + 1)):
        with pytest.raises(SystemExit) as exc:
            main(["tech-constant", "--max-n", max_n])
        assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_tech_constant_survives_closed_pipe(fmt):
    # at --max-n 200 every format writes over 0.5 MB, more than a pipe holds,
    # so the write is still going when head exits
    producer = subprocess.Popen(
        [sys.executable, "-m", "sortbounds.cli", "tech-constant", "--max-n", "200", "--format", fmt],
        stdout=subprocess.PIPE, env=child_env(),
    )
    consumer = subprocess.Popen(
        ["head", "-2"], stdin=producer.stdout, stdout=subprocess.DEVNULL
    )
    producer.stdout.close()
    consumer.wait()
    assert producer.wait() == 0


def test_cap_override_warns(capsys):
    code, _, err = run_cli(capsys, "analyze", "--expr", ".", "--max-n", "25")
    assert code == 0
    assert "warning" in err and "--max-n" in err
    _, _, err = run_cli(capsys, "analyze", "--expr", ".")
    assert err == ""


def test_config_invariants_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--expr", ".", "--samples", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sp", "--tol", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sp", "--seed", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    *(["verify", "orderstats", "--samples", k] for k in ("0", str(MAX_SAMPLES + 1), "1000000000")),
    *(["analyze", "--expr", ".", flag, "-1"] for flag in ("--enum-cap", "--matrix-cap")),
])
def test_range_usage_errors(argv, capsys, monkeypatch):
    # --samples sizes (samples, n) arrays, so a huge value must exit before any
    # suite runs; a negative cap would silently null every capped field
    import sortbounds.cli as cli

    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: pytest.fail("suite started"))
    monkeypatch.setattr(cli, "analyze", lambda *a, **k: pytest.fail("analysis started"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_caps_at_their_bounds_run(capsys, monkeypatch):
    import sortbounds.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run_suites",
                        lambda names, seed, samples: seen.append(samples) or [])
    assert run_cli(capsys, "verify", "sp", "--samples", str(MAX_SAMPLES))[0] == 0
    assert seen == [MAX_SAMPLES]
    code, out, _ = run_cli(capsys, "analyze", "--expr", "N(1)", "--enum-cap", "0", "--matrix-cap", "0")
    rep = json.loads(out)
    assert code == 0 and rep["num_extensions"] == 5
    assert rep["qlb"] is None and rep["gamma_norm"] is None


@pytest.mark.parametrize("argv", [
    ["analyze", "--expr", ".", "--tol", "1e-8"],
    *(["verify", "polytopes", "--tol", tol] for tol in ("nan", "inf", "-inf", "0", "-1e-8")),
])
def test_tol_usage_errors(argv, capsys):
    # neither command takes a tolerance, and no verify check reads one
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_exit_code_contract():
    good = BoundsReport(
        n=2, num_extensions=2, itlb=0.69, entropy=0.0, lb=1.38, qlb=1.0, qh=1.0,
        gamma_norm=1.0, max_gamma_ij_norm=1.0,
        lemma1_ok=True, lemma2_ok=True, lemma3_ok=True, sandwich_ok=True,
    )
    assert exit_code_for_report(good) == 0
    bad = BoundsReport(
        n=2, num_extensions=2, itlb=0.69, entropy=0.0, lb=1.38, qlb=1.0, qh=1.0,
        gamma_norm=0.5, max_gamma_ij_norm=1.0,
        lemma1_ok=False, lemma2_ok=True, lemma3_ok=True, sandwich_ok=True,
    )
    assert exit_code_for_report(bad) == 2
    capped = BoundsReport(
        n=9, num_extensions=362880, itlb=12.8, entropy=0.0, lb=19.8, qlb=None, qh=None,
        gamma_norm=None, max_gamma_ij_norm=None,
        lemma1_ok=None, lemma2_ok=None, lemma3_ok=None, sandwich_ok=True,
    )
    assert exit_code_for_report(capped) == 0


def test_parser_built_once_keeps_usage_errors(capsys, monkeypatch):
    # usage lines wrap at the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    env = child_env()
    assert run_cli(capsys, "analyze", "--expr", "(. * .) + .")[0] == 0

    def rebuilt(*_, **__):
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", rebuilt)
    for argv in (["verify", "lemmas", "--samples", "0"], ["verify", "no-such-suite"]):
        alone = subprocess.run([sys.executable, "-m", "sortbounds.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert alone.returncode == 2 and alone.stderr.startswith("usage: sortbounds")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert (exc.value.code, capsys.readouterr().err) == (alone.returncode, alone.stderr)


LAYERS2X10 = "(.+.)*(.+.)*(.+.)*(.+.)*(.+.)*(.+.)*(.+.)*(.+.)*(.+.)*(.+.)"


def test_import_loads_only_what_analyze_runs():
    # a fresh interpreter: this one has long loaded scipy.integrate.  The
    # layered input sends a 1,024-vertex component to eigsh, so analyze
    # reaches every scipy module it uses.
    script = textwrap.dedent(f"""
        import math, sys
        import sortbounds.cli
        from sortbounds import orderstats
        quadrature = ("scipy.integrate", "scipy.optimize", "scipy.special")
        print(sorted(m for m in quadrature if m in sys.modules))
        before = set(sys.modules)
        assert sortbounds.cli.main(["analyze", "--expr", "{LAYERS2X10}"]) == 0
        print(sorted(set(sys.modules) - before))
        print(abs(orderstats.quad(math.sin, 0, math.pi) - 2) <= 1e-12)
        print("scipy.integrate" in sys.modules)
    """)
    child = subprocess.run([sys.executable, "-c", script], env=child_env(),
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    loaded, report, added, quad_ok, integrate_loaded = child.stdout.splitlines()
    assert loaded == "[]"
    assert json.loads(report)["num_extensions"] == 1024
    assert added == "[]"
    assert quad_ok == "True" and integrate_loaded == "True"
