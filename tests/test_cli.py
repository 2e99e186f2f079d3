import argparse
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import sortbounds
from sortbounds import build_poset, fence_poset, write_poset
from sortbounds import quantum
from sortbounds.cli import exit_code_for_report, main
from sortbounds.orderstats import harmonic
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
    assert err == "error: n=25 exceeds the size cap 20\n"
    # the parser builds an N(k) leaf, so it refuses N(6) on its own
    for expr in ("N(6)", "N(6)+."):
        assert run_cli(capsys, "analyze", "--expr", expr)[::2] == (
            1, "error: n=24 exceeds the size cap 20\n")


def test_analyze_rejects_oversized_input_before_building(capsys, tmp_path):
    # `realize` and `build_poset` check n before they allocate a relation
    # (test_poset.py::test_refusal_allocates_nothing)
    fence = tmp_path / "fence40.poset"
    fence.write_text("40\n" + "".join(f"{i} {i + 1}\n" if i % 2 else f"{i + 1} {i}\n"
                                      for i in range(1, 40)), encoding="ascii")
    big = tmp_path / "big.poset"
    big.write_text("800\n1 2\n")
    for n, source in ((25, ("--expr", "antichain(25)")), (800, ("--expr", "chain(800)")),
                      (800, (str(big),)), (40, (str(fence),))):
        code, out, err = run_cli(capsys, "analyze", *source)
        assert code == 1 and out == ""
        assert err == f"error: n={n} exceeds the size cap 20\n"


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 48.0 GiB for an array"),
                                 MemoryError()])
def test_analyze_memory_error_exits_1(capsys, monkeypatch, exc):
    # an allocation numpy refuses ends in its _ArrayMemoryError, a MemoryError
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
    # 200 alternating series/parallel levels, 401 elements: refused by the
    # size cap before any relation is built.  Level k adds x_k = 2k + 2 above
    # every element so far and an isolated y_k = 2k + 3 (1-based), so x_k
    # covers 1 at k = 0 and x_{k-1}, y_{k-1} after it.
    covers = [(1, 2)] + [(p, 2 * k + 2) for k in range(1, 200) for p in (2 * k, 2 * k + 1)]
    deep = tmp_path / "deep.poset"
    deep.write_text("401\n" + "".join(f"{i} {j}\n" for i, j in covers), encoding="ascii")
    code, out, err = run_cli(capsys, "analyze", str(deep))
    assert code == 1 and out == ""
    assert err == "error: n=401 exceeds the size cap 20\n"


def test_analyze_exponential_chain_set_exits_1(capsys, tmp_path):
    # 12 antichain(3) factors in series (3**12 maximal chains) and the
    # layered block of 36 elements (121393) are past the size cap, which
    # refuses both first; the folds on the expression still take the first
    # (test_quantum.py::test_sp_folds_run_past_the_size_cap)
    expr = "*".join(["antichain(3)"] * 12)
    code, out, err = run_cli(capsys, "analyze", "--expr", expr)
    assert code == 1 and out == ""
    assert err == "error: n=36 exceeds the size cap 20\n"
    pairs = [(3 * k + a + 1, 3 * k + b + 4) for k in range(11)
             for a in range(3) for b in range(3) if (a, b) != (0, 2)]
    layered = tmp_path / "layered.poset"
    layered.write_text("36\n" + "".join(f"{i} {j}\n" for i, j in pairs), encoding="ascii")
    code, out, err = run_cli(capsys, "analyze", str(layered))
    assert code == 1 and out == ""
    assert err == "error: n=36 exceeds the size cap 20\n"


def test_analyze_non_sp_over_enum_cap(capsys, tmp_path):
    # N(1)+antichain(12) has C(16, 4) 5 12! extensions, far past the
    # enumeration cap 10^6, but the cap applies to blocks only, and its one
    # block, N(1), has 5: QLB = 11/5 + the merge cost 16 H_16 - 4 H_4 - 12
    code, out, _ = run_cli(capsys, "analyze", "--expr", "N(1)+antichain(12)")
    assert code == 0
    rep = json.loads(out)
    qlb = Fraction(11, 5) + 16 * harmonic(16) - 4 * harmonic(4) - 12
    assert rep["num_extensions"] == math.comb(16, 4) * 5 * math.factorial(12)
    assert (rep["qlb"], rep["qh"]) == (float(qlb), float(harmonic(16) - qlb / 16))
    assert rep["sandwich_ok"] is True
    # fence(20) is one block of 370,371,188,237,525 extensions, past the cap:
    # QLB and everything that needs it is null
    fence = tmp_path / "fence20.poset"
    write_poset(fence_poset(20), fence)
    code, out, _ = run_cli(capsys, "analyze", str(fence))
    assert code == 0
    rep = json.loads(out)
    assert rep["num_extensions"] == 370_371_188_237_525
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
    # antichain(7) has 5,040 extensions, past the matrix cap 4,000
    code, out, _ = run_cli(capsys, "analyze", "--expr", "antichain(7)")
    assert code == 0
    rep = json.loads(out)
    assert rep["gamma_norm"] is None
    assert rep["lemma1_ok"] is None
    assert rep["qlb"] is not None  # structural recursion still applies
    assert rep["sandwich_ok"] is True


def test_analyze_adversary_runs_at_the_n_cap(capsys):
    # the adversary matrix's keys need n! < 2**63, which the size cap 20
    # guarantees: at n = 20 within the matrix cap its fields are filled, and
    # n = 23 is refused before any of them
    code, out, _ = run_cli(capsys, "analyze", "--expr", "chain(3)+chain(17)")
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 20 and rep["num_extensions"] == 1140
    for key in ("gamma_norm", "max_gamma_ij_norm", "lemma1_ok", "lemma2_ok", "lemma3_ok"):
        assert rep[key] is not None, key
    code, out, err = run_cli(capsys, "analyze", "--expr", "chain(3)+chain(20)")
    assert code == 1 and out == ""
    assert err == "error: n=23 exceeds the size cap 20\n"


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


def test_no_flag_raises_the_size_cap(capsys, monkeypatch):
    # analyze has no --max-n: the size cap is the constant poset.MAX_N, and an
    # input within it prints nothing on stderr
    import sortbounds.cli as cli

    _, _, err = run_cli(capsys, "analyze", "--expr", ".")
    assert err == ""
    monkeypatch.setattr(cli, "analyze", lambda *a, **k: pytest.fail("analysis started"))
    for argv in (["--expr", "antichain(25)", "--max-n", "25"], ["--max-n=40", "--expr", "."]):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *argv])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --max-n" in capsys.readouterr().err


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
    ["analyze", "--expr", ".", "--max-n", "5"],
])
def test_range_usage_errors(argv, capsys, monkeypatch):
    # --samples sizes (samples, n) arrays, so a huge value must exit before any
    # suite runs; the size and extension caps are constants, so their old
    # flags are unknown to the parser
    import sortbounds.cli as cli

    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: pytest.fail("suite started"))
    monkeypatch.setattr(cli, "analyze", lambda *a, **k: pytest.fail("analysis started"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv[0] == "analyze":
        # the value is taken as the FILE argument, so only the flag is unknown
        assert f"error: unrecognized arguments: {argv[-2]}\n" in err
    else:
        assert f"error: --samples must be in 1..{MAX_SAMPLES}" in err


def test_caps_at_their_bounds_run(capsys, monkeypatch):
    import sortbounds.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run_suites",
                        lambda names, seed, samples: seen.append(samples) or [])
    assert run_cli(capsys, "verify", "sp", "--samples", str(MAX_SAMPLES))[0] == 0
    assert seen == [MAX_SAMPLES]
    # the extension caps are constants read where each refusal happens;
    # N(1) has 5 extensions: at caps of 5 both run, below them neither does
    for cap, runs in ((5, True), (4, False), (0, False)):
        monkeypatch.setattr(quantum, "ENUM_CAP", cap)
        monkeypatch.setattr(quantum, "MATRIX_CAP", cap)
        code, out, _ = run_cli(capsys, "analyze", "--expr", "N(1)")
        rep = json.loads(out)
        assert code == 0 and rep["num_extensions"] == 5
        assert rep["qlb"] == (float(Fraction(11, 5)) if runs else None)
        assert (rep["gamma_norm"] is not None) is runs


def test_stress_block_is_refused_by_the_fixed_cap(capsys, monkeypatch, tmp_path):
    # one indecomposable block: 20 elements, 393,218 ideals and 6.7e16
    # extensions.  The count runs; the QLB DP, which peaked at 2 GB traced
    # with the extension cap raised, is refused before it allocates
    pairs = [(1, 2), (3, 2), (3, 4)] + [(3, k) for k in range(5, 21)]
    tracemalloc.start()
    try:
        rep = quantum.analyze(build_poset(20, pairs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.num_extensions == 67_224_923_910_144_000 and rep.qlb is None
    assert peak < 100 * 10**6
    # and no flag raises the cap
    import sortbounds.cli as cli

    stress = tmp_path / "stress.poset"
    stress.write_text("20\n" + "".join(f"{i} {j}\n" for i, j in pairs), encoding="ascii")
    monkeypatch.setattr(cli, "analyze", lambda *a, **k: pytest.fail("analysis started"))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(stress), "--enum-cap", "100000000000000000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --enum-cap 100000000000000000" in capsys.readouterr().err


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
