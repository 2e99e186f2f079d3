import dataclasses

import pytest

from sortbounds import families, linext, quantum
from sortbounds.cli import main
from sortbounds.suites import SUITES, CheckResult, run_suites, suite_adversary


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(name):
    results = run_suites([name], seed=11, samples=10_000)
    assert results, name
    failed = [r for r in results if not r.ok]
    assert not failed, [r.line() for r in failed]


def test_results_sorted_for_stable_output():
    # tol is still accepted by name, as the benchmark's bench/ops.py passes it
    results = run_suites(["sp", "adversary"], seed=3, samples=1000, tol=1e-8)
    keys = [(r.suite, r.name) for r in results]
    assert keys == sorted(keys)


def test_verify_exit_2_on_falsified_property(capsys, monkeypatch):
    def broken(seed, samples):
        return [CheckResult(suite="broken", name="always_fails", ok=False, detail="x")]

    monkeypatch.setitem(SUITES, "sp", broken)
    code = main(["verify", "sp"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL broken.always_fails" in out


def test_entropy_failure_is_a_failed_check(capsys, monkeypatch):
    from sortbounds import polytopes
    from sortbounds.errors import NonConvergenceError

    def diverges(P, tol=1e-8):
        raise NonConvergenceError("no certified gap")

    monkeypatch.setattr(polytopes, "entropy", diverges)
    code = main(["verify", "polytopes", "--samples", "1000"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL polytopes.entropy_certificates:" in out
    # a poset without a solution has no sandwich to check
    assert "PASS polytopes.entropy_sandwich:" in out


def _adversary_members(seed):
    return [P for _, P in families.standard_family(max_n=7, seed=seed)
            if linext.count_extensions(P) <= 2000]


def test_suite_adversary_builds_gamma_once_per_member(monkeypatch):
    build, calls = quantum.build_adversary, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(quantum, "build_adversary", counted)
    results = suite_adversary(seed=5, samples=1000)
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]
    # one per member, inside analyze, plus the 10 random posets of the dense check
    assert len(calls) == len(_adversary_members(5)) + 10


def test_uniform_rayleigh_floor_reads_analyze_lemma1(monkeypatch):
    analyze, seen = quantum.analyze, []

    def lemma1_fails_on_first(P, **kwargs):
        rep = analyze(P, **kwargs)
        seen.append(P)
        return dataclasses.replace(rep, lemma1_ok=False) if len(seen) == 1 else rep

    monkeypatch.setattr(quantum, "analyze", lemma1_fails_on_first)
    checks = {r.name: r.ok for r in suite_adversary(seed=5, samples=1000)}
    assert len(seen) == len(_adversary_members(5))
    assert checks["uniform_rayleigh_floor"] is False
    assert checks["norm_certificates"] is False
    assert checks["hilbert_below_pi"] and checks["power_iteration_vs_dense"]
