import pytest

from sortbounds.cli import main
from sortbounds.suites import SUITES, CheckResult, run_suites


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
