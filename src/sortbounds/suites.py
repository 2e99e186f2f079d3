"""Named property suites behind the `verify` CLI command.

Each check returns a CheckResult; a suite passes when every check does.  The
instance families are built from seeded generators, so a run is reproducible
from (seed, samples); no check takes a tolerance from its caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import families, linext, orderstats, polytopes, quantum
from .errors import NonConvergenceError
from .orderstats import harmonic
from .poset import count_induced_N, extends
from .spexpr import (Block, nodes, parallel, parse_sp, realize, recognize_sp, series,
                     sp_decomposition)

MAX_SAMPLES = 10**6  # the samplers hold (samples, n) arrays: `verify` refuses more


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.suite}.{self.name}: {self.detail}"


def _result(suite: str, name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(suite=suite, name=name, ok=bool(ok), detail=detail)


# ---------------------------------------------------------------------------
# sp suite
# ---------------------------------------------------------------------------

def suite_sp(seed: int, samples: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    exprs = [families.random_sp_expr(rng, int(rng.integers(1, 11))) for _ in range(40)]
    bad = 0
    for e in exprs:
        P = realize(e)
        expr2, leaves = sp_decomposition(P)
        perm = np.asarray(leaves)
        if (any(isinstance(node, Block) for node in nodes(expr2))
                or not (realize(expr2).rel == P.rel[np.ix_(perm, perm)]).all()):
            bad += 1
    out.append(_result("sp", "recognize_round_trip", bad == 0,
                       f"{len(exprs) - bad}/{len(exprs)} expressions round-trip"))

    bad = sum(parse_sp(str(e)) != e for e in exprs)
    out.append(_result("sp", "parser_round_trip", bad == 0,
                       f"{len(exprs) - bad}/{len(exprs)} expressions re-parse"))

    checked = [(count, e) for e in exprs if (count := linext.count_extensions_sp(e)) <= 200_000]
    mism = sum(count != linext.count_extensions(realize(e)) for count, e in checked)
    out.append(_result("sp", "count_product_form", mism == 0,
                       f"{len(checked) - mism}/{len(checked)} counts match the downset DP"))

    trials = max(200, min(samples, 2000))
    wrong = 0
    for _ in range(trials):
        P = families.random_poset(int(rng.integers(1, 10)), rng, p=float(rng.uniform(0.1, 0.6)))
        if bool(recognize_sp(P)) != (count_induced_N(P) == 0):
            wrong += 1
    out.append(_result("sp", "n_free_iff_recognizable", wrong == 0,
                       f"{trials - wrong}/{trials} random posets agree"))

    k = 3
    nk = realize(parse_sp(f"N({k})"))
    expected_pairs = 3 * k * k + 4 * (k * (k - 1) // 2)
    out.append(_result("sp", "n_blowup_pair_count", len(nk.pairs()) == expected_pairs,
                       f"N({k}) has {len(nk.pairs())} pairs, expected {expected_pairs}"))
    return out


# ---------------------------------------------------------------------------
# lemmas suite (exact composition identities)
# ---------------------------------------------------------------------------

def suite_lemmas(seed: int, samples: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    pairs = families.sp_pair_family(30, rng, max_total_n=9, max_extensions=5000)
    known: dict[bytes, Fraction] = {}

    def qlb(P) -> Fraction:
        """`qlb_fraction` once per relation of this call; keyed by the bytes
        (of length n**2), so the posets and their lattices are not kept."""
        key = P.rel.tobytes()
        if key not in known:
            known[key] = quantum.qlb_fraction(P)
        return known[key]

    # the QLBs of e1, e2, their series and their parallel, once per pair
    qlbs = [tuple(qlb(realize(e))
                  for e in (e1, e2, series(e1, e2), parallel(e1, e2))) for e1, e2 in pairs]

    ser_bad = sum(1 for q1, q2, ser, _ in qlbs if ser != q1 + q2)
    out.append(_result("lemmas", "series_additivity", ser_bad == 0,
                       f"{len(pairs) - ser_bad}/{len(pairs)} pairs exact"))

    par_bad = qh_bad = sp_bad = 0
    for (e1, e2), (q1, q2, ser, merged) in zip(pairs, qlbs):
        n1, n2 = e1.size, e2.size
        n = n1 + n2
        if merged != q1 + q2 + n * harmonic(n) - n1 * harmonic(n1) - n2 * harmonic(n2):
            par_bad += 1
        # QH = H_n - QLB / n, as `qh_fraction` computes it
        qh1, qh2, qh_combined = (harmonic(k) - q / k for k, q in ((n1, q1), (n2, q2), (n, merged)))
        if qh_combined != Fraction(n1, n) * qh1 + Fraction(n2, n) * qh2:
            qh_bad += 1
        if quantum.qlb_sp_fraction(parallel(e1, e2)) != merged:
            sp_bad += 1
        if quantum.qlb_sp_fraction(series(e1, e2)) != ser:
            sp_bad += 1
    out.append(_result("lemmas", "parallel_merge_cost", par_bad == 0,
                       f"{len(pairs) - par_bad}/{len(pairs)} pairs exact"))
    out.append(_result("lemmas", "qh_mixture", qh_bad == 0,
                       f"{len(pairs) - qh_bad}/{len(pairs)} pairs exact"))
    out.append(_result("lemmas", "structural_qlb", sp_bad == 0,
                       f"{2 * len(pairs) - sp_bad}/{2 * len(pairs)} compositions exact"))

    ident_bad = 0
    fam = [P for _, P in families.standard_family(max_n=7, seed=seed)]
    for P in fam:
        qh = harmonic(P.n) - quantum.qlb_sp_fraction(sp_decomposition(P)[0]) / P.n  # by the fold
        if qlb(P) != P.n * (harmonic(P.n) - qh):
            ident_bad += 1
    out.append(_result("lemmas", "qlb_qh_identity", ident_bad == 0,
                       "exact rational identity on the standard family"))

    mono_bad = 0
    mono_n = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        Q = families.random_poset(n, rng, p=0.5)
        P = families.random_poset(n, rng, p=0.25)
        if extends(Q, P):
            mono_n += 1
            if qlb(P) < qlb(Q):
                mono_bad += 1
    out.append(_result("lemmas", "extension_monotonicity", mono_bad == 0,
                       f"{mono_n - mono_bad}/{mono_n} extending pairs monotone"))

    tech = quantum.tech_constant(200)
    ratio_bad = 0
    ratio_n = 0
    for (e1, e2), (_, _, ser, par) in zip(pairs, qlbs):
        for e, q in ((series(e1, e2), ser), (parallel(e1, e2), par)):
            it = linext.ln_count(linext.count_extensions_sp(e))
            if it <= 1e-12:
                continue
            ratio_n += 1
            if float(q) < tech.c_min * it - 1e-9:
                ratio_bad += 1
    out.append(_result("lemmas", "qlb_over_itlb_floor", ratio_bad == 0,
                       f"{ratio_n - ratio_bad}/{ratio_n} SP posets above c_min={tech.c_min:.6f}"))
    return out


# ---------------------------------------------------------------------------
# polytopes suite
# ---------------------------------------------------------------------------

def suite_polytopes(seed: int, samples: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    fam = families.standard_family(max_n=8, seed=seed)

    worst_rt = 0.0
    feas_bad = 0
    for _, P in fam:
        Y = polytopes.order_point_batch(P, 500, rng)
        Z = polytopes.transfer_batch(P, Y)
        back = polytopes.transfer_inverse_batch(P, Z)
        worst_rt = max(worst_rt, float(np.abs(back - Y).max()))
        A = polytopes.chain_matrix(P)
        if (Z @ A.T > 1.0 + 1e-12).any() or (Z < -1e-15).any():
            feas_bad += 1
    out.append(_result("polytopes", "transfer_round_trip", worst_rt <= 1e-12,
                       f"worst coordinate error {worst_rt:.2e}"))
    out.append(_result("polytopes", "transfer_feasibility", feas_bad == 0,
                       "gap images satisfy every maximal-chain constraint"))

    solver_bad = sandwich_bad = 0
    for _, P in fam:
        try:  # converges only with a certified gap of at most 1e-9
            sol = polytopes.entropy(P, tol=1e-9)
        except NonConvergenceError:
            solver_bad += 1  # no solution, so no sandwich to check
            continue
        # a blockless member by the exact fold, with no solve; any other by
        # the solve above as its one leaf, with R = 1
        num, expr = linext.count_extensions(P), recognize_sp(P)
        fold = quantum.entropy_sp(expr) if expr is not None else None
        top, leaves = (Fraction(P.n**P.n), [sol]) if fold is None else (fold.top, fold.leaves)
        if not quantum.certify_sandwich(num, top, leaves):
            sandwich_bad += 1
    out.append(_result("polytopes", "entropy_certificates", solver_bad == 0,
                       "certified duality gap below tolerance on the family"))
    out.append(_result("polytopes", "entropy_sandwich", sandwich_bad == 0,
                       "ITLB <= LB <= 2 ITLB on the family"))

    vol_bad = 0
    nsamp = max(samples, 10_000)
    for name, P in fam:
        est, se = polytopes.chain_polytope_volume_mc(P, nsamp, int(rng.integers(2**31)))
        truth = linext.count_extensions(P) / math.factorial(P.n)
        if abs(est - truth) > 4 * max(se, 1e-12) + 1e-9:
            vol_bad += 1
    out.append(_result("polytopes", "volume_matches_count", vol_bad == 0,
                       f"MC volume within 4 stderr of count/n! at {nsamp} samples"))

    ident_bad = 0
    for name, P in [("chain2+point", families.chain2_plus_point()),
                    ("antichain3", families.antichain_poset(3)),
                    ("chain2", families.chain_poset(2))]:
        est, se = quantum.qh_mc(P, max(samples, 10_000), int(rng.integers(2**31)))
        if abs(est - float(quantum.qh_fraction(P))) > 4 * se:
            ident_bad += 1
    out.append(_result("polytopes", "qh_mc_matches_exact", ident_bad == 0,
                       "MC averaged entropy within 4 stderr of the exact value"))
    return out


# ---------------------------------------------------------------------------
# orderstats suite
# ---------------------------------------------------------------------------

def suite_orderstats(seed: int, samples: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for n in range(2, 13):
        for k in range(0, n):
            r = orderstats.closed_form_checks(n, k, 0.3)
            worst = max(worst, r.j_residual, r.h_residual, r.i_residual or 0.0)
    out.append(_result("orderstats", "closed_form_residuals", worst <= 1e-8,
                       f"worst residual {worst:.2e} for n <= 12"))

    worst = 0.0
    for n in range(1, 13):
        for k in range(0, n):
            val = orderstats.quad(lambda s: orderstats.density_f(n, k, s), 0.0, 1.0)
            worst = max(worst, abs(val - 1.0))
    out.append(_result("orderstats", "density_normalized", worst <= 1e-10,
                       f"worst |integral - 1| = {worst:.2e}"))

    nsamp = max(samples, 10_000)
    crit = orderstats.ks_critical(nsamp, alpha=0.001)
    ks_bad = 0
    ks_n = 0
    for n in range(2, 7):
        for i in range(1, n):
            for d in range(1, n - i + 1):
                ks_n += 1
                ks = orderstats.gap_distribution_check(n, i, d, nsamp, int(rng.integers(2**31)))
                if ks > crit:
                    ks_bad += 1
    out.append(_result("orderstats", "gap_distribution_ks", ks_bad == 0,
                       f"{ks_n - ks_bad}/{ks_n} gap tests below the 0.001 critical value"))

    expln_bad = 0
    cases = [
        (families.chain_poset(3), (1, 2, 3), 2),
        (families.antichain_poset(4), (1, 2, 3, 4), 3),
        (families.chain_poset(2), (1, 2), 1),
    ]
    for P, rank, i in cases:
        d = quantum.d_vector(P, linext.LinearExtension(rank))[i]
        res, se = orderstats.exp_ln_gap_check(P.n, rank[i] - d, d, nsamp,
                                              int(rng.integers(2**31)))
        if res > 4 * se:
            expln_bad += 1
    out.append(_result("orderstats", "exp_ln_gap", expln_bad == 0,
                       "harmonic-gap identity within 4 stderr on all cases"))

    q = 2000
    h_ok = orderstats.harmonic(q) - orderstats.harmonic(q - 1) == Fraction(1, q)
    out.append(_result("orderstats", "harmonic_exact", h_ok,
                       f"H_{q} - H_{q - 1} = 1/{q} exactly"))
    return out


# ---------------------------------------------------------------------------
# adversary suite
# ---------------------------------------------------------------------------

def suite_adversary(seed: int, samples: int) -> list[CheckResult]:
    out = []
    fam = [(name, P) for name, P in families.standard_family(max_n=7, seed=seed)
           if linext.count_extensions(P) <= 2000]

    flag_bad = []
    rayleigh_bad = []
    for name, P in fam:
        rep = quantum.analyze(P)
        if rep.gamma_norm is None or rep.any_failed():
            flag_bad.append(name)
        if not rep.lemma1_ok:  # the exact uniform_rayleigh(Gamma) >= QLB
            rayleigh_bad.append(name)
    out.append(_result("adversary", "norm_certificates", not flag_bad,
                       f"all flags true on {len(fam)} posets" if not flag_bad
                       else f"failures: {flag_bad}"))
    out.append(_result("adversary", "uniform_rayleigh_floor", not rayleigh_bad,
                       "uniform-vector quotient dominates the harmonic bound"))

    h_ok = True
    detail = []
    for m in (10, 50, 200):
        v = quantum.hilbert_norm(m)
        detail.append(f"m={m}: {v:.6f}")
        if not v < math.pi:
            h_ok = False
    out.append(_result("adversary", "hilbert_below_pi", h_ok, "; ".join(detail)))

    dense_bad = 0
    rng = np.random.default_rng(seed)
    for _ in range(10):
        P = families.random_poset(int(rng.integers(2, 6)), rng, p=0.4)
        g = quantum.build_adversary(P)
        lo, hi = quantum.norm_bracket(g)
        exact = float(np.abs(np.linalg.eigvalsh(g.to_dense())).max())
        slack = 1e-6 * max(exact, 1.0)
        if not lo - slack <= exact <= hi + slack:
            dense_bad += 1
    out.append(_result("adversary", "power_iteration_vs_dense", dense_bad == 0,
                       "certified bracket contains the dense eigensolve"))
    return out


SUITES = {
    "sp": suite_sp,
    "lemmas": suite_lemmas,
    "polytopes": suite_polytopes,
    "orderstats": suite_orderstats,
    "adversary": suite_adversary,
}


def run_suites(names: list[str], seed: int, samples: int,
               tol: float | None = None) -> list[CheckResult]:
    """The named suites' checks, sorted.  No check reads tol: it is taken
    only because the benchmark's `bench/ops.py` passes it by name."""
    results: list[CheckResult] = []
    for name in names:
        results.extend(SUITES[name](seed, samples))
    return sorted(results, key=lambda r: (r.suite, r.name))
