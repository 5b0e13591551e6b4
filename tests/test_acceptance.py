"""Acceptance suite: every release gate in one file.

Each test prints a single `[criterion NN] PASS/FAIL` verdict line (visible in
the pytest log because the project runs with -s) and then asserts.  The
criteria marry the two independent cost routes, the closed-form construction
costs, the repair executor, and the exhaustive-search certificates; tolerances
are exact equality throughout, with wall-clock ceilings where a search or a
sweep is involved.
"""
import random
import time
from itertools import product

from repair_lab.construction import (
    build_low_io_scheme,
    compare_baselines,
    has_block_shape,
    largest_valid_s,
    predicted_cost,
)
from repair_lab.fieldmath import FieldContext
from repair_lab.linalg import Packing, coset_weight
from repair_lab.linalg import rank as mat_rank
from repair_lab.qpoly import qp_image, solve_annihilator, subspace_intersect_kernels
from repair_lab.rs import RSCode
from repair_lab.scheme import RepairScheme
from repair_lab.search import gaussian_binomial, min_io_exhaustive

# every feasible (q, ell, s, k) for the construction at desk scale:
# q = 2 with ell up to 6, q = 3 with ell up to 3, s in {0, 1, 2}
SWEEP_FIELDS = [(2, ell) for ell in range(2, 7)] + [(3, 2), (3, 3)]

_sweep_cache: list[dict] | None = None
_sweep_seconds: float = 0.0


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _construction_sweep() -> list[dict]:
    """Measure every in-scope construction scheme once; criteria 1-3 share it."""
    global _sweep_cache, _sweep_seconds
    if _sweep_cache is not None:
        return _sweep_cache
    t0 = time.perf_counter()
    rows = []
    for q, ell in SWEEP_FIELDS:
        ctx = FieldContext(q, ell)
        n = ctx.order
        for s in range(min(3, ell)):
            for k in range(1, n - q**s):
                scheme = build_low_io_scheme(ctx, k, s)
                rows.append(
                    {
                        "q": q,
                        "ell": ell,
                        "s": s,
                        "k": k,
                        "direct": scheme.io_cost_direct(),
                        "formula": scheme.io_cost_formula(),
                        "bandwidth": scheme.bandwidth(),
                        "predicted": predicted_cost(q, ell, s),
                        "blocks_ok": all(
                            has_block_shape(scheme, s, i) for i in range(1, n + 1)
                        ),
                    }
                )
    _sweep_seconds = time.perf_counter() - t0
    _sweep_cache = rows
    return rows


def _random_valid_schemes(ctx, r, count, seed):
    code = RSCode.full_length(ctx, ctx.order - r)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        duals = [
            [rng.randrange(ctx.order) for _ in range(r)] for _ in range(ctx.ell)
        ]
        scheme = RepairScheme(code, 1, duals)
        if scheme.validate() is None:
            out.append(scheme)
    return out


def test_criterion_01_formula_equals_direct():
    """The weight-of-rowspace cost formula agrees with direct column counting on
    every construction scheme in the sweep and on 500 random 3-parity schemes."""
    rows = _construction_sweep()
    t0 = time.perf_counter()
    sweep_bad = [r for r in rows if r["formula"] != r["direct"]]
    ctx = FieldContext(2, 3)
    random_bad = 0
    for scheme in _random_valid_schemes(ctx, r=3, count=500, seed=101):
        if scheme.io_cost_formula() != scheme.io_cost_direct():
            random_bad += 1
    elapsed = _sweep_seconds + (time.perf_counter() - t0)
    ok = not sweep_bad and random_bad == 0 and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"formula route = direct count on {len(rows)} construction schemes and "
        f"500 random 3-parity schemes, exact ({elapsed:.1f}s"
        + ("" if elapsed < 60.0 else " — over the 60s budget")
        + (f"; {len(sweep_bad)} sweep + {random_bad} random mismatches" if (sweep_bad or random_bad) else "")
        + ")",
    )


def test_criterion_02_construction_cost_closed_form():
    """Measured I/O cost equals (n-1)*ell - (s+1)*q^(ell-1) across the sweep,
    including the 17- and 13-subsymbol reference points."""
    rows = _construction_sweep()
    bad = [r for r in rows if r["direct"] != r["predicted"]]
    seventeen = any(
        r["q"] == 2 and r["ell"] == 3 and r["s"] == 0 and r["direct"] == 17
        for r in rows
    )
    thirteen = any(
        r["q"] == 2 and r["ell"] == 3 and r["s"] == 1 and r["direct"] == 13
        for r in rows
    )
    ok = not bad and seventeen and thirteen
    _verdict(
        2,
        ok,
        f"measured cost matches the closed form on all {len(rows)} schemes, "
        f"with the 17 (q=2, ell=3, s=0) and 13 (s=1) reference values present"
        + (f"; {len(bad)} mismatches" if bad else ""),
    )


def test_criterion_03_bandwidth_equals_io_with_block_shape():
    """Every construction scheme transmits exactly what it reads, and every
    helper matrix has the diagonal/zero/identity block shape, entrywise."""
    rows = _construction_sweep()
    bad_bw = [r for r in rows if r["bandwidth"] != r["direct"]]
    bad_shape = [r for r in rows if not r["blocks_ok"]]
    ok = not bad_bw and not bad_shape
    _verdict(
        3,
        ok,
        f"bandwidth = I/O cost and block shape verified entrywise on all "
        f"{len(rows)} schemes"
        + (f"; {len(bad_bw)} cost / {len(bad_shape)} shape failures" if not ok else ""),
    )


def test_criterion_04_two_parity_minima_certified():
    """Exhaustive search over all scheme subspaces reproduces the 2-parity
    lower bound (n-1)*ell - q^(ell-1) exactly at ell = 2 and ell = 3."""
    results = []
    ok = True
    for ell, expect in ((2, 4), (3, 17)):
        ctx = FieldContext(2, ell)
        t0 = time.perf_counter()
        cost, witness = min_io_exhaustive(ctx, r=2)
        elapsed = time.perf_counter() - t0
        bound = (ctx.order - 1) * ell - 2 ** (ell - 1)
        construction = build_low_io_scheme(ctx, ctx.order - 2, 0).io_cost_direct()
        results.append(f"ell={ell}: min {cost} ({elapsed:.1f}s)")
        ok = ok and cost == expect == bound == construction
        ok = ok and witness.io_cost_direct() == cost and elapsed < 60.0
    _verdict(4, ok, "exhaustive minima match bound and construction — " + "; ".join(results))


def test_criterion_05_three_parity_minimum_located():
    """Exhaustive search at q=2, ell=3, r=3 pins the true minimum between the
    certified bound (12) and the construction (13), reporting the exact value."""
    ctx = FieldContext(2, 3)
    subspaces = gaussian_binomial(9, 3, 2)
    t0 = time.perf_counter()
    minimum, witness = min_io_exhaustive(ctx, r=3)
    elapsed = time.perf_counter() - t0
    construction = build_low_io_scheme(ctx, 5, 1).io_cost_direct()
    ok = (
        12 <= minimum <= 13
        and construction == 13
        and witness.io_cost_direct() == minimum
        and elapsed <= 600.0
    )
    _verdict(
        5,
        ok,
        f"searched all {subspaces} subspaces in {elapsed:.1f}s: exact minimum is "
        f"{minimum} (bound 12, construction {construction}; the bound is "
        + ("met" if minimum == 12 else "not attained — gap 1")
        + ")",
    )


def test_criterion_06_repair_recovers_every_node():
    """Erase-and-repair round trips: 100 seeded codewords per configuration,
    every node index, with the instrumented reads matching the reported columns."""
    repairs = 0
    bad = 0
    configs = []
    for ell in (2, 3):
        ctx = FieldContext(2, ell)
        n = ctx.order
        for k in (n - 2, n - 3):
            s = largest_valid_s(2, ell, n - k)
            base = build_low_io_scheme(ctx, k, s)
            code = base.code
            words = [code.random_codeword(seed) for seed in range(100)]
            configs.append(f"ell={ell} k={k}")
            for target in range(1, n + 1):
                scheme = base.translate(target)
                expected_reads = {
                    i: scheme.accessed_subsymbols(i)
                    for i in scheme.helpers()
                    if scheme.accessed_subsymbols(i)
                }
                for word in words:
                    punctured = list(word)
                    punctured[target - 1] = None
                    value, reads = scheme.repair_transcript(punctured)
                    repairs += 1
                    if value != word[target - 1] or reads != expected_reads:
                        bad += 1
    ok = bad == 0 and repairs == (4 + 4 + 8 + 8) * 100
    _verdict(
        6,
        ok,
        f"{repairs} erase/repair round trips across {', '.join(configs)} — "
        f"exact recovery and read sets at every node"
        + (f"; {bad} failures" if bad else ""),
    )


def test_criterion_07_coset_weight_against_enumeration():
    """The closed-form coset weight agrees with brute-force enumeration on 200
    random subspace/offset pairs over GF(2) and GF(3).  linalg.coset_weight is
    the one implementation: RepairScheme.io_cost_formula runs it on the packed
    stacked rows, so this and criterion 1 cover the formula route."""
    checked = 0
    bad = 0
    for q in (2, 3):
        rng = random.Random(700 + q)
        while checked < (100 if q == 2 else 200):
            k = rng.randrange(1, 7)
            m = rng.randrange(max(k, 2), 13)
            rows = [[rng.randrange(q) for _ in range(m)] for _ in range(k)]
            if mat_rank(rows, q) != k:
                continue
            y = [rng.randrange(q) for _ in range(m)]
            pk = Packing(q, m)
            supp, total = coset_weight(pk, [pk.pack(row) for row in rows], pk.pack(y))
            brute = 0
            for coeffs in product(range(q), repeat=k):
                v = [
                    (y[j] + sum(c * rows[i][j] for i, c in enumerate(coeffs))) % q
                    for j in range(m)
                ]
                brute += sum(1 for x in v if x)
            checked += 1
            if total != brute:
                bad += 1
    ok = checked == 200 and bad == 0
    _verdict(
        7,
        ok,
        f"closed-form coset weight = enumeration on {checked} random (rows, offset) "
        f"pairs, q in {{2,3}}, up to 6 rows x 12 columns"
        + (f"; {bad} mismatches" if bad else ""),
    )


def test_criterion_08_annihilator_images():
    """The solved linearized polynomial's image equals the intersection of the
    trace hyperplanes, with dimension ell - t, for 50 random constraint sets at
    every 1 <= t < ell, ell in {3, 4, 5}."""
    checked = 0
    bad = 0
    for ell in (3, 4, 5):
        ctx = FieldContext(2, ell)
        rng = random.Random(800 + ell)
        for t in range(1, ell):
            done = 0
            while done < 50:
                betas = [rng.randrange(1, ctx.order) for _ in range(t)]
                if mat_rank([list(ctx.digits(b)) for b in betas], 2) != t:
                    continue
                done += 1
                checked += 1
                image = qp_image(ctx, solve_annihilator(ctx, betas))
                if image != subspace_intersect_kernels(ctx, betas) or len(image) != ell - t:
                    bad += 1
    ok = bad == 0 and checked == 50 * (2 + 3 + 4)
    _verdict(
        8,
        ok,
        f"solver image = hyperplane intersection with dimension ell-t on "
        f"{checked} random constraint sets (ell in 3..5, every t)"
        + (f"; {bad} mismatches" if bad else ""),
    )


def test_criterion_09_costs_are_node_symmetric():
    """Moving a construction scheme to any node permutes the per-helper read
    counts but never changes the multiset, the bandwidth, or the I/O cost."""
    cases = [(2, 2, 0, 2), (2, 3, 0, 6), (2, 3, 1, 5), (2, 4, 1, 13), (3, 2, 0, 7)]
    checked = 0
    bad = 0
    for q, ell, s, k in cases:
        ctx = FieldContext(q, ell)
        base = build_low_io_scheme(ctx, k, s)
        ref_multiset = sorted(
            len(base.accessed_subsymbols(i)) for i in base.helpers()
        )
        ref_io, ref_bw = base.io_cost_direct(), base.bandwidth()
        for target in range(1, ctx.order + 1):
            moved = base.translate(target)
            checked += 1
            multiset = sorted(
                len(moved.accessed_subsymbols(i)) for i in moved.helpers()
            )
            if (
                multiset != ref_multiset
                or moved.io_cost_direct() != ref_io
                or moved.bandwidth() != ref_bw
            ):
                bad += 1
    ok = bad == 0 and checked == sum(q**ell for q, ell, _, _ in cases)
    _verdict(
        9,
        ok,
        f"read-count multiset and totals invariant under translation to every "
        f"node across {len(cases)} configurations ({checked} translations)"
        + (f"; {bad} violations" if bad else ""),
    )


def test_criterion_10_comparison_table():
    """The baseline table reproduces the reference row (45 / 56 / 52 / 44 at
    q=2, ell=4, s=1, k=13) and flags `ours < k*ell` exactly when the sufficient
    condition n-k <= (s+1)*q^(ell-1)/ell holds across the sweep."""
    table = compare_baselines(2, 4, 1, 13)
    row_ok = (
        table["prior_bandwidth"] == 45
        and table["prior_io"] == 56
        and table["trivial_io"] == 52
        and table["ours"] == 44
        and table["below_trivial"]
        and table["bound_condition"]
    )
    sweep = 0
    flag_bad = 0
    implication_bad = 0
    for q, ell in SWEEP_FIELDS:
        n = q**ell
        for s in range(min(3, ell)):
            for k in range(1, n - q**s):
                t = compare_baselines(q, ell, s, k)
                sweep += 1
                if t["bound_condition"] != (ell * (n - k) <= (s + 1) * q ** (ell - 1)):
                    flag_bad += 1
                if t["bound_condition"] and not t["below_trivial"]:
                    implication_bad += 1
    ok = row_ok and flag_bad == 0 and implication_bad == 0
    _verdict(
        10,
        ok,
        f"reference row 45/56/52/44 reproduced; flag matches the condition and "
        f"guarantees the saving on all {sweep} sweep rows"
        + ("" if ok else f"; row_ok={row_ok}, {flag_bad} flag / {implication_bad} implication faults"),
    )
