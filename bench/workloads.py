"""Workloads of the repair-lab benchmark: inputs, timed operations and checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The program is driven through its public
API and `repair_lab.cli.main`, in process.  Every operation is checked against
an independent route; a failed check is counted and the run goes on.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Search:
    """`search-min` for one (q, ell, r) at a seeded failed node, run serially
    and with a second worker; `expected` is the known certified minimum."""

    q: int
    ell: int
    r: int
    expected: int


@dataclass(frozen=True)
class Repair:
    """Plans, repairs and encodes on the full-length code of dimension k,
    repaired by the construction with shape s; `expected` is its closed-form
    I/O cost (n - 1) * ell - (s + 1) * q^(ell - 1)."""

    q: int
    ell: int
    k: int
    s: int
    expected: int


WORKLOADS = {
    "search-q2": Search(q=2, ell=3, r=3, expected=13),
    "search-oddq": Search(q=3, ell=3, r=2, expected=69),
    "repair-n1024": Repair(q=2, ell=10, k=1020, s=1, expected=9206),
}

# After each plan: 8 repairs interleaved with 2 encodes (the write path).
REPAIR_ROUND = ("repair",) * 4 + ("encode",) + ("repair",) * 4 + ("encode",)
RING = 4  # repairs read one of the most recent codewords
FIRST_CODEWORDS = 2
COSTS_PER_ROUND = 30  # `cost` calls on the witness after each search round
SETUP_RUNS = 5  # fresh interpreters per run; `setup_s` is their median
# A shared machine's speed drifts by a fifth over minutes and swings by a
# third within a second.  So every time is reported in seconds of a machine
# on which `_reference_work` takes REFERENCE_S (a quiet core of a 2-core x86
# box under CPython 3.11): the reference work is timed just before and after
# each operation and every SAMPLE_EVERY_S during it, and the operation's time
# is scaled by the median of those samples.  Samples taken while a parallel
# search keeps every core busy would measure its own load, so a parallel
# operation is scaled by PARALLEL_WINDOW samples taken just before it and as
# many taken just after it instead.  The meta line keeps the raw times, which
# compare.py weighs beside the scaled ones: a change that slows the process or
# the box as a whole slows the reference work too, and only the raw times show it.
REFERENCE_S = 0.0045
SAMPLE_EVERY_S = 0.25
PARALLEL_WINDOW = 10

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "main_p50_s": "s",
    "alt_p50_s": "s",
    "aux_p50_s": "s",
}
# Counted calls reported per layer, as "<layer>.<function>".
COUNTED = (
    "fieldmath.mul",
    "fieldmath.add",
    "fieldmath.digits",
    "fieldmath.dual_coords",
    "fieldmath.poly_eval",
    "linalg.rref",
    "linalg.nonzero_columns",
    "rs.encode",
    "qpoly.solve_annihilator",
    "scheme.io_matrix",
    "scheme.repair_transcript",
    "scheme.cost_report",
    "cli.main",
)


def spec_to_json(spec) -> str:
    return json.dumps({"kind": type(spec).__name__, **asdict(spec)})


def spec_from_json(text: str):
    data = json.loads(text)
    kind = {"Search": Search, "Repair": Repair}[data.pop("kind")]
    return kind(**data)


class ProgramMissing(Exception):
    """The checkout holds no repair_lab package to measure."""


def load_program(root):
    """Import repair_lab (and its cli) from <root>/src, never from elsewhere."""
    src = (Path(root) / "src").resolve()
    if not (src / "repair_lab" / "__init__.py").is_file():
        raise ProgramMissing(f"no repair_lab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("repair_lab")
    importlib.import_module("repair_lab.cli")
    if Path(pkg.__file__).resolve().parent != src / "repair_lab":
        raise ProgramMissing(f"repair_lab was imported from {pkg.__file__}, not {src}")
    return pkg


def cli_json(pkg, argv, stdin: str | None = None):
    """Run `repair-lab --json <argv>` in process and parse its output."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = pkg.cli.main(["--json", *argv])
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"repair-lab {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def _reference_work() -> int:
    # Small-integer arithmetic and table lookups, like the field layer's, then
    # small dicts, lists and strings through a JSON round trip, like the CLI's
    # and the schemes'.  A busy neighbour slows the second kind more than the
    # first, and the program's operations mix both.  Across fresh processes,
    # `cost` calls, repairs and small searches timed against the first part
    # alone spread two to three times as widely as against this mix, and
    # encodes timed against the second part alone one and a half times.
    table = list(range(1024))
    acc = 0
    for i in range(12_000):
        acc = table[(acc ^ i) & 1023] + i % 7
    for i in range(450):
        acc += len(json.loads(json.dumps({"a": i, "b": [i, acc, (i, i)], "c": str(i)})))
    return acc


def reference_seconds(samples: int = 1) -> float:
    """Median time of the reference work over `samples` runs of it."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(seconds: float, reference: float) -> float:
    """Scale a time measured while the reference work took `reference`."""
    return seconds * REFERENCE_S / reference


class _Sampler:
    """Appends a reference sample to `refs` every SAMPLE_EVERY_S seconds,
    from a SIGALRM handler, while the block runs (not at all if `refs` is
    None); `spent` is the time the samples took."""

    def __init__(self, refs: list[float] | None):
        self.refs = refs
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "_Sampler":
        if self.refs is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.refs is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


class Recorder:
    """Latency samples per operation kind, scaled by reference samples (see
    REFERENCE_S), or left raw if not `scaled`, in which case no reference
    work runs at all; counts of attempted and failed operations."""

    def __init__(self, scaled: bool = True):
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.scaled = scaled
        self.refs = [reference_seconds()] if scaled else []
        self.attempted = 0
        self.failed = 0
        self._pending: list | None = None

    def p50(self, kind: str) -> float | None:
        samples = self.samples.get(kind)
        return statistics.median(samples) if samples else None

    def run(self, kind: str, call, check, parallel: bool = False):
        """Time call(), then check its result outside the timed region.

        `parallel` marks an operation that may keep every core busy.  Returns
        the result, or None if the call raised.  A result that fails its
        check is still returned, so later operations run on it and are
        checked in turn."""
        self.attempted += 1
        first = len(self.refs) - 1
        sampled = self.refs if self.scaled and not parallel else None
        with _Sampler(sampled) as sampler:
            t0 = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            elapsed = time.perf_counter() - t0 - sampler.spent
        if self.scaled:
            self.refs.extend(
                reference_seconds() for _ in range(PARALLEL_WINDOW if parallel else 1)
            )
        if error is not None:
            self._fail(kind, f"raised {error!r}")
            return None
        self.raw.setdefault(kind, []).append(elapsed)
        if self.scaled:
            window = self.refs[max(0, first + 1 - PARALLEL_WINDOW) :] if parallel else self.refs[first:]
            elapsed = to_reference(elapsed, statistics.median(window))
        self.samples.setdefault(kind, []).append(elapsed)
        if self._pending is None:
            self._check(kind, check, result)
        else:
            self._pending.append((kind, check, result))
        return result

    def _check(self, kind: str, check, result) -> None:
        try:
            problem = check(result)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            self._fail(kind, problem)

    @contextlib.contextmanager
    def deferred_checks(self):
        """Hold the checks of the operations run inside until the end, so
        that a tracer active inside does not see them."""
        self._pending = []
        try:
            yield
        finally:
            pending, self._pending = self._pending, None
            for item in pending:
                self._check(*item)

    def busy_seconds(self) -> float:
        return sum(map(sum, self.samples.values()))

    def _fail(self, kind: str, why: str) -> None:
        self.failed += 1
        print(f"{kind} operation failed: {why}", file=sys.stderr)


@dataclass
class Env:
    """Everything set up before the first timed operation."""

    pkg: object
    spec: object
    rng: random.Random
    workers: int
    node: int = 0
    code: object = None
    ring: deque = field(default_factory=deque)


def setup(root, spec, seed: int, workers: int = 1) -> Env:
    pkg = load_program(root)
    rng = random.Random(seed)
    if isinstance(spec, Search):
        return Env(pkg, spec, rng, workers, node=rng.randrange(1, spec.q**spec.ell + 1))
    ctx = pkg.fieldmath.FieldContext(spec.q, spec.ell)
    base = pkg.construction.build_low_io_scheme(ctx, spec.k, spec.s)
    ring = deque(
        (base.code.random_codeword(rng.getrandbits(32)) for _ in range(FIRST_CODEWORDS)),
        maxlen=RING,
    )
    return Env(pkg, spec, rng, workers, code=base.code, ring=ring)


# ---- search workloads --------------------------------------------------------------


def check_search(env: Env, payload, serial=None) -> str | None:
    expected = env.spec.expected
    if payload["min_io_cost"] != expected:
        return f"minimum {payload['min_io_cost']} != {expected}"
    witness = env.pkg.scheme.RepairScheme.from_dict(payload["witness"])
    violation = witness.validate()
    if violation is not None:
        return f"witness is invalid: {violation}"
    if witness.io_cost_formula() != expected:
        return f"witness formula cost {witness.io_cost_formula()} != {expected}"
    if serial is not None and witness.to_dict() != serial["witness"]:
        return "the parallel witness differs from the serial one"
    return None


def check_cost(expected: int, report) -> str | None:
    if not report["io_cost"] == report["io_cost_formula"] == expected:
        return f"cost {report['io_cost']} / formula {report['io_cost_formula']} != {expected}"
    return None


def search_op(env: Env, rec: Recorder, kind: str, workers: int, serial=None):
    spec = env.spec
    argv = [
        "search-min", "--q", str(spec.q), "--ell", str(spec.ell), "--r", str(spec.r),
        "--node", str(env.node), "--workers", str(workers),
    ]
    return rec.run(
        kind,
        lambda: cli_json(env.pkg, argv),
        lambda p: check_search(env, p, serial),
        parallel=workers > 1,
    )


def cost_ops(env: Env, rec: Recorder, payload) -> None:
    """Cost the search witness through `repair-lab cost`, both routes."""
    if payload is None:
        return
    text = json.dumps(payload["witness"])
    for _ in range(COSTS_PER_ROUND):
        rec.run(
            "aux",
            lambda: cli_json(env.pkg, ["cost"], stdin=text),
            lambda report: check_cost(env.spec.expected, report),
        )


def search_round(env: Env, rec: Recorder) -> None:
    serial = search_op(env, rec, "main", 1)
    search_op(env, rec, "alt", env.workers, serial)
    cost_ops(env, rec, serial)


# ---- repair workload -----------------------------------------------------------------


def check_plan(env: Env, node: int, payload, scheme) -> str | None:
    expected = env.spec.expected
    report = payload["cost_report"]
    costs = (payload["io_cost"], report["io_cost_formula"], payload["bandwidth"])
    if costs != (expected,) * 3:
        return f"io cost / formula / bandwidth {costs} != {expected}"
    if scheme.star != node:
        return f"scheme repairs node {scheme.star}, not {node}"
    return None


def check_repair(env: Env, erased: int, result) -> str | None:
    value, reads = result
    if value != erased:
        return f"recovered {value}, erased {erased}"
    total = sum(len(cols) for cols in reads.values())
    if total != env.spec.expected:
        return f"read {total} subsymbols, expected {env.spec.expected}"
    return None


def check_encode(env: Env, word) -> str | None:
    n = env.spec.q**env.spec.ell
    if len(word) != n or not all(0 <= a < n for a in word):
        return "codeword has the wrong length or a symbol outside the field"
    return None


def repair_round(env: Env, rec: Recorder) -> None:
    spec, pkg, rng = env.spec, env.pkg, env.rng
    node = rng.randrange(1, spec.q**spec.ell + 1)
    argv = [
        "construct", "--q", str(spec.q), "--ell", str(spec.ell), "--k", str(spec.k),
        "--s", str(spec.s), "--node", str(node),
    ]

    def plan():
        payload = cli_json(pkg, argv)
        return payload, pkg.scheme.RepairScheme.from_dict(payload["scheme"])

    planned = rec.run("alt", plan, lambda p: check_plan(env, node, *p))
    if planned is None:
        return
    scheme = planned[1]
    for step in REPAIR_ROUND:
        if step == "encode":
            seed = rng.getrandbits(32)
            word = rec.run(
                "aux", lambda: env.code.random_codeword(seed), lambda w: check_encode(env, w)
            )
            if word is not None:
                env.ring.append(word)
        else:
            word = env.ring[rng.randrange(len(env.ring))]
            punctured = list(word)
            punctured[node - 1] = None
            rec.run(
                "main",
                lambda: scheme.repair_transcript(punctured),
                # bind the erased value now: checks may run after the loop
                lambda result, erased=word[node - 1]: check_repair(env, erased, result),
            )


def run_round(env: Env, rec: Recorder) -> None:
    (search_round if isinstance(env.spec, Search) else repair_round)(env, rec)


# ---- measurement ---------------------------------------------------------------------


def probe(root, spec, seed: int, flags=()) -> tuple[float, float, str]:
    """Seconds from starting a fresh interpreter until it has finished `setup`,
    the reference time the probe measured after that, and its stderr."""
    cmd = [sys.executable, *flags, str(HERE / "setup_probe.py"), str(root), spec_to_json(spec), str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {err.strip()}")
    return elapsed, float(out), err


def peak_rss_mb() -> float:
    kb = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kb / 1024


def measure(root, spec, seed: int, seconds: float, workers: int):
    """The untraced run: returns (Recorder, end-to-end metrics)."""
    probes = [probe(root, spec, seed)[:2] for _ in range(SETUP_RUNS)]
    setup_s = statistics.median(to_reference(*p) for p in probes)
    env = setup(root, spec, seed, workers)
    rec = Recorder()
    rec.raw["setup"] = [elapsed for elapsed, _ in probes]
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        run_round(env, rec)
        now = time.perf_counter()
        if now + (now - t0) > deadline:  # the next round would overrun
            break
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    for kind in ("main", "alt", "aux"):
        metrics[f"{kind}_p50_s"] = rec.p50(kind)
    return rec, metrics


def measure_traced(root, spec, seed: int, workers: int):
    """The traced run: one fixed unit of work, run untraced and then traced.
    Returns (Recorder, per-layer metrics).  Call counts depend on the seed only.
    Its times are raw seconds, with no reference work run in between."""
    _, _, stderr = probe(root, spec, seed, ("-X", "importtime"))
    import_s = tracer.import_self_seconds(stderr, "repair_lab")
    env = setup(root, spec, seed, workers)
    rec = Recorder(scaled=False)
    efficiency = 0.0
    subspaces = 0
    if isinstance(spec, Search):
        search_op(env, rec, "main", 1)
        untraced = rec.busy_seconds()
        if workers > 1:
            search_op(env, rec, "alt", workers)
            efficiency = untraced / (workers * (rec.busy_seconds() - untraced))
        start = rec.busy_seconds()
        with rec.deferred_checks(), tracer.Tracer(env.pkg) as tr:
            search_op(env, rec, "main", 1)
        subspaces = env.pkg.search.gaussian_binomial(spec.r * spec.ell, spec.ell, spec.q)
    else:
        state, ring = env.rng.getstate(), list(env.ring)
        repair_round(env, rec)
        untraced = start = rec.busy_seconds()
        env.rng.setstate(state)
        env.ring = deque(ring, maxlen=RING)
        with rec.deferred_checks(), tracer.Tracer(env.pkg) as tr:
            repair_round(env, rec)
    traced = rec.busy_seconds() - start

    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = tr.self_seconds(layer) + import_s[layer]
    for key in COUNTED:
        metrics[f"{key}.calls"] = tr.calls.get(key, 0)
    metrics["scheme.schemes_built"] = tr.calls.get("scheme.RepairScheme", 0)
    search_s = tr.self_seconds("search")
    metrics["search.subspaces_per_s"] = subspaces / search_s if subspaces else 0.0
    metrics["search.parallel_efficiency"] = efficiency
    metrics["trace.overhead_ratio"] = traced / untraced
    return rec, metrics


PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    **{f"{key}.calls": "count" for key in COUNTED},
    "scheme.schemes_built": "count",
    "search.subspaces_per_s": "1/s",
    "search.parallel_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
}
