"""The four benchmark workloads: inputs from the seed, timed operations, checks.

Every workload drives annealkit through the entry points users call (the
CLI verbs in-process through annealkit.cli.main, or the library for the
qubit), runs a fixed number of rounds, and checks each output.  The
program only sees the configs and files written here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
REFERENCE_PATH = BENCH / "reference.json"
FIT_TABLE = BENCH / "data" / "allsites_curve.tsv"

# qubit_purity parameters; the seed chooses master seeds from a pool whose
# h_z=0.1 curves are recorded in reference.json
QUBIT = {"h_z": [0.0, 0.1], "t_max": 150.0, "dt_out": 0.5,
         "n_realizations": 12, "rtol": 1e-10,
         "spectrum": {"p": 0.75, "omega0": 1.0, "coupling": 0.01,
                      "n_modes": 1000}}
QUBIT_SEED_BASE = 2026
QUBIT_SEED_POOL = 32
QUBIT_REFERENCE_STRIDE = 10     # compare every 10th output time (every 5.0)
QUBIT_TOLERANCE = 1e-8          # the tolerance of ROADMAP item 2's gate

NOISEFREE_SIZE = 256
NOISEFREE_VELOCITIES = (0.01, 0.0178, 0.0316, 0.0562, 0.1)


def bootstrap() -> None:
    """Put the checkout's src/ first on sys.path; fail if it is missing."""
    if not (SRC / "annealkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no annealkit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def qubit_master_seed(seed: int) -> int:
    return QUBIT_SEED_BASE + seed % QUBIT_SEED_POOL


def cli_main(argv) -> int:
    """annealkit.cli.main with the verb's stdout kept out of the report."""
    from annealkit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def write_json(path, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return str(path)


def read_rows(path) -> np.ndarray:
    """Numeric rows of an annealkit table, parsed without the package."""
    rows = []
    header_seen = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True
                continue
            rows.append([float(tok) for tok in line.split()])
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Tally:
    """Timed operations, units of work and checked outcomes of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_s = []
        self.timed_s = 0.0
        self.units = 0
        self.attempted = 0
        self.failures = []
        self.health = {}

    def timed(self, fn, *args, sample: bool = True):
        """Run fn(*args) as one timed operation and return its result."""
        if self.tracer is not None:
            self.tracer.enter("bench.op")
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.exit()
            self.timed_s += elapsed
            if sample:
                self.op_s.append(elapsed)

    def outcome(self, label: str, problems) -> None:
        """Count one checked output; any problem makes it a failure."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def guarded(self, label: str, fn) -> None:
        """Run fn, which records its own outcome; an exception is a failure."""
        try:
            fn()
        except Exception:  # the run continues; the traceback is reported
            self.outcome(label, [traceback.format_exc(limit=3).strip()])

    def note_health(self, key: str, value: float, worst=max) -> None:
        self.health[key] = worst(self.health.get(key, value), value)


# ---------------------------------------------------------------------------
# checks (pure functions of the outputs, so the self-test can perturb them)
# ---------------------------------------------------------------------------

def check_allsites_point(rows, master_seed: int, reference: dict) -> list:
    problems = []
    if rows.shape != (1, 6):
        return [f"expected one 6-column row, got shape {rows.shape}"]
    L, v, mean, stderr, n_real, _ = rows[0]
    if (L, v, n_real) != (reference["L"], reference["v"], 100):
        problems.append(f"row is (L={L}, v={v}, n_real={n_real})")
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr > 0):
        return problems + [f"mean {mean} +- {stderr} is not finite"]
    if master_seed == reference["master_seed"]:
        limit = reference["delta_e_stderr"]
        rule = "committed stderr"
    else:
        limit = 4.0 * math.hypot(reference["delta_e_stderr"], stderr)
        rule = "4 combined sigma"
    deviation = abs(mean - reference["delta_e_mean"])
    if deviation > limit:
        problems.append(f"mean {mean!r} is {deviation:.3g} from the committed "
                        f"{reference['delta_e_mean']!r}, beyond {rule} "
                        f"{limit:.3g}")
    return problems


def check_noisefree_slice(rows, velocities) -> list:
    if rows.shape != (len(velocities), 6):
        return [f"expected {len(velocities)} rows, got shape {rows.shape}"]
    L, v, de = rows[:, 0], rows[:, 1], rows[:, 2]
    problems = []
    if not np.allclose(np.sort(v), np.sort(velocities), rtol=1e-12, atol=0):
        problems.append("velocities differ from the config")
    if not np.all(np.isfinite(de)) or np.any(de < 0) or np.any(de > L - 1):
        problems.append(f"delta_e outside [0, L-1]: {de.tolist()}")
        return problems
    slope = np.polyfit(np.log(v), np.log(de), 1)[0]
    if abs(slope - 0.5) > 0.05:
        problems.append(f"log-log slope {slope:.4f} outside 0.5 +- 0.05")
    return problems


def check_purity_curve(purity, trace_defect, min_eigenvalue, expected,
                       stride: int = 1) -> list:
    problems = []
    if np.any(purity < 0.5 - 1e-12) or np.any(purity > 1.0 + 1e-12):
        problems.append("purity outside [1/2, 1]")
    if trace_defect > 1e-9:
        problems.append(f"trace defect {trace_defect:.3g} > 1e-9")
    if min_eigenvalue < -1e-9:
        problems.append(f"negative eigenvalue {min_eigenvalue:.3g}")
    got = np.asarray(purity)[::stride]
    if got.shape != np.shape(expected):
        problems.append(f"curve has {got.size} points, reference "
                        f"{np.size(expected)}")
    else:
        worst = float(np.abs(got - expected).max())
        if worst > QUBIT_TOLERANCE:
            problems.append(f"purity differs from the reference by {worst:.3g}"
                            f" > {QUBIT_TOLERANCE:g}")
    return problems


def check_decoded(rows, n_tiles: int, n_runs: int) -> list:
    """Decoded tile-runs of synthetic logical flips."""
    if rows.shape != (n_tiles * n_runs, 8):
        return [f"expected {n_tiles * n_runs} tile-runs, got shape {rows.shape}"]
    problems = []
    if np.any(rows[:, 6] != 0):
        problems.append(f"{int(np.count_nonzero(rows[:, 6]))} tile-runs with "
                        "hc_violations")
    if np.any(rows[:, 2] != rows[:, 4]):
        problems.append("delta_e_phys != delta_e_logical")
    if np.any(rows[:, 7] != 0):
        problems.append("tiles excluded without defects")
    return problems


def check_device_row(row, decoded) -> list:
    problems = []
    if int(row[10]) != decoded.shape[0]:
        problems.append(f"n_real {row[10]} != {decoded.shape[0]} tile-runs")
    mean = decoded[:, 2].mean()
    if not math.isclose(row[2], mean, rel_tol=1e-9, abs_tol=1e-12) \
            or row[2] != row[6]:
        problems.append(f"device delta_e {row[2]!r} != decoded mean {mean!r}")
    return problems


def check_fit(summary: dict, reference: dict) -> list:
    problems = []
    if summary.get("degenerate"):
        problems.append(f"fit flagged degenerate: {summary.get('message')}")
    for key in ("alpha", "beta"):
        got, want = summary.get(key), reference[key]
        if got is None or not math.isclose(got, want, rel_tol=1e-6):
            problems.append(f"{key} {got!r} != reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    unit = ""
    why = ""
    nominal_round_s = 1.0   # one round on 2 cores; fixes rounds per --seconds

    def __init__(self, run_dir: Path, seed: int, reference: dict):
        self.run_dir = Path(run_dir)
        self.inputs = self.run_dir / "inputs"
        self.setup_dir = self.run_dir / "setup"    # what prepare() writes
        self.out = self.run_dir / "out"
        self.seed = seed
        self.reference = reference
        self.rng = np.random.default_rng([seed % 2 ** 63,
                                          sum(map(ord, self.name))])
        self.inputs.mkdir(parents=True, exist_ok=True)

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_round_s))

    def fresh_out(self) -> Path:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        return self.out

    def write_inputs(self) -> None:
        raise NotImplementedError

    def run(self, rounds: int, tally: Tally, prepared) -> None:
        raise NotImplementedError

    def job_figures(self, tally: Tally) -> tuple:
        """Job-level per-layer figures of a traced run: (metrics, notes)."""
        return {}, []


class _Simulate(Workload):
    """One `simulate` verb call per round, on a config written here."""

    output = "curve.tsv"

    def simulate_section(self) -> tuple:
        raise NotImplementedError

    def write_inputs(self) -> None:
        master_seed, section = self.simulate_section()
        section["output"] = self.output
        write_json(self.inputs / "simulate.json",
                   {"master_seed": master_seed, "simulate": section})

    def run(self, rounds, tally, prepared):
        config = str(self.inputs / "simulate.json")
        for k in range(rounds):
            out = self.fresh_out()

            def op():
                code = tally.timed(cli_main, ["simulate", "--config", config,
                                                 "--workers", "1",
                                                 "--output-dir", str(out)])
                rows = read_rows(out / self.output)
                problems = [f"simulate exited with {code}"] if code else []
                tally.outcome(f"round {k}", problems + self.check(rows))
                tally.units += self.units_per_round
            tally.guarded(f"round {k}", op)


class ChainAllsites(_Simulate):
    name = "chain_allsites"
    unit = "realizations"
    why = ("noisy L=32 point of sweep_allsites: noise bank and per-call "
           "overhead dominate at small L")
    nominal_round_s = 22.5
    units_per_round = 100

    def simulate_section(self):
        with open(ROOT / "configs" / "sweep_allsites.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        section = dict(doc["simulate"], sizes=[self.reference["L"]],
                       velocities=[self.reference["v"]])
        self.master_seed = self.reference["master_seed"] + self.seed
        return self.master_seed, section

    def check(self, rows):
        return check_allsites_point(rows, self.master_seed, self.reference)

    def job_figures(self, tally):
        import jobmodel

        figures, notes = {}, []

        def pool():
            result = jobmodel.pool_speedup(self.run_dir)
            tally.outcome("pool speedup", [])
            figures["ensemble.pool_speedup"] = result["speedup"]
            notes.append(f"ensemble.pool_speedup: serial {result['serial_s']:.2f} s"
                         f" / {result['workers']} workers "
                         f"{result['pooled_s']:.2f} s"
                         + ("" if result["finished"] else
                            " (pooled run stopped at the cap: an upper bound)"))

        def hours():
            for name, value in jobmodel.projected_hours().items():
                figures[f"ensemble.projected_job_h.{name}"] = value
            tally.outcome("projected hours", [])
            notes.append("ensemble.projected_job_h.*: a cost model, not a "
                         "measurement (see jobmodel.py)")
        tally.guarded("pool speedup", pool)
        tally.guarded("projected hours", hours)
        return figures, notes


class ChainNoisefree(_Simulate):
    name = "chain_noisefree"
    unit = "grid points"
    why = ("noise-free L=256 slice of criterion 2: bypasses noise bank and "
           "pool; stage combination and SVD do the work")
    nominal_round_s = 15.5
    units_per_round = len(NOISEFREE_VELOCITIES)

    def simulate_section(self):
        # a 1% seed-drawn jitter of the velocities; the cost moves by about 1%
        jitter = np.exp(0.01 * self.rng.uniform(-1.0, 1.0, len(NOISEFREE_VELOCITIES)))
        self.velocities = sorted(float(v) for v in np.multiply(NOISEFREE_VELOCITIES, jitter))
        section = {"sizes": [NOISEFREE_SIZE], "velocities": self.velocities,
                   "n_realizations": 1, "noise_mode": "none",
                   "rtol": 1e-8, "atol": 1e-10}
        return 1, section

    def check(self, rows):
        return check_noisefree_slice(rows, self.velocities)


def closed_form_purity(runs_args: dict, master_seed: int):
    """Exact purity for h_z = 0, where every realization has a closed form.

    H(t) = lambda eta(t) sigma_x commutes with itself, so
    psi(t) = cos(Phi)|up> - i sin(Phi)|down> with Phi = lambda * int eta.
    Each mode integrates to amp [sin(w t - phase) + sin(phase)] / w, written
    as 2 sin(w t/2) cos(w t/2 - phase) / w to avoid cancellation at small w.
    """
    from annealkit.noise import NoiseSpectrum, sample_signal
    from annealkit.qubit import QUBIT_STREAM_TAG

    spectrum = NoiseSpectrum(**runs_args["spectrum"])
    n_out = int(np.floor(runs_args["t_max"] / runs_args["dt_out"] + 1e-9)) + 1
    times = np.arange(n_out) * runs_args["dt_out"]
    acc = np.zeros((n_out, 3))
    for r in range(runs_args["n_realizations"]):
        signal = sample_signal(spectrum, (master_seed, QUBIT_STREAM_TAG, r))
        half = 0.5 * np.outer(times, signal.omega)
        modes = 2.0 * np.sin(half) * np.cos(half - signal.phase)
        phi = spectrum.coupling * (modes @ (signal.amp / signal.omega)) \
            / np.sqrt(signal.n_modes)
        c, s = np.cos(phi), np.sin(phi)
        acc += np.stack([c * c, s * s, c * s], axis=1)
    rho = acc / runs_args["n_realizations"]
    return times, rho[:, 0] ** 2 + rho[:, 1] ** 2 + 2.0 * rho[:, 2] ** 2


def crossing_time(times, purity, threshold=0.75) -> float:
    below = np.nonzero(purity < threshold)[0]
    if below.size == 0:
        return float("nan")
    k = int(below[0])
    if k == 0:
        return float(times[0])
    frac = (purity[k - 1] - threshold) / (purity[k - 1] - purity[k])
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


class QubitPurity(Workload):
    name = "qubit_purity"
    unit = "realizations"
    why = ("scalar per-realization solve_ivp path at h_z=0 and 0.1, "
           "NoiseSignal.eval at N_m=1000 takes most of the time")
    nominal_round_s = 8.5
    params = QUBIT

    def write_inputs(self):
        self.args = dict(self.params, master_seed=self.round_seed(0))
        write_json(self.inputs / "qubit.json", self.args)

    def round_seed(self, k: int) -> int:
        """Round k of seed s runs pool entry 2s + k, so the rounds of one
        run evolve distinct noise realizations."""
        return qubit_master_seed(2 * self.seed + k)

    def recorded_hz01(self, master_seed: int) -> np.ndarray:
        recorded = self.reference["hz01"].get(str(master_seed))
        if recorded is None:
            raise RuntimeError(f"no h_z=0.1 reference for {master_seed}")
        return np.array(recorded)

    def run(self, rounds, tally, runs):
        from dataclasses import replace

        from annealkit.qubit import coherence_time, evolve_qubit

        n_real = self.args["n_realizations"]
        for k in range(rounds):
            seed = self.round_seed(k)
            run_hz0, run_hz01 = (replace(r, master_seed=seed) for r in runs)
            times, closed = closed_form_purity(self.args, seed)
            closed_t_r = crossing_time(times, closed)
            recorded = self.recorded_hz01(seed)

            def evolve_with_coherence():
                curve = evolve_qubit(run_hz0)
                return curve, coherence_time(curve)

            def op_hz0():
                curve, t_r = tally.timed(evolve_with_coherence)
                tally.units += n_real
                self._health(tally, curve)
                problems = check_purity_curve(curve.purity, curve.trace_defect,
                                              curve.min_eigenvalue, closed)
                if not abs(t_r - closed_t_r) <= 1e-6:
                    problems.append(f"T_r {t_r!r} != closed form {closed_t_r!r}")
                tally.outcome(f"round {k} h_z=0", problems)

            def op_hz01():
                curve = tally.timed(evolve_qubit, run_hz01)
                tally.units += n_real
                self._health(tally, curve)
                tally.outcome(f"round {k} h_z=0.1", check_purity_curve(
                    curve.purity, curve.trace_defect, curve.min_eigenvalue,
                    recorded, QUBIT_REFERENCE_STRIDE))
            tally.guarded(f"round {k} h_z=0", op_hz0)
            tally.guarded(f"round {k} h_z=0.1", op_hz01)

    @staticmethod
    def _health(tally, curve):
        tally.note_health("qubit.trace_defect", curve.trace_defect)
        tally.note_health("qubit.min_eigenvalue", curve.min_eigenvalue, min)


class DeviceDecode(Workload):
    name = "device_decode"
    unit = "tile-runs"
    why = ("Chimera decode and aggregate of text and binary sample files at "
           "L=4,8,16, then one fit: chimera, tables, scaling")
    nominal_round_s = 2.5        # one cycle over every sample file
    # five files per size, text and binary alternating: an odd file count
    # keeps p50 and p90 inside one file's samples rather than between two
    files_per_size = 5
    runs_per_file = 150          # fixed, so the seed does not change the work

    def write_inputs(self):
        from annealkit.chimera import (build_embedding, synthesize_samples,
                                       tile_partition, write_samples)
        from setup_probe import EMBED_SIZES

        self.files = []
        for L in EMBED_SIZES:
            write_json(self.inputs / f"embed_L{L}.json",
                       {"embed": {"L": L, "tiled": True,
                                  "output_prefix": f"embedding_L{L}"}})
            placements = tile_partition(L)
            emb = build_embedding(L, placements=placements)
            for j in range(self.files_per_size):
                fmt = ("text", "binary")[j % 2]
                flip = float(self.rng.uniform(0.02, 0.2))
                anneal = float(self.rng.uniform(5.0, 50.0))
                samples = synthesize_samples(
                    emb, self.runs_per_file, flip, seed=int(self.rng.integers(2 ** 31)),
                    annealing_time=anneal)
                path = self.inputs / f"samples_L{L}_{j}.{fmt[:3]}"
                write_samples(path, samples, fmt)
                prefix = self.setup_dir / f"embedding_L{L}"
                decoded = self.out / f"decoded_L{L}_{j}.tsv"
                decode = write_json(self.inputs / f"decode_L{L}_{j}.json", {
                    "decode": {"samples": str(path),
                               "couplers": f"{prefix}.couplers.txt",
                               "logical_map": f"{prefix}.map.json",
                               "output": decoded.name}})
                aggregate = write_json(self.inputs / f"aggregate_L{L}_{j}.json", {
                    "aggregate": {"input": str(decoded),
                                  "output": "device_curve.tsv"}})
                self.files.append({"L": L, "tiles": len(placements),
                                   "runs": self.runs_per_file, "decode": decode,
                                   "aggregate": aggregate, "decoded": decoded})
        self.fit_config = write_json(self.inputs / "fit.json", {
            "fit": {"input": str(FIT_TABLE), "output_prefix": "fit"}})

    def run(self, rounds, tally, prepared):
        expected = {}
        for k in range(rounds):
            out = self.fresh_out()
            for i, spec in enumerate(self.files):
                def op():
                    def verbs():
                        return (cli_main(["decode", "--config", spec["decode"],
                                          "--output-dir", str(out)]),
                                cli_main(["aggregate", "--config",
                                          spec["aggregate"],
                                          "--output-dir", str(out)]))
                    codes = tally.timed(verbs)
                    tally.units += spec["tiles"] * spec["runs"]
                    problems = [f"exit codes {codes}"] if any(codes) else []
                    digest = file_digest(spec["decoded"])
                    if i not in expected:
                        decoded = read_rows(spec["decoded"])
                        problems += check_decoded(decoded, spec["tiles"],
                                                  spec["runs"])
                        row = read_rows(out / "device_curve.tsv")[i]
                        problems += check_device_row(row, decoded)
                        if not problems:
                            expected[i] = digest
                    elif digest != expected[i]:
                        problems.append("decoded output differs from round 0")
                    tally.outcome(f"round {k} file {i}", problems)
                tally.guarded(f"round {k} file {i}", op)

        def fit():
            fit_out = self.run_dir / "fit"
            code = tally.timed(cli_main, ["fit", "--config", self.fit_config,
                                          "--output-dir", str(fit_out)],
                               sample=False)
            with open(fit_out / "fit_summary.json", encoding="utf-8") as fh:
                summary = json.load(fh)
            problems = [f"fit exited with {code}"] if code else []
            tally.outcome("fit", problems + check_fit(summary, self.reference))
        tally.guarded("fit", fit)


WORKLOADS = {cls.name: cls for cls in
             (ChainAllsites, ChainNoisefree, QubitPurity, DeviceDecode)}
