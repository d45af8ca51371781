"""The benchmark's four workloads.

Each workload has a ``setup`` (input generation and built-once objects,
repeatable), a ``prepare(i)`` that generates op ``i``'s inputs from the
seed outside the timed region, and an ``op`` that runs one timed
operation and checks its outputs.  Inputs live under ``<work>/inputs``,
apart from every ``--out-dir`` under ``<work>/out``: the CLI overwrites
``<out>.json`` in its output directory without asking.

CLI workloads (``reconstruct``, ``design``) run one ``python -m
coorbit.cli`` child per command, as a user of the command line does, so
every op pays interpreter start-up and imports.  Library workloads
(``transform``, ``gabor``) call into a warm process.  Library calls go
through module attributes (``fields.kernel_project``, not a name bound
at import time) so that traced ops see the span wrappers.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

CHILD_TIMEOUT_S = 100.0


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token!r}")


def loads_strict(text: str):
    """``json.loads`` that rejects the ``NaN``/``Infinity`` tokens it would accept."""
    return json.loads(text, parse_constant=_reject_constant)


def load_strict(path):
    with open(path) as fh:
        return loads_strict(fh.read())


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, allow_nan=False)


def s0_atom():
    """Schwartz atom with all moments vanishing: spectrum exp(-(w^2 + w^-2))."""
    import coorbit as cb

    return cb.signal_from_spectrum_profile(
        lambda w: np.exp(-(w**2 + np.where(w != 0, w**-2.0, np.inf))),
        -32, 32, 4096,
    )


# The criterion-09 working chart of the s0 atom, the wider criterion-12
# chart it is re-certified on, and the designed lattice: design-lattice on
# the s0 chart (alpha0 = 2, beta0 = 1, gamma = 0.7) passes at step 16, so
# alpha = 1 + 0.7**15 and beta = 0.7**15.  The design workload checks that.
S0_CHART = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 512,
            "a_min": 0.25, "a_max": 4.0, "n_scales": 49, "signs": [1, -1]}
WIDE_CHART = {"group": "affine", "b_lo": -4.0, "b_hi": 4.0, "n_b": 1024,
              "a_min": 0.125, "a_max": 8.0, "n_scales": 97, "signs": [1, -1]}
WEIGHT = {"family": "symmetric_power", "rho": 1.0}
SCHEDULE = {"alpha0": 2.0, "beta0": 1.0, "gamma": 0.7, "max_steps": 18}
DESIGNED_STEP = 15


def designed_lattice():
    beta = SCHEDULE["beta0"] * SCHEDULE["gamma"] ** DESIGNED_STEP
    alpha = 1.0 + (SCHEDULE["alpha0"] - 1.0) * SCHEDULE["gamma"] ** DESIGNED_STEP
    j_span = int(math.ceil(math.log(S0_CHART["a_max"]) / math.log(alpha)))
    k_span = int(math.ceil(S0_CHART["b_hi"] / (beta * S0_CHART["a_min"])))
    lattice = {"type": "affine", "alpha": alpha, "beta": beta,
               "j": [-j_span, j_span], "k": [-k_span, k_span], "signs": [1, -1]}
    return lattice, {"kind": "affine", "beta": beta, "alpha": alpha, "n_samples": 7}


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Stopwatch:
    """Wall and CPU seconds of a ``with`` block (CPU includes children it waits for).

    CPU time leaves out the time the hypervisor gives the virtual CPUs to
    other guests ("steal" in /proc/stat), which makes wall time on a
    shared host vary by tens of percent from minute to minute.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0

    def __enter__(self):
        self._wall0, self._cpu0 = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._wall0
        self.cpu += cpu_seconds() - self._cpu0
        return False


@dataclass
class Outcome:
    time: Stopwatch
    failure: str | None = None
    rel_err: float | None = None
    bytes_written: int = 0
    spans: list = field(default_factory=list)


class Context:
    """Paths, seed and the child-process environment of one benchmark run."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def fresh_dirs(self):
        for d in (self.inputs, self.out):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)

    def run_child(self, argv, log: Path, watch: Stopwatch) -> int:
        """Run a child to completion, timed into ``watch``; returns its exit code."""
        with open(log, "w") as fh, watch:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            try:
                return proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return -9
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def run_cli(self, args, out_dir: Path, traced: bool, sink: list, watch: Stopwatch):
        """One ``coorbit`` command in a child, timed into ``watch``; returns a failure or None.

        Traced children append their spans to ``sink``.
        """
        log = out_dir.parent / f"{out_dir.name}.{args[0]}.log"
        if traced:
            span_file = out_dir.parent / f"{out_dir.name}.{args[0]}.spans.json"
            argv = [sys.executable, str(Path(__file__).resolve().parent / "traced_cli.py"),
                    str(span_file)]
        else:
            argv = [sys.executable, "-m", "coorbit.cli"]
        code = self.run_child(argv + list(args) + ["--out-dir", str(out_dir)], log, watch)
        if traced and code == 0:
            sink.extend(load_strict(span_file))
        return None if code == 0 else f"{args[0]} exited {code}: {_tail(log)}"

    def import_library(self, watch: Stopwatch):
        """A fresh interpreter importing the library, timed into ``watch``."""
        log = self.work / "import.log"
        if self.run_child([sys.executable, "-c", "import coorbit"], log, watch) != 0:
            raise RuntimeError(f"cannot import coorbit: {_tail(log)}")


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _check_artifacts(out_dir: Path) -> tuple:
    """Strictly parse every JSON artifact; returns (parsed by name, bytes, failure)."""
    parsed, total = {}, 0
    for path in sorted(out_dir.iterdir()):
        total += path.stat().st_size
        if path.suffix == ".json":
            try:
                parsed[path.name] = load_strict(path)
            except ValueError as exc:
                return parsed, total, f"{path.name}: {exc}"
    return parsed, total, None


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


class Workload:
    """A workload's set-up, per-op input generation and checked, timed op."""

    name: str
    in_process: bool  # ops run in this process rather than in CLI children
    min_ops = 2

    def __init__(self, ctx: Context):
        self.ctx = ctx


class Reconstruct(Workload):
    """``coorbit reconstruct`` on the criterion-09 chart and the designed lattice."""

    name = "reconstruct"
    in_process = False
    min_ops = 3
    # Op i reconstructs draw i of a fixed stream, whatever the seed.  From
    # draw to draw final_relative_error varies by about 25 % and the Neumann
    # iteration count from 7 to 13, so seeded draws made the mean error of
    # a run's three ops spread by 40 % between seeds.
    DRAW_SEED = 2024

    def setup(self):
        import coorbit as cb

        atom = s0_atom()
        self.atom_path = self.ctx.inputs / "s0_atom.json"
        write_json(self.atom_path, atom.to_dict())
        self.psi_n = cb.normalize_admissible(atom)
        self.chart = cb.GroupQuadrature.from_dict(S0_CHART)
        self.lattice, self.U = designed_lattice()

    def prepare(self, i: int) -> dict:
        import coorbit as cb

        rng = np.random.default_rng([self.DRAW_SEED, i])
        f = cb.random_bandlimited_signal(self.psi_n, (0.45, 1.1), rng, envelope_width=0.6)
        truth = self.ctx.inputs / f"truth_{i}.field.json"
        write_json(truth, cb.cwt(f, self.psi_n, self.chart).to_dict())
        config = self.ctx.inputs / f"reconstruct_{i}.config.json"
        write_json(config, {
            "version": "coorbit/1", "command": "reconstruct",
            "atom": str(self.atom_path), "quadrature": S0_CHART, "weight": WEIGHT,
            "neighbourhood": self.U, "lattice": self.lattice, "field": str(truth),
            "tol": 1e-3, "max_iter": 100, "out": "reconstruct",
        })
        return {"config": config, "out": self.ctx.out / f"op_{i}"}

    def op(self, inp: dict, traced: bool) -> Outcome:
        outcome = Outcome(Stopwatch())
        outcome.failure = self.ctx.run_cli(["reconstruct", "--config", str(inp["config"])],
                                           inp["out"], traced, outcome.spans, outcome.time)
        if outcome.failure:
            return outcome
        parsed, outcome.bytes_written, outcome.failure = _check_artifacts(inp["out"])
        if outcome.failure:
            return outcome
        rep = parsed["reconstruct.report.json"]
        q = rep["certificate"]["q"]
        h = np.asarray(rep["residual_history"], dtype=float)
        ratios = h[1:] / h[:-1]
        outcome.rel_err = rep["final_relative_error"]
        if not rep["converged"]:
            outcome.failure = f"not converged after {rep['iterations']} iterations"
        elif ratios.size >= 3 and float(np.max(ratios[-3:])) > q + 0.1:
            outcome.failure = f"last contraction ratios {ratios[-3:]} exceed q + 0.1 = {q + 0.1}"
        elif not _finite(outcome.rel_err):
            outcome.failure = "no finite final_relative_error"
        return outcome

    def tiles_used_frac(self) -> float:
        """Distinct tiles holding a chart node, over lattice points sampled."""
        from coorbit.fields import NeighborhoodSpec
        from coorbit.lattices import AffineLattice, cover_sum

        lat = AffineLattice.from_dict(self.lattice)
        b, a = self.chart.node_points()
        counts, sums = cover_sum(lat, NeighborhoodSpec.from_dict(self.U), b, a,
                                 np.arange(lat.n_points, dtype=float))
        if np.any(counts > 1):
            raise ValueError("a chart node lies in several tiles; tile ids are ambiguous")
        tiles = np.unique(sums.real[counts == 1].astype(np.int64))
        return tiles.size / lat.n_points


class Design(Workload):
    """``design-lattice`` on the s0 chart, then ``certify-atom`` of the designed U."""

    name = "design"
    in_process = False
    # an op takes about 8.5 s; a median of two ops moved by 15 % between seeds
    min_ops = 3

    def setup(self):
        atom_path = self.ctx.inputs / "s0_atom.json"
        write_json(atom_path, s0_atom().to_dict())
        self.atom_path = atom_path
        self.design_config = self.ctx.inputs / "design.config.json"
        write_json(self.design_config, {
            "version": "coorbit/1", "command": "design-lattice",
            "atom": str(atom_path), "quadrature": S0_CHART, "weight": WEIGHT,
            "schedule": SCHEDULE, "out": "design",
        })

    def prepare(self, i: int) -> dict:
        # the paper's fixed atom: the seed does not change these inputs
        return {"i": i, "out": self.ctx.out / f"op_{i}"}

    def op(self, inp: dict, traced: bool) -> Outcome:
        out = inp["out"]
        outcome = Outcome(Stopwatch())
        outcome.failure = self.ctx.run_cli(["design-lattice", "--config", str(self.design_config)],
                                           out, traced, outcome.spans, outcome.time)
        if outcome.failure:
            return outcome
        try:
            design = load_strict(out / "design.json")
        except ValueError as exc:
            outcome.failure = f"design.json: {exc}"
            return outcome
        q_design = design["certificate"]["q"]
        if not (design["pass"] and q_design < 1.0):
            outcome.failure = f"design did not pass: q = {q_design}"
            return outcome
        lattice, _ = designed_lattice()
        if (design["alpha"], design["beta"]) != (lattice["alpha"], lattice["beta"]):
            outcome.failure = (f"design passed at step {design['steps']}, not at the step "
                               f"{DESIGNED_STEP + 1} the reconstruct workload's lattice assumes")
            return outcome
        certify_config = self.ctx.inputs / f"certify_{inp['i']}.config.json"
        write_json(certify_config, {
            "version": "coorbit/1", "command": "certify-atom",
            "atom": str(self.atom_path), "kind": "wavelet", "quadrature": WIDE_CHART,
            "weight": WEIGHT, "neighbourhood": design["certificate"]["U"],
            "out": "certificate",
        })
        outcome.failure = self.ctx.run_cli(["certify-atom", "--config", str(certify_config)],
                                           out, traced, outcome.spans, outcome.time)
        if outcome.failure:
            return outcome
        parsed, outcome.bytes_written, outcome.failure = _check_artifacts(out)
        if outcome.failure:
            return outcome
        q_wide = parsed["certificate.json"]["certificate"]["q"]
        outcome.rel_err = abs(q_wide - q_design) / q_design
        if not _finite(outcome.rel_err):
            outcome.failure = f"non-finite q on the wide chart: {q_wide}"
        return outcome


class Transform(Workload):
    """Warm process: ``cwt`` through the CLI, reload, project with K, ``icwt``."""

    name = "transform"
    in_process = True

    def setup(self):
        import coorbit as cb

        self.quad = cb.build_affine_quadrature(-32, 32, 2048, 1 / 16, 16, 64, (1, -1))
        self.psi = cb.normalize_admissible(cb.mexican_hat(-32, 32, 2048))
        self.atom_path = self.ctx.inputs / "mexhat.json"
        write_json(self.atom_path, self.psi.to_dict())
        self.K = cb.cwt(self.psi, self.psi, self.quad)

    def prepare(self, i: int) -> dict:
        import coorbit as cb

        rng = np.random.default_rng([self.ctx.seed, i])
        t = -32 + (64 / 2048) * np.arange(2048)
        width, f0, rate = rng.uniform(5.5, 6.5), rng.uniform(0.3, 0.4), rng.uniform(0.003, 0.007)
        vals = np.exp(-((t / width) ** 2)) * np.exp(2j * np.pi * (f0 * t + rate * t * t))
        signal = self.ctx.inputs / f"chirp_{i}.json"
        write_json(signal, cb.SampledSignal(-32.0, 64 / 2048, vals).to_dict())
        config = self.ctx.inputs / f"cwt_{i}.config.json"
        write_json(config, {
            "version": "coorbit/1", "command": "cwt", "signal": str(signal),
            "atom": str(self.atom_path), "quadrature": self.quad.to_dict(), "out": "chirp",
        })
        return {"config": config, "out": self.ctx.out / f"op_{i}"}

    def op(self, inp: dict, traced: bool) -> Outcome:
        from coorbit import cli, fields, groups, voice
        from coorbit.fields import field_l2_norm

        out = inp["out"]
        recorder = spans.Recorder()
        with spans.install(recorder) if traced else contextlib.nullcontext():
            with Stopwatch() as watch:
                code = cli.main(["cwt", "--config", str(inp["config"]), "--out-dir", str(out)])
                if code == 0:
                    W = groups.GroupField.from_dict(load_strict(out / "chirp.field.json"))
                    P = fields.kernel_project(W, self.K)
                    g = voice.icwt(P, self.psi)
        outcome = Outcome(watch, spans=recorder.spans)
        if code != 0:
            outcome.failure = f"cwt exited {code}"
            return outcome
        _, outcome.bytes_written, outcome.failure = _check_artifacts(out)
        if outcome.failure:
            return outcome
        residual = groups.GroupField(W.quad, P.values - W.values)
        outcome.rel_err = field_l2_norm(residual) / field_l2_norm(W)
        if not (_finite(outcome.rel_err) and outcome.rel_err <= 0.05):
            outcome.failure = f"projection residual {outcome.rel_err} above 0.05"
        elif not np.all(np.isfinite(g.values)):
            outcome.failure = "icwt returned non-finite samples"
        return outcome


class Gabor(Workload):
    """Warm process: empirical frame bounds, then frame-operator inversion."""

    name = "gabor"
    in_process = True
    band = (0.25, 1.0)
    envelope = 2.2

    def setup(self):
        import coorbit as cb
        from coorbit.lattices import TFLattice

        self.g = cb.gaussian(-16, 16, 2048)
        self.lat = TFLattice.separable(0.5, 0.5, (-24, 24), (-12, 12))
        self.quad = cb.build_tf_quadrature(-12, 0.125, 193, -4.0, 0.125, 65)
        # the frame's bounds are a property of the window and lattice, measured
        # with the criterion-10 probe draws; a run-seeded probe would make the
        # inversion's step size, and so its error, vary from run to run
        probe = cb.gabor_tightness_probe(self.g, self.lat, ensemble=5, seed=5,
                                         band=self.band, envelope_width=self.envelope)
        self.bounds = (probe["min"], probe["max"])
        # the first frame_bounds_empirical call in a process costs about twice
        # a warm one; a warm library process pays that once
        cb.frame_bounds_empirical(self.g, self.lat, p=2, ensemble=20, seed=self.ctx.seed,
                                  quad=self.quad, band=self.band,
                                  envelope_width=self.envelope)

    def prepare(self, i: int) -> dict:
        import coorbit as cb

        rng = np.random.default_rng([self.ctx.seed, i])
        f = cb.random_bandlimited_signal(self.g, self.band, rng, envelope_width=self.envelope)
        return {"f": f, "seed": int(rng.integers(2**31))}

    def op(self, inp: dict, traced: bool) -> Outcome:
        from coorbit import frames

        f = inp["f"]
        recorder = spans.Recorder()
        with spans.install(recorder) if traced else contextlib.nullcontext():
            with Stopwatch() as watch:
                fb = frames.frame_bounds_empirical(
                    self.g, self.lat, p=2, ensemble=20, seed=inp["seed"], quad=self.quad,
                    band=self.band, envelope_width=self.envelope)
                sf = frames.gabor_frame_operator(f, self.g, self.lat)
                rec, rep = frames.frame_operator_invert(sf, self.g, self.lat, self.bounds,
                                                        tol=1e-10, max_iter=50)
        outcome = Outcome(watch, spans=recorder.spans)
        err = float(np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values))
        outcome.rel_err = err
        if not (_finite(err) and err <= 1e-6):
            outcome.failure = f"inversion error {err} above 1e-6"
        elif not (rep.converged and rep.iterations <= 50):
            outcome.failure = f"inversion did not converge in {rep.iterations} iterations"
        elif not fb.a_hat / fb.b_hat >= 0.9:
            outcome.failure = f"frame bound ratio {fb.a_hat / fb.b_hat} below 0.9"
        return outcome


WORKLOADS = {w.name: w for w in (Reconstruct, Design, Transform, Gabor)}


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0
