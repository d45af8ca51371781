"""Batch command-line front end.

Every subcommand reads a JSON config (``--config`` plus ``--key value``
overrides), runs one library pipeline, and writes JSON artifacts into
``--out-dir``, each named after the config's ``out`` stem, which must be
one file name.  The CLI adds no computation of its own; every number in
an output file is reproducible by the corresponding library call.

Exit codes: 0 success/pass, 2 I/O or config errors (including a
``NaN``/``Infinity`` token in a JSON input or ``--set`` value, a config
number given as a string (``"nan"``, ``"0.5"``) or a bool, and a
non-finite value in a field, a signal or an output, which is never
written, and an input too large to allocate), 3 certification failure
(including non-admissible windows), 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .fields import NeighborhoodSpec, lpm_norm, unit_weight
from .frames import (
    DesignSearchError,
    ReconstructionDivergence,
    _certificate_from_kernel,
    _stopping_rule,
    atom_certificate,
    atom_kernel,
    design_lattice,
    frame_bounds_empirical,
    neumann_reconstruct,
    stft_window_sufficient,
    wavelet_atom_sufficient,
)
from .groups import (
    GroupField,
    GroupQuadrature,
    _finite_float,
    _integer,
    _known_keys,
    _object,
    _on_group,
)
from .lattices import AffineLattice, TFLattice, build_bupu
from .signals import SampledSignal, moments, vanishing_moment_count
from .voice import NotAdmissible, NotAdmissibleError, admissibility_constant, cwt, stft
from .weights import WeightSpec

FORMAT_VERSION = "coorbit/1"

_EXIT_OK = 0
_EXIT_IO = 2
_EXIT_CERT = 3
_EXIT_DIVERGED = 4


def _canon(obj):
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):  # a float first, so the inf rule below reads it too
        obj = float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


# floats per formatted block of a float array
_FLOAT_BLOCK = 1 << 15


def _json_chunks(obj: dict):
    """Text of ``json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)``, in pieces.

    ``obj`` is one artifact: a dict with string keys.  A value that is a
    1-D float array is written in blocks, each one ``join`` of
    ``float.__repr__`` (the repr ``json`` itself uses), instead of going
    element by element through ``json``'s pure-Python indenting encoder;
    every other value goes to ``json.dumps``.
    """
    yield "{"
    for i, key in enumerate(sorted(obj)):
        yield ("," if i else "") + "\n " + json.dumps(key) + ": "
        value = obj[key]
        if not isinstance(value, np.ndarray):
            # a string value holds no raw newline, so every newline is indentation
            yield json.dumps(value, sort_keys=True, indent=1, allow_nan=False).replace("\n", "\n ")
        elif not np.all(np.isfinite(value)):
            raise ValueError("non-finite value in a float array")
        else:
            for lo in range(0, value.size, _FLOAT_BLOCK):
                yield ("[" if lo == 0 else ",") + "\n  " + ",\n  ".join(
                    map(float.__repr__, value[lo:lo + _FLOAT_BLOCK].tolist()))
            yield "\n ]" if value.size else "[]"
    yield "\n}" if obj else "}"


def _write_json(path: Path, obj) -> None:
    """Stream ``obj`` to ``path``; a non-finite number raises and leaves no file.

    The bytes are those of ``json.dump(obj, sort_keys=True, indent=1,
    allow_nan=False)`` plus a newline, after infinite scalars become the
    strings ``"inf"``/``"-inf"``; a top-level 1-D float array is written as a list.
    The JSON goes to a temporary file in the same directory, which
    replaces ``path`` only once it is complete.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            for chunk in _json_chunks(_canon(obj)):
                fh.write(chunk)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_field(path: Path, field: GroupField) -> None:
    """Write a field artifact, whose values are finite (``GroupField`` refuses others).

    The ``re``/``im`` arrays go to the writer as arrays, with the same
    bytes as ``field.to_dict()``.
    """
    flat = field.values.ravel()
    _write_json(path, {"quadrature": field.quad.to_dict(),
                       "re": flat.real, "im": flat.imag})


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON input")


def _read_json(path, key: str) -> dict:
    """Parse the JSON object in the file at ``path``, the value of ``key``.

    A value that is not a path, a file that holds no object, and ``NaN``
    or ``Infinity`` tokens raise ``ValueError``.
    """
    if not isinstance(path, str):  # an int would open a file descriptor
        raise ValueError(f"{key} must be a file path, got {path!r}")
    with open(path) as fh:
        try:
            d = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # a NaN/Infinity token: name the file
            raise ValueError(f"{path}: {exc}") from None
    return _object(d, f"{key} file {path}")


def _tf_axis(cfg: dict, name: str) -> tuple:
    """An ``(origin, step, count)`` triple from the config object ``cfg[name]``."""
    axis = _known_keys(cfg[name], ("origin", "step", "count"), name)
    return (_finite_float(axis["origin"], f"{name}.origin"),
            _finite_float(axis["step"], f"{name}.step"), _integer(axis["count"], f"{name}.count"))


def _load_signal(cfg: dict, key: str) -> SampledSignal:
    return SampledSignal.from_dict(_read_json(cfg[key], key))


def _weight_from(cfg: dict, kind: str) -> WeightSpec:
    """The config's weight, refused unless it lives on the group ``kind``; else the unit weight."""
    if "weight" not in cfg or cfg["weight"] is None:
        return unit_weight(kind)
    weight = WeightSpec.from_dict(cfg["weight"])
    _on_group(kind, weight=weight)
    return weight


def _write_transform(out: Path, F: GroupField, weight: WeightSpec) -> int:
    """Write ``<out>.field.json`` and the weighted norms in ``<out>.stats.json``.

    The norms come first, so a weight that cannot be evaluated leaves no file.
    """
    stats = {"l1": lpm_norm(F, 1.0, weight), "l2": lpm_norm(F, 2.0, weight),
             "linf": lpm_norm(F, math.inf, weight)}
    _write_field(Path(f"{out}.field.json"), F)
    _write_json(Path(f"{out}.stats.json"), stats)
    return _EXIT_OK


def cmd_cwt(cfg: dict, out: Path) -> int:
    f, psi = _load_signal(cfg, "signal"), _load_signal(cfg, "atom")
    quad = GroupQuadrature.from_dict(cfg["quadrature"])
    weight = _weight_from(cfg, "affine")
    return _write_transform(out, cwt(f, psi, quad), weight)


def cmd_stft(cfg: dict, out: Path) -> int:
    f, g = _load_signal(cfg, "signal"), _load_signal(cfg, "window")
    grids, weight = (_tf_axis(cfg, "x_grid"), _tf_axis(cfg, "w_grid")), _weight_from(cfg, "tf")
    return _write_transform(out, stft(f, g, *grids), weight)


def cmd_admissibility(cfg: dict, out: Path) -> int:
    c = admissibility_constant(_load_signal(cfg, "atom"))
    if isinstance(c, NotAdmissible):
        rep = {"admissible": False, "dc_magnitude": c.dc_magnitude,
               "peak_magnitude": c.peak_magnitude}
    else:
        rep = {"admissible": True, "constant": c}
    _write_json(Path(f"{out}.json"), rep)
    return _EXIT_OK


def cmd_moments(cfg: dict, out: Path) -> int:
    psi = _load_signal(cfg, "signal")
    tol = _finite_float(cfg.get("tol", 1e-6), "tol")
    rep = moments(psi, cfg.get("k_max", 4)).to_dict()
    rep["vanishing_moment_count"] = vanishing_moment_count(psi, tol)
    _write_json(Path(f"{out}.json"), rep)
    return _EXIT_OK


# config keys each certify-atom kind reads, besides "atom" and "kind"
_CERTIFY_KEYS = {"wavelet": {"rho", "tol", "quadrature", "weight", "neighbourhood"},
                 "gabor": {"r", "s"}}
# wavelet keys read only together with another: tol with rho, the rest with quadrature
_CERTIFY_PARTNERS = {"tol": "rho", "weight": "quadrature", "neighbourhood": "quadrature"}


def cmd_certify_atom(cfg: dict, out: Path) -> int:
    kind = cfg.get("kind", "wavelet")
    if kind not in ("wavelet", "gabor"):
        raise ValueError(f"unknown certification kind {kind!r}")
    unread = sorted(set(cfg) & _CERTIFY_KEYS["gabor" if kind == "wavelet" else "wavelet"])
    if unread:
        raise ValueError(f"certify-atom kind {kind!r} never reads config keys {unread}")
    if kind == "wavelet" and not {"rho", "quadrature"} & set(cfg):
        raise ValueError("certify-atom kind 'wavelet' needs rho, quadrature or both")
    alone = sorted(k for k, partner in _CERTIFY_PARTNERS.items() if k in cfg and partner not in cfg)
    if alone:
        raise ValueError(f"certify-atom reads config keys {alone} only together with "
                         f"{sorted({_CERTIFY_PARTNERS[k] for k in alone})}")
    psi = _load_signal(cfg, "atom")
    rep: dict = {"kind": kind}
    passed = True
    if kind == "wavelet":
        if "quadrature" in cfg:  # read, and refused off the affine group, before any work
            quad = GroupQuadrature.from_dict(cfg["quadrature"])
            weight = _weight_from(cfg, "affine")
            U = NeighborhoodSpec.from_dict(cfg["neighbourhood"])
            _on_group("affine", chart=quad, neighbourhood=U)
        if "rho" in cfg:
            suff = wavelet_atom_sufficient(psi, _finite_float(cfg["rho"], "rho"),
                                           _finite_float(cfg.get("tol", 1e-6), "tol"))
            rep["sufficiency"] = suff.to_dict()
            passed = passed and suff.passed
        if "quadrature" in cfg:
            try:
                cert = atom_certificate(psi, quad, weight, U)
            except NotAdmissibleError as exc:
                _write_json(Path(f"{out}.json"), {"kind": kind, "error": str(exc), "pass": False})
                print(f"not admissible: {exc}", file=sys.stderr)
                return _EXIT_CERT
            rep["certificate"] = cert.to_dict()
            passed = passed and cert.passed
    else:
        suff = stft_window_sufficient(psi, _finite_float(cfg.get("r", 0.0), "r"),
                                      _finite_float(cfg.get("s", 0.0), "s"))
        rep["sufficiency"] = suff.to_dict()
        passed = suff.passed
    rep["pass"] = bool(passed)
    _write_json(Path(f"{out}.json"), rep)
    return _EXIT_OK if passed else _EXIT_CERT


def cmd_design_lattice(cfg: dict, out: Path) -> int:
    psi = _load_signal(cfg, "atom")
    quad = GroupQuadrature.from_dict(cfg["quadrature"])
    weight = _weight_from(cfg, "affine")
    sched = _known_keys(cfg.get("schedule", {}), ("alpha0", "beta0", "gamma", "max_steps"),
                        "schedule")
    try:
        result = design_lattice(
            psi, quad, weight,
            alpha0=_finite_float(sched.get("alpha0", 2.0), "schedule.alpha0"),
            beta0=_finite_float(sched.get("beta0", 1.0), "schedule.beta0"),
            gamma=_finite_float(sched.get("gamma", 0.7), "schedule.gamma"),
            max_steps=_integer(sched.get("max_steps", 20), "schedule.max_steps"),
        )
    except DesignSearchError as exc:
        _write_json(Path(f"{out}.json"), {
            "pass": False, "best_q": exc.best_q, "q_history": list(exc.q_history),
            "q_steps": list(exc.q_steps),
        })
        print(str(exc), file=sys.stderr)
        return _EXIT_CERT
    rep = result.to_dict()
    rep["pass"] = True
    _write_json(Path(f"{out}.json"), rep)
    _write_json(Path(f"{out}.lattice.json"), result.lattice(quad).to_dict())
    return _EXIT_OK


def _load_lattice(value):
    """A lattice from its config value: the object itself or the path of a JSON file."""
    d = value if isinstance(value, dict) else _read_json(value, "lattice")
    if d.get("type") == "affine":
        return AffineLattice.from_dict(d)
    if d.get("type") == "tf":
        return TFLattice.from_dict(d)
    raise ValueError("unknown lattice type")


def cmd_frame_bounds(cfg: dict, out: Path) -> int:
    g = _load_signal(cfg, "window")
    lat = _load_lattice(cfg["lattice"])
    quad = GroupQuadrature.from_dict(cfg["quadrature"])
    band = cfg.get("band", (0.1, 1.0))
    if not isinstance(band, (list, tuple)) or len(band) != 2:
        raise ValueError(f"band must be two numbers, got {band!r}")
    band = (_finite_float(band[0], "band[0]"), _finite_float(band[1], "band[1]"))
    report = frame_bounds_empirical(
        g, lat, p=_finite_float(cfg.get("p", 2.0), "p"),
        m=_weight_from(cfg, quad.kind),
        ensemble=cfg.get("ensemble", 20),
        seed=_integer(cfg.get("seed", 0), "seed"),
        quad=quad, band=band,
    )
    _write_json(Path(f"{out}.json"), report.to_dict())
    return _EXIT_OK


def cmd_reconstruct(cfg: dict, out: Path) -> int:
    tol, max_iter = _stopping_rule(_finite_float(cfg.get("tol", 1e-3), "tol"),
                                   cfg.get("max_iter", 100))
    psi = _load_signal(cfg, "atom")
    quad = GroupQuadrature.from_dict(cfg["quadrature"])
    weight = _weight_from(cfg, "affine")
    U = NeighborhoodSpec.from_dict(cfg["neighbourhood"])
    lat = _load_lattice(cfg["lattice"])
    _on_group("affine", chart=quad, neighbourhood=U, lattice=lat)
    truth = GroupField.from_dict(_read_json(cfg["field"], "field"))
    if truth.quad != quad:
        raise ValueError("field must be sampled on the chart given as quadrature")
    # the partition refuses a lattice that is not U-dense before any kernel is built
    bupu = build_bupu(lat, U, quad)
    if bupu.tiles_finer_than_cells:
        print("warning: lattice tiles are finer than chart cells; most tiles "
              "hold no chart node", file=sys.stderr)
    K = atom_kernel(psi, quad)
    cert = _certificate_from_kernel(K, weight, U)
    try:
        rec, report = neumann_reconstruct(
            bupu.active_samples(truth), bupu, K,
            tol=tol,
            max_iter=max_iter,
            certificate=cert,
            allow_uncertified=not cert.passed,
            ground_truth=truth,
        )
    except ReconstructionDivergence as exc:
        _write_json(Path(f"{out}.report.json"), exc.report.to_dict())
        print(str(exc), file=sys.stderr)
        return _EXIT_DIVERGED
    _write_field(Path(f"{out}.field.json"), rec)
    rep = report.to_dict()
    rep["certificate"] = cert.to_dict()
    _write_json(Path(f"{out}.report.json"), rep)
    return _EXIT_OK


# command: (handler, default output stem, config keys besides _COMMON_KEYS)
_COMMANDS = {
    "cwt": (cmd_cwt, "cwt", {"signal", "atom", "quadrature", "weight"}),
    "stft": (cmd_stft, "stft", {"signal", "window", "x_grid", "w_grid", "weight"}),
    "admissibility": (cmd_admissibility, "admissibility", {"atom"}),
    "moments": (cmd_moments, "moments", {"signal", "k_max", "tol"}),
    "certify-atom": (cmd_certify_atom, "certificate",
                     {"atom", "kind", *_CERTIFY_KEYS["wavelet"], *_CERTIFY_KEYS["gabor"]}),
    "design-lattice": (cmd_design_lattice, "design", {"atom", "quadrature", "weight", "schedule"}),
    "frame-bounds": (cmd_frame_bounds, "bounds", {
        "window", "lattice", "quadrature", "p", "weight", "ensemble", "band"}),
    "reconstruct": (cmd_reconstruct, "reconstruct", {
        "atom", "quadrature", "weight", "neighbourhood", "lattice", "field", "tol", "max_iter"}),
}
_COMMON_KEYS = {"version", "command", "seed", "out"}


def _stem(value) -> str:
    """The config's ``out``: one file name inside ``--out-dir``, never a path."""
    if not isinstance(value, str) or value in ("", ".", "..") or {"/", os.sep} & set(value):
        raise ValueError(f"out must be one file name, got {value!r}")
    return value


def _parse_override(value: str):
    """A JSON value, or the raw string; ``NaN``/``Infinity`` raise ``ValueError``."""
    try:
        return json.loads(value, parse_constant=_reject_constant)
    except json.JSONDecodeError:
        return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coorbit",
        description="transforms, certificates, lattice design and reconstruction",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--set", nargs=2, action="append", metavar=("KEY", "VALUE"),
                        default=[], help="override a top-level config key")
    args = parser.parse_args(argv)

    try:
        cfg = _read_json(args.config, "config") if args.config else {"version": FORMAT_VERSION}
    except (OSError, ValueError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return _EXIT_IO

    for key, value in args.set:
        try:
            cfg[key] = _parse_override(value)
        except ValueError as exc:
            print(f"invalid input: --set {key}: {exc}", file=sys.stderr)
            return _EXIT_IO
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("command", args.command)

    handler, stem, keys = _COMMANDS[args.command]
    try:
        if cfg.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"config version {cfg.get('version')!r} does not match {FORMAT_VERSION!r}")
        if cfg["command"] != args.command:
            raise ValueError(f"config command {cfg['command']!r} does not match {args.command!r}")
        _known_keys(cfg, keys | _COMMON_KEYS, f"{args.command} config")
        return handler(cfg, Path(args.out_dir) / _stem(cfg.get("out", stem)))
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (OSError, json.JSONDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except NotAdmissibleError as exc:
        print(f"not admissible: {exc}", file=sys.stderr)
        return _EXIT_CERT
    except (ValueError, KeyError, MemoryError) as exc:  # MemoryError: a chart too large
        print(f"invalid input: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
