import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coorbit as cb
from coorbit import cli
from coorbit.cli import _json_chunks, _write_json, main
from coorbit.fields import lpm_norm
from coorbit.groups import GroupField


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def _json_dump_text(obj):
    """What ``json.dump`` writes for an artifact object, arrays as lists."""
    if isinstance(obj, dict):
        obj = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in obj.items()}
    return json.dumps(cli._canon(obj), sort_keys=True, indent=1, allow_nan=False) + "\n"


@pytest.fixture(autouse=True)
def artifacts_match_json_dump(monkeypatch):
    """Every artifact a test writes through the CLI has ``json.dump``'s bytes."""
    real_write = cli._write_json

    def checked_write(path, obj):
        real_write(path, obj)
        assert path.read_text() == _json_dump_text(obj), path.name

    monkeypatch.setattr(cli, "_write_json", checked_write)


@pytest.fixture()
def mexhat_file(tmp_path):
    psi = cb.mexican_hat(-16, 16, 1024)
    # unit L2 norm so the self-kernel peaks at exactly one
    psi = psi.with_values(psi.values / cb.l2_norm(psi))
    path = tmp_path / "mexhat.json"
    write_json(path, psi.to_dict())
    return path, psi


@pytest.fixture()
def gauss_file(tmp_path):
    g = cb.gaussian(-16, 16, 1024)
    path = tmp_path / "gauss.json"
    write_json(path, g.to_dict())
    return path, g


# a chart small enough for one whole reconstruct run in milliseconds, and a
# lattice and U that partition it
_TINY_AFFINE = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 16,
                "a_min": 0.5, "a_max": 2.0, "n_scales": 5, "signs": [1, -1]}
_TINY_U = {"kind": "affine", "beta": 0.5, "alpha": 1.5}
_TINY_LATTICE = {"type": "affine", "alpha": 1.5, "beta": 0.5, "j": [-2, 2], "k": [-8, 8],
                 "signs": [1, -1]}


@pytest.fixture()
def truth_file(tmp_path):
    """A field of ones on the tiny chart, as a reconstruct truth field."""
    quad = cb.GroupQuadrature.from_dict(_TINY_AFFINE)
    path = tmp_path / "truth.json"
    write_json(path, GroupField(quad, np.ones(quad.shape)).to_dict())
    return path


def quad_dict():
    return {
        "group": "affine",
        "b_lo": -16.0, "b_hi": 16.0, "n_b": 1024,
        "a_min": 0.25, "a_max": 4.0, "n_scales": 33,
        "signs": [1, -1],
    }


class TestCwtCommand:
    def test_kernel_file_and_stats(self, tmp_path, mexhat_file):
        path, psi = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "cwt",
            "signal": str(path), "atom": str(path),
            "quadrature": quad_dict(), "out": "kernel",
        })
        rc = main(["cwt", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        field = GroupField.from_dict(json.loads((tmp_path / "kernel.field.json").read_text()))
        # unit-norm atom: self-transform at the identity node equals one
        j0, i0 = 16, 512
        assert field.quad.scale_grid()[j0] == pytest.approx(1.0)
        assert field.values[0, j0, i0].real == pytest.approx(1.0, rel=1e-6)
        stats = json.loads((tmp_path / "kernel.stats.json").read_text())
        # stats sidecar comes from the same code path as the library norm
        assert stats["l2"] == lpm_norm(field, 2.0)
        assert stats["l1"] == lpm_norm(field, 1.0)
        assert stats["linf"] == lpm_norm(field, math.inf)

    def test_nan_sample_never_written(self, tmp_path, mexhat_file):
        atom_path, psi = mexhat_file
        # a signal refuses NaN, so the NaN goes into its file's dict
        data = psi.to_dict()
        data["re"][300] = math.nan
        sig_path = tmp_path / "nan_signal.json"
        write_json(sig_path, data)
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "cwt",
            "signal": str(sig_path), "atom": str(atom_path), "quadrature": quad_dict(),
        })
        out = tmp_path / "out"
        out.mkdir()
        assert main(["cwt", "--config", str(cfg), "--out-dir", str(out)]) == 2
        # nothing half-written, and no NaN token in whatever is left
        assert not any(p.name.endswith(".tmp") for p in out.iterdir())
        for path in out.iterdir():
            assert "NaN" not in path.read_text()

    def test_missing_file_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "cwt",
            "signal": str(tmp_path / "absent.json"),
            "atom": str(tmp_path / "absent.json"),
            "quadrature": quad_dict(),
        })
        assert main(["cwt", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_unknown_key_rejected(self, tmp_path, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "cwt",
            "signal": str(path), "atom": str(path),
            "quadrature": quad_dict(), "surprise": 1,
        })
        assert main(["cwt", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_version_tag_enforced(self, tmp_path, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/2", "command": "cwt",
            "signal": str(path), "atom": str(path), "quadrature": quad_dict(),
        })
        assert main(["cwt", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_determinism_byte_identical(self, tmp_path, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "cwt",
            "signal": str(path), "atom": str(path),
            "quadrature": quad_dict(), "out": "k",
        })
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["cwt", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["cwt", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "k.field.json").read_bytes() == (out2 / "k.field.json").read_bytes()
        assert (out1 / "k.stats.json").read_bytes() == (out2 / "k.stats.json").read_bytes()


class TestTransformWeight:
    """``cwt`` and ``stft`` read their weight before the transform runs."""

    @staticmethod
    def _config(command, mexhat_file, gauss_file):
        if command == "cwt":
            path = str(mexhat_file[0])
            return {"signal": path, "atom": path, "quadrature": quad_dict()}
        path = str(gauss_file[0])
        return {"signal": path, "window": path,
                "x_grid": {"origin": -4.0, "step": 0.5, "count": 17},
                "w_grid": {"origin": -2.0, "step": 0.25, "count": 17}}

    @pytest.mark.parametrize("command, weight, message", [
        ("cwt", {"family": "nope"}, "unknown weight family 'nope'"),
        ("cwt", {"family": "poly_tf", "r": 1.0, "s": 0.0}, "weight on 'tf'"),
        ("cwt", {"family": "power_scale"}, "'s'"),
        ("cwt", {"family": "symmetric_power", "rho": -1.0}, "rho must be >= 0"),
        ("stft", {"family": "nope"}, "unknown weight family 'nope'"),
        ("stft", {"family": "power_scale", "s": 1.0}, "weight on 'affine'"),
        ("stft", {"family": "poly_tf", "r": -1.0, "s": 0.0}, "exponents must be >= 0"),
        ("cwt", {"family": "power_scale", "s": 1.5}, None),
        ("stft", {"family": "poly_tf", "r": 1.0, "s": 0.5}, None),
    ])
    def test_refused_before_the_transform(self, tmp_path, capsys, monkeypatch, mexhat_file,
                                          gauss_file, command, weight, message):
        calls = []
        for name in ("cwt", "stft"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name,
                                lambda *a, _real=real, _name=name, **k: calls.append(_name)
                                or _real(*a, **k))
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": command, "weight": weight,
                         **self._config(command, mexhat_file, gauss_file)})
        out = tmp_path / "out"
        out.mkdir()
        rc = main([command, "--config", str(cfg), "--out-dir", str(out)])
        if message is None:  # a weight on the right group: one transform, two files
            assert (rc, calls) == (0, [command])
            assert sorted(p.name for p in out.iterdir()) == [f"{command}.field.json",
                                                              f"{command}.stats.json"]
            return
        assert (rc, calls) == (2, [])
        err = capsys.readouterr().err
        assert "invalid input" in err and message in err
        assert list(out.iterdir()) == []


class TestOtherCommands:
    def test_stft(self, tmp_path, gauss_file):
        path, g = gauss_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "stft",
            "signal": str(path), "window": str(path),
            "x_grid": {"origin": -4.0, "step": 0.5, "count": 17},
            "w_grid": {"origin": -2.0, "step": 0.25, "count": 17},
        })
        assert main(["stft", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        field = json.loads((tmp_path / "stft.field.json").read_text())
        assert field["quadrature"]["group"] == "tf"
        assert field["quadrature"]["n_x"] == 17
        V = GroupField.from_dict(field)
        expected = cb.stft(g, g, (-4.0, 0.5, 17), (-2.0, 0.25, 17))
        assert V.quad == expected.quad
        assert V.values.tobytes() == expected.values.tobytes()

    def test_admissibility(self, tmp_path, mexhat_file, gauss_file):
        path, _ = mexhat_file
        gpath, _ = gauss_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "admissibility",
                         "atom": str(path)})
        assert main(["admissibility", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "admissibility.json").read_text())
        assert rep["admissible"] is True
        write_json(cfg, {"version": "coorbit/1", "command": "admissibility",
                         "atom": str(gpath), "out": "gauss_adm"})
        assert main(["admissibility", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "gauss_adm.json").read_text())
        assert rep["admissible"] is False

    def test_moments(self, tmp_path, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "moments",
                         "signal": str(path), "k_max": 2})
        assert main(["moments", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "moments.json").read_text())
        assert rep["vanishing_moment_count"] == 2

    def test_certify_sufficiency_pass_and_fail(self, tmp_path, mexhat_file, gauss_file):
        path, _ = mexhat_file
        gpath, _ = gauss_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "certify-atom",
                         "atom": str(path), "kind": "wavelet", "rho": 1.0})
        assert main(["certify-atom", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        # gaussian window: certification failure -> exit 3
        write_json(cfg, {"version": "coorbit/1", "command": "certify-atom",
                         "atom": str(gpath), "kind": "wavelet", "rho": 1.0,
                         "quadrature": quad_dict(),
                         "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5},
                         "weight": {"family": "symmetric_power", "rho": 1.0}})
        assert main(["certify-atom", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3

    def test_certify_q_monotone_in_U(self, tmp_path, mexhat_file):
        path, _ = mexhat_file
        qs = {}
        for name, beta in (("small", 0.05), ("large", 0.4)):
            cfg = tmp_path / f"cfg_{name}.json"
            write_json(cfg, {
                "version": "coorbit/1", "command": "certify-atom",
                "atom": str(path), "kind": "wavelet",
                "quadrature": quad_dict(),
                "neighbourhood": {"kind": "affine", "beta": beta, "alpha": 1 + beta},
                "weight": {"family": "symmetric_power", "rho": 1.0},
                "out": name,
            })
            main(["certify-atom", "--config", str(cfg), "--out-dir", str(tmp_path)])
            qs[name] = json.loads((tmp_path / f"{name}.json").read_text())["certificate"]["q"]
        assert qs["small"] <= qs["large"]

    def test_certificate_labels_sampled_sup(self, tmp_path, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "certify-atom",
            "atom": str(path), "kind": "wavelet",
            "quadrature": {"group": "affine", "b_lo": -4.0, "b_hi": 4.0, "n_b": 64,
                           "a_min": 0.5, "a_max": 2.0, "n_scales": 9, "signs": [1, -1]},
            "neighbourhood": {"kind": "affine", "beta": 0.2, "alpha": 1.2, "n_samples": 5},
            "weight": {"family": "symmetric_power", "rho": 1.0},
        })
        main(["certify-atom", "--config", str(cfg), "--out-dir", str(tmp_path)])
        caveat = json.loads((tmp_path / "certificate.json").read_text())["certificate"]["caveat"]
        assert "chart-truncated" in caveat
        assert "osc_l1w takes the sup over the 5x5 = 25 sampled offsets of U" in caveat
        assert "lower estimate" in caveat

    def test_gabor_certify(self, tmp_path, gauss_file):
        gpath, _ = gauss_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "certify-atom",
                         "atom": str(gpath), "kind": "gabor", "r": 1.0, "s": 1.0})
        assert main(["certify-atom", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("kind, keys, named", [
        # a wavelet run with neither rho nor quadrature certifies nothing
        ("wavelet", {}, "needs rho, quadrature or both"),
        ("wavelet", {"tol": 1e-6}, "needs rho, quadrature or both"),
        # keys the kind never reads are refused, not ignored
        ("wavelet", {"rho": 1.0, "r": 1.0, "s": 1.0}, "['r', 's']"),
        ("gabor", {"rho": 1.0, "quadrature": quad_dict()}, "['quadrature', 'rho']"),
        ("gabor", {"tol": 1e-6, "weight": {"family": "symmetric_power", "rho": 1.0},
                   "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5}},
         "['neighbourhood', 'tol', 'weight']"),
        # keys a wavelet run reads only with a partner key that is missing
        ("wavelet", {"rho": 1.0, "weight": {"family": "symmetric_power", "rho": 1.0},
                     "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5}},
         "['neighbourhood', 'weight'] only together with ['quadrature']"),
        ("wavelet", {"quadrature": quad_dict(), "tol": 1e-6,
                     "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5}},
         "['tol'] only together with ['rho']"),
    ])
    def test_certify_refuses_what_it_would_not_check(self, tmp_path, capsys, mexhat_file,
                                                     kind, keys, named):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "certify-atom",
                         "atom": str(mexhat_file[0]), "kind": kind, **keys})
        out = tmp_path / "out"
        assert main(["certify-atom", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_config_command_must_match(self, tmp_path, capsys, mexhat_file):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "reconstruct",
                         "atom": str(mexhat_file[0])})
        out = tmp_path / "out"
        assert main(["admissibility", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "command 'reconstruct'" in err and "'admissibility'" in err
        assert not out.exists()
        # a config without a command runs as the subcommand
        write_json(cfg, {"version": "coorbit/1", "atom": str(mexhat_file[0])})
        assert main(["admissibility", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert json.loads((out / "admissibility.json").read_text())["admissible"]

    def test_frame_bounds_single_draw(self, tmp_path, gauss_file):
        gpath, _ = gauss_file
        cfg = tmp_path / "cfg.json"
        lattice = {"type": "tf", "generator": [[0.5, 0], [0, 0.5]],
                   "scale": 1.0, "n1": [-16, 16], "n2": [-8, 8]}
        write_json(tmp_path / "lattice.json", lattice)
        # the lattice given inline, then as the path of a file holding it
        for value, stem in ((lattice, "bounds"), (str(tmp_path / "lattice.json"), "from_path")):
            write_json(cfg, {
                "version": "coorbit/1", "command": "frame-bounds",
                "window": str(gpath), "lattice": value,
                "quadrature": {"group": "tf", "x0": -8.0, "dx": 0.25, "n_x": 65,
                                "w0": -3.0, "dw": 0.125, "n_w": 49},
                "ensemble": 1, "band": [0.2, 1.0], "out": stem,
            })
            assert main(["frame-bounds", "--config", str(cfg), "--seed", "4",
                         "--out-dir", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "bounds.json").read_text())
        assert rep["a_hat"] == rep["b_hat"]
        assert (tmp_path / "from_path.json").read_text() == (tmp_path / "bounds.json").read_text()


class TestDesignCommand:
    def test_design_writes_lattice(self, tmp_path):
        # all-moments atom on its working chart (kernel decays inside)
        psi = cb.signal_from_spectrum_profile(
            lambda w: np.exp(-(w**2 + np.where(w != 0, w**-2.0, np.inf))),
            -16, 16, 1024,
        )
        path = tmp_path / "atom.json"
        write_json(path, psi.to_dict())
        quad = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 512,
                "a_min": 0.25, "a_max": 4.0, "n_scales": 49, "signs": [1, -1]}
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "design-lattice",
            "atom": str(path), "quadrature": quad,
            "weight": {"family": "symmetric_power", "rho": 1.0},
            "schedule": {"alpha0": 2.0, "beta0": 1.0, "gamma": 0.7,
                          "max_steps": 18},
        })
        rc = main(["design-lattice", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "design.json").read_text())
        assert rep["pass"] is True and rep["certificate"]["q"] < 1.0
        assert rep["q_steps"] == [1, 2, 4, 8, 12, 14, 15, 16]
        assert len(rep["q_history"]) == len(rep["q_steps"])
        lattice = json.loads((tmp_path / "design.lattice.json").read_text())
        assert lattice["type"] == "affine"
        assert lattice["alpha"] == rep["alpha"]
        # the companion lattice's tiles of the designed U cover every chart
        # node, corners included
        bupu = cb.build_bupu(cb.AffineLattice.from_dict(lattice),
                             cb.NeighborhoodSpec.from_dict(rep["certificate"]["U"]),
                             cb.GroupQuadrature.from_dict(quad))
        assert bupu.uncovered_nodes == 0

    @pytest.mark.parametrize("a_min, a_max", [(0.25, 4.0), (1 / 16, 4.0), (0.25, 16.0)])
    def test_companion_lattice_covers_chart(self, a_min, a_max):
        alpha, beta = 1 + 0.7**6, 0.7**6
        quad = cb.build_affine_quadrature(-2, 2, 64, a_min, a_max, 25, (1, -1))
        lat = cb.DesignResult(alpha, beta, None, 7, ()).lattice(quad)
        assert cb.build_bupu(lat, cb.affine_box(beta, alpha), quad).uncovered_nodes == 0

    def test_design_cap_exit_3(self, tmp_path, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "design-lattice",
            "atom": str(path), "quadrature": quad_dict(),
            "weight": {"family": "symmetric_power", "rho": 1.0},
            "schedule": {"max_steps": 3},
        })
        assert main(["design-lattice", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 3
        rep = json.loads((tmp_path / "design.json").read_text())
        assert rep["pass"] is False and rep["q_steps"] == [1, 2, 3]
        assert len(rep["q_history"]) == 3 and rep["best_q"] == min(rep["q_history"])

    def test_schedule_that_stops_shrinking_exit_3(self, tmp_path, capsys, s0_atom):
        # alpha_n rounds to 1 from step 40 on: the search stops there with a
        # failed certification, not with a refused neighbourhood
        path = tmp_path / "atom.json"
        write_json(path, s0_atom.to_dict())
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "design-lattice",
            "atom": str(path), "quadrature": {
                "group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 512, "a_min": 0.25,
                "a_max": 4.0, "n_scales": 49, "signs": [1, -1]},
            "weight": {"family": "symmetric_power", "rho": 1.0},
            "schedule": {"alpha0": 1.0000000001, "beta0": 1e4, "gamma": 0.7,
                         "max_steps": 60},
        })
        assert main(["design-lattice", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 3
        assert "stops shrinking at step 40" in capsys.readouterr().err
        rep = json.loads((tmp_path / "design.json").read_text())
        assert rep["pass"] is False and rep["q_steps"] == list(range(1, 40))

    @pytest.mark.parametrize("key, value", [
        ("gamma", 1.5), ("gamma", 1.0), ("gamma", 0.0), ("gamma", -0.5), ("alpha0", 1.0),
        ("beta0", -1.0), ("max_steps", 0), ("max_steps", -2),
    ])
    def test_schedule_that_cannot_shrink_exit_2(self, tmp_path, capsys, monkeypatch,
                                                mexhat_file, key, value):
        # a config error, not a certification failure: gamma >= 1 would
        # search to the cap, max_steps < 1 would report a search of no step,
        # the others would fail after the kernel is built
        from coorbit import frames

        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "design-lattice",
            "atom": str(path), "quadrature": quad_dict(),
            "weight": {"family": "symmetric_power", "rho": 1.0},
            "schedule": {"max_steps": 4, key: value},
        })
        calls = []
        for name in ("atom_kernel", "oscillation"):
            real = getattr(frames, name)
            monkeypatch.setattr(frames, name,
                                lambda *a, _real=real, _name=name, **k: calls.append(_name)
                                or _real(*a, **k))
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["design-lattice", "--config", str(cfg), "--out-dir", str(out)])
        assert (rc, calls) == (2, [])
        err = capsys.readouterr().err
        assert "invalid input" in err and f"schedule.{key}" in err
        assert list(out.iterdir()) == []

    def test_set_override(self, tmp_path, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "moments",
                         "signal": str(path), "k_max": 1})
        rc = main(["moments", "--config", str(cfg), "--out-dir", str(tmp_path),
                   "--set", "k_max", "3", "--set", "out", "m3"])
        assert rc == 0
        rep = json.loads((tmp_path / "m3.json").read_text())
        assert len(rep["moments_re"]) == 4


class TestNonFiniteInputs:
    """``NaN``/``Infinity`` tokens in any JSON input exit 2 before any work."""

    def _assert_rejected(self, capsys, out, token):
        assert token in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_nan_signal_sample(self, tmp_path, capsys, mexhat_file):
        atom_path, psi = mexhat_file
        # a signal refuses NaN, so the NaN goes into its file's dict
        data = psi.to_dict()
        data["re"][300] = math.nan
        sig_path = tmp_path / "nan_signal.json"
        write_json(sig_path, data)
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "cwt",
            "signal": str(sig_path), "atom": str(atom_path), "quadrature": quad_dict(),
        })
        out = tmp_path / "out"
        out.mkdir()
        assert main(["cwt", "--config", str(cfg), "--out-dir", str(out)]) == 2
        self._assert_rejected(capsys, out, "NaN")

    def test_infinity_override(self, tmp_path, capsys, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "moments", "signal": str(path)})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["moments", "--config", str(cfg), "--out-dir", str(out),
                     "--set", "tol", "Infinity"]) == 2
        self._assert_rejected(capsys, out, "Infinity")

    def test_infinity_in_config(self, tmp_path, capsys, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "moments",
                         "signal": str(path), "tol": -math.inf})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["moments", "--config", str(cfg), "--out-dir", str(out)]) == 2
        self._assert_rejected(capsys, out, "-Infinity")

    @pytest.mark.parametrize("command, key, value", [
        ("moments", "tol", "nan"),
        ("certify-atom", "rho", "inf"),
    ])
    def test_non_finite_config_string(self, tmp_path, capsys, mexhat_file, command,
                                      key, value):
        # "nan" and "inf" are not JSON, so --set keeps them as strings
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        input_key = "signal" if command == "moments" else "atom"
        write_json(cfg, {"version": "coorbit/1", "command": command, input_key: str(path)})
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(cfg), "--out-dir", str(out),
                     "--set", key, value]) == 2
        err = capsys.readouterr().err
        assert key in err and value in err
        assert list(out.iterdir()) == []

    def test_non_finite_schedule_entry(self, tmp_path, capsys, mexhat_file):
        path, _ = mexhat_file
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "design-lattice",
                         "atom": str(path), "quadrature": quad_dict(),
                         "schedule": {"gamma": "nan"}})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["design-lattice", "--config", str(cfg), "--out-dir", str(out)]) == 2
        self._assert_rejected(capsys, out, "schedule.gamma")

    def test_nan_truth_field_before_the_kernel(self, tmp_path, capsys, monkeypatch,
                                               mexhat_file):
        atom_path, psi = mexhat_file
        quad = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 16,
                "a_min": 0.5, "a_max": 2.0, "n_scales": 5, "signs": [1, -1]}
        # a field refuses NaN, so the NaN goes into its file's dict, at node [1, 2, 7]
        data = GroupField(cb.GroupQuadrature.from_dict(quad), np.zeros((2, 5, 16))).to_dict()
        data["re"][np.ravel_multi_index((1, 2, 7), (2, 5, 16))] = math.nan
        field_path = tmp_path / "field.json"
        write_json(field_path, data)
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "reconstruct",
            "atom": str(atom_path), "quadrature": quad,
            "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5},
            "lattice": {"type": "affine", "alpha": 1.5, "beta": 0.5,
                        "j": [-2, 2], "k": [-8, 8], "signs": [1, -1]},
            "field": str(field_path),
        })

        def no_kernel(*args, **kwargs):
            raise AssertionError("the kernel was built from a non-finite input")

        monkeypatch.setattr("coorbit.cli.atom_kernel", no_kernel)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["reconstruct", "--config", str(cfg), "--out-dir", str(out)]) == 2
        self._assert_rejected(capsys, out, "NaN")


def _list_file(tmp_path):
    """The path of a JSON file that holds a list, not an object."""
    path = tmp_path / "list.json"
    path.write_text("[0.0, 1.0]")
    return str(path)


# fuzzed config values: integers and floats stay small, because ensemble,
# k_max and max_steps (a float with no fraction reads as an integer) run as
# long as they are asked to; generated strings hold no "/", so a path made
# of one stays in the cwd
_DELETE = object()
_FUZZ_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-64, 64), st.floats(-64, 64),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.text(alphabet="ab0.-_ ", max_size=6))


def _fuzz_values(keys):
    """Config values to put in place of a key, dicts keyed by the config's own keys."""
    names = st.one_of(st.sampled_from(keys), st.text(alphabet="abkns_", max_size=6))
    return st.recursive(_FUZZ_LEAF, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(names, inner, max_size=3)), max_leaves=6)


def _fuzz_like(value, strings):
    """Values of the JSON type of ``value``, so that runs also get past the type checks."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-64, 64)
    if isinstance(value, float):
        return st.floats(-64, 64)
    if isinstance(value, str):
        return st.sampled_from(strings)
    if isinstance(value, list) and value:
        return st.lists(_fuzz_like(value[0], strings), min_size=len(value) - 1,
                        max_size=len(value) + 1)
    return st.nothing()


def _entries(obj, prefix=()):
    """``(key path, value)`` of every entry of a config, nested objects included."""
    for key, value in obj.items():
        yield prefix + (key,), value
        if isinstance(value, dict):
            yield from _entries(value, prefix + (key,))


def _positive(value) -> bool:
    """Whether a config value is a positive number; a bool is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0


def _edit_config(cfg, path, pick):
    """Delete or replace the entry at ``path``, if an earlier edit left it.

    ``pick(old)`` gives the new value, or ``_DELETE``.
    """
    *parents, leaf = path
    for key in parents:
        cfg = cfg.get(key) if isinstance(cfg, dict) else None
    if isinstance(cfg, dict) and leaf in cfg:
        value = pick(cfg[leaf])
        if value is _DELETE:
            del cfg[leaf]
        else:
            cfg[leaf] = value


class TestWrongTypedConfig:
    """A config value of the wrong type exits 2, naming it, before any file is written."""

    @staticmethod
    def _configs(atom, window, truth):
        small_affine = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 64,
                        "a_min": 0.5, "a_max": 2.0, "n_scales": 9, "signs": [1, -1]}
        return {
            "cwt": {"signal": atom, "atom": atom, "quadrature": small_affine},
            "cwt/weight": {"signal": atom, "atom": atom, "quadrature": small_affine,
                           "weight": {"family": "power_scale", "s": 1.5}},
            "stft": {"signal": window, "window": window,
                     "x_grid": {"origin": -4.0, "step": 0.5, "count": 17},
                     "w_grid": {"origin": -2.0, "step": 0.25, "count": 17}},
            "moments": {"signal": atom},
            "reconstruct": {"atom": atom, "quadrature": dict(_TINY_AFFINE),
                            "neighbourhood": dict(_TINY_U), "lattice": dict(_TINY_LATTICE),
                            "field": truth, "max_iter": 2},
            "frame-bounds/affine": {
                "window": atom,
                "lattice": {"type": "affine", "alpha": 2, "beta": 1.0,
                            "j": [-1, 1], "k": [-4, 4]},
                "quadrature": small_affine, "ensemble": 1,
            },
            "certify-atom": {"atom": atom, "kind": "wavelet", "quadrature": small_affine,
                             "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5}},
            "design-lattice": {"atom": atom, "quadrature": small_affine,
                               "weight": {"family": "symmetric_power", "rho": 1.0},
                               "schedule": {"max_steps": 2}},
            "frame-bounds": {
                "window": window,
                "lattice": {"type": "tf", "generator": [[0.5, 0], [0, 0.5]],
                            "scale": 1.0, "n1": [-16, 16], "n2": [-8, 8]},
                "quadrature": {"group": "tf", "x0": -8.0, "dx": 0.25, "n_x": 65,
                               "w0": -3.0, "dw": 0.125, "n_w": 49},
                "ensemble": 1,
            },
        }

    def _run(self, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        write_json(path, {"version": "coorbit/1", "command": command, **cfg})
        out = tmp_path / "out"
        out.mkdir()
        return main([command, "--config", str(path), "--out-dir", str(out)]), out

    @staticmethod
    def _run_child(tmp_path, command, cfg):
        """``_run`` in a child ``python -m coorbit.cli`` with an empty stdin; also its stderr."""
        path = tmp_path / "cfg.json"
        write_json(path, {"version": "coorbit/1", "command": command, **cfg})
        out = tmp_path / "out"
        out.mkdir()
        src = str(Path(cb.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "coorbit.cli", command, "--config", str(path),
             "--out-dir", str(out)], env=dict(os.environ, PYTHONPATH=src),
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stderr, out

    @pytest.mark.parametrize("command, key, edit, named", [
        ("certify-atom", "neighbourhood", {"n_samples": 7.5}, "n_samples"),
        ("design-lattice", "schedule", [1], "schedule"),
        ("certify-atom", "quadrature", {"b_lo": "a"}, "b_lo"),
        ("frame-bounds", "band", 5, "band"),
        # a weight on the other group is refused before the field is written
        ("cwt/weight", "weight", {"family": "poly_tf", "r": 1.0}, "weight on 'tf'"),
        # a value of the wrong container type
        ("cwt/weight", "weight", 5, "weight must be an object"),
        ("cwt", "quadrature", 5, "quadrature must be an object"),
        ("certify-atom", "neighbourhood", 5, "neighbourhood must be an object"),
        ("stft", "x_grid", 5, "x_grid must be an object"),
        ("moments", "signal", _list_file, "signal file"),
        # an int where a path belongs would be opened as a file descriptor
        ("frame-bounds", "lattice", 5, "lattice must be a file path"),
        ("moments", "signal", 0, "signal must be a file path"),
        # a name that no branch reads
        ("certify-atom", "kind", "shearlet", "unknown certification kind 'shearlet'"),
        ("frame-bounds", "lattice", {"type": "hex"}, "unknown lattice type"),
    ])
    def test_exit_2_naming_the_value(self, tmp_path, capsys, mexhat_file, gauss_file, truth_file,
                                     command, key, edit, named):
        cfg = self._configs(str(mexhat_file[0]), str(gauss_file[0]), str(truth_file))[command]
        if callable(edit):
            edit = edit(tmp_path)
        # a dict edit changes one entry of the (valid) nested object
        cfg[key] = {**cfg[key], **edit} if isinstance(edit, dict) else edit
        if key in ("signal", "lattice") and isinstance(edit, int):
            # in this process the file descriptor would be the test runner's own
            rc, err, out = self._run_child(tmp_path, command, cfg)
        else:
            rc, out = self._run(tmp_path, command.split("/")[0], cfg)
            err = capsys.readouterr().err
        assert rc == 2
        assert named in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, key, extra", [
        ("cwt", "quadrature", {"n_scale": 9}),
        ("cwt/weight", "weight", {"rho": 2}),
        ("certify-atom", "neighbourhood", {"n_sample": 3}),
        ("reconstruct", "lattice", {"sign": [1]}),
        ("reconstruct", "lattice file", {"sign": [1]}),
        ("design-lattice", "schedule", {"gama": 0.5}),
        ("stft", "x_grid", {"cont": 17}),
        ("stft", "w_grid", {"origen": -2.0}),
        # the input files a config names: read by their type's own reader
        ("moments", "signal file", {"dtt": 5}),
        ("cwt", "atom file", {"t_0": 0.0}),
        ("stft", "window file", {"step": 0.5}),
        ("reconstruct", "field file", {"values": [1.0]}),
    ])
    def test_unknown_nested_key_exit_2_naming_it(self, tmp_path, capsys, mexhat_file,
                                                 gauss_file, truth_file, command, key, extra):
        # a key no parser reads would otherwise be dropped: the run would go
        # on with its default
        cfg = self._configs(str(mexhat_file[0]), str(gauss_file[0]), str(truth_file))[command]
        name = key.split()[0]
        if isinstance(cfg[name], str):  # a file the config names: edit a copy
            cfg[name] = json.loads(Path(cfg[name]).read_text())
        cfg[name] = {**cfg[name], **extra}
        if key.endswith("file"):
            path = tmp_path / f"edited-{name}.json"
            write_json(path, cfg[name])
            cfg[name] = str(path)
        rc, out = self._run(tmp_path, command.split("/")[0], cfg)
        err = capsys.readouterr().err
        assert rc == 2
        reader = "signal" if name in ("atom", "window") else name
        assert f"unknown {reader} keys: {sorted(extra)}" in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_subnormal_lattice_step_prints_one_line(self, tmp_path, mexhat_file, gauss_file,
                                                    truth_file):
        # the step is refused before any per-node division, so no numpy warning precedes it:
        # one too small for U, and one too small for the chart only
        cfg = self._configs(str(mexhat_file[0]), str(gauss_file[0]), str(truth_file))
        for i, beta in enumerate([5e-324, 1.5e-308]):
            cfg["reconstruct"]["lattice"]["beta"] = beta
            (tmp_path / str(i)).mkdir()
            rc, err, out = self._run_child(tmp_path / str(i), "reconstruct", cfg["reconstruct"])
            assert rc == 2
            assert len(err.splitlines()) == 1 and "the lattice step is too small" in err
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("config, key, value", [
        ("cwt", "quadrature.n_b", 64.5),
        ("stft", "x_grid.count", 17.5),
        ("stft", "x_grid.count", "17"),
        ("stft", "w_grid.step", "inf"),
        ("stft", "x_grid.origin", "nan"),
        ("frame-bounds/affine", "lattice.alpha", "2"),
        ("frame-bounds/affine", "lattice.j", [-1, True]),
        ("frame-bounds/affine", "lattice.signs", [1.5, -1]),
        ("frame-bounds/affine", "quadrature.signs", ["1", -1]),
        ("frame-bounds", "lattice.scale", "0.5"),
        ("frame-bounds", "lattice.n1", [-16, 15.5]),
        ("frame-bounds", "lattice.generator", [[0.5, "nan"], [0, 0.5]]),
        ("frame-bounds", "ensemble", 2.5),
        ("frame-bounds", "seed", "3"),
        ("certify-atom", "neighbourhood.beta", "nan"),
        ("certify-atom", "neighbourhood.alpha", True),
        ("moments", "k_max", 2.5),
        ("design-lattice", "schedule.max_steps", 3.5),
        ("reconstruct", "max_iter", 10.5),
        ("stft", "x_grid.step", "0.5"),
        ("stft", "w_grid.step", True),
        ("frame-bounds", "quadrature.dx", "0.25"),
        ("cwt/weight", "weight.s", "1.5"),
        ("cwt/weight", "weight.s", True),
        ("cwt/weight", "weight.s", "nan"),
        ("design-lattice", "weight.rho", "nan"),
        ("design-lattice", "weight.rho", False),
        # an integer beyond the float range
        pytest.param("cwt", "quadrature.n_b", 10**400, id="cwt-quadrature.n_b-beyond-float"),
    ])
    def test_config_number_exit_2_naming_the_key(self, tmp_path, capsys, mexhat_file,
                                                 gauss_file, truth_file, config, key, value):
        # numbers must be finite reals (no bools or strings), counts integers
        cfg = self._configs(str(mexhat_file[0]), str(gauss_file[0]), str(truth_file))[config]
        *parents, leaf = key.split(".")
        node = cfg
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
        rc, out = self._run(tmp_path, config.split("/")[0], cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, key, value", [
        ("moments", "t0", "0.5"),
        ("moments", "dt", True),
        ("moments", "re[5]", 1e999),
        ("cwt", "t0", True),
        ("cwt", "dt", "0.03125"),
        ("cwt", "dt", 1e999),
        ("cwt", "re[5]", "0.5"),
        ("cwt", "im[7]", False),
        ("reconstruct", "re[5]", "0.5"),
        ("reconstruct", "im[7]", True),
        ("reconstruct", "im[3]", 1e999),
    ])
    def test_input_file_number_exit_2_naming_the_key(self, tmp_path, capsys, mexhat_file,
                                                      command, key, value):
        # signal and field files hold finite real numbers, as configs do
        quad = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 64,
                "a_min": 0.5, "a_max": 2.0, "n_scales": 9, "signs": [1, -1]}
        if command == "reconstruct":
            data = GroupField(cb.GroupQuadrature.from_dict(quad), np.zeros((2, 9, 64))).to_dict()
        else:
            data = mexhat_file[1].to_dict()
        # 1e999 goes in as a literal: it parses as an infinite float, past the
        # NaN/Infinity token check
        entry = "LITERAL" if value == 1e999 else value
        name, _, index = key.partition("[")
        if index:
            data[name][int(index[:-1])] = entry
        else:
            data[name] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace('"LITERAL"', "1e999"))
        cfg = {"cwt": {"signal": str(bad), "atom": str(mexhat_file[0]), "quadrature": quad},
               "moments": {"signal": str(bad)},
               "reconstruct": {"atom": str(mexhat_file[0]), "quadrature": quad,
                               "neighbourhood": {"kind": "affine", "beta": 1.0, "alpha": 2.0},
                               "lattice": {"type": "affine", "alpha": 2.0, "beta": 1.0,
                                           "j": [-1, 1], "k": [-4, 4]},
                               "field": str(bad)}}[command]
        rc, out = self._run(tmp_path, command, cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{key} must be" in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_duplicate_lattice_signs_exit_2(self, tmp_path, capsys, mexhat_file):
        cfg = {
            "window": str(mexhat_file[0]),
            "lattice": {"type": "affine", "alpha": 2.0, "beta": 1.0,
                        "j": [-1, 1], "k": [-4, 4], "signs": [1, 1]},
            "quadrature": {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 64,
                           "a_min": 0.5, "a_max": 2.0, "n_scales": 9, "signs": [1, -1]},
            "ensemble": 1,
        }
        rc, out = self._run(tmp_path, "frame-bounds", cfg)
        assert rc == 2
        assert "duplicate sign branch" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("stem", ["../escaped", "sub/dir", "", ".", "..", 5, True, "run.v2"])
    def test_out_is_one_file_name(self, tmp_path, capsys, mexhat_file, stem):
        # a stem that is not one file name would write outside --out-dir or
        # into a hidden or nested file; a dotted name is still one file name
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "admissibility",
                         "atom": str(mexhat_file[0]), "out": stem})
        out = tmp_path / "od"
        before = set(tmp_path.rglob("*"))
        rc = main(["admissibility", "--config", str(cfg), "--out-dir", str(out)])
        new = set(tmp_path.rglob("*")) - before
        if stem == "run.v2":
            assert rc == 0 and new == {out, out / "run.v2.json"}
            return
        err = capsys.readouterr().err
        assert rc == 2
        assert "invalid input: out must be" in err and "Traceback" not in err
        assert new == set()

    def test_memory_error_exit_2(self, tmp_path, capsys, monkeypatch, mexhat_file, gauss_file,
                                 truth_file):
        # a chart too large to allocate (say quadrature.n_b = 10**12); the
        # allocation is simulated, since a real one can succeed on an
        # overcommitting host and be killed later
        def cwt_out_of_memory(*args):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr("coorbit.cli.cwt", cwt_out_of_memory)
        cfg = self._configs(str(mexhat_file[0]), str(gauss_file[0]), str(truth_file))["cwt"]
        rc, out = self._run(tmp_path, "cwt", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "invalid input: Unable to allocate 14.6 TiB for an array\n"
        assert list(out.iterdir()) == []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_config_exits_with_a_documented_code(self, tmp_path, monkeypatch, mexhat_file,
                                                         gauss_file, truth_file, data):
        # one or two entries of a working config, nested ones included, are
        # deleted or replaced: the run exits 0, 2, 3 or 4, never raises, and
        # writes nothing when it exits 2
        monkeypatch.chdir(tmp_path)
        configs = self._configs(str(mexhat_file[0]), str(gauss_file[0]), str(truth_file))
        name = data.draw(st.sampled_from(sorted(configs)))
        command = name.split("/")[0]
        cfg = configs[name]
        paths = sorted(path for path, _ in _entries(cfg))
        values = _fuzz_values(sorted({path[-1] for path in paths}))
        strings = sorted({v for config in configs.values() for _, v in _entries(config)
                          if isinstance(v, str)})

        def pick(old):
            # a positive number scaled by 1e-9 probes tiny steps, as a lattice step of 1e-9
            tiny = [st.just(old * 1e-9)] if _positive(old) else []
            return data.draw(st.one_of(st.just(_DELETE), _fuzz_like(old, strings), values, *tiny))

        for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2,
                                       unique=True)):
            _edit_config(cfg, path, pick)
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        write_json(work / "cfg.json", {"version": "coorbit/1", "command": command, **cfg})
        (work / "out").mkdir()
        rc = main([command, "--config", str(work / "cfg.json"), "--out-dir", str(work / "out")])
        assert rc in (0, 2, 3, 4)
        if rc == 2:
            assert list((work / "out").iterdir()) == []

    @pytest.mark.parametrize("name, path", [
        pytest.param(name, path, id=f"{name}:{'.'.join(path)}")
        for name, cfg in sorted(_configs("atom", "window", "truth").items())
        for path, value in _entries(cfg) if _positive(value)])
    def test_tiny_positive_number_exits_with_a_documented_code(
            self, tmp_path, monkeypatch, mexhat_file, gauss_file, truth_file, name, path):
        # the fuzzer's tiny-step mutation on every positive number, one at a
        # time: its 200 draws need not reach the one that hung, a lattice
        # step of 1e-9 in reconstruct; then the number replaced by the
        # smallest subnormal, which overflows a lattice step's index range
        # and a chart's finest Haar weight
        monkeypatch.chdir(tmp_path)
        for tag, edit in (("scaled", lambda old: old * 1e-9), ("subnormal", lambda old: 5e-324)):
            cfg = self._configs(str(mexhat_file[0]), str(gauss_file[0]), str(truth_file))[name]
            _edit_config(cfg, path, edit)
            work = tmp_path / tag
            work.mkdir()
            rc, out = self._run(work, name.split("/")[0], cfg)
            assert rc in (0, 2, 3, 4), tag
            if rc == 2:
                assert list(out.iterdir()) == [], tag


class TestNonFiniteOutputs:
    """A non-finite value in an output array exits 2 and writes no file."""

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_field_value_refused(self, tmp_path, monkeypatch, capsys, mexhat_file,
                                          part, value):
        path, _ = mexhat_file
        real_cwt = cb.cwt

        def cwt_with_inf(*args):
            W = real_cwt(*args)
            vals = W.values.copy()
            vals[1, 4, 17] = complex(value, 0.0) if part == "re" else complex(0.0, value)
            return W.with_values(vals)

        monkeypatch.setattr("coorbit.cli.cwt", cwt_with_inf)
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": "cwt",
                         "signal": str(path), "atom": str(path), "quadrature": quad_dict()})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["cwt", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_scalar_report_values_keep_inf(self, tmp_path):
        path = tmp_path / "report.json"
        _write_json(path, {"frac": math.inf, "history": [0.5, -math.inf], "ok": [0.25, 1.0]})
        assert json.loads(path.read_text()) == {
            "frac": "inf", "history": [0.5, "-inf"], "ok": [0.25, 1.0]}


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16,
                   -1e16, 1e-300, 1.7976931348623157e308, 0.1, 1 / 3, 123456789.0]
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))
# an artifact's top-level values: 1-D float arrays, among them an empty
# one and one longer than a block, and report values nested in lists and
# dicts, where an infinity becomes a string
_float_arrays = st.one_of(
    st.lists(_floats, max_size=40).map(lambda v: np.array(v, dtype=float)),
    st.builds(lambda n: np.resize(np.array(_SPECIAL_FLOATS), n),
              st.sampled_from([0, cli._FLOAT_BLOCK + 1])))
_report_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _floats, st.text(max_size=5),
              st.sampled_from([math.inf, -math.inf])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


class TestJsonWriter:
    """The writer's text equals ``json.dumps(..., sort_keys=True, indent=1)``."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.dictionaries(st.text(max_size=4), st.one_of(_float_arrays, _report_values),
                           max_size=5))
    def test_artifacts(self, obj):
        # what _write_json writes before its final newline
        assert "".join(_json_chunks(cli._canon(obj))) + "\n" == _json_dump_text(obj)

    def test_array_longer_than_one_block(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(2 * cli._FLOAT_BLOCK + 5)
        values[:len(_SPECIAL_FLOATS)] = _SPECIAL_FLOATS
        obj = {"quadrature": {"n": 3}, "re": values, "im": values[::-1].copy()}
        assert "".join(_json_chunks(obj)) == json.dumps(
            {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in obj.items()},
            sort_keys=True, indent=1, allow_nan=False)

    def test_non_str_keys_and_empty_containers(self):
        obj = {"a": {2: [1.5], 1: {}}, "b": [[], (), [{}]], "c": np.array([])}
        ref = json.dumps({"a": {2: [1.5], 1: {}}, "b": [[], [], [{}]], "c": []},
                         sort_keys=True, indent=1)
        assert "".join(_json_chunks(obj)) == ref

    def test_numpy_and_python_infinities_read_alike(self, tmp_path):
        values = {"np": np.float64(-np.inf), "py": math.inf, "list": [np.float64(np.inf)],
                  "half": np.float32(0.5), "count": np.int64(3)}
        assert cli._canon(values) == {"np": "-inf", "py": "inf", "list": ["inf"],
                                      "half": 0.5, "count": 3}
        path = tmp_path / "report.json"
        _write_json(path, values)
        assert json.loads(path.read_text()) == cli._canon(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_array_refused(self, tmp_path, bad):
        path = tmp_path / "f.json"
        with pytest.raises(ValueError):
            _write_json(path, {"re": np.array([1.0, bad])})
        with pytest.raises(ValueError):
            _write_json(path, {"re": [1.0, math.nan]})
        assert list(tmp_path.iterdir()) == []


class TestReconstructCommand:
    def test_reconstruct_kernel_samples(self, tmp_path, monkeypatch, capsys):
        # in-space field (the kernel itself): final error within tolerance
        psi = cb.signal_from_spectrum_profile(
            lambda w: np.exp(-(w**2 + np.where(w != 0, w**-2.0, np.inf))),
            -16, 16, 1024,
        )
        psi_path = tmp_path / "atom.json"
        write_json(psi_path, psi.to_dict())
        quad = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 256,
                "a_min": 0.25, "a_max": 4.0, "n_scales": 49, "signs": [1, -1]}
        psin = cb.normalize_admissible(psi)
        qobj = cb.GroupQuadrature.from_dict(quad)
        K = cb.cwt(psin, psin, qobj)
        field_path = tmp_path / "field.json"
        write_json(field_path, K.to_dict())
        beta = 0.7**15
        alpha = 1 + beta
        j_span = int(np.ceil(np.log(4) / np.log(alpha)))
        k_span = int(np.ceil(2 / (beta * 0.25)))
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "reconstruct",
            "atom": str(psi_path), "quadrature": quad,
            "weight": {"family": "symmetric_power", "rho": 1.0},
            "neighbourhood": {"kind": "affine", "beta": beta, "alpha": alpha},
            "lattice": {"type": "affine", "alpha": alpha, "beta": beta,
                         "j": [-j_span, j_span], "k": [-k_span, k_span],
                         "signs": [1, -1]},
            "field": str(field_path), "tol": 1e-4, "max_iter": 100,
        })
        # the self-kernel is built once, for the certificate and the loop
        calls = []
        cwt_once = cb.voice.cwt

        def counting_cwt(*args, **kwargs):
            calls.append(1)
            return cwt_once(*args, **kwargs)

        monkeypatch.setattr(cb.voice, "cwt", counting_cwt)
        # the loop receives the active tiles' coefficients, not the whole lattice's
        received = []
        reconstruct_once = cli.neumann_reconstruct

        def recording_reconstruct(samples, *args, **kwargs):
            received.append(np.shape(samples))
            return reconstruct_once(samples, *args, **kwargs)

        monkeypatch.setattr(cli, "neumann_reconstruct", recording_reconstruct)
        rc = main(["reconstruct", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 1
        rep = json.loads((tmp_path / "reconstruct.report.json").read_text())
        assert rep["converged"] is True
        # the fixed-point gap scales like tol * q/(1-q) at this certificate's q
        assert rep["final_relative_error"] <= 1e-2
        assert rep["certificate"]["pass"] is True
        # tile counts read off the partition's node-to-tile map
        lat = cb.AffineLattice(alpha, beta, -j_span, j_span, -k_span, k_span, (1, -1))
        bupu = cb.build_bupu(lat, cb.affine_box(beta, alpha), qobj)
        assert rep["lattice_points"] == lat.n_points == 2 * (2 * j_span + 1) * (2 * k_span + 1)
        assert rep["active_tiles"] == bupu.active_tiles.size
        assert 0 < rep["active_tiles"] < rep["lattice_points"]
        assert received == [(rep["active_tiles"],)]
        assert rep["uncovered_nodes"] == int(np.sum(bupu.counts == 0))
        # ln(alpha) = 0.0047 against du = 0.058: one warning on stderr
        assert rep["tiles_finer_than_cells"] is True
        assert capsys.readouterr().err.count("finer than chart cells") == 1

    def test_divergence_exit_4(self, tmp_path, mexhat_file, monkeypatch, capsys):
        # a kernel scaled far above idempotence makes the loop expansive, as in
        # test_divergence_detection: exit 4, the report written, no field
        atom, psi = mexhat_file
        quad = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 64,
                "a_min": 0.5, "a_max": 2.0, "n_scales": 9, "signs": [1, -1]}
        K = cb.atom_kernel(psi, cb.GroupQuadrature.from_dict(quad))
        monkeypatch.setattr(cli, "atom_kernel", lambda *_: K.with_values(25.0 * K.values))
        field_path = tmp_path / "field.json"
        write_json(field_path, K.to_dict())
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "reconstruct",
            "atom": str(atom), "quadrature": quad,
            "neighbourhood": {"kind": "affine", "beta": 0.2, "alpha": 1.2},
            "lattice": {"type": "affine", "alpha": 1.2, "beta": 0.2,
                        "j": [-4, 4], "k": [-22, 22], "signs": [1, -1]},
            "field": str(field_path),
        })
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg), "--out-dir", str(out)]) == 4
        assert "residual grew" in capsys.readouterr().err
        rep = json.loads((out / "reconstruct.report.json").read_text())
        assert rep["converged"] is False and rep["iterations"] >= 3
        assert not (out / "reconstruct.field.json").exists()

    @pytest.mark.parametrize("refused, message", [
        (None, None),
        ({"field_chart": {"b_lo": -1.5, "b_hi": 2.5}}, "field"),  # same shape, shifted
        ({"field_chart": {"n_b": 8}}, "field"),
        ({"lattice": {"type": "tf", "generator": [[0.5, 0.0], [0.0, 0.5]], "scale": 1.0,
                      "n1": [-4, 4], "n2": [-4, 4]}}, "lattice on 'tf'"),
        ({"lattice": {"type": "affine", "alpha": 4.0, "beta": 2.0, "j": [-2, 2], "k": [-8, 8],
                      "signs": [1, -1]}}, "not U-dense"),
    ], ids=["accepted", "field_shifted", "field_coarser", "tf_lattice", "lattice_not_dense"])
    def test_refused_before_the_kernel(self, tmp_path, mexhat_file, monkeypatch, capsys,
                                       refused, message):
        # a truth field on another chart, or a lattice the partition refuses,
        # exits 2 before the kernel and its certificate are built
        atom, _ = mexhat_file
        quad = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 16,
                "a_min": 0.5, "a_max": 2.0, "n_scales": 5, "signs": [1, -1]}
        refused = refused or {}
        field_quad = cb.GroupQuadrature.from_dict({**quad, **refused.get("field_chart", {})})
        field_path = tmp_path / "field.json"
        write_json(field_path, GroupField(field_quad, np.ones(field_quad.shape)).to_dict())
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "reconstruct",
            "atom": str(atom), "quadrature": quad,
            "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5},
            "lattice": refused.get("lattice", {"type": "affine", "alpha": 1.5, "beta": 0.5,
                                               "j": [-2, 2], "k": [-8, 8], "signs": [1, -1]}),
            "field": str(field_path), "max_iter": 2,
        })
        calls = []
        kernel_once = cli.atom_kernel

        def counting_kernel(*args, **kwargs):
            calls.append(1)
            return kernel_once(*args, **kwargs)

        monkeypatch.setattr(cli, "atom_kernel", counting_kernel)
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["reconstruct", "--config", str(cfg), "--out-dir", str(out)])
        if message is None:
            assert (rc, calls) == (0, [1])
            return
        assert (rc, calls) == (2, [])
        err = capsys.readouterr().err
        assert "invalid input" in err and message in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_exit_2(self, tmp_path, mexhat_file, monkeypatch, capsys,
                                       max_iter):
        # a cap that runs no iteration would write an unconverged report
        # and the data field as the result
        from coorbit import frames

        atom, _ = mexhat_file
        quad = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 16,
                "a_min": 0.5, "a_max": 2.0, "n_scales": 5, "signs": [1, -1]}
        field_path = tmp_path / "field.json"
        write_json(field_path, GroupField(cb.GroupQuadrature.from_dict(quad),
                                          np.ones((2, 5, 16))).to_dict())
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "reconstruct",
            "atom": str(atom), "quadrature": quad,
            "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5},
            "lattice": {"type": "affine", "alpha": 1.5, "beta": 0.5,
                        "j": [-2, 2], "k": [-8, 8], "signs": [1, -1]},
            "field": str(field_path), "max_iter": max_iter,
        })
        builds = []

        class Counted(frames.KernelOperator):
            def __init__(self, *args, **kwargs):
                builds.append("KernelOperator")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(frames, "KernelOperator", Counted)
        # refused on reading, before the partition, the kernel and the certificate
        for name in ("build_bupu", "atom_kernel"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name,
                                lambda *a, _real=real, _name=name, **k: builds.append(_name)
                                or _real(*a, **k))
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["reconstruct", "--config", str(cfg), "--out-dir", str(out)])
        assert (rc, builds) == (2, [])
        assert "max_iter must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("tol", [-1, -1e-300])
    def test_negative_tol_exit_2_before_any_file_is_read(self, tmp_path, capsys, tol):
        # no residual meets a negative tol, so every iteration would run;
        # the atom and field paths do not exist, so any read would say so
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "reconstruct",
            "atom": str(tmp_path / "no_atom.json"), "quadrature": dict(_TINY_AFFINE),
            "neighbourhood": dict(_TINY_U), "lattice": str(tmp_path / "no_lattice.json"),
            "field": str(tmp_path / "no_field.json"), "tol": tol, "max_iter": 25,
        })
        out = tmp_path / "out"
        out.mkdir()
        assert main(["reconstruct", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert f"tol must be >= 0, got {float(tol)}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_gaussian_atom_not_admissible(self, tmp_path, gauss_file, capsys):
        # a Gaussian has a nonzero mean: exit 3, and no report is written
        gpath, _ = gauss_file
        quad = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 16,
                "a_min": 0.5, "a_max": 2.0, "n_scales": 5, "signs": [1, -1]}
        field_path = tmp_path / "field.json"
        write_json(field_path, GroupField(cb.GroupQuadrature.from_dict(quad),
                                          np.zeros((2, 5, 16))).to_dict())
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {
            "version": "coorbit/1", "command": "reconstruct",
            "atom": str(gpath), "quadrature": quad,
            "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5},
            "lattice": {"type": "affine", "alpha": 1.5, "beta": 0.5,
                        "j": [-2, 2], "k": [-4, 4], "signs": [1, -1]},
            "field": str(field_path),
        })
        out = tmp_path / "out"
        out.mkdir()
        assert main(["reconstruct", "--config", str(cfg), "--out-dir", str(out)]) == 3
        assert "not admissible" in capsys.readouterr().err
        assert list(out.iterdir()) == []


_TINY_TF = {"group": "tf", "x0": -2.0, "dx": 0.25, "n_x": 17, "w0": -2.0, "dw": 0.25, "n_w": 17}
_TF_U = {"kind": "tf", "beta_x": 0.5, "beta_w": 0.5}
_TF_LATTICE = {"type": "tf", "generator": [[0.5, 0.0], [0.0, 0.5]], "scale": 1.0,
               "n1": [-4, 4], "n2": [-4, 4]}


class TestRefusedBeforeAnyWork:
    """A config on the wrong group, or one a command cannot read, computes nothing."""

    _STAGES = ("wavelet_atom_sufficient", "atom_kernel", "oscillation", "build_bupu", "cwt")

    @pytest.mark.parametrize("command, keys, message", [
        ("certify-atom", {"rho": 1.0, "quadrature": _TINY_AFFINE, "neighbourhood": _TF_U},
         "neighbourhood on 'tf' applied to the 'affine' group"),
        ("certify-atom", {"rho": 1.0, "quadrature": _TINY_TF, "neighbourhood": _TF_U},
         "chart on 'tf' applied to the 'affine' group"),
        ("certify-atom", {"rho": 1.0, "quadrature": _TINY_AFFINE, "neighbourhood": _TINY_U,
                          "weight": {"family": "poly_tf", "r": 1.0, "s": 0.0}},
         "weight on 'tf' applied to the 'affine' group"),
        ("certify-atom", {"rho": 1.0, "quadrature": {**_TINY_AFFINE, "n_b": "a"},
                          "neighbourhood": _TINY_U}, "quadrature.n_b"),
        ("certify-atom", {"rho": 1.0, "quadrature": _TINY_AFFINE,
                          "neighbourhood": {**_TINY_U, "n_samples": 7.5}}, "n_samples"),
        ("design-lattice", {"quadrature": _TINY_TF,
                            "weight": {"family": "symmetric_power", "rho": 1.0}},
         "chart on 'tf' applied to the 'affine' group"),
        ("reconstruct", {"quadrature": _TINY_TF, "neighbourhood": _TF_U,
                         "lattice": _TF_LATTICE, "max_iter": 2},
         "chart on 'tf' applied to the 'affine' group"),
        ("frame-bounds", {"p": 0.5}, "p must lie in [1, inf]"),
        ("frame-bounds", {"p": 0}, "p must lie in [1, inf]"),
        ("frame-bounds", {"lattice": _TF_LATTICE}, "lattice on 'tf' applied to the 'affine' group"),
        ("certify-atom", {"rho": 1.0, "quadrature": _TINY_AFFINE, "neighbourhood": _TINY_U},
         None),
    ], ids=["certify/tf_U", "certify/tf_chart", "certify/tf_weight", "certify/bad_chart",
            "certify/bad_U", "design/tf_chart", "reconstruct/tf", "bounds/p_half",
            "bounds/p_zero", "bounds/tf_lattice", "certify/accepted"])
    def test_exit_2_with_no_transform_kernel_or_partition(self, tmp_path, capsys, monkeypatch,
                                                         mexhat_file, command, keys, message):
        from coorbit import frames

        calls = []
        for module in (cli, frames):
            for name in self._STAGES:
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(module, name,
                                        lambda *a, _real=real, _name=name, **k:
                                        calls.append(_name) or _real(*a, **k))
        atom = str(mexhat_file[0])
        truth = tmp_path / "truth.json"
        write_json(truth, GroupField(cb.GroupQuadrature.from_dict(_TINY_TF),
                                     np.ones((17, 17))).to_dict())
        base = {"certify-atom": {"atom": atom},
                "design-lattice": {"atom": atom},
                "reconstruct": {"atom": atom, "field": str(truth)},
                "frame-bounds": {"window": atom, "quadrature": _TINY_AFFINE,
                                 "lattice": _TINY_LATTICE, "ensemble": 1}}[command]
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"version": "coorbit/1", "command": command, **base, **keys})
        out = tmp_path / "out"
        out.mkdir()
        rc = main([command, "--config", str(cfg), "--out-dir", str(out)])
        err = capsys.readouterr().err
        if message is None:  # the same counting sees an accepted run's work
            assert rc in (0, 3) and calls == ["wavelet_atom_sufficient", "atom_kernel",
                                              "oscillation"]
            return
        assert (rc, calls) == (2, [])
        assert "invalid input" in err and message in err
        assert list(out.iterdir()) == []


def test_commands_load_no_scipy(tmp_path):
    # cwt, then design-lattice and reconstruct on its field, in one fresh
    # interpreter: no command, nor a lazy import inside one, loads scipy
    psi = cb.signal_from_spectrum_profile(
        lambda w: np.exp(-(w**2 + np.where(w != 0, w**-2.0, np.inf))),
        -16, 16, 1024,
    )
    atom = tmp_path / "atom.json"
    write_json(atom, psi.to_dict())
    quad = {"group": "affine", "b_lo": -2.0, "b_hi": 2.0, "n_b": 64,
            "a_min": 0.25, "a_max": 4.0, "n_scales": 17, "signs": [1, -1]}
    weight = {"family": "symmetric_power", "rho": 1.0}
    out = tmp_path / "out"
    configs = {
        "cwt": {"signal": str(atom), "atom": str(atom), "quadrature": quad, "out": "truth"},
        "design-lattice": {"atom": str(atom), "quadrature": quad, "weight": weight,
                           "schedule": {"max_steps": 18}},
        "reconstruct": {
            "atom": str(atom), "quadrature": quad, "weight": weight,
            "neighbourhood": {"kind": "affine", "beta": 0.5, "alpha": 1.5},
            "lattice": {"type": "affine", "alpha": 1.5, "beta": 0.5,
                        "j": [-4, 4], "k": [-16, 16], "signs": [1, -1]},
            "field": str(out / "truth.field.json"),
        },
    }
    argvs = []
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        write_json(path, {"version": "coorbit/1", "command": command, **cfg})
        argvs.append([command, "--config", str(path), "--out-dir", str(out)])
    script = (
        "import json, sys\n"
        "from coorbit.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, scipy]))\n"
    )
    src = str(Path(cb.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300, check=True)
    codes, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert scipy_modules == []
