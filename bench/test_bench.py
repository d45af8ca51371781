"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import coorbit  # noqa: E402
import coorbit.cli  # noqa: E402
import coorbit.frames  # noqa: E402
import coorbit.lattices  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, parent, start, end):
    return {"name": name, "parent": parent, "start": start, "end": end, "counts": {}}


def test_self_time_is_span_minus_union_of_children():
    tree = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),        # overlaps b: union of a and b is [1, 5]
        _span("b", 0, 3.0, 5.0),
        _span("c", 0, 7.0, 8.0),
        _span("a.child", 1, 1.5, 2.0),  # a grandchild does not count against root
        _span("a.child", 1, 2.5, 3.5),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 4 - 1, 3 - 1.5, 2, 1, 0.5, 1.0])
    summary = spans.summarize(tree)
    assert summary["a.child"]["calls"] == 2
    assert summary["a.child"]["s"] == pytest.approx(1.5)
    assert summary["root"]["self_s"] == pytest.approx(5.0)


def test_nested_same_name_spans_count_once_inclusive():
    tree = [_span("f", None, 0.0, 4.0), _span("f", 0, 1.0, 2.0)]
    summary = spans.summarize(tree)
    assert summary["f"]["s"] == pytest.approx(4.0)
    assert summary["f"]["self_s"] == pytest.approx(4.0)


def test_wrappers_exist_only_while_installed(tmp_path):
    original = coorbit.lattices.sample_field
    assert spans.wrapped_names() == []
    recorder = spans.Recorder()
    with spans.install(recorder):
        names = set(spans.wrapped_names())
        # a function imported by name is wrapped at every name callers resolve
        for where in ("coorbit", "coorbit.lattices", "coorbit.frames", "coorbit.cli"):
            assert f"{where}.sample_field" in names
        assert "coorbit.groups.GroupField.from_dict" in names
        assert coorbit.frames.sample_field is coorbit.lattices.sample_field
        assert coorbit.lattices.sample_field is not original

        psi = coorbit.mexican_hat(-8, 8, 128)
        atom = tmp_path / "atom.json"
        atom.write_text(json.dumps(psi.to_dict()))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": "coorbit/1", "command": "cwt", "signal": str(atom),
            "atom": str(atom), "out": "k",
            "quadrature": {"group": "affine", "b_lo": -8.0, "b_hi": 8.0, "n_b": 128,
                           "a_min": 0.5, "a_max": 2.0, "n_scales": 5, "signs": [1, -1]},
        }))
        assert coorbit.cli.main(["cwt", "--config", str(cfg),
                                 "--out-dir", str(tmp_path / "out")]) == 0
    assert spans.wrapped_names() == []
    assert coorbit.lattices.sample_field is original
    assert coorbit.frames.sample_field is original

    by_name = {s["name"]: s for s in recorder.spans}
    assert recorder.spans[by_name["voice.cwt"]["parent"]]["name"] == "cli.main"
    n_spans = len(recorder.spans)
    coorbit.cli.main(["cwt", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert len(recorder.spans) == n_spans


def test_counters_come_from_arguments_and_results():
    quad = coorbit.build_affine_quadrature(-2, 2, 16, 0.5, 2.0, 5, (1, -1))
    field = coorbit.GroupField(quad, np.ones(quad.shape))
    lat = coorbit.AffineLattice(2.0, 1.0, -1, 1, -4, 4, (1, -1))
    recorder = spans.Recorder()
    with spans.install(recorder):
        seq = coorbit.lattices.sample_field(field, lat)
    summary = spans.summarize(recorder.spans)
    counts = summary["lattices.sample_field"]["counts"]
    assert counts == {"points": lat.n_points, "in_chart": int(np.sum(seq.in_chart))}
    assert summary["groups.affine_field_interpolate"]["counts"]["points"] == lat.n_points


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_strict_parser_rejects_non_finite_tokens(token, tmp_path):
    text = '{"re": [1.0, %s]}' % token
    assert json.loads(text)  # the standard parser lets it through
    with pytest.raises(ValueError):
        workloads.loads_strict(text)
    out = tmp_path / "out"
    out.mkdir()
    (out / "x.field.json").write_text(text)
    _, _, failure = workloads._check_artifacts(out)
    assert failure is not None and token in failure


def test_strict_parser_accepts_finite_json():
    assert workloads.loads_strict('{"re": [1.0, -2.5e-300], "s": "inf"}') == {
        "re": [1.0, -2.5e-300], "s": "inf"}


def test_benchmark_json_names_what_run_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    per_layer = [(m, u) for m, u, _, _ in run.PER_LAYER] + run.DERIVED_PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
