"""The files around the library: README examples, the benchmark tracer's hooks, public names
and the config fields CI reports."""

import dataclasses
import importlib
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run():
    # in order and in one namespace, as a reader pastes them
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    # perfbench/tracing.py swaps these attributes for wrappers during a traced
    # run; a renamed or deleted one would fail only there.  Imported, not run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    sites = [(owner, attr) for _layer, owners, _count in tracing.LAYERS for owner, attr in owners]
    assert sites
    for owner, attr in sites:
        # class attributes through __dict__, as the tracer reads them
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} does not resolve"


# Names that left the library, by the module that held them; README's
# removed-names table gives each replacement.
REMOVED = {
    "bench": ("write_csv",),
    "codec": ("enumerate_codebook",),
    "lattices": ("coords_of", "second_moment"),
    "lut": ("_exact_ip", "lut_ip", "lut_ip_dithered"),
    "pipeline": ("QuantizedVector",),
    "voronoi": ("VoronoiCodeParams",),
}


# The settable values of each config class: CI prints their count.
CONFIG_FIELDS = {"ScalingConfig": ("beta0", "alpha"), "Lattice": ("family", "d")}


def test_config_classes_take_only_their_fields():
    hnlq = importlib.import_module("hnlq")
    for name, fields in CONFIG_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(getattr(hnlq, name))) == fields, name
    with pytest.raises(TypeError):
        hnlq.ScalingConfig(1.0, max_retries=5)


def test_every_public_name_resolves():
    hnlq = importlib.import_module("hnlq")
    modules = [hnlq] + [importlib.import_module(f"hnlq.{m.stem}")
                        for m in sorted((ROOT / "src" / "hnlq").glob("[!_]*.py"))]
    for mod in modules:
        names = getattr(mod, "__all__", [])
        assert len(names) == len(set(names)), f"{mod.__name__}.__all__ repeats a name"
        for name in names:
            assert hasattr(mod, name), f"{mod.__name__}.{name} is in __all__ but missing"
    for home, names in REMOVED.items():
        for name in names:
            for mod in (hnlq, importlib.import_module(f"hnlq.{home}")):
                assert not hasattr(mod, name), f"{mod.__name__}.{name} was removed"


def test_bench_pairs_exits_1_naming_every_failed_run(monkeypatch, tmp_path, capsys):
    # run_once stubbed: one clean pair, then a pair whose runs exit non-zero,
    # report a failed operation or report incorrect outputs
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    bench_pairs = importlib.import_module("bench_pairs")
    outcomes = {(1, "base"): (0, 0, True), (1, "change"): (0, 0, True),
                (2, "base"): (1, 0, True), (2, "change"): (0, 2, False)}

    def run_once(root, workload, seed, seconds):
        status, failed, correct = outcomes[seed, sides[root]]
        result = {"correct": correct, "failed": failed, "attempted": 5,
                  "metrics": {"setup_s": {"value": 0.1}}}
        return result, {"cpus": 2}, status

    base, change = tmp_path / "base", tmp_path / "change"
    for root in (base, change):
        (root / "src" / "hnlq").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    sides = {base.resolve(): "base", change.resolve(): "change"}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(base), str(change), "--name", "t", "--workloads", "w", "--out-dir", str(tmp_path)]
    assert bench_pairs.main(argv + ["--seeds", "1"]) == 0
    assert bench_pairs.main(argv + ["--seeds", "1", "2"]) == 1
    err = capsys.readouterr().err
    assert "w seed 2 base: exit 1, failed 0, correct True" in err
    assert "w seed 2 change: exit 0, failed 2, correct False" in err
    assert "seed 1" not in err
    pairs = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w"]["pairs"]
    assert [(p["base"]["exit"], p["change"]["exit"]) for p in pairs] == [(0, 0), (1, 0)]
