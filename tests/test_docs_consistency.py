"""Documentation/implementation consistency checks.

These tests keep DESIGN.md's experiment index, the benchmark files and
the experiment functions in lock-step, so the documentation can be
trusted as a map of the code.
"""

import importlib.util
from pathlib import Path

from repro import api
from repro.__main__ import main

import repro.harness.experiments as experiments

REPO = Path(__file__).resolve().parent.parent


def test_every_cli_experiment_exists(capsys):
    # Every name `repro list` prints resolves to an experiment function.
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    catalog = api.experiment_catalog()
    assert listed == list(catalog)
    for name in listed:
        attr = catalog[name].attr
        assert hasattr(experiments, attr), f"{name} -> {attr} missing"


def test_design_md_bench_targets_exist():
    text = (REPO / "DESIGN.md").read_text()
    for line in text.splitlines():
        if "benchmarks/bench_" in line:
            for token in line.split("`"):
                if token.startswith("benchmarks/bench_") and token.endswith(".py"):
                    assert (REPO / token).exists(), token


def test_design_md_experiment_functions_exist():
    text = (REPO / "DESIGN.md").read_text()
    for line in text.splitlines():
        if "experiments." in line and "|" in line:
            for token in line.replace("`", " ").split():
                if token.startswith("harness.experiments."):
                    fn = token.split(".")[-1]
                    assert hasattr(experiments, fn), fn


def test_experiments_md_mentions_every_bench():
    """EXPERIMENTS.md names each figure/table benchmark file."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    bench_files = sorted(p.name for p in (REPO / "benchmarks").glob("bench_*.py"))
    assert bench_files, "no benchmark files found"
    missing = [name for name in bench_files if name not in text]
    assert not missing, missing


def test_readme_examples_exist():
    text = (REPO / "README.md").read_text()
    for line in text.splitlines():
        if "examples/" in line and ".py" in line:
            for token in line.split():
                if token.startswith("examples/") and token.endswith(".py"):
                    assert (REPO / token).exists(), token


def test_all_examples_importable_as_scripts():
    """Every example imports and defines ``main``, without running it.

    Importing resolves each example's ``repro`` imports, so an example
    that still names a deleted function fails here; ``main()`` sits
    behind ``if __name__ == "__main__"`` and nothing simulates.
    """
    scripts = sorted((REPO / "examples").glob("*.py"))
    assert scripts, "no examples found"
    for script in scripts:
        spec = importlib.util.spec_from_file_location(
            f"example_{script.stem}", script
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(getattr(module, "main", None)), script.name


def test_module_map_files_exist():
    """Every path-like entry in DESIGN.md's module map exists."""
    text = (REPO / "DESIGN.md").read_text()
    in_map = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_map = not in_map
            continue
        if in_map and ".py" in line:
            token = line.strip().split()[0]
            if not token.endswith(".py"):
                continue
            # resolve relative to src/repro/<subpackage>/ context lines
            matches = list(REPO.glob(f"src/repro/**/{token}"))
            assert matches, f"module map names missing file: {token}"
