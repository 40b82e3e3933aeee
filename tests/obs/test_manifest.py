"""Run manifests: stable hashing, collection, sibling-file placement."""

import json

from repro.harness.runner import ExperimentSetup
from repro.obs.manifest import RunManifest, config_hash, git_revision


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_differs_on_value_change(self):
        assert config_hash({"seed": 1}) != config_hash({"seed": 2})

    def test_accepts_dataclasses(self):
        a = ExperimentSetup(num_cores=4, seed=1)
        b = ExperimentSetup(num_cores=4, seed=1)
        c = ExperimentSetup(num_cores=4, seed=2)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestCollect:
    def test_collect_captures_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_RETRIES", "4")
        monkeypatch.setenv("UNRELATED", "x")
        manifest = RunManifest.collect(
            "fig2", config=ExperimentSetup(), seed=1, argv=["run", "fig2"]
        )
        assert manifest.env.get("REPRO_CELL_RETRIES") == "4"
        assert "UNRELATED" not in manifest.env
        assert manifest.experiment == "fig2"
        assert manifest.python and manifest.repro_version

    def test_git_revision_in_repo(self):
        # The test suite runs inside the repo, so a revision must resolve.
        rev = git_revision()
        assert rev is None or len(rev.split("+")[0]) == 40

    def test_clean_run_is_complete_with_no_failures(self):
        manifest = RunManifest.collect("fig7", seed=1)
        assert manifest.status == "complete"
        assert manifest.failures == []

    def test_failures_mark_the_run_partial(self):
        failure = {
            "index": 3,
            "exc_type": "WorkerCrashError",
            "message": "worker process died",
            "attempts": 2,
            "scheme": "bimodal",
            "mix": "Q7",
        }
        manifest = RunManifest.collect("fig7", seed=1, failures=[failure])
        assert manifest.status == "partial"
        assert manifest.failures == [failure]
        dumped = manifest.to_dict()
        assert dumped["status"] == "partial"
        assert dumped["failures"][0]["exc_type"] == "WorkerCrashError"

    def test_write_next_to_artifact(self, tmp_path):
        out = tmp_path / "rows.json"
        out.write_text("{}")
        manifest = RunManifest.collect("table1", seed=7)
        path = manifest.write_next_to(out)
        assert path == tmp_path / "rows.json.manifest.json"
        loaded = json.loads(path.read_text())
        assert loaded["experiment"] == "table1"
        assert loaded["seed"] == 7
        assert loaded["config_hash"] == manifest.config_hash
