"""Unit tests for the environment fingerprint stored with each run record."""

from repro.obs.registry import _env_block as environment_fingerprint


class TestEnvironmentFingerprint:
    def test_required_fields(self):
        env = environment_fingerprint()
        for key in ("repro_version", "python", "implementation", "platform",
                    "machine", "cpu_count", "git_sha", "code_fingerprint"):
            assert env[key], key
        assert len(env["code_fingerprint"]) == 16

    def test_git_sha_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafef00d")
        assert environment_fingerprint()["git_sha"] == "cafef00d"
