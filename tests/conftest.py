import pytest


@pytest.fixture(autouse=True)
def _isolated_registry(tmp_path, monkeypatch):
    """Point the run registry at a per-test directory.

    ``repro sweep`` registers completed runs by default (under
    ``results/registry`` in the cwd), so every test gets an isolated
    registry to keep CLI tests from writing into the repo.
    """
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "_registry"))
