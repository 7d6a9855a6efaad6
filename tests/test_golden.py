"""The CLI's bytes against the committed manifest (see golden.py)."""

import json

from golden import COLUMNS, MANIFEST, changes, corpus, entry, replay


def test_cli_output_matches_the_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [e["argv"] for e in manifest] == [argv for argv, _ in corpus()[1]]
    assert {e["exit"] for e in manifest} == {0, 1, 2, 3}
    for want, got in zip(manifest, replay(tmp_path)):
        *_, code, _, err = got
        assert entry(*got) == want
        assert code == 2 or err == "", (want["argv"], err)


def test_regeneration_lists_every_entry_that_moved():
    a = {"argv": ["gen"], "exit": 2, "stdout_sha256": "0", "stderr": "x"}
    b = {"argv": ["runs"], "exit": 0, "stdout_sha256": "1"}
    old = [a, b, a, {"argv": ["gone"], "exit": 0, "stdout_sha256": "2"}]
    new = [a, {**b, "stdout_sha256": "3"}, {**a, "exit": 3, "stderr": None},
           {"argv": ["new"], "exit": 0, "stdout_sha256": "4"}]
    assert changes(old, new) == [
        'removed: ["gone"]',
        'changed stdout_sha256: ["runs"]',
        'changed exit, stderr: ["gen"]',
        'added: ["new"]',
    ]
    assert changes(new, new) == []
