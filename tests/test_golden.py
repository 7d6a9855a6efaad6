"""The CLI's bytes against the committed manifest (see golden.py)."""

import json

from golden import COLUMNS, MANIFEST, corpus, entry, replay


def test_cli_output_matches_the_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [e["argv"] for e in manifest] == [argv for argv, _ in corpus()[1]]
    assert {e["exit"] for e in manifest} == {0, 1, 2, 3}
    for want, got in zip(manifest, replay(tmp_path)):
        *_, code, _, err = got
        assert entry(*got) == want
        assert code == 2 or err == "", (want["argv"], err)
