"""Every CLI run in tests/digests.json writes the same bytes again.

The manifest pins the exit code, the stderr digest and every artifact
digest of the 7 built-ins under all 4 subcommands and of two generated
64-node rings (see tests/digests.py). A change that moves an artifact on
purpose rewrites the manifest with `PYTHONPATH=src python tests/digests.py`
and lists the digests that moved.
"""

import json

import digests


def test_runs_match_the_manifest():
    want = json.loads(digests.MANIFEST.read_text())
    assert digests.versions() == want["versions"], (
        "the manifest was written under %s, this run is under %s"
        % (want["versions"], digests.versions()))
    got = digests.run_all()
    assert sorted(got) == sorted(want["runs"])
    differ = []
    for run, entry in sorted(want["runs"].items()):
        new = got[run]
        differ += ["%s: %s" % (run, key) for key in ("exit", "stderr") if new[key] != entry[key]]
        differ += ["%s: %s" % (run, name)
                   for name in sorted(set(entry["files"]) | set(new["files"]))
                   if entry["files"].get(name) != new["files"].get(name)]
    assert not differ, "differs from the manifest: " + ", ".join(differ)
