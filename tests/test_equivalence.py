"""The halo exchanges against their recorded wire content and halo shells.

``golden.json`` was written by ``make_golden.py``; a change to the
exchange that keeps the strategies' behaviour keeps every digest.
"""

import json

from make_golden import GOLDEN, records


def test_sends_and_shells_match_the_record():
    golden = json.loads(GOLDEN.read_text())
    expected, actual = golden["records"], records()
    differ = sorted(set(expected) ^ set(actual))
    for name in sorted(set(expected) & set(actual)):
        want, got = expected[name], actual[name]
        if len(want["sends"]) != len(got["sends"]):
            differ.append(f"{name}: {len(got['sends'])} sends, recorded {len(want['sends'])}")
        differ += [f"{name} send {k}" for k, (w, g) in enumerate(zip(want["sends"], got["sends"]))
                   if w != g]
        if want["shell"] != got["shell"]:
            differ.append(f"{name} shell")
    assert not differ, f"recorded with numpy {golden['numpy']}; differing records: {differ}"
