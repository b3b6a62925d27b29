"""Compare benchmark records of two commits, like with like.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the standard output of one or more ``run.py`` runs.
Records are compared only when their ``config_id`` matches; a file
whose records carry another config is refused (exit 2).  For each
host metric of the records the medians of both sides are printed with
the relative change, against its bound when ``BENCHMARK.json`` lists
it.  Sim metrics and the replay digest are exact for a fixed seed, so
any difference in them is printed as moved.  The exit code is 1 when a
listed metric worsens by more than its bound or a sim result moved,
else 0.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def records(path: str) -> list[dict]:
    found = []
    for line in pathlib.Path(path).read_text().splitlines():
        if line.startswith('{"record"'):
            found.append(json.loads(line)["record"])
    if not found:
        raise SystemExit(f"{path}: no benchmark record")
    return found


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before_path, after_path = paths
    before, after = records(before_path), records(after_path)
    configs = {record["config_id"] for record in before + after}
    if len(configs) != 1:
        print(f"refused: records of {len(configs)} configs "
              f"({', '.join(sorted(configs))}); compare like with like",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = {metric["name"]: metric for metric in spec["end_to_end"]}
    worse = []
    for name, entry in sorted(after[0]["end_to_end"].items()):
        if entry["kind"] != "host" or name == "failed_ratio":
            continue
        old = statistics.median(r["end_to_end"][name]["value"]
                                for r in before)
        new = statistics.median(r["end_to_end"][name]["value"]
                                for r in after)
        change = (new - old) / old
        metric = bounded.get(name)
        if metric is None:      # in the record only: no bound
            print(f"{name:14} {old:14.6g} -> {new:14.6g} {change:+8.2%}")
            continue
        worsening = change if metric["better"] == "lower" else -change
        flag = "WORSE" if worsening > metric["bound"] else "ok"
        print(f"{name:14} {old:14.6g} -> {new:14.6g} {change:+8.2%}"
              f"  (bound {metric['bound']:.0%}) {flag}")
        if flag == "WORSE":
            worse.append(name)
    for name, entry in sorted(after[0]["end_to_end"].items()):
        if entry["kind"] == "sim" \
                and before[0]["end_to_end"].get(name) != entry:
            old_entry = before[0]["end_to_end"].get(name, {})
            print(f"{name:14} moved: {old_entry.get('value')}"
                  f" -> {entry['value']}")
            worse.append(name)
    if before[0].get("digest") != after[0].get("digest"):
        print("replay digest moved")
        worse.append("digest")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
