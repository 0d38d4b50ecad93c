#!/usr/bin/env python3
"""Convert a LINQS-style citation dataset (citeseer.content / citeseer.cites)
into the edge / attribute / label files this package reads.

Usage:
    python scripts/convert_linqs.py <dataset-dir> <output-dir>

<dataset-dir> must contain <name>.content (paper-id, binary word vector,
class name per line) and <name>.cites (cited-id citing-id per line).  Papers
cited by ids missing from the content file are skipped with a count.
"""

import sys
from pathlib import Path


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    src = Path(argv[1])
    dst = Path(argv[2])
    dst.mkdir(parents=True, exist_ok=True)

    content = next(src.glob("*.content"), None)
    cites = next(src.glob("*.cites"), None)
    if content is None or cites is None:
        print(f"error: no .content/.cites pair under {src}", file=sys.stderr)
        return 1

    node_ids = {}
    classes = {}
    rows = []
    with content.open() as fh:
        for line in fh:
            toks = line.split()
            paper, features, cls = toks[0], toks[1:-1], toks[-1]
            node_ids[paper] = len(node_ids)
            classes.setdefault(cls, len(classes))
            rows.append((paper, features, cls))

    with (dst / "attrs.txt").open("w") as fh:
        for paper, features, _ in rows:
            present = [str(k) for k, bit in enumerate(features) if bit != "0"]
            fh.write(f"{node_ids[paper]} " + " ".join(present) + "\n")

    with (dst / "labels.txt").open("w") as fh:
        for paper, _, cls in rows:
            fh.write(f"{node_ids[paper]} {classes[cls]}\n")

    skipped = 0
    with cites.open() as fh, (dst / "edges.txt").open("w") as out:
        for line in fh:
            toks = line.split()
            if len(toks) != 2:
                continue
            a, b = toks
            if a not in node_ids or b not in node_ids or a == b:
                skipped += 1
                continue
            out.write(f"{node_ids[a]} {node_ids[b]}\n")  # weight 1.0, the default

    print(f"wrote {dst}/edges.txt attrs.txt labels.txt "
          f"({len(node_ids)} nodes, {len(classes)} classes, {skipped} lines skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
