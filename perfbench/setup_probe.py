"""Time one set-up in a fresh process and print when it started and ended.

    python3 setup_probe.py EDGES ATTRS NODES ATTRIBUTES --sampler-seed N
    python3 setup_probe.py EDGES ATTRS NODES ATTRIBUTES --checkpoint PATH

Set-up is the way from the text files to a state ready to train
(``load_graph`` plus ``TripletSampler``) or ready to embed (``load_graph``
plus ``load_checkpoint``).  Imports are not timed.  Each probe runs in its
own process because a process's speed on a shared machine varies from one
process to the next more than between calls in the same process.  The two
printed numbers are ``time.perf_counter`` seconds, which every process of
the machine shares.
"""

import argparse
import time

from neuralbrane.graph import load_graph
from neuralbrane.model import load_checkpoint
from neuralbrane.sampler import TripletSampler


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("edges")
    p.add_argument("attrs")
    p.add_argument("nodes", type=int)
    p.add_argument("attributes", type=int)
    ready = p.add_mutually_exclusive_group(required=True)
    ready.add_argument("--sampler-seed", type=int)
    ready.add_argument("--checkpoint")
    args = p.parse_args()

    started = time.perf_counter()
    graph = load_graph(args.edges, args.attrs, node_count=args.nodes,
                       attribute_count=args.attributes)
    if args.checkpoint:
        load_checkpoint(args.checkpoint)
    else:
        TripletSampler(graph, seed=args.sampler_seed)
    print(repr(started), repr(time.perf_counter()))


if __name__ == "__main__":
    main()
