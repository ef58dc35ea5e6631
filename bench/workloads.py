"""The four benchmark workloads and the reference outputs they are checked
against.

A workload is a list of passes; a pass is a short list of CLI operations
run through ``ffdist.cli.main(argv)``.  The seed picks the construct scale
``--b`` of each pass from a pinned set and shuffles operations that do not
depend on each other; search instances are fixed.  Every reference below
was produced by the code the benchmark was defined against, so a later
change that alters any output is counted as a failed operation.
"""

import random

# generous enough that no search on a slow machine, traced, hits it
BUDGET_SECS = "900"

# sha256 of (equilateral certificate, midpoint certificate) by scale b
CERTIFY_DIGESTS = {
    1: ("9a6ffb6cb2388ace426693cb5f49c44cc646f0c4b0dec6321b3a4b4add20a1bb",
        "07fcbc9a1fea870dce4a49ae3c3305fd71a21084a66ca983cf0826fe8249f097"),
    2: ("a8e6d9d94ce2af6a0c2e472ac1e78286ae9f5a121f8d09411b242b86de77663a",
        "481a38ef2b4ffc6b94c78a90311a30b06b53a831538f1629454899b252264d66"),
    3: ("a36f3610aa0cfe8e725bb93b2f6331190859b333d5b0d1f535d0a295f92f1014",
        "a93f7540a33199558962688b5c29568a0925c401d7c948cb36ffe122ef755c04"),
    4: ("cd2601ed3b5ea04d577baf0ecad21fd087ab3b8e71739d5b8e0f1458f50dea8d",
        "84346c265134e227a2a7b02b5f34f591b0f474101182156508d8add7e9bfb68a"),
}

# sha256 of the embedded GF(25) certificate by scale b (an element encoding)
EMBED_DIGESTS = {
    1: "3902903722f4e15b78f3e1b7e1ba2c5bede0f022f487dbba76f249a539032f11",
    2: "90917203367c82d9ca54cc3b9769b2511d8db2542cefea5b25176da89b7bba7a",
    5: "98d7a231ba6a075efeb86565884b88c46866292fe78f278e0e5442dcd78f60a9",
    7: "37011df1e99f1b5fa9f50b77811b9f99771e692310bcf441d13f92b383acc16e",
}

SEARCH_GRAPH_DIGEST = (
    "3c55548bd5e8f5ba6579a1130e516efe3352b321d973690b1dc75ad793135792")


class Op:
    """One CLI call and what it must produce.

    ``files`` maps an output file name to its expected sha256; ``search``
    is the expected (max_size, exhausted) printed by a search.
    """

    def __init__(self, argv, files=None, search=None):
        self.argv = argv
        self.files = files or {}
        self.search = search


def _search(*args, expect, files=None):
    return Op(["search", *args, "--budget-secs", BUDGET_SECS],
              files=files, search=expect)


def _certify(rng):
    b = rng.choice(sorted(CERTIFY_DIGESTS))
    eq, mid = CERTIFY_DIGESTS[b]
    return [
        Op(["construct", "--p", "5", "--d", "8", "--b", str(b),
            "--midpoints", "--out", "certify.json"],
           files={"certify.json": eq, "certify.midpoints.json": mid}),
        Op(["verify", "certify.midpoints.json"]),
    ]


def _embed(rng):
    b = rng.choice(sorted(EMBED_DIGESTS))
    return [
        Op(["construct", "--p", "5", "--k", "2", "--d", "28", "--b", str(b),
            "--embed", "standard", "--out", "embed.json"],
           files={"embed.json": EMBED_DIGESTS[b]}),
        Op(["verify", "embed.json"]),
    ]


def _search_graph(rng):
    return [_search("--p", "5", "--k", "2", "--d", "2",
                    "--mode", "two_distance", "--canonical",
                    "--out", "search_graph.json", expect=(5, True),
                    files={"search_graph.json": SEARCH_GRAPH_DIGEST})]


def _search_clique(rng):
    ops = [
        _search("--p", "5", "--d", "4", "--mode", "two_distance",
                expect=(10, True)),
        _search("--p", "3", "--d", "6", "--mode", "equilateral",
                expect=(7, True)),
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "certify": _certify,
    "embed": _embed,
    "search_graph": _search_graph,
    "search_clique": _search_clique,
}


def passes(name, seed):
    """Endless stream of passes (lists of Op) for a workload and seed."""
    make = WORKLOADS[name]
    rng = random.Random("%s:%d" % (name, seed))
    while True:
        yield make(rng)
