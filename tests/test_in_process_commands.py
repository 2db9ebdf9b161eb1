"""Every CLI command run in this interpreter, as the benchmark's traced
runs call it: under the outside-in tracer, and under the cyclic
collector's debug mode, which keeps whatever only it could free."""

import gc
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))
from generate import CorpusSpec, generate  # noqa: E402
from tracer import Tracer, command_profile  # noqa: E402

from biblionet import cli  # noqa: E402

SPEC = CorpusSpec(records=300, new_author_prob=0.55, authors_per_paper=(1, 2, 2, 3, 3),
                  institutions=20, keyword_vocabulary=60, untitled_share=0.01)
KINDS = ("coauthor", "country", "institution", "research-area", "keyword")
TABLE_COMMANDS = [("stats",), ("keywords",), ("dedup-authors", "--sample", "50")]
NETWORK_COMMANDS = [("network", "--kind", kind) for kind in KINDS]
WHOLE_GRAPH_COMMANDS = [(*command, "--whole-graph") for command in NETWORK_COMMANDS]


@pytest.fixture(scope="module")
def export(tmp_path_factory):
    """The generated export's parts and the corpus.jsonl that `parse` makes of them."""
    root = tmp_path_factory.mktemp("export")
    paths, _ = generate(SPEC, 3, root / "inputs")
    assert cli.main(["parse", *map(str, paths), "--out", str(root / "parsed")]) == 0
    return paths, root / "parsed" / "corpus.jsonl"


def argv(command, export, out: Path) -> list[str]:
    paths, corpus = export
    inputs = map(str, paths) if command[0] == "parse" else [str(corpus)]
    return [command[0], *inputs, *command[1:], "--out", str(out)]


@pytest.mark.parametrize("command", [("parse",), *TABLE_COMMANDS, *NETWORK_COMMANDS, WHOLE_GRAPH_COMMANDS[0]],
                         ids=" ".join)
def test_traced_command_adds_up(command, export, tmp_path):
    trace = Tracer()
    trace.install()
    try:
        code = cli.main(argv(command, export, tmp_path / "out"))
    finally:
        trace.uninstall()
    assert code == 0
    profile = command_profile(trace.dump("test"))
    assert profile["calls"]["cli.main"] == 1
    assert sum(profile["layer_ns"].values()) == profile["root_ns"]


@pytest.mark.parametrize("command", [("parse",), *TABLE_COMMANDS, *NETWORK_COMMANDS, *WHOLE_GRAPH_COMMANDS],
                         ids=" ".join)
def test_command_leaves_no_cyclic_biblionet_garbage(command, export, tmp_path):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli.main(argv(command, export, tmp_path / "out")) == 0
        gc.collect()
        kept = sorted({type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith("biblionet")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kept == []
