"""The README's code runs as written."""

import re
import shutil
from pathlib import Path

from biblionet.graphs import GraphKind, build_graph, graph_facts
from oracles import graph_key

README = Path(__file__).parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_snippet_runs(fixture_paths, fixture_records, tmp_path, monkeypatch, capsys):
    for name, path in zip(("part1.txt", "part2.txt"), fixture_paths):
        shutil.copy(path, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    graph = build_graph(GraphKind.COAUTHOR, fixture_records)
    assert graph_key(namespace["graph"]) == graph_key(graph)
    assert capsys.readouterr().out == f"{graph_facts(graph)}\n"
    assert namespace["table"]
