"""The README's library quick start runs, and gives the values its comments
state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start (library)") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def stated_values(code: str) -> list[tuple[str, object]]:
    """Each ``expression  # value`` line of the block, as the expression's
    source and the literal its comment starts with (``# 10 == ...`` states
    10)."""
    stated = []
    for line in code.splitlines():
        source, _, comment = line.partition("#")
        if not (source.strip() and comment.strip()):
            continue
        literal = comment.split(" == ")[0].strip()
        stated.append((source.strip(), ast.literal_eval(literal)))
    return stated


def test_quick_start_states_what_it_computes():
    code = quick_start()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    stated = stated_values(code)
    assert stated == [
        ("allocation.bundles", {1: (2, 2), 2: (1, 1)}),
        ("cd.utilitarian_rank(profile, allocation)", 3),
        ("trace.message_count", 10),
        ("[e.bound for e in report.entries]", [1, 4]),
        ("[witness.pref(j).rank_of(walloc[j]) for j in (1, 2)]", [1, 4]),
    ]
    for source, value in stated:
        assert eval(source, namespace) == value, source
    shape = namespace["shape"]
    assert namespace["trace"].message_count == (1 + shape.n * shape.p) * shape.n
    assert namespace["spne_alloc"].bundles.keys() == {1, 2}
