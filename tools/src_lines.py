"""Line counts of each module of a package by kind: code, docstring, comment, blank.

    python3 tools/src_lines.py [package_dir]

The package defaults to src/proxalloc.  Built on tokenize: a line is code
when it holds any token but a comment or a docstring, a docstring line
when it lies in a string that is a statement of its own, a comment line
when it holds only a comment, and blank otherwise (a blank line inside a
docstring is a docstring line).  The table ends with the package total.
"""

import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")  # a line counts as the first it holds
LAYOUT = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def count_lines(path):
    """{kind: number of lines} of one Python source file."""
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in LAYOUT]
    kinds = {}
    starts = True  # the token starts a statement
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            starts = True
            continue
        kind = "comment" if tok.type == tokenize.COMMENT else "code"
        if starts and tok.type == tokenize.STRING:
            j = i + 1
            while tokens[j].type == tokenize.COMMENT:
                j += 1
            kind = "docstring" if tokens[j].type == tokenize.NEWLINE else kind
        starts = starts and kind == "comment"
        for line in range(tok.start[0], tok.end[0] + 1):
            if KINDS.index(kind) < KINDS.index(kinds.get(line, "blank")):
                kinds[line] = kind
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(Path(path).read_bytes().splitlines()) + 1):
        counts[kinds.get(line, "blank")] += 1
    return counts


def row(name, counts):
    return f"{name:<16}" + "".join(f"{v:>10}" for v in (*counts.values(), sum(counts.values())))


def main(argv):
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "proxalloc"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in (*KINDS, "lines")))
    for path in sorted(package.glob("*.py")):
        counts = count_lines(path)
        total = {kind: total[kind] + counts[kind] for kind in KINDS}
        print(row(path.name, counts))
    print(row("total", total))


if __name__ == "__main__":
    main(sys.argv[1:])
