"""Line counts of each module of a package by kind: code, docstring, comment, blank.

    python3 tools/src_lines.py [package_dir] [--against REV]

The package defaults to src/proxalloc.  Built on tokenize: a line is code
when it holds any token but a comment or a docstring, a docstring line
when it lies in a string that is a statement of its own, a comment line
when it holds only a comment, and blank otherwise (a blank line inside a
docstring is a docstring line).  The table ends with the package total.
With ``--against REV`` a second table follows: the change of each count
from the package's modules at the git revision REV (read by ``git show``)
to the files on disk, a module missing on one side counting as empty.
"""

import argparse
import io
import subprocess
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")  # a line counts as the first it holds
LAYOUT = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def count_lines(path):
    """{kind: number of lines} of one Python source file."""
    return count_source(Path(path).read_bytes())


def count_source(source):
    """{kind: number of lines} of Python source given as bytes."""
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source).readline) if t.type not in LAYOUT]
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
    for line in range(1, len(source.splitlines()) + 1):
        counts[kinds.get(line, "blank")] += 1
    return counts


def counts_at(package, rev):
    """{module name: counts} of the package's modules at the git revision rev."""
    def git(*args):
        return subprocess.run(["git", "-C", str(package), *args], capture_output=True,
                              check=True).stdout

    prefix = git("rev-parse", "--show-prefix").decode().strip()  # the package, from the top
    names = git("ls-tree", "--full-tree", "--name-only", f"{rev}:{prefix}").decode().split()
    return {name: count_source(git("show", f"{rev}:{prefix}{name}"))
            for name in sorted(names) if name.endswith(".py")}


def print_table(counts, sign=""):
    """One row per module and a total row, each count formatted with ``sign``."""
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in (*KINDS, "lines")))
    total = {kind: sum(row[kind] for row in counts.values()) for kind in KINDS}
    for name, row in (*counts.items(), ("total", total)):
        print(f"{name:<16}" + "".join(f"{v:>{sign}10}" for v in (*row.values(), sum(row.values()))))


def main(argv):
    parser = argparse.ArgumentParser(description="Line counts of a package's modules by kind.")
    parser.add_argument("package", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src" / "proxalloc")
    parser.add_argument("--against", metavar="REV",
                        help="also print the change of each count since this git revision")
    args = parser.parse_args(argv)
    now = {path.name: count_lines(path) for path in sorted(args.package.glob("*.py"))}
    print_table(now)
    if args.against:
        before = counts_at(args.package, args.against)
        empty = dict.fromkeys(KINDS, 0)
        print(f"\nchange since {args.against}")
        print_table({name: {kind: now.get(name, empty)[kind] - before.get(name, empty)[kind]
                            for kind in KINDS} for name in sorted(now.keys() | before.keys())},
                    sign="+")


if __name__ == "__main__":
    main(None)
