#!/usr/bin/env python3
"""Symbolize a scripts/sigprof.c dump and print where the samples fell.

usage: sigprof-report.py DUMP [--top N] [--match SUBSTRING]...

Two tables. *self* is the function at the interrupted program counter,
with inlined callees resolved through the debug info (a hash loop inlined
into its caller is still reported under its own name) but standard-library
inlines folded into the repository function that called them. A sample
inside a shared library without symbols is shown as the library plus the
first executable function above it. *inclusive* counts every function on
the sampled stack once per sample. Each --match prints the self and
inclusive share of the functions whose name or source file contains the
substring.
"""
import collections
import os
import re
import subprocess
import sys


def load(path):
    maps, samples = [], []
    for line in open(path):
        f = line.split()
        if f[0] == "map":
            lo, hi = (int(x, 16) for x in f[1].split("-"))
            maps.append((lo, hi, int(f[3], 16), f[6]))
        elif f[0] == "s":
            samples.append([int(x, 16) for x in f[1:]])
        elif f[0] == "samples" and int(f[3]):
            print(f"warning: {f[3]} samples dropped (buffer full)", file=sys.stderr)
    # A position-independent object is mapped with its first segment
    # (file offset 0) at its load base; addr2line wants pc − base.
    base = {}
    for lo, _, off, obj in maps:
        if off == 0:
            base[obj] = min(lo, base.get(obj, lo))
    return maps, base, samples


def locate(maps, base, pc):
    for lo, hi, _, obj in maps:
        if lo <= pc < hi and obj in base:
            return obj, pc - base[obj]
    return None, pc


def symbolize(obj, addrs):
    """{addr: [(function, file), ...]} innermost inline first."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
        input="\n".join(hex(a) for a in addrs), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    table, cur = {}, None
    it = iter(out)
    for line in it:
        if line.startswith("0x"):
            cur = table.setdefault(int(line, 16), [])
        else:
            src = next(it, "??:0").rsplit(":", 1)[0]
            cur.append((re.sub(r"::h[0-9a-f]{16}$", "", line), src))
    return table


def main():
    args = sys.argv[1:]
    top, matches, dump = 25, [], None
    while args:
        a = args.pop(0)
        if a == "--top":
            top = int(args.pop(0))
        elif a == "--match":
            matches.append(args.pop(0))
        else:
            dump = a
    if dump is None:
        sys.exit(__doc__)
    maps, base, samples = load(dump)
    exe = next(obj for _, _, _, obj in maps)  # the first mapping is the executable
    # Return addresses point after the call; step back into it.
    located = [[locate(maps, base, pc - (1 if d else 0)) for d, pc in enumerate(s)]
               for s in samples]
    wanted = collections.defaultdict(set)
    for stack in located:
        for obj, addr in stack:
            if obj == exe:
                wanted[obj].add(addr)
    names = {obj: symbolize(obj, sorted(addrs)) for obj, addrs in wanted.items()}

    def frames(obj, addr):
        """[(display name, source file)] innermost first; [] outside the executable."""
        out = []
        for name, src in names.get(obj, {}).get(addr, []):
            # Inlined subroutines carry bare names under line-tables-only.
            bare = "::" not in name
            out.append((f"{name} ({os.path.basename(src)})" if bare else name, src))
        return out

    def own(chain):
        """First frame that is not a standard-library inline."""
        return next((f for f in chain if not f[1].startswith("/rustc/")), chain[0])

    self_, incl = collections.Counter(), collections.Counter()
    self_hits, incl_hits = collections.Counter(), collections.Counter()
    for stack in located:
        chains = [frames(*loc) for loc in stack]
        if chains[0]:
            leaf = own(chains[0])
        else:
            lib = os.path.basename(stack[0][0] or "?")
            caller = next((own(c)[0] for c in chains[1:] if c), "?")
            leaf = (f"[{lib}] <- {caller}", "")
        self_[leaf[0]] += 1
        on_stack = {f for c in chains for f in c} | {leaf}
        incl.update({f[0] for f in on_stack})
        for m in matches:
            self_hits[m] += m in leaf[0] or m in leaf[1]
            incl_hits[m] += any(m in f[0] or m in f[1] for f in on_stack)
    total = len(samples)
    print(f"{total} samples")
    for title, table in (("self", self_), ("inclusive", incl)):
        print(f"\n{title:>9}   share  function")
        for name, n in table.most_common(top):
            print(f"{n:9d}  {n / total:6.1%}  {name}")
    for m in matches:
        print(f"\nmatch {m!r}: self {self_hits[m]} ({self_hits[m] / total:.1%}), "
              f"inclusive {incl_hits[m]} ({incl_hits[m] / total:.1%})")


if __name__ == "__main__":
    main()
