#!/usr/bin/env python3
"""Symbolize a scripts/sigprof.c or scripts/allocprof.c dump and print where
the samples (or allocation events) fell.

usage: sigprof-report.py DUMP [--top N] [--match SUBSTRING]...
                         [--under SUBSTRING]... [--per N] [--minus DUMP0]

Two tables. *self* is the function at the interrupted program counter,
with inlined callees resolved through the debug info (a hash loop inlined
into its caller is still reported under its own name) but standard-library
inlines folded into the repository function that called them. A sample
inside a shared library without symbols is shown as the library plus the
first executable function above it. *inclusive* counts every function on
the sampled stack once per sample. Each --match prints the self and
inclusive share of the functions whose name or source file contains the
substring.

An allocprof dump has one `a EVENTS BYTES PC...` line per distinct stack
instead of one `s PC...` line per sample: every row is then weighted by
its events and gains a bytes column, and *self* becomes the allocation
site — the first function anywhere on the stack that is not the standard
library's (`Vec::push` growing is charged to whoever pushed). --under
keeps only the stacks with a function whose name or source file contains
the substring (given more than once: every substring, each on the stack); --per N divides every count by N (events per pass);
--minus DUMP0 subtracts a second dump's tables, function by function, before
printing: a run of 2N passes minus a run of N leaves N passes of the steady
state, set-up and warm-up gone (the counts repeat exactly, so the difference
is exact).
"""
import collections
import os
import re
import subprocess
import sys


# The entry points `#[global_allocator]` generates, qualified or bare.
SHIM = re.compile(r"(^|::)__rust_(alloc|alloc_zeroed|realloc)$")


def load(path):
    maps, samples, weights = [], [], []
    for line in open(path):
        f = line.split()
        if f[0] == "map":
            lo, hi = (int(x, 16) for x in f[1].split("-"))
            maps.append((lo, hi, int(f[3], 16), f[6]))
        elif f[0] == "s":
            samples.append([int(x, 16) for x in f[1:]])
        elif f[0] == "a":
            weights.append((int(f[1]), int(f[2])))
            samples.append([int(x, 16) for x in f[3:]])
        elif f[0] in ("samples", "stacks") and int(f[3]):
            print(f"warning: {f[3]} {f[0]} dropped (buffer full)", file=sys.stderr)
    # A position-independent object is mapped with its first segment
    # (file offset 0) at its load base; addr2line wants pc − base.
    base = {}
    for lo, _, off, obj in maps:
        if off == 0:
            base[obj] = min(lo, base.get(obj, lo))
    return maps, base, samples, weights


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


def tally(dump, under, matches):
    """(is this an allocprof dump, {table name: Counter}) for one dump."""
    maps, base, samples, weights = load(dump)
    allocs = bool(weights)  # weighted stacks of return addresses only
    exe = next(obj for _, _, _, obj in maps)  # the first mapping is the executable
    # Return addresses point after the call; step back into it.
    located = [[locate(maps, base, pc - (1 if d or allocs else 0)) for d, pc in enumerate(s)]
               for s in samples]
    wanted = collections.defaultdict(set)
    for stack in located:
        for obj, addr in stack:
            if obj == exe:
                wanted[obj].add(addr)
    names = {obj: symbolize(obj, sorted(addrs)) for obj, addrs in wanted.items()}

    def frames(obj, addr):
        """[(display name, source file, path-like name)] innermost first; [] outside the executable."""
        out = []
        for name, src in names.get(obj, {}).get(addr, []):
            # Inlined subroutines carry bare names under line-tables-only;
            # `pass` in workloads.rs is shown as `pass (workloads.rs)` and
            # also answers to `workloads::pass`.
            base = os.path.basename(src)
            if "::" in name:
                out.append((name, src, name))
            else:
                out.append((f"{name} ({base})", src, f"{base.removesuffix('.rs')}::{name}"))
        return out

    def own(chain):
        """First frame that is not a standard-library inline."""
        return next((f for f in chain if not f[1].startswith("/rustc/")), chain[0])

    def hit(sub, frame):
        return any(sub in part for part in frame)

    t = {k: collections.Counter() for k in ("self", "incl", "size", "self_hits", "incl_hits", "total")}
    for stack, (events, nbytes) in zip(located, weights or [(1, 0)] * len(located)):
        chains = [frames(*loc) for loc in stack]
        flat = [f for c in chains for f in c]
        on_stack = set(flat)
        if not all(any(hit(u, f) for f in on_stack) for u in under):
            continue
        if allocs:
            # The allocator's own frames (the `#[global_allocator]` shim and
            # whatever it wraps) are nobody's site.
            shim = max((i for i, f in enumerate(flat) if SHIM.search(f[2])), default=-1)
            leaf = own(flat[shim + 1:]) if flat[shim + 1:] else ("?", "")
        elif chains[0]:
            leaf = own(chains[0])
        else:
            lib = os.path.basename(stack[0][0] or "?")
            caller = next((own(c)[0] for c in chains[1:] if c), "?")
            leaf = (f"[{lib}] <- {caller}", "")
        t["total"]["events"] += events
        t["total"]["bytes"] += nbytes
        t["self"][leaf[0]] += events
        t["size"][leaf[0]] += nbytes
        on_stack.add(leaf)
        for name in {f[0] for f in on_stack}:
            t["incl"][name] += events
        for m in matches:
            t["self_hits"][m] += events * hit(m, leaf)
            t["incl_hits"][m] += events * any(hit(m, f) for f in on_stack)
    return allocs, t


def main():
    args = sys.argv[1:]
    top, matches, dump, under, per, minus = 25, [], None, [], 1, None
    while args:
        a = args.pop(0)
        if a == "--top":
            top = int(args.pop(0))
        elif a == "--match":
            matches.append(args.pop(0))
        elif a == "--under":
            under.append(args.pop(0))
        elif a == "--per":
            per = int(args.pop(0))
        elif a == "--minus":
            minus = args.pop(0)
        else:
            dump = a
    if dump is None:
        sys.exit(__doc__)
    allocs, t = tally(dump, under, matches)
    if minus:
        for name, table in tally(minus, under, matches)[1].items():
            t[name].subtract(table)
    total, total_bytes = t["total"]["events"], t["total"]["bytes"]

    def shown(n):
        return f"{n:9d}" if per == 1 else f"{n / per:11.1f}"

    what = "events" if allocs else "samples"
    print(f"{shown(total).strip()} {what}" + (f", {total_bytes / per / 2**20:.2f} MiB" if allocs else "")
          + (f" per pass (over {per} passes)" if per != 1 else "")
          + "".join(f" under {u!r}" for u in under))
    for title, table in (("site" if allocs else "self", t["self"]), ("inclusive", t["incl"])):
        mib = allocs and table is t["self"]
        print(f"\n{title:>{len(shown(0))}}   share  " + ("      MiB  " if mib else "") + "function")
        for name, n in table.most_common(top):
            print(f"{shown(n)}  {n / total:6.1%}  "
                  + (f"{t['size'][name] / per / 2**20:9.3f}  " if mib else "") + name)
    for m in matches:
        self_hits, incl_hits = t["self_hits"][m], t["incl_hits"][m]
        print(f"\nmatch {m!r}: self {shown(self_hits).strip()} ({self_hits / total:.1%}), "
              f"inclusive {shown(incl_hits).strip()} ({incl_hits / total:.1%})")


if __name__ == "__main__":
    main()
