#!/usr/bin/env python3
"""Symbolize a sampler.c dump and print self and inclusive profiles.

    python3 tools/sampler/symbolize.py sampler.out [--top N] [--callers PATTERN]

Each address is mapped through the dump's copy of /proc/self/maps to a
file offset, through the file's LOAD program headers (`readelf -l`) to a
link-time address, and through its symbol table (`nm -C`) to a function.
"Self" charges a sample to the function holding RIP; "inclusive" charges
it once to every distinct function on the sample's stack: RIP, the
frame-pointer chain, and the word at [RSP] when it is a return address
the chain skipped (the caller of a leaf that set up no frame).

With --callers, it also prints who calls the leaves that match the
regular expression PATTERN: each matching sample's stack is cut to its
Rust frames (demangled names holding `::`, so libc internals drop out),
and the most common caller chains are listed, innermost first.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys


def load_segments(path):
    """(file offset, vaddr, file size) of each LOAD segment of an ELF file."""
    text = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    segments = []
    for line in text.splitlines():
        fields = line.split()
        if fields[:1] == ["LOAD"]:
            segments.append((int(fields[1], 16), int(fields[2], 16), int(fields[4], 16)))
    return segments


def load_symbols(path):
    """Sorted (address, name) of the function symbols of an ELF file."""
    symbols = []
    for flags in (["-C"], ["-C", "-D"]):
        text = subprocess.run(["nm", *flags, "--defined-only", path],
                              capture_output=True, text=True).stdout
        for line in text.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                symbols.append((int(parts[0], 16), parts[2]))
        if symbols:
            break
    symbols.sort()
    return symbols


class Symbolizer:
    def __init__(self, maps):
        self.maps = sorted(maps)
        self.starts = [m[0] for m in self.maps]
        self.files = {}
        self.cache = {}

    def name(self, address):
        """The function holding `address`, or None outside mapped code."""
        if address in self.cache:
            return self.cache[address]
        result = None
        i = bisect.bisect_right(self.starts, address) - 1
        if i >= 0:
            start, end, offset, path = self.maps[i]
            if address < end:
                result = self.lookup(path, address - start + offset)
        self.cache[address] = result
        return result

    def lookup(self, path, file_offset):
        if path not in self.files:
            symbols = load_symbols(path)
            self.files[path] = (load_segments(path), [s[0] for s in symbols], symbols)
        segments, addresses, symbols = self.files[path]
        for seg_offset, vaddr, size in segments:
            if seg_offset <= file_offset < seg_offset + size:
                i = bisect.bisect_right(addresses, file_offset - seg_offset + vaddr) - 1
                if i >= 0:
                    return symbols[i][1]
        return "?? " + path.rsplit("/", 1)[-1]


def read_dump(path):
    maps, samples, section = [], [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                section = line.split()[1]
                continue
            if section == "maps":
                m = re.match(r"([0-9a-f]+)-([0-9a-f]+) (\S+) ([0-9a-f]+) \S+ \S+\s+(/\S.*)$",
                             line.rstrip("\n"))
                if m and "x" in m.group(3):
                    maps.append((int(m.group(1), 16), int(m.group(2), 16),
                                 int(m.group(4), 16), m.group(5)))
            elif section == "samples" and line.strip():
                samples.append([int(word, 16) for word in line.split()])
    return maps, samples


# Rust frames shown per caller chain.
CALLER_DEPTH = 6


def rust_chain(stack):
    """The Rust frames of a stack below its leaf, innermost first, with
    recursion and inlined repeats collapsed, cut to CALLER_DEPTH."""
    chain = []
    for name in stack[1:]:
        if "::" in name and (not chain or chain[-1] != name):
            chain.append(name)
    return chain[:CALLER_DEPTH]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dump")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--callers", metavar="PATTERN",
                        help="list the Rust caller chains of leaves matching PATTERN")
    args = parser.parse_args()
    leaf_filter = re.compile(args.callers) if args.callers else None

    maps, samples = read_dump(args.dump)
    if not samples:
        sys.exit("symbolize.py: the dump holds no samples")
    sym = Symbolizer(maps)
    self_counts, inclusive = collections.Counter(), collections.Counter()
    callers, matched = collections.Counter(), 0
    for rip, top, *chain in samples:
        leaf = sym.name(rip) or "?? unmapped"
        self_counts[leaf] += 1
        stack = [leaf]
        caller = sym.name(top) if top else None
        if caller and (not chain or sym.name(chain[0]) != caller):
            stack.append(caller)
        stack.extend(sym.name(a) for a in chain)
        stack = [f for f in stack if f]
        inclusive.update(set(stack))
        if leaf_filter and leaf_filter.search(leaf):
            matched += 1
            callers[" <- ".join([leaf] + rust_chain(stack))] += 1

    total = len(samples)
    for title, counts in (("self", self_counts), ("inclusive", inclusive)):
        print(f"== {title} ({total} samples)")
        for name, n in counts.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}% {n:8d}  {name}")
    if leaf_filter:
        print(f"== callers of /{args.callers}/ ({matched} of {total} samples)")
        for chain, n in callers.most_common(args.top):
            print(f"{100.0 * n / max(matched, 1):6.2f}% {n:8d}  {chain}")


if __name__ == "__main__":
    main()
