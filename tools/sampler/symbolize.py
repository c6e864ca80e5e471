#!/usr/bin/env python3
"""Symbolize a sampler.c dump and print self and inclusive profiles.

    python3 tools/sampler/symbolize.py sampler.out [--top N] [--thread TID]
        [--under PATTERN] [--callers PATTERN] [--callees PATTERN]

Each address is mapped through the dump's copy of /proc/self/maps to a
file offset, through the file's LOAD program headers (`readelf -l`) to a
link-time address, and through its symbol table (`nm -C`) to a function.
"Self" charges a sample to the function holding RIP; "inclusive" charges
it once to every distinct function on the sample's stack: RIP, the
frame-pointer chain, and the word at [RSP] when it is a return address
the chain skipped (the caller of a leaf that set up no frame).

A mapped file is only read if it is still the file the process mapped:
its inode must be the one the dump's maps line records. A binary rebuilt
after the dump was taken has a new inode; its addresses are then
reported as `?? replaced <file>` (with a warning on stderr) instead of
being resolved against code they never belonged to.

Every sample carries the id of the thread it was taken on. A `threads`
table prints the samples kept per thread (the main thread's id is the
process id, labelled `main`), and --thread keeps only the samples of one
thread, by id or as `main`.

With --under, only the samples with a frame matching the regular
expression PATTERN anywhere on their stack are kept, and every table
(and its sample count) covers those alone: `--under 'run_threaded'`
drops what a benchmark harness does around the replay.

With --callers, it also prints who calls the leaves that match the
regular expression PATTERN: each matching sample's stack is cut to its
Rust frames (demangled names holding `::`, so libc internals drop out),
and the most common caller chains are listed, innermost first.

With --callees, it prints where the time of the functions matching
PATTERN goes: for every sample with such a function on its stack, the
outermost matching frame's direct callee (or `(self)` when the function
itself was running) is charged once, and each callee's share of those
samples is its inclusive share of the function.
"""

import argparse
import bisect
import collections
import os
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
            start, end, offset, inode, path = self.maps[i]
            if address < end:
                result = self.lookup(path, inode, address - start + offset)
        self.cache[address] = result
        return result

    def lookup(self, path, inode, file_offset):
        if path not in self.files:
            self.files[path] = self.load(path, inode)
        if self.files[path] is None:
            return "?? replaced " + path.rsplit("/", 1)[-1]
        segments, addresses, symbols = self.files[path]
        for seg_offset, vaddr, size in segments:
            if seg_offset <= file_offset < seg_offset + size:
                i = bisect.bisect_right(addresses, file_offset - seg_offset + vaddr) - 1
                if i >= 0:
                    return symbols[i][1]
        return "?? " + path.rsplit("/", 1)[-1]

    @staticmethod
    def load(path, inode):
        """Segments and symbols of `path`, or None (with a warning) when the
        file on disk is no longer the one the process mapped."""
        try:
            on_disk = os.stat(path).st_ino
        except OSError:
            on_disk = None
        if on_disk != inode:
            now = "gone" if on_disk is None else f"inode {on_disk}"
            print(f"symbolize.py: {path} was replaced after the dump was taken "
                  f"(inode {inode} when mapped, {now} now); its samples stay "
                  f"unresolved", file=sys.stderr)
            return None
        symbols = load_symbols(path)
        return load_segments(path), [s[0] for s in symbols], symbols


def read_dump(path):
    """The dump's executable maps, its samples as (thread id, words) and
    the process id."""
    maps, samples, section, pid = [], [], None, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                section = line.split()[1]
                m = re.match(r"# thread-samples pid (\d+)", line)
                if m:
                    pid = int(m.group(1))
                continue
            if section == "maps":
                m = re.match(r"([0-9a-f]+)-([0-9a-f]+) (\S+) ([0-9a-f]+) \S+ (\d+)\s+(/\S.*)$",
                             line.rstrip("\n"))
                if m and "x" in m.group(3):
                    maps.append((int(m.group(1), 16), int(m.group(2), 16),
                                 int(m.group(4), 16), int(m.group(5)), m.group(6)))
            elif section == "thread-samples" and line.strip():
                tid, *words = line.split()
                samples.append((int(tid), [int(word, 16) for word in words]))
    return maps, samples, pid


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


def direct_callee(stack, pattern):
    """The frame the outermost function matching `pattern` called on this
    stack (innermost first), `(self)` if it was running, or None if no frame
    matches. Repeats of the matched frame (recursion, the [RSP] word) are
    stepped over."""
    outer = max((i for i, name in enumerate(stack) if pattern.search(name)), default=None)
    if outer is None:
        return None
    for name in reversed(stack[:outer]):
        if name != stack[outer]:
            return name
    return "(self)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dump")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--thread", metavar="TID",
                        help="keep only the samples of thread TID (an id, or `main`)")
    parser.add_argument("--under", metavar="PATTERN",
                        help="keep only samples with a frame matching PATTERN on the stack")
    parser.add_argument("--callers", metavar="PATTERN",
                        help="list the Rust caller chains of leaves matching PATTERN")
    parser.add_argument("--callees", metavar="PATTERN",
                        help="split the samples of functions matching PATTERN by direct callee")
    args = parser.parse_args()
    leaf_filter = re.compile(args.callers) if args.callers else None
    callee_filter = re.compile(args.callees) if args.callees else None
    under_filter = re.compile(args.under) if args.under else None

    maps, samples, pid = read_dump(args.dump)
    if not samples:
        sys.exit("symbolize.py: the dump holds no samples")
    if args.thread is not None:
        want = pid if args.thread == "main" else int(args.thread)
        samples = [(tid, words) for tid, words in samples if tid == want]
        if not samples:
            sys.exit(f"symbolize.py: no sample was taken on thread {args.thread}")
    sym = Symbolizer(maps)
    self_counts, inclusive = collections.Counter(), collections.Counter()
    callers, matched = collections.Counter(), 0
    callees, under = collections.Counter(), 0
    threads = collections.Counter()
    total = 0
    for tid, (rip, top, *chain) in samples:
        leaf = sym.name(rip) or "?? unmapped"
        stack = [leaf]
        caller = sym.name(top) if top else None
        if caller and (not chain or sym.name(chain[0]) != caller):
            stack.append(caller)
        stack.extend(sym.name(a) for a in chain)
        stack = [f for f in stack if f]
        if under_filter and not any(under_filter.search(f) for f in stack):
            continue
        total += 1
        threads[tid] += 1
        self_counts[leaf] += 1
        inclusive.update(set(stack))
        if leaf_filter and leaf_filter.search(leaf):
            matched += 1
            callers[" <- ".join([leaf] + rust_chain(stack))] += 1
        callee = direct_callee(stack, callee_filter) if callee_filter else None
        if callee:
            under += 1
            callees[callee] += 1

    if not total:
        sys.exit(f"symbolize.py: no sample has a frame matching /{args.under}/")
    kept = f" under /{args.under}/" if under_filter else ""
    if args.thread is not None:
        kept += f" on thread {args.thread}"
    print(f"== threads ({total} samples{kept})")
    for tid, n in threads.most_common():
        print(f"{100.0 * n / total:6.2f}% {n:8d}  {'main' if tid == pid else tid}")
    for title, counts in (("self", self_counts), ("inclusive", inclusive)):
        print(f"== {title} ({total} samples{kept})")
        for name, n in counts.most_common(args.top):
            print(f"{100.0 * n / total:6.2f}% {n:8d}  {name}")
    if leaf_filter:
        print(f"== callers of /{args.callers}/ ({matched} of {total} samples)")
        for chain, n in callers.most_common(args.top):
            print(f"{100.0 * n / max(matched, 1):6.2f}% {n:8d}  {chain}")
    if callee_filter:
        print(f"== callees of /{args.callees}/ ({under} of {total} samples)")
        for name, n in callees.most_common(args.top):
            print(f"{100.0 * n / max(under, 1):6.2f}% {n:8d}  {name}")


if __name__ == "__main__":
    main()
