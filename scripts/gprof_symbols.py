#!/usr/bin/env python3
"""Charges each sample of a gprof PC histogram to the symbol that contains it.

    python3 scripts/gprof_symbols.py <exe> <gmon.out> [--top N]

gprof's flat profile can name the wrong function for a sample (it has
charged a hash-map probe's samples to the caller's lambda and to
std::vector::reserve in this simulator), and `gprof -l` can abort on large
binaries. This script reads the histogram record of gmon.out itself and
looks every sampled address up in the symbol table that `nm -n -C <exe>`
prints, local symbols and compiler clones (`[clone .isra.0]` and the like)
included, so each clone gets its own row. The executable must be linked
without PIE (`-no-pie`) so that its symbol addresses are the sampled PCs.

Output: one row per symbol, most samples first: percent, samples, name;
then the total and any samples outside every symbol. See
docs/performance.md "gprof attribution" for the recipe.
"""

import argparse
import bisect
import struct
import subprocess
import sys

GMON_MAGIC = b"gmon"
TAG_TIME_HIST = 0
TAG_CG_ARC = 1
TAG_BB_COUNT = 2


def read_histogram(path):
    """Returns (low_pc, bin_bytes, counts) summed over every histogram record."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != GMON_MAGIC:
        sys.exit("gprof_symbols: %s is not a gmon.out file" % path)
    pos = 20  # magic, version, 12 spare bytes
    low_pc = None
    bin_bytes = None
    counts = None
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == TAG_TIME_HIST:
            lo, hi, nbins, _rate = struct.unpack_from("<QQII", data, pos)
            pos += 24 + 16  # addresses, size, rate, dimension name and abbreviation
            bins = struct.unpack_from("<%dH" % nbins, data, pos)
            pos += 2 * nbins
            if counts is None:
                low_pc, bin_bytes, counts = lo, (hi - lo) / nbins, list(bins)
            elif lo == low_pc and len(bins) == len(counts):
                counts = [a + b for a, b in zip(counts, bins)]
            else:
                sys.exit("gprof_symbols: histogram records over different ranges")
        elif tag == TAG_CG_ARC:
            pos += 20
        elif tag == TAG_BB_COUNT:
            (n,) = struct.unpack_from("<I", data, pos)
            pos += 4 + 16 * n
        else:
            sys.exit("gprof_symbols: unknown record tag %d at byte %d" % (tag, pos - 1))
    if counts is None:
        sys.exit("gprof_symbols: %s holds no PC histogram" % path)
    return low_pc, bin_bytes, counts


def read_symbols(exe):
    """Sorted (address, name) for every text symbol, local ones included."""
    out = subprocess.run(["nm", "-n", "-C", exe], stdout=subprocess.PIPE, check=True,
                         text=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in ("T", "t", "W", "w", "i"):
            continue
        symbols.append((int(parts[0], 16), parts[2]))
    if not symbols:
        sys.exit("gprof_symbols: nm found no text symbols in %s" % exe)
    return symbols


def attribute(low_pc, bin_bytes, counts, symbols):
    """Samples per symbol name, plus the samples no symbol contains."""
    addresses = [address for address, _ in symbols]
    per_symbol = {}
    outside = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        pc = low_pc + int(i * bin_bytes)
        j = bisect.bisect_right(addresses, pc) - 1
        if j < 0:
            outside += count
            continue
        name = symbols[j][1]
        per_symbol[name] = per_symbol.get(name, 0) + count
    return per_symbol, outside


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("exe")
    parser.add_argument("gmon")
    parser.add_argument("--top", type=int, default=40, help="rows to print (0 = all)")
    args = parser.parse_args()

    low_pc, bin_bytes, counts = read_histogram(args.gmon)
    per_symbol, outside = attribute(low_pc, bin_bytes, counts, read_symbols(args.exe))
    total = sum(counts)
    if total == 0:
        sys.exit("gprof_symbols: the histogram holds no samples")
    rows = sorted(per_symbol.items(), key=lambda item: (-item[1], item[0]))
    if args.top > 0:
        rows = rows[:args.top]
    print("%7s %8s  %s" % ("%", "samples", "symbol"))
    for name, samples in rows:
        print("%6.2f%% %8d  %s" % (100.0 * samples / total, samples, name))
    print("total %d samples, %d outside every symbol" % (total, outside))


if __name__ == "__main__":
    main()
