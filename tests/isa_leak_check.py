#!/usr/bin/env python3
"""Disassemble the sidis static libraries and check where wide-ISA code is.

Usage: isa_leak_check.py [--native] --objdump OBJDUMP [--isa-unit NAME]... LIB...

Run by ctest as isa_leak_check (tests/CMakeLists.txt).

Default build (baseline x86-64 flags everywhere except the per-ISA units of
the lane-tile kernels, lane_kernels_avx2.cpp / lane_kernels_avx512.cpp):

  * no VEX/EVEX-encoded instruction (AVX and up: ymm/zmm, v*-mnemonics,
    k-mask ops) anywhere outside the per-ISA units;
  * inside a per-ISA unit, VEX/EVEX only in functions with internal
    linkage, never in a static initializer.  A weak or global function
    there is a COMDAT the linker may keep for baseline callers as well
    (an inline function of a shared header, a std::vector member), and
    that copy would fault on a CPU without the ISA.

Every build, --native (SIDIS_NATIVE, -march=native) included:

  * no FMA instruction (vfmadd*, vfmsub*, vfnmadd*, vfnmsub*, vfmaddsub*,
    vfmsubadd*) anywhere: the tree builds with -ffp-contract=off, and a
    fused multiply-add rounds differently from the mul+add the scalar path
    runs, which breaks batch/scalar bit-identity.

Exits 1 listing each offending function, 0 when clean.  Stdlib only.
"""
import argparse
import re
import subprocess
import sys

MEMBER = re.compile(r"^(\S+):\s+file format ")
SECTION = re.compile(r"^Disassembly of section (\S+):")
LABEL = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\t([0-9a-f ]+)\t(\S+)")
SYMBOL = re.compile(r"^[0-9a-f]+ (.{7}) (\S+)\s+[0-9a-f]+\s+(?:\.hidden\s+)?(\S+)$")
# Segment-override and address-size prefixes may precede a VEX/EVEX escape
# byte; REX, 66/F2/F3 and LOCK may not (that encoding is #UD).
PREFIXES = {"26", "2e", "36", "3e", "64", "65", "67"}
VEX_ESCAPES = {"c4", "c5", "62"}
FMA = re.compile(r"^vfn?m(add|sub)")
STARTUP = re.compile(r"_GLOBAL__sub_I|_GLOBAL__I_|module_ctor|_sub_I_")


def is_vex(raw):
    for byte in raw.split():
        if byte not in PREFIXES:
            return byte in VEX_ESCAPES
    return False


def objdump(tool, args, lib):
    proc = subprocess.run([tool, *args, lib], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tool} {' '.join(args)} {lib} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def local_symbols(tool, lib):
    """(member, symbol) pairs of the archive's local function symbols."""
    local, member = set(), None
    for line in objdump(tool, ["-t"], lib):
        m = MEMBER.match(line)
        if m:
            member = m.group(1)
            continue
        m = SYMBOL.match(line)
        if m and m.group(1)[0] == "l" and m.group(1)[6] == "F":
            local.add((member, m.group(3)))
    return local


def functions(tool, lib):
    """Yields (member, section, symbol, [(mnemonic, vex)]) per function."""
    member = section = symbol = None
    insns = []
    for line in objdump(tool, ["-d", "-w"], lib):
        m = MEMBER.match(line) or SECTION.match(line) or LABEL.match(line)
        if m:
            if symbol is not None:
                yield member, section, symbol, insns
            symbol, insns = None, []
            if MEMBER.match(line):
                member = m.group(1)
            elif SECTION.match(line):
                section = m.group(1)
            else:
                symbol = m.group(1)
            continue
        m = INSN.match(line)
        if m and symbol is not None:
            insns.append((m.group(2), is_vex(m.group(1))))
    if symbol is not None:
        yield member, section, symbol, insns


def check(tool, lib, isa_units, native):
    problems = []
    local = local_symbols(tool, lib)
    for member, section, symbol, insns in functions(tool, lib):
        where = f"{lib}({member}) {symbol}"
        fma = sorted({mn for mn, _ in insns if FMA.match(mn)})
        if fma:
            problems.append(f"{where}: FMA {', '.join(fma)}")
        if native:
            continue
        vex = sorted({mn for mn, v in insns if v})
        if not vex:
            continue
        shown = ", ".join(vex[:6]) + (" ..." if len(vex) > 6 else "")
        if not any(member.startswith(unit) for unit in isa_units):
            problems.append(f"{where}: VEX/EVEX outside the per-ISA units ({shown})")
        elif section.startswith(".text.startup") or STARTUP.search(symbol):
            problems.append(f"{where}: VEX/EVEX in a static initializer ({shown})")
        elif (member, re.sub(r"\.cold(\.\d+)?$", "", symbol)) not in local:
            problems.append(f"{where}: VEX/EVEX in a non-local (mergeable) "
                            f"function ({shown})")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--objdump", required=True)
    ap.add_argument("--isa-unit", action="append", default=[])
    ap.add_argument("--native", action="store_true")
    ap.add_argument("libs", nargs="+")
    args = ap.parse_args()
    problems = []
    for lib in args.libs:
        problems += check(args.objdump, lib, args.isa_unit, args.native)
    for p in problems:
        print(p)
    mode = "native (FMA only)" if args.native else "baseline"
    print(f"{len(args.libs)} libraries checked, {mode}: "
          f"{'clean' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
