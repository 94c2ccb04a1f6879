"""A fixed pure-Python workload that measures how fast the machine runs now.

Usage: python3 -I -S perfbench/probe.py

The benchmark runs it in a fresh interpreter next to every command and
scales the command's time by reference / probe time, so that a host whose
speed drifts between runs (a shared machine) moves every reading alike and
drops out.  It imports nothing from jacverify, so no change to the program
can move it; its work resembles the program's: exponent tuples, dicts and
Fraction arithmetic.
"""

from fractions import Fraction


def main():
    acc = {}
    for i in range(12000):
        mono = tuple((i * j + i // 7) % 5 for j in range(9))
        acc[mono] = acc.get(mono, Fraction(0)) + Fraction(i % 7 - 3, i % 5 + 1)
    total = sum(acc.values(), Fraction(0))
    text = " + ".join(f"{c}*{m}" for m, c in sorted(acc.items()) if c)
    return total, len(text)


if __name__ == "__main__":
    main()
