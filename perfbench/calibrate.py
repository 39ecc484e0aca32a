"""Fixed reference job that gauges the host's current speed.

    python3 perfbench/calibrate.py

run.py runs this script in a fresh process between repetitions and divides
each measured time by the adjacent calibration times.  It does the kind of
work the package does -- sparse polynomial products with tuple exponents as
dict keys, over F32003 and over Q -- but imports nothing from the package,
so a change to the program never changes it.  It prints a checksum, which
run.py compares with CHECKSUM.
"""

from __future__ import annotations

from fractions import Fraction

ROUNDS = 14
CHECKSUM = 3921


def mul(a: dict, b: dict, p: int) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(i + j for i, j in zip(ma, mb))
            c = out.get(m, 0) + ca * cb
            if p:
                c %= p
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def job(rounds: int = ROUNDS) -> int:
    f = {(1, 0, 0, 0): 3, (0, 1, 0, 0): 5, (0, 0, 1, 1): 7, (0, 0, 0, 0): 1,
         (2, 0, 1, 0): 11}
    g = dict(f)
    for _ in range(rounds):
        g = mul(g, f, 32003)
    q = {(1, 0, 0, 0): Fraction(1, 3), (0, 1, 0, 0): Fraction(-2, 5),
         (0, 0, 0, 0): Fraction(1)}
    h = dict(q)
    for _ in range(rounds // 2):
        h = mul(h, q, 0)
    return len(g) + len(h)


if __name__ == "__main__":
    print(job())
