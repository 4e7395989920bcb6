"""Survey saturation lengths across small groups.

For each group we report the least length L such that every equation with at
least L non-identity constants is solvable, or "none" when no such L exists
(e.g. groups with a proper abelianization).
"""

import argparse

from spherical.core import GroupSpec, saturation_length


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def survey(max_n):
    rows = []
    for n in range(2, max_n + 1):
        rows.append((f"Z_{n}", GroupSpec("cayley", table=cyclic_table(n))))
    for n in range(3, max_n + 1):
        rows.append((f"D_{n}", GroupSpec("dihedral", n=n)))
    for n in range(3, min(max_n, 6) + 1):
        rows.append((f"S_{n}", GroupSpec("symmetric", n=n)))
    for n in range(4, min(max_n, 6) + 1):
        rows.append((f"A_{n}", GroupSpec("alternating", n=n)))
    for name, spec in rows:
        length = saturation_length(spec)
        order = len(spec.elements())
        shown = "none" if length is None else length
        print(f"{name:>6}  order {order:>4}  saturation length {shown}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()
    survey(args.max_n)


if __name__ == "__main__":
    main()
