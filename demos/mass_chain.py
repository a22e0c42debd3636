"""The certified route to the class-count bound s >= 28.

Every inequality is checked in exact rationals or certified intervals;
the two refuted claims are printed as computed, not as claimed.

Run as `python3 demos/mass_chain.py`.
"""

from fractions import Fraction

from qflat.massledger import bounds_ledger_41, prop41_arithmetic


def main():
    print("bounds ledger (certified intervals)")
    print("-" * 35)
    report = bounds_ledger_41()
    for item in report.items:
        print(f"  {item.name}: {'PASS' if item.passed else 'FAIL'}")
        if item.name == "two-adic-claim" and not item.passed:
            got = item.detail["computed"]
            print("    the stated even-m constant does not hold;")
            print("    computed density at m = 2, 4, 6, 8:",
                  ", ".join(got[str(m)] for m in (2, 4, 6, 8)))
            print("    (the 2-adic valuation of m)")
        if item.name == "two-adic-factor" and not item.passed:
            excess = Fraction(item.detail["value"]) - 2
            print(f"    the 41-variable density at m = 2 is 2 + {excess},")
            print("    just over the stated bound 2; the combined bound")
            print("    below still holds with it")
    print(f"  every ledger bound: "
          f"{'PASS' if report.bounds_passed else 'FAIL'}")

    print("\nmass chain (exact rationals)")
    print("-" * 35)
    chain = prop41_arithmetic()
    for line in chain.lines():
        print(" ", line)
    print(f"\n  sharp version of the same arithmetic: s >= {chain.s_sharp}")


if __name__ == "__main__":
    main()
