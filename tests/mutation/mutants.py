"""Mutants of the proof core, the JSON codec and the LaTeX renderer, applied
one at a time by run.py.

Each row names a file under src/identity_forge, a text that must occur in it
exactly once, the text that replaces it, and what the mutant breaks. A
mutant that no tier-1 test kills either gets a test that kills it or an
``equivalent`` note saying why no test can tell it from the real code.
"""

MUTANTS = [
    {
        "name": "proof-bound-one-short",
        "file": "engine.py",
        "old": "stop = min(n_hi, n_lo + sum(",
        "new": "stop = min(n_hi, n_lo - 1 + sum(",
        "why": "the sweep stops one residual before its proof bound B",
    },
    {
        "name": "seed-sum-sign",
        "file": "engine.py",
        "old": "n0, p0 = (m0 + n0, p0) if q0 == p0",
        "new": "n0, p0 = (m0 - n0, p0) if q0 == p0",
        "why": "a class subtracts, not adds, an element's y0 seed over an equal denominator",
    },
    {
        "name": "s2-step-sign",
        "file": "engine.py",
        "old": "l2, s2 = a * l1 + b * l0, a * s1 + b * s0",
        "new": "l2, s2 = a * l1 + b * l0, a * s1 - b * s0",
        "why": "the sum side's third int, S~_2, is stepped with the sign of b flipped",
    },
    {
        "name": "pair-sum-t-sign",
        "file": "engine.py",
        "old": "t = Fraction(-bn * u * (q // g)",
        "new": "t = Fraction(bn * u * (q // g)",
        "why": "pair_sum's weight t = (-c2)^j * Y_{k-j}/Y_k loses its sign",
    },
    {
        "name": "witness-guard",
        "file": "engine.py",
        "old": "if delta and n > n_lo:",
        "new": "if delta and n > n_lo + 1:",
        "why": "a nonzero difference at n_lo + 1 is carried one step past its witness",
    },
    {
        "name": "skip-past-40",
        "file": "sequences.py",
        "old": "        lo, hi = hi, a * hi + b * lo\n    return lo, hi\n",
        "new": "        lo, hi = hi, a * hi + b * lo\n    return (lo + 1, hi) if m > 40 else (lo, hi)\n",
        "why": "every window skipped more than 40 steps is off by one",
    },
    {
        "name": "stride-b-sign",
        "file": "sequences.py",
        "old": "(-(-n2) ** j, p2 ** j)",
        "new": "((-n2) ** j, p2 ** j)",
        "why": "a stride j >= 2 subsequence's b = -(-c2)^j loses its sign",
    },
    {
        "name": "bound-c2-zero-counted-0",
        "file": "engine.py",
        "old": "sum(1 if b == 0 else 2 for",
        "new": "sum(0 if b == 0 else 2 for",
        "why": "a class with c2 = 0 adds nothing to the proof bound, not 1",
    },
    {
        "name": "class-key-r-on-c2",
        "file": "engine.py",
        "old": "bn, bd = lowest_terms(bn * rn * rn, bd * rd * rd)",
        "new": "bn, bd = lowest_terms(bn * rn, bd * rd)",
        "why": "a ratio-r element's c2 is scaled by r, not r^2",
    },
    {
        "name": "seed-y1-without-r",
        "file": "engine.py",
        "old": "rn * num * v, rd * den * q",
        "new": "num * v, den * q",
        "why": "a ratio-r element's second seed y1 loses its factor r",
    },
    {
        "name": "seed-cross-multiply-swapped",
        "file": "engine.py",
        "old": "(m0 * p0 + n0 * q0, q0 * p0)",
        "new": "(m0 * q0 + n0 * p0, q0 * p0)",
        "why": "seeds over unequal denominators are added with the cross terms swapped",
    },
    {
        "name": "x2j-sign-past-stride-1",
        "file": "engine.py",
        "old": "+ bn * a0 * ad * b1",
        "new": "+ (bn if j == 1 else -bn) * a0 * ad * b1",
        "why": "pair_sum's X_{2j} = a*X_j + b*X_0 takes b*X_0 with the wrong sign at j >= 2",
    },
    {
        "name": "stride-v-unreduced",
        "file": "sequences.py",
        "old": "lowest_terms(v_j, e * d ** j)",
        "new": "(v_j, e * d ** j)",
        "why": "a stride j >= 2 subsequence's a = V_j is left unreduced",
    },
    {
        "name": "codec-unknown-field",
        "file": "serialize.py",
        "old": "            if extra:\n"
        "                raise ParseError(f\"unknown field {quote(min(extra))}\", where)\n",
        "new": "",
        "why": "a wire object with an unknown field and none missing is not refused",
    },
    {
        "name": "codec-list-index",
        "file": "serialize.py",
        "old": 'f"{where}[{pos}]"',
        "new": 'f"{where}[{pos + 1}]"',
        "why": "a list item's location counts from 1, not 0",
    },
    {
        "name": "bound-one-short-with-c2-zero",
        "file": "engine.py",
        "old": "for _, b, _, _ in classes))",
        "new": "for _, b, _, _ in classes) - any(b == 0 for _, b, _, _ in classes))",
        "why": "the sweep stops one residual before B only where a class has c2 = 0",
    },
    {
        "name": "bound-two-per-class",
        "file": "engine.py",
        "old": "sum(1 if b == 0 else 2 for _, b, _, _ in classes)",
        "new": "2 * len(classes)",
        "why": "the bound counts 2 for every class, c2 = 0 ones too, and a passing sweep draws past B",
    },
    {
        "name": "seed-y1-equal-denominator-add",
        "file": "engine.py",
        "old": "n1, p1 = (m1 + n1, p1) if q1 == p1",
        "new": "n1, p1 = (n1, p1) if q1 == p1",
        "why": "an element's y1 seed over its class's denominator replaces the class's y1, not adds to it",
    },
    {
        "name": "class-key-r-on-c1",
        "file": "engine.py",
        "old": "an, ad = lowest_terms(an * rn, ad * rd)",
        "new": "an, ad = lowest_terms(an, ad)",
        "why": "a ratio-r element's c1 is not scaled by r",
    },
    {
        "name": "l2-step-sign",
        "file": "engine.py",
        "old": "l2, s2 = a * l1 + b * l0,",
        "new": "l2, s2 = a * l1 - b * l0,",
        "why": "the LHS's third int, L~_2, is stepped with the sign of b flipped",
    },
    {
        "name": "lone-class-for-two",
        "file": "engine.py",
        "old": "if len(walks) == 1:",
        "new": "if len(walks) <= 2:",
        "why": "the lone-class shortcut returns the first class's walk where there are two",
    },
    {
        "name": "eager-json-import",
        "file": "serialize.py",
        "old": "from fractions import Fraction\n",
        "new": "import json\nfrom fractions import Fraction\n",
        "why": "every command loads json, not only the --json paths",
    },
    {
        "name": "latex-power-shortcut-sign",
        "file": "serialize.py",
        "old": 'sign = "+" if coef == ratio else "-"',
        "new": 'sign = "-" if coef == ratio else "+"',
        "why": "a term with coef = +-ratio renders ratio^{n+1} with the wrong sign",
    },
    {
        "name": "latex-letters-from-end",
        "file": "serialize.py",
        "old": "_FALLBACK_SYMBOLS[pos] if",
        "new": "_FALLBACK_SYMBOLS[-1 - pos] if",
        "why": "generic letters are handed out W, Z, Y, X instead of X, Y, Z, W",
    },
]
