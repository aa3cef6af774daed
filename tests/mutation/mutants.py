"""Mutants of the proof core and the JSON codec, applied one at a time by run.py.

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
]
