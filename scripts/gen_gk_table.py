"""Regenerate the embedded Genz-Keister table in smoothquad/_gk_table.py.

The table holds every level of the sequence that fits the 200-node
order cap, levels 0 to 6.

Levels 0 to 4 are the nested rules.  The sequence extends the midpoint
rule for the standard normal weight by 2, 6, 10 and 16 points, giving
rules with 1, 3, 9, 19 and 35 nodes and polynomial degrees 1, 5, 15, 29
and 51.  Each extension adds the roots of the polynomial that is
orthogonal, with respect to the signed measure (node polynomial times
the normal density), to all lower powers; the combined weights then
come from the moment equations.  All arithmetic runs at 60 significant
digits and the printed table is exact to double precision.

Levels 5 and 6 continue the sizes 2N+1 with the Gauss-Hermite rules of
71 and 143 nodes.  They are the doubles ``smoothquad.rules1d.gauss_hermite``
returns, and not 60-digit values: prices have always been computed with
those doubles, and 60-digit nodes and weights differ from them in the
last bits (in 12 of 71 nodes and 67 of 71 weights of the 71-node rule,
by up to 8.6e-15 relative), which would move every price that reaches
level 5.

Usage: PYTHONPATH=src python3 scripts/gen_gk_table.py

Levels 0 to 4 are stored as the doubles that 17 significant digits of
their 60-digit values read back as.  The nodes of a level, and its
weights, are written as one string of the doubles' reprs, checked to
parse back bit for bit: a few dozen string constants compile far faster
than hundreds of float literals, and the module is compiled in every
process that writes no bytecode.  The table is written to src/smoothquad/_gk_table.py once
every level is computed, so the module the script imports is never half
written.
"""

from pathlib import Path

import mpmath as mp
import numpy as np

from smoothquad import rules1d

TABLE = Path(__file__).resolve().parent.parent / "src" / "smoothquad" / "_gk_table.py"

mp.mp.dps = 60

EXTENSIONS = (2, 6, 10, 16)
DEGREES = (1, 5, 15, 29, 51)
GAUSS_HERMITE_SIZES = (71, 143)


def double_factorial_moments(limit):
    """E[Z^(2k)] = (2k-1)!! for the standard normal, k = 0..limit."""
    moms = [mp.mpf(1)]
    for k in range(1, limit + 1):
        moms.append(moms[-1] * (2 * k - 1))
    return moms


def poly_mul(a, b):
    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def node_poly_odd_coeffs(pos_sq):
    """Coefficients c_i of q(x) = x * prod(x^2 - t) = sum c_i x^(2i+1)."""
    coeffs = [mp.mpf(1)]
    for t in pos_sq:
        coeffs = poly_mul(coeffs, [-t, mp.mpf(1)])
    return coeffs


def extend(pos_sq, n_new):
    """Squared positive nodes added when extending by n_new points."""
    half = n_new // 2
    c = node_poly_odd_coeffs(pos_sq)
    need = 2 * (half + len(c) + half) + 4
    mom = double_factorial_moments(need)

    # conditions: integral of E(x^2) x^(2k+1) q(x) phi(x) dx = 0, k < half,
    # where E(t) = t^half + e_{half-1} t^(half-1) + ... + e_0
    A = mp.matrix(half, half)
    b = mp.matrix(half, 1)
    for kap in range(half):
        for j in range(half):
            A[kap, j] = mp.fsum(ci * mom[j + i + kap + 1] for i, ci in enumerate(c))
        b[kap] = -mp.fsum(ci * mom[half + i + kap + 1] for i, ci in enumerate(c))

    e = mp.lu_solve(A, b)
    poly = [mp.mpf(1)] + [e[half - 1 - i] for i in range(half)]
    roots = mp.polyroots(poly, maxsteps=200, extraprec=200)
    new_sq = []
    for r in roots:
        if abs(mp.im(r)) > mp.mpf(10) ** (-30) or mp.re(r) <= 0:
            raise RuntimeError(f"extension by {n_new} has invalid root {r}")
        new_sq.append(mp.re(r))
    return sorted(pos_sq + new_sq)


def weights_for(pos_sq):
    """Weights (w0 for the origin, wi for each +-node pair) by moments."""
    m = len(pos_sq)
    mom = double_factorial_moments(m)
    A = mp.matrix(m + 1, m + 1)
    b = mp.matrix(m + 1, 1)
    for k in range(m + 1):
        A[k, 0] = mp.mpf(1) if k == 0 else mp.mpf(0)
        for i, t in enumerate(pos_sq):
            A[k, i + 1] = 2 * t ** k
        b[k] = mom[k]
    return mp.lu_solve(A, b)


def check_degree(nodes, weights, degree):
    mom = double_factorial_moments(degree // 2 + 1)
    for k in range(0, degree + 1):
        q = mp.fsum(w * x ** k for x, w in zip(nodes, weights))
        exact = mp.mpf(0) if k % 2 else mom[k // 2]
        if abs(q - exact) > mp.mpf(10) ** (-40) * max(1, abs(exact)):
            raise RuntimeError(f"degree check failed at x^{k}: {q} vs {exact}")


def full_rule(pos_sq):
    w = weights_for(pos_sq)
    nodes = [-mp.sqrt(t) for t in reversed(pos_sq)] + [mp.mpf(0)]
    nodes += [mp.sqrt(t) for t in pos_sq]
    weights = [w[i + 1] for i in range(len(pos_sq) - 1, -1, -1)] + [w[0]]
    weights += [w[i + 1] for i in range(len(pos_sq))]
    return nodes, weights


def _double(x):
    """The double that 17 significant digits of ``x`` read back as."""
    return float(mp.nstr(x, 17, strip_zeros=False))


def _level_text(values):
    """The doubles ``values`` as one string of their reprs, checked to
    read back through ``rules1d._parse_doubles`` bit for bit."""
    text = " ".join(repr(x) for x in values)
    if rules1d._parse_doubles(text).tobytes() != np.array(values).tobytes():
        raise RuntimeError(f"{text} does not read back as {values}")
    return text


def _string_lines(text, per_line=4):
    """Source lines of the string literal ``text``, ``per_line`` doubles a line."""
    words = text.split()
    if len(words) <= per_line:
        return [f'    "{text}",']
    chunks = [" ".join(words[i : i + per_line]) for i in range(0, len(words), per_line)]
    body = [f'        "{chunk} "' for chunk in chunks[:-1]] + [f'        "{chunks[-1]}"']
    return ["    ("] + body + ["    ),"]


def main():
    rules = []
    pos_sq = []
    nodes, weights = full_rule(pos_sq)
    check_degree(nodes, weights, DEGREES[0])
    rules.append((nodes, weights))
    for n_new, degree in zip(EXTENSIONS, DEGREES[1:]):
        pos_sq = extend(pos_sq, n_new)
        nodes, weights = full_rule(pos_sq)
        check_degree(nodes, weights, degree)
        rules.append((nodes, weights))
    doubles = [[[_double(v) for v in column] for column in rule] for rule in rules]
    for n in GAUSS_HERMITE_SIZES:
        rule = rules1d.gauss_hermite(n)
        doubles.append([rule.nodes.tolist(), rule.weights.tolist()])
    sizes = tuple(len(nodes) for nodes, _ in doubles)
    degrees = DEGREES + tuple(2 * n - 1 for n in GAUSS_HERMITE_SIZES)

    lines = [
        '"""Genz-Keister rules for the standard normal weight, levels 0 to 6.',
        "",
        "Levels 0 to 4 are nested; levels 5 and 6 are the 71- and 143-node",
        "Gauss-Hermite rules.  The nodes of a level, and its weights, are one",
        "string of the doubles' reprs, which ``rules1d.genz_keister`` parses.",
        "Generated by scripts/gen_gk_table.py; do not edit by hand.",
        '"""',
        "",
        f"GK_SIZES = {sizes}",
        "",
        f"GK_DEGREES = {degrees}",
    ]
    for name, column in (("GK_NODES", 0), ("GK_WEIGHTS", 1)):
        lines += ["", f"{name} = ("]
        for rule in doubles:
            lines += _string_lines(_level_text(rule[column]))
        lines.append(")")
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
