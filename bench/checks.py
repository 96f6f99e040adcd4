"""Output checks whose references do not come from lucascert.

Everything here is plain Python on the job outputs (certificate JSON,
`opinfo` JSON, casebook JSON, the shadow's F(0)); nothing imports the
library under test.

* certify: the identity f|_p(z) * A_den(z) = A_num(z) * f|_p(z^(p^l)) is
  re-checked to `verified_to` against an expansion mod p made here: Lucas
  digits with `math.comb` for the f_r series, the exact integer
  recurrence for the Apery numbers.  For f2 the level must be 2 and the
  height p(p^2 - 1)/2, the paper's closed form.
* opinfo: MOM at zero, the good-prime list and nilpotent p-curvature are
  pinned from the operators' singular points.
* shadow: p F(0) = G(0), where G(0) of a MOM operator in the delta basis is
  the nilpotent shift (ones on the superdiagonal).
* casebook: every case at every prime ran and every check passed.

Each check returns a list of problems; an empty list means the output
is correct.  A job that raised or exited non-zero is reported before any
check runs.
"""

import json
from fractions import Fraction
from math import comb


def _lucas_binom(n, k, p):
    """C(n, k) mod p as the product of C(n_i, k_i) over base-p digits."""
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        n, ni = divmod(n, p)
        k, ki = divmod(k, p)
        if ki > ni:
            return 0
        out = out * comb(ni, ki) % p
    return out


def f_r_mod_p(r, p, T):
    """a(0) = 1, a(n) = -C(2n,n)^r / (2n-1) mod p, via C(2n,n)/(2n-1) = 2 Catalan(n-1)."""
    out = [1 % p]
    for n in range(1, T):
        central = _lucas_binom(2 * n, n, p)
        catalan = _lucas_binom(2 * n - 2, n - 1, p) - _lucas_binom(2 * n - 2, n, p)
        out.append(-2 * catalan * pow(central, r - 1, p) % p)
    return out[:T]


def apery_mod_p(p, T):
    """Apery numbers mod p from the exact integer three-term recurrence."""
    exact = [1, 5]
    for n in range(1, T - 1):
        num = (34 * n**3 + 51 * n**2 + 27 * n + 5) * exact[n] - n**3 * exact[n - 1]
        q, rem = divmod(num, (n + 1) ** 3)
        if rem:
            raise ArithmeticError(f"Apery recurrence not integral at n = {n + 1}")
        exact.append(q)
    return [a % p for a in exact[:T]]


REFERENCE = {
    "f2": lambda p, T: f_r_mod_p(2, p, T),
    "f3": lambda p, T: f_r_mod_p(3, p, T),
    "apery": apery_mod_p,
}


def _degree(coeffs):
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d] == 0:
        d -= 1
    return d


def _mul_trunc(poly, f, V, p):
    """(poly * f) mod (z^V, p) with f given as a list of at least V residues."""
    acc = [0] * V
    for d, c in enumerate(poly):
        c %= p
        if c == 0 or d >= V:
            continue
        for m in range(d, V):
            acc[m] += c * f[m - d]
    return [a % p for a in acc]


def certificate_problems(cert, series, p, reference):
    """Re-verify a certificate dict against `reference`, the series mod p."""
    problems = []
    if cert.get("series") != series or cert.get("p") != p:
        problems.append(f"certificate is for {cert.get('series')}@{cert.get('p')}")
    level, V = cert["level"], cert["verified_to"]
    num, den = cert["A_num"], cert["A_den"]
    height = max(_degree(num), _degree(den), 0)
    if height != cert["height"]:
        problems.append(f"reported height {cert['height']} but A has height {height}")
    if height > cert["bound"]:
        problems.append(f"height {height} exceeds the bound {cert['bound']}")
    if series == "f2" and (level, height) != (2, p * (p * p - 1) // 2):
        problems.append(f"f2: level {level}, height {height}; expected 2, {p * (p * p - 1) // 2}")
    if V <= 2 * height:
        problems.append(f"verified_to {V} does not exceed twice the height {height}")
    if len(reference) < V:
        problems.append(f"reference has {len(reference)} terms, need {V}")
        return problems
    if not den or den[0] % p == 0:
        problems.append("A_den(0) vanishes mod p")
        return problems
    step = p**level
    composed = [reference[m // step] if m % step == 0 else 0 for m in range(V)]
    lhs = _mul_trunc(den, reference, V, p)
    rhs = _mul_trunc(num, composed, V, p)
    if lhs != rhs:
        first = next(m for m in range(V) if lhs[m] != rhs[m])
        problems.append(f"identity fails at order {first} of {V}")
    return problems


def check_certify(job, output, references):
    """Check a `certify` job; `references` caches expansions by (series, p)."""
    cert = json.loads(output["stdout"])
    key = (job["series"], job["p"])
    ref = references.get(key)
    if ref is None or len(ref) < cert["verified_to"]:
        ref = REFERENCE[job["series"]](job["p"], cert["verified_to"])
        references[key] = ref
    return certificate_problems(cert, job["series"], job["p"], ref)


def _primes_upto(n):
    return [q for q in range(2, n + 1) if all(q % d for d in range(2, int(q**0.5) + 1))]


def expected_good_primes(bad_integer, bound):
    """Primes <= bound that do not divide `bad_integer`."""
    return [q for q in _primes_upto(bound) if bad_integer % q]


def check_opinfo(job, output, references=None):
    info = json.loads(output["stdout"])
    problems = []
    if info["mom"] is not True:
        problems.append("operator should be MOM at zero")
    want = expected_good_primes(job["bad_integer"], job["bound"])
    if info["good_primes"] != want:
        problems.append(f"good primes {info['good_primes']}, expected {want}")
    nilpotent = {str(q): True for q in job["primes"]}
    if info["p_curvature_nilpotent"] != nilpotent:
        problems.append(f"p-curvature {info['p_curvature_nilpotent']}, expected {nilpotent}")
    return problems


def check_shadow(job, output, references=None):
    p, n = job["p"], output["n"]
    problems = []
    for i in range(n):
        for j in range(n):
            got = p * Fraction(output["F0"][i][j])
            if got != (1 if j == i + 1 else 0):
                problems.append(f"p F(0)[{i}][{j}] = {got}, G(0) disagrees")
    want_len = -(-job["T"] // p)
    if output["F_len"] != want_len:
        problems.append(f"F has {output['F_len']} terms, expected {want_len}")
    return problems


def check_casebook(job, output, references=None):
    rows = json.loads(output["stdout"])
    problems = []
    seen = {(row["case_id"], row["p"]) for row in rows}
    want = {(case, p) for case in job["cases"] for p in job["primes"]}
    if seen != want or len(rows) != len(want):
        problems.append(f"{len(rows)} case results, expected one for each of {len(want)} pairs")
    for row in rows:
        if row["excluded"] or not row["checks"]:
            problems.append(f"case {row['case_id']} at p={row['p']} ran no checks")
        for chk in row["checks"]:
            if not chk["pass"]:
                problems.append(f"case {row['case_id']} at p={row['p']}: {chk['label']} failed")
    return problems


CHECKS = {
    "certify": check_certify,
    "opinfo": check_opinfo,
    "shadow": check_shadow,
    "casebook": check_casebook,
}
