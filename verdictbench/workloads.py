"""Input generators and known answers for the four workloads.

``generate(workload, seed, out_dir, data_dir)`` writes the inputs of
one workload under ``out_dir`` and returns them as a list of ``Input``;
the same seed writes byte-identical files.  Each input is one
certificate file, handed to ``lctforge verify --json`` on its own, and
carries the verdict it must get.  ``mismatches`` compares what the
program returned with that verdict.

The seeded workloads keep the shape of their input set fixed (which
checks, which chain lengths, which polynomial shapes) and draw only
the numbers from the seed, so that every seed costs about the same and
runs with different seeds can be compared.
"""

from dataclasses import dataclass, field
from fractions import Fraction as F
import hashlib
import json
import random
import re
import shutil
from pathlib import Path

from oracle import (
    CERT_VALUES,
    LEDGERS,
    QUOTED_F15,
    QUOTED_WITNESS,
    RELATION_RHS,
    TUPLES,
    cramer_vertex,
    duval_maxima,
    involution_image,
    rat,
    untwist_image,
)

WORKLOADS = ("bundled", "duval-chains", "polyid-identities", "smallstep")


@dataclass
class Expect:
    """The verdict one certificate must get.

    statuses holds one PASS/FAIL per step; values pins step values
    (1-based step number -> Fraction); details pins text that must
    appear in a step's description, such as a refutation witness.
    """

    statuses: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def overall(self):
        return "PASS" if all(s == "PASS" for s in self.statuses) else "FAIL"

    @property
    def exit_code(self):
        return 0 if self.overall == "PASS" else 1


@dataclass
class Input:
    path: str  # relative to the directory the inputs were written to
    expect: Expect


def mismatches(expect, exit_code, stdout, error=None):
    """Every way a `verify --json` run differs from its known answer;
    an empty list means the verdict is correct."""
    if error is not None:
        return [f"exception escaped main: {error}"]
    bad = []
    if exit_code != expect.exit_code:
        bad.append(f"exit code {exit_code}, expected {expect.exit_code}")
    try:
        (report,) = json.loads(stdout)
        steps = report["steps"]
        overall = report["overall"]
    except (ValueError, KeyError, TypeError) as exc:
        return bad + [f"unreadable report: {exc!r}"]
    if overall != expect.overall:
        bad.append(f"overall {overall}, expected {expect.overall}")
    if len(steps) != len(expect.statuses):
        return bad + [f"{len(steps)} steps, expected {len(expect.statuses)}"]
    for number, (step, want) in enumerate(zip(steps, expect.statuses), 1):
        if step["status"] != want:
            bad.append(f"step {number} {step['status']}, expected {want}: "
                       f"{step['description']}")
    for number, want in expect.values.items():
        got = steps[number - 1]["value"]
        if got is None or F(got) != want:
            bad.append(f"step {number} value {got}, expected {rat(want)}")
    for number, want in expect.details.items():
        if want not in steps[number - 1]["description"]:
            bad.append(f"step {number} lacks {want!r}")
    return bad


def digest(out_dir):
    """sha256 over the relative names and bytes of every input file."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def generate(workload, seed, out_dir, data_dir):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir, data_dir = Path(out_dir), Path(data_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    make = {
        "bundled": _bundled,
        "duval-chains": _duval_chains,
        "polyid-identities": _polyid_identities,
        "smallstep": _smallstep,
    }[workload]
    return make(rng, out_dir, data_dir)


class _Cert:
    """Builds a certificate's text and its Expect one step at a time."""

    def __init__(self, name):
        self.lines = [f'cert "{name}"']
        self.expect = Expect()

    def step(self, text, status="PASS", value=None, detail=None):
        self.lines.append(text)
        self.expect.statuses.append(status)
        number = len(self.expect.statuses)
        if value is not None:
            self.expect.values[number] = F(value)
        if detail is not None:
            self.expect.details[number] = detail

    def write(self, out_dir, rel):
        _write(out_dir, rel, "\n".join(self.lines) + "\n")
        return Input(rel, self.expect)


def _write(out_dir, rel, text):
    path = Path(out_dir) / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _rand_rat(rng):
    return F(rng.randint(1, 9), rng.randint(1, 9))


# ----------------------------------------------------------- bundled

_STATEMENT = re.compile(r"\s*(let|assert|check)\b")


def _bundled(rng, out_dir, data_dir):
    """The twelve shipped certificates exactly as shipped, with the
    ledgers and polyid file they read; every step must PASS."""
    for sub in ("certs", "ledgers", "polyid"):
        shutil.copytree(data_dir / sub, out_dir / sub, dirs_exist_ok=True)
    inputs = []
    for path in sorted((out_dir / "certs").glob("*.cert")):
        statements = [line for line in path.read_text().splitlines()
                      if _STATEMENT.match(line.split("#", 1)[0])]
        expect = Expect(statuses=["PASS"] * len(statements))
        if path.name in CERT_VALUES:
            number = next(k for k, line in enumerate(statements, 1)
                          if re.match(r"\s*let\s+value\s*=", line))
            expect.values[number] = CERT_VALUES[path.name]
        inputs.append(Input(f"certs/{path.name}", expect))
    return inputs


# ------------------------------------------------------ duval-chains

def _duval_cert(out_dir, rel, n, c, stated):
    maxima = duval_maxima(n, c)
    cap = ",".join("1" if j in (0, n - 1) else "0" for j in range(n))
    cert = _Cert(f"du Val A{n}: a1 + a{n} <= {rat(c)}")
    args = ", ".join(f"max{i}={rat(m)}" for i, m in enumerate(stated, 1))
    text = f'check du_val_bounds(n={n}, {args}, extra1="{cap} <= {rat(c)}")'
    if maxima is None:
        cert.step(text, "FAIL", detail="constraint system is infeasible")
    else:
        status = "PASS" if stated == maxima else "FAIL"
        cert.step(text, status,
                  detail="maxima (" + ", ".join(map(rat, maxima)) + ")")
    return cert.write(out_dir, rel)


def _duval_chains(rng, out_dir, data_dir):
    """One du_val_bounds step per certificate, stated maxima from the
    closed form: feasible chains A_3 .. A_6, one wrong maximum on A_3
    and one negative cap on A_6 (infeasible), both expected to FAIL.
    A_7 and A_8 stay out: one A_8 call takes over ten seconds."""
    inputs = []
    for n in (3, 4, 5, 6):
        c = _rand_rat(rng)
        inputs.append(_duval_cert(out_dir, f"certs/a{n}.cert", n, c,
                                  duval_maxima(n, c)))
    c = _rand_rat(rng)
    stated = duval_maxima(3, c)
    stated[rng.randrange(3)] += F(1, rng.randint(2, 9))
    inputs.append(_duval_cert(out_dir, "certs/a3-wrong-max.cert", 3, c,
                              stated))
    c = -_rand_rat(rng)
    inputs.append(_duval_cert(out_dir, "certs/a6-infeasible.cert", 6, c,
                              duval_maxima(6, -c)))
    return inputs


# ------------------------------------------------- polyid-identities

# Ring-axiom identities: true for any polynomials P, Q, R.
_TEMPLATES = {
    "power-of-product": "(P*Q)^2 == P^2*Q^2",
    "square-of-sum": "(P + Q)^2 == P^2 + 2*P*Q + Q^2",
    "difference-of-squares": "(P - Q)*(P + Q) == P^2 - Q^2",
    "distributive": "P*(Q + R) == P*Q + P*R",
    "cube-of-sum": "(P + Q)^3 == P^3 + 3*P^2*Q + 3*P*Q^2 + Q^3",
}

# (template, shapes of P, Q, R) for each ring-identity input; fixed so
# that every seed does the same polynomial work.
_SLOTS = [
    ("power-of-product", "f2*f10", "f6", "f2"),
    ("power-of-product", "f10", "f6^2", "f2"),
    ("square-of-sum", "f15", "f2*f6", "f2"),
    ("square-of-sum", "f6*f10", "f2^2", "f2"),
    ("difference-of-squares", "f15", "f6*f10", "f2"),
    ("difference-of-squares", "f2*f15", "f10", "f2"),
    ("distributive", "f10", "f2*f15", "f6^2"),
    ("distributive", "f6", "f15", "f2*f10"),
    ("cube-of-sum", "f6", "f2*f10", "f2"),
    ("cube-of-sum", "f10", "f2^3", "f2"),
]


def _coeff(rng):
    c = F(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
    return f"-{rat(-c)}" if c < 0 else rat(c)


def _polyid_input(out_dir, name, polyid_text, status, detail):
    _write(out_dir, f"polyid/{name}.polyid", polyid_text)
    cert = _Cert(f"polynomial identities: {name}")
    cert.step(f'check poly_id(file="../polyid/{name}.polyid")',
              status, detail=detail)
    return cert.write(out_dir, f"certs/{name}.cert")


def _polyid_identities(rng, out_dir, data_dir):
    """Ring-axiom identities over seeded multiples of products and
    powers of f2, f6, f10, f15 (PASS by construction); the bundled
    degree-30 relation (PASS); the quoted-sign f15^2 and f15^4 forms
    (FAIL at the pinned witnesses)."""
    bundled = (data_dir / "polyid" / "icosahedral-invariants.polyid")
    text = bundled.read_text()
    lines = text.splitlines()
    first_check = next(k for k, line in enumerate(lines)
                       if line.startswith("check"))
    defs = "\n".join(lines[:first_check]) + "\n"
    n_checks = sum(line.startswith("check") for line in lines)
    inputs = [_polyid_input(out_dir, "relation", text,
                            "PASS", f"{n_checks} identities")]
    for k, witness in sorted(QUOTED_WITNESS.items()):
        body = (defs + f"poly q15 = {QUOTED_F15}\n"
                f"check q15^{k} == {RELATION_RHS}\n")
        inputs.append(_polyid_input(
            out_dir, f"quoted-f15-{k}", body,
            "FAIL", f"differs at exponent {witness}"))
    for number, (template, *shapes) in enumerate(_SLOTS, 1):
        if rng.random() < 0.5 and template != "distributive":
            shapes[0], shapes[1] = shapes[1], shapes[0]
        body = defs + "".join(
            f"poly {name} = {_coeff(rng)}*{shape}\n"
            for name, shape in zip("PQR", shapes)
        ) + f"check {_TEMPLATES[template]}\n"
        inputs.append(_polyid_input(
            out_dir, f"ring-{number:02d}-{template}", body,
            "PASS", "1 identities"))
    rng.shuffle(inputs)
    return inputs


# ---------------------------------------------------------- smallstep

_SMALLSTEP_CERTS = 24


def _smallstep_cert(rng, out_dir, k, wrong):
    """About thirty cheap steps: let/assert arithmetic, the local
    inequality on a pinned tuple, a ledger audit, and the amplitude,
    involution and untwist checks at known values.  A `wrong` cert
    states one false equality and one wrong untwist image."""
    cert = _Cert(f"smallstep {k}")
    a, b = _rand_rat(rng), _rand_rat(rng)
    s, p = a + b, a * b
    d = a - b / (a + 1)
    r = (s * p - d) / (b + 2)
    cert.step(f"let a = {rat(a)}", value=a)
    cert.step(f"let b = {rat(b)}", value=b)
    cert.step("let s = a + b", value=s)
    cert.step("let p = a * b", value=p)
    cert.step("let d = a - b / (a + 1)", value=d)
    cert.step("let r = (s * p - d) / (b + 2)", value=r)
    cert.step("assert s - a == b")
    cert.step("assert p / b == a")
    cert.step("assert s > a")
    cert.step(f"assert d <= {rat(d)}")
    if wrong:
        off = r + F(1, rng.randint(2, 9))
        cert.step(f"assert r == {rat(off)}", "FAIL",
                  detail=f"[{rat(r)} == {rat(off)} is false]")
    else:
        cert.step(f"assert r == {rat(r)}")
    for j in range(2):
        A, B, M, N, alpha, beta = TUPLES[(k + 2 * j) % len(TUPLES)]
        va, vb = cramer_vertex(A, B, M, N)
        head = f"A={rat(A)}, B={rat(B)}, M={rat(M)}, N={rat(N)}"
        cert.step(f"check vertex_ab({head}, alpha={rat(va)}, beta={rat(vb)})")
        cert.step(f"check theorem_I_hyp({head}, alpha={rat(alpha)}, "
                  f"beta={rat(beta)})")
    cert.step(f'check ledger(file="../ledgers/{LEDGERS[k % len(LEDGERS)]}")')
    for _ in range(3):
        weights = [rng.randint(1, 40) for _ in range(4)]
        degree = rng.randint(1, 150)
        cert.step(f'check amplitude(weights="{",".join(map(str, weights))}"'
                  f", d={degree}) expect {sum(weights) - degree}",
                  value=sum(weights) - degree)
    t = rng.randint(1, 20)
    cert.step(f"check involution(h={-3 * t}, e={t}, expect_h={-3 * t}, "
              f"expect_e={t})")
    h, e = rng.randint(-20, 20), rng.randint(-20, 20)
    ih, ie = involution_image(h, e)
    cert.step(f"check involution(h={h}, e={e}, expect_h={ih}, expect_e={ie})")
    for _ in range(3):
        mu = _rand_rat(rng)
        cert.step(f"check untwist(mu={rat(mu)}, mult={rat(1 / mu)}, "
                  f"mu_prime={rat(mu)}, mult_prime={rat(1 / mu)})")
    if wrong:
        mu = _rand_rat(rng)
        mult = F(1, 1) / mu + F(1, 12 * rng.randint(2, 9)) / mu
        got = untwist_image(mu, mult)
        cert.step(f"check untwist(mu={rat(mu)}, mult={rat(mult)}, "
                  f"mu_prime={rat(mu)}, mult_prime={rat(mult)})", "FAIL",
                  detail=f"untwist gives mu'={rat(got[0])}, "
                         f"mult'={rat(got[1])}")
    return cert.write(out_dir, f"certs/smallstep-{k:02d}.cert")


def _smallstep(rng, out_dir, data_dir):
    shutil.copytree(data_dir / "ledgers", out_dir / "ledgers",
                    dirs_exist_ok=True)
    wrong = rng.randrange(_SMALLSTEP_CERTS)
    return [_smallstep_cert(rng, out_dir, k, k == wrong)
            for k in range(_SMALLSTEP_CERTS)]
