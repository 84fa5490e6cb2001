"""Seeded command generators and independent expected outputs.

Each generator draws the arguments of one CLI leaf command from a
``random.Random`` and returns ``(argv, expected_stdout)``. The expected
text is computed here from the closed-form definitions, in the same
floating-point order as the toolkit, so an exact string comparison is
fair. Arguments use ``--flag=value`` so negative values never look like
options, and floats are written with ``repr`` so they parse back exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

C_KM_PER_S = 300000.0
TWO_PI = 2.0 * math.pi
SINGLE_MODE_CUTOFF = 1.57
RATIO_BOUND = 1e6


def _argv(command, action, **flags):
    argv = [command, action]
    for key, value in flags.items():
        value = repr(value) if isinstance(value, float) else str(value)
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def _clock(total):
    return f"{total // 3600:02d}:{(total % 3600) // 60:02d}:{total % 60:02d}"


# --- link ---------------------------------------------------------------

def link_eps(rng):
    p, r = rng.uniform(0.0, 100.0), rng.uniform(0.1, 50.0)
    return _argv("link", "eps", progress=p, range=r), f"{(p / 100.0) * r:.6f} Lm\n"


def link_shift(rng):
    total = rng.randrange(6 * 3600, 24 * 3600)
    eps = rng.uniform(0.0, 60.0)
    shifted = total - round(eps * 60.0)
    return (_argv("link", "shift", time=_clock(total), epsilon=eps),
            _clock(shifted) + "\n")


def link_fres(rng):
    d, p = rng.uniform(1e6, 1e9), rng.uniform(1.0, 100.0)
    return (_argv("link", "fres", distance=d, progress=p),
            f"{C_KM_PER_S / (d * p / 100.0):.6g} Hz\n")


def link_fdisp(rng):
    d, p = rng.uniform(1e6, 1e9), rng.uniform(0.0, 99.0)
    return (_argv("link", "fdisp", distance=d, progress=p),
            f"{C_KM_PER_S / (d * (1.0 - p / 100.0)):.6g} Hz\n")


def link_unc(rng):
    dw, dt = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
    verdict = "satisfied" if dw * dt >= TWO_PI else "violated"
    return _argv("link", "unc", domega=dw, dt=dt), verdict + "\n"


# --- optics -------------------------------------------------------------

def optics_vnum(rng):
    a, lam = rng.uniform(2e-7, 5e-6), rng.uniform(1e-6, 2e-6)
    n1 = rng.uniform(1.45, 1.5)
    n2 = n1 - rng.uniform(0.001, 0.03)
    v = 2.0 * math.pi * a / lam * math.sqrt(n1 * n1 - n2 * n2)
    mode = "single-mode" if v < SINGLE_MODE_CUTOFF else "multi-mode"
    return (_argv("optics", "vnum", radius=a, wavelength=lam, n1=n1, n2=n2),
            f"V = {v:.6g} ({mode})\n")


def optics_snell(rng):
    theta = rng.uniform(0.0, 1.5)
    n1 = rng.uniform(1.0, 1.5)
    n2 = rng.uniform(n1, 1.6)  # n2 >= n1 keeps the Snell ratio below 1
    return (_argv("optics", "snell", theta1=theta, n1=n1, n2=n2),
            f"{math.asin(math.sin(theta) * n1 / n2):.6g} rad\n")


def optics_faraday(rng):
    verdet, b, path = rng.uniform(-100, 100), rng.uniform(-2, 2), rng.uniform(0, 1)
    return (_argv("optics", "faraday", verdet=verdet, bfield=b, path=path),
            f"{verdet * b * path:.6g} rad\n")


def optics_shell(rng):
    circ = rng.uniform(0.01, 1.0)
    b = circ * rng.uniform(0.001, 0.099)
    length, mean = rng.uniform(0.01, 2.0), rng.uniform(b, 1.0)
    area = 2.0 * math.pi * b * (b + length)
    volume = 2.0 * math.pi * mean * length * b
    return (_argv("optics", "shell", thickness=b, length=length,
                  mean_radius=mean, circ_radius=circ),
            f"A = {area:.6g} m^2, V = {volume:.6g} m^3\n")


# --- mem ----------------------------------------------------------------

def mem_bitfreq(rng):
    a, b, t = rng.uniform(0, 100), rng.uniform(0.1, 10), rng.uniform(0.01, 10)
    return _argv("mem", "bitfreq", bits=a, qbits=b, time=t), f"{a / (b * t):.6g} Hz\n"


def mem_sheetres(rng):
    length, width = rng.uniform(1e-6, 1e-3), rng.uniform(1e-6, 1e-3)
    rho, thick = rng.uniform(1e-8, 1e-5), rng.uniform(1e-9, 1e-6)
    rs = rho / thick
    return (_argv("mem", "sheetres", length=length, width=width,
                  resistivity=rho, thickness=thick),
            f"R_s = {rs:.6g} Ohm/sq, R = {(length / width) * rs:.6g} Ohm\n")


def mem_gm(rng):
    di, dv = rng.uniform(-1e-3, 1e-3), rng.uniform(0.1, 2.0)
    return _argv("mem", "gm", di=di, dv=dv), f"{di / dv:.6g} S\n"


def mem_eta(rng):
    collected, storable = rng.randrange(0, 1000), rng.randrange(1, 1000)
    return (_argv("mem", "eta", collected=collected, storable=storable),
            f"{collected / storable:.6g}\n")


def waterfall_reference(arrivals, rank_to_address):
    """FIFO allocation by (arrival, id): the k-th carrier gets rank k."""
    order = sorted(range(len(arrivals)), key=lambda i: (arrivals[i], i))
    return {cid: rank_to_address[rank] for rank, cid in enumerate(order)}


def mem_waterfall(rng):
    n = rng.randrange(1, 65)
    arrivals = [rng.randrange(0, 16) * 0.25 for _ in range(n)]  # many ties
    alloc = waterfall_reference(arrivals, list(range(n)))
    text = "".join(f"carrier {cid} -> cell {alloc[cid]}\n" for cid in sorted(alloc))
    return ["mem", "waterfall", "--arrivals=" + ",".join(map(repr, arrivals))], text


# --- rel ----------------------------------------------------------------

def rel_gamma(rng):
    beta = rng.uniform(0.0, 0.99)
    return _argv("rel", "gamma", beta=beta), f"{1.0 / math.sqrt(1.0 - beta ** 2):.6g}\n"


def rel_tau(rng):
    tdot = rng.uniform(-100.0, 100.0)
    return _argv("rel", "tau", tdot=tdot), f"{abs(tdot) * math.cos(math.pi / 4.0):.6g}\n"


def rel_proper(rng):
    dt = rng.uniform(0.0, 100.0)
    vx, vy, vz = (rng.uniform(-1.7e5, 1.7e5) for _ in range(3))
    speed2 = vx ** 2 + vy ** 2 + vz ** 2
    value = dt * math.sqrt(1.0 - speed2 / C_KM_PER_S ** 2)
    return _argv("rel", "proper", dt=dt, vx=vx, vy=vy, vz=vz), f"{value:.6g} s\n"


def rel_polar(rng):
    x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
    r = math.hypot(x, y)
    phi = math.atan2(y, x) if r > 0 else 0.0
    if phi <= -math.pi:
        phi = math.pi
    jac = math.cos(phi) * (r * math.cos(phi)) - (-r * math.sin(phi)) * math.sin(phi)
    return (_argv("rel", "polar", x=x, y=y),
            f"r = {r:.6g}, phi = {phi:.6g} rad, J = {jac:.6g}\n")


def rel_charge(rng):
    q1, qin, qout = rng.uniform(-1, 1), rng.uniform(0, 1), rng.uniform(0, 1)
    q2 = Fraction(q1) + Fraction(qin) - Fraction(qout)
    return _argv("rel", "charge", q1=q1, qin=qin, qout=qout), f"{float(q2):.6g} C\n"


# --- sort ---------------------------------------------------------------

def sort_run(rng):
    values = [rng.uniform(0.0, 1000.0) for _ in range(rng.randrange(2, 101))]
    partitions = rng.choice((1, 2))  # never more threads than the 2 cores
    return (["sort", "run", "--values=" + ",".join(map(repr, values)),
             f"--partitions={partitions}"],
            ",".join(f"{v:g}" for v in sorted(values)) + "\n")


def classify_reference(n, n_prime, bound=RATIO_BOUND):
    if n == math.inf:
        return "Diverging"
    if n_prime == math.inf:
        return "Vanishing"
    if n == n_prime:
        return "Unit"
    if n / n_prime > bound:
        return "Diverging"
    if n_prime / n > bound:
        return "Vanishing"
    return "Unit"


def sort_classify(rng):
    def size():
        return math.inf if rng.random() < 0.15 else float(10 ** rng.randrange(0, 13))
    n, n_prime = size(), size()
    if n == n_prime == math.inf:
        n_prime = 10.0
    text = lambda v: "inf" if v == math.inf else repr(v)  # noqa: E731
    return (["sort", "classify", f"--n={text(n)}", f"--nprime={text(n_prime)}"],
            classify_reference(n, n_prime) + "\n")


# --- geom ---------------------------------------------------------------

def geom_slope(rng):
    x1, y1, y2 = rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)
    x2 = x1 + rng.choice((-1, 1)) * rng.uniform(0.1, 10)
    return (_argv("geom", "slope", x1=x1, y1=y1, x2=x2, y2=y2),
            f"slope = {(y2 - y1) / (x2 - x1):.6g}, "
            f"length = {math.hypot(x2 - x1, y2 - y1):.6g}\n")


def geom_split(rng):
    t = rng.uniform(1.1, 10.0) if rng.random() < 0.5 else rng.uniform(0.1, 0.9)
    tpar = t if rng.random() < 0.2 else rng.uniform(0.1, 10.0)
    value = math.log(t * tpar) / math.log(t)
    fold = "fold" if abs(value - 2.0) <= 1e-12 else "no fold"
    return _argv("geom", "split", t=t, tpar=tpar), f"{value:.6g} ({fold})\n"


def geom_kin(rng):
    dx, dy = rng.uniform(-100, 100), rng.uniform(-100, 100)
    t, tpar = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
    d = math.hypot(dx, dy)
    v = d / t
    return (_argv("geom", "kin", dx=dx, dy=dy, t=t, tpar=tpar),
            f"v = {v:.6g}, a = {d / (t * tpar):.6g}, v_sync = {v:.6g}\n")


# Every leaf subcommand except `sort probe`, which times itself.
ONE_SHOT = (
    link_eps, link_shift, link_fres, link_fdisp, link_unc,
    optics_vnum, optics_snell, optics_faraday, optics_shell,
    mem_bitfreq, mem_sheetres, mem_gm, mem_eta, mem_waterfall,
    rel_gamma, rel_tau, rel_proper, rel_polar, rel_charge,
    sort_run, sort_classify,
    geom_slope, geom_split, geom_kin,
)

# Commands that end in a typed TimedataError: exit code 1, empty stdout.
TYPED_ERRORS = (
    lambda rng: _argv("link", "fres", distance=rng.uniform(1e6, 1e9), progress=0),
    lambda rng: _argv("link", "fdisp", distance=rng.uniform(1e6, 1e9), progress=100),
    lambda rng: _argv("optics", "snell", theta1=rng.uniform(1.2, 1.5), n1=1.5,
                      n2=rng.uniform(1.0, 1.2)),
    lambda rng: _argv("mem", "eta", collected=rng.randrange(0, 100), storable=0),
    lambda rng: _argv("rel", "gamma", beta=rng.uniform(1.0, 2.0)),
    lambda rng: _argv("geom", "slope", x1=1.5, y1=rng.uniform(-5, 5), x2=1.5,
                      y2=rng.uniform(-5, 5)),
    lambda rng: _argv("optics", "shell", thickness=0.5, length=1.0,
                      mean_radius=1.0, circ_radius=rng.uniform(0.5, 4.0)),
    lambda rng: ["sort", "classify", "--n=inf", "--nprime=inf"],
)


# --- integrals with closed forms ------------------------------------------
#
# The integrands are affine in each variable, so the midpoint rule is exact
# and any difference from the closed form is rounding: the check allows a
# relative error of INTEGRAL_REL_TOL.

INTEGRAL_REL_TOL = 1e-9


def _span_moment(lo, hi):
    return (hi * hi - lo * lo) / 2.0


def area_closed_form(c, domain):
    """Integral of c0 + c1*x + c2*y + c3*x*y over [x0,x1] x [y0,y1]."""
    x0, x1, y0, y1 = domain
    wx, wy = x1 - x0, y1 - y0
    mx, my = _span_moment(x0, x1), _span_moment(y0, y1)
    return c[0] * wx * wy + c[1] * mx * wy + c[2] * wx * my + c[3] * mx * my


def volume_closed_form(c, region):
    """Integral of c0 + c1*x*y*t + c2*t over an axis-aligned box."""
    x0, x1, y0, y1, t0, t1 = region
    wx, wy, wt = x1 - x0, y1 - y0, t1 - t0
    mx, my, mt = _span_moment(x0, x1), _span_moment(y0, y1), _span_moment(t0, t1)
    return c[0] * wx * wy * wt + c[1] * mx * my * mt + c[2] * wx * wy * mt
