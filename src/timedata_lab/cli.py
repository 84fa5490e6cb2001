"""Command-line front end exposing every toolkit module as a subcommand.

The whole command line is declared in ``COMMANDS``: ``build_parser``
turns it into the argparse tree; ``main`` reads argv with the one parser
of the leaf it names and calls that leaf's runner.
"""

from __future__ import annotations

import argparse
import configparser
import re
import sys

from . import analysis, geomlink, linkmodel, memtiming, optics, ptvda, relativity
from .analysis import finite_float, finite_text
from .errors import TimedataError
from .linkmodel import Target, Timestamp

# argparse reads `-1e5` as an option, as its negative numbers are -1 and -1.5
# only; _parse joins `--flag -1e5` into `--flag=-1e5` when this matches the value.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?(,|$)", re.I)


def _csv_of(convert):
    """argparse type for a comma-separated list, read as a tuple; empty items
    are skipped."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(part) for part in text.split(",") if part != "")
        except ValueError:
            message = f"expected comma-separated {convert.__name__}s, got {text!r}"
            raise argparse.ArgumentTypeError(message) from None
    return parse


def load_config(path: str) -> tuple[list[Target], Timestamp]:
    """Load targets and defaults from an INI config.

    Expects [target.<name>] sections with distance_km / range_lm keys and
    an optional [defaults] section with base_time (HH:MM:SS).
    """
    cp = configparser.ConfigParser(interpolation=None)  # a % is literal
    try:
        read = cp.read(path, encoding="utf-8")
    except configparser.Error as exc:  # joined: its message spans lines
        raise TimedataError(" ".join(str(exc).split())) from None
    if not read:
        raise TimedataError(f"cannot read config file {path!r}")

    def number(section, key):
        try:
            return finite_float(cp.get(section, key))
        except (ValueError, configparser.Error) as exc:  # bad or missing value
            raise TimedataError(f"[{section}] {key} in {path!r}: {exc}") from None

    targets = [Target(section[len("target."):], number(section, "distance_km"),
                      number(section, "range_lm"))
               for section in cp.sections() if section.startswith("target.")]
    if not targets:
        raise TimedataError(f"no [target.<name>] sections in {path!r}")
    base_time = Timestamp.parse(cp.get("defaults", "base_time", fallback="13:35:00"))
    return targets, base_time


def _vnum(a) -> str:
    v = optics.v_number(optics.FiberSpec(a.radius, a.wavelength, a.n1, a.n2))
    mode = "single-mode" if optics.is_single_mode(v) else "multi-mode"
    return f"V = {finite_text(v)} ({mode})"


def _sheetres(a) -> str:
    g = memtiming.ElectrodeGeometry(a.length, a.width, a.resistivity, a.thickness)
    return (f"R_s = {finite_text(memtiming.sheet_resistance(g))} Ohm/sq, "
            f"R = {finite_text(memtiming.resistance(g))} Ohm")


def _waterfall(a) -> str:
    carriers = [memtiming.Carrier(i, t) for i, t in enumerate(a.arrivals)]
    cells = memtiming.CellMap(
        cells=[(addr, addr) for addr in range(len(carriers))])
    alloc = memtiming.waterfall_allocate(carriers, cells)
    return "\n".join(f"carrier {carrier_id} -> cell {alloc[carrier_id]}"
                     for carrier_id in sorted(alloc))


def _polar(a) -> str:
    p = relativity.polar_from_cartesian(a.x, a.y)
    return (f"r = {finite_text(p.r)}, phi = {finite_text(p.phi)} rad, "
            f"J = {finite_text(relativity.jacobian_polar(p))}")


def _probe(a) -> str:
    probe = ptvda.scaling_probe(a.sizes, trials=a.trials, seed=a.seed)
    lines = [f"n = {n}: {finite_text(probe.measured[n])} s" for n in probe.sizes]
    if probe.loglog_slope is None:
        print("warning: timing below clock resolution; fit skipped", file=sys.stderr)
    else:
        lines.append(f"log-log slope: {probe.loglog_slope:.4f}")
    return "\n".join(lines)


def _slope(a) -> str:
    p1, p2 = geomlink.Point2(a.x1, a.y1), geomlink.Point2(a.x2, a.y2)
    return (f"slope = {finite_text(geomlink.slope(p1, p2))}, "
            f"length = {finite_text(geomlink.segment_length(p1, p2))}")


def _split(a) -> str:
    value, is_fold = geomlink.time_split_check(a.t, a.tpar)
    return f"{finite_text(value)} ({'fold' if is_fold else 'no fold'})"


def _sheet(a) -> str:
    targets, base_time = load_config(a.config)
    sheet = analysis.build_sheet(targets, a.progress, base_time)
    analysis.emit_csv(sheet, a.out)
    return f"wrote {len(sheet.records)} records to {a.out}"


def _chart(a) -> str:
    analysis.render_radar_chart(analysis.parse_csv(getattr(a, "in")), a.out)
    return f"wrote radar chart to {a.out}"


_REQUIRED = ...


def _floats(*names):
    """Required finite float flags with the given names."""
    return [(name, finite_float, _REQUIRED) for name in names]


# command -> (help, {action -> (flags, runner)}); the action None puts the flags
# on the command itself. A flag is (name, type, default) and a _REQUIRED default
# makes it mandatory. A runner takes the parsed arguments and returns the text to
# print, writing each result number with finite_text. --time stays a string so
# the DomainError of Timestamp.parse reaches main instead of argparse, and sort
# classify takes plain floats because inf is its infinity marker.
COMMANDS = {
    "link": ("comlink time-data model", {
        "eps": (_floats("progress", "range"), lambda a: (
            f"{linkmodel.epsilon_from_progress(a.progress, a.range):.6f} Lm")),
        "shift": ([("time", str, _REQUIRED)] + _floats("epsilon"), lambda a: str(
            linkmodel.shift_timestamp(Timestamp.parse(a.time), a.epsilon))),
        "fres": (_floats("distance", "progress"), lambda a: finite_text(
            linkmodel.frequency_resolution(a.distance, a.progress)) + " Hz"),
        "fdisp": (_floats("distance", "progress"), lambda a: finite_text(
            linkmodel.displaced_frequency_resolution(a.distance, a.progress)) + " Hz"),
        "unc": (_floats("domega", "dt"), lambda a: (
            "satisfied" if linkmodel.uncertainty_satisfied(a.domega, a.dt)
            else "violated")),
    }),
    "optics": ("fiber and Faraday optics", {
        "vnum": (_floats("radius", "wavelength", "n1", "n2"), _vnum),
        "snell": (_floats("theta1", "n1", "n2"), lambda a: finite_text(
            optics.snell_refracted_angle(a.theta1, a.n1, a.n2)) + " rad"),
        "faraday": (_floats("verdet", "bfield", "path"), lambda a: finite_text(
            optics.faraday_rotation(
                optics.FaradayCell(a.verdet, a.bfield, a.path))) + " rad"),
        "shell": (_floats("thickness", "length", "mean-radius", "circ-radius"),
                  lambda a: "A = {} m^2, V = {} m^3".format(*map(
                      finite_text, optics.isolation_geometry(optics.IsolationShell(
                          a.thickness, a.length, a.mean_radius, a.circ_radius))))),
    }),
    "mem": ("memory timing and electrical model", {
        "bitfreq": (_floats("bits", "qbits", "time"), lambda a: finite_text(
            memtiming.bit_frequency(a.bits, a.qbits, a.time)) + " Hz"),
        "sheetres": (_floats("length", "width", "resistivity", "thickness"),
                     _sheetres),
        "gm": (_floats("di", "dv"), lambda a: finite_text(
            memtiming.transconductance_baseline(a.di, a.dv)) + " S"),
        "eta": ([("collected", int, _REQUIRED), ("storable", int, _REQUIRED)],
                lambda a: finite_text(
                    memtiming.quantum_efficiency(a.collected, a.storable))),
        "waterfall": ([("arrivals", _csv_of(finite_float), _REQUIRED)], _waterfall),
    }),
    "rel": ("relativistic timing", {
        "gamma": (_floats("beta"), lambda a: finite_text(
            relativity.time_factor(relativity.Velocity(a.beta)))),
        "tau": (_floats("tdot"), lambda a: finite_text(
            relativity.stored_proper_time(a.tdot))),
        "proper": (_floats("dt") + [(v, finite_float, 0.0) for v in ("vx", "vy", "vz")],
                   lambda a: finite_text(relativity.proper_time_delta_general(
                       a.dt, a.vx, a.vy, a.vz)) + " s"),
        "polar": (_floats("x", "y"), _polar),
        "charge": (_floats("q1") + [(q, finite_float, 0.0) for q in ("qin", "qout")],
                   lambda a: finite_text(float(relativity.charge_balance(
                       relativity.ChargeLedger(a.q1, a.qin, a.qout)))) + " C"),
    }),
    "sort": ("partitioned parallel sort harness", {
        "run": ([("values", _csv_of(finite_float), _REQUIRED), ("partitions", int, 1)],
                lambda a: ",".join(map(finite_text, ptvda.parallel_sort(
                    ptvda.SortInstance(a.values, a.partitions))))),
        "classify": ([("n", float, _REQUIRED), ("nprime", float, _REQUIRED),
                      ("bound", float, ptvda.DEFAULT_RATIO_BOUND)],
                     lambda a: ptvda.classify_ratio(a.n, a.nprime, a.bound).value),
        "probe": ([("sizes", _csv_of(int), _REQUIRED), ("trials", int, 3),
                   ("seed", int, None)], _probe),
    }),
    "geom": ("comlink plane geometry", {
        "slope": (_floats("x1", "y1", "x2", "y2"), _slope),
        "split": (_floats("t", "tpar"), _split),
        "kin": (_floats("dx", "dy", "t", "tpar"),
                lambda a: "v = {}, a = {}, v_sync = {}".format(*map(
                    finite_text, geomlink.planar_kinematics(
                        geomlink.PlanarMotion((a.dx, a.dy), a.t, a.tpar))))),
    }),
    "sheet": ("build the link spreadsheet CSV", {
        None: ([("config", str, _REQUIRED),
                ("progress", _csv_of(finite_float), _REQUIRED),
                ("out", str, _REQUIRED)], _sheet),
    }),
    "chart": ("render the radar chart SVG", {
        None: ([("in", str, _REQUIRED), ("out", str, _REQUIRED)], _chart),
    }),
}


class _Value(argparse.Action):
    """Stores a flag's value. The argparse of Python 3.10 and 3.11 reads
    `--flag=--` as no value: it stores [] and never calls the flag's type.
    That is refused like `--flag --`; no type returns a list."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


def _leaf(argv):
    """The command (and action) path argv names, with that leaf's flags and
    runner, or None where argv names no leaf (missing, unknown or -h)."""
    _, actions = COMMANDS.get(argv[0] if argv else "", ("", {}))
    path = argv[:1] if None in actions else argv[:2]
    action = path[1] if path[1:] else None
    return (path, *actions[action]) if action in actions else None


def _with_flags(parser, flags, runner):
    for name, type_, default in flags:
        parser.add_argument("--" + name, type=type_, default=default,
                            required=default is _REQUIRED, action=_Value)
    parser.set_defaults(run=runner)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree of ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="timedata-lab",
        description="Comlink latency, optics, memory-timing, relativity, "
                    "sorting and spreadsheet toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, actions) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        if None not in actions:  # the action None is the command itself
            action_sub = command_parser.add_subparsers(dest="action", required=True)
        for action, (flags, runner) in actions.items():
            leaf = command_parser if action is None else action_sub.add_parser(action)
            _with_flags(leaf, flags, runner)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """argv read by the one parser of the leaf it names; by the whole tree when
    it names none or leaves tokens over, as the tree gives a leaf only the
    tokens after its path. Joins the leaf's negative values in argv in place."""
    if (leaf := _leaf(argv)) is not None:
        path, flags, runner = leaf
        names = {"--" + name for name, _, _ in flags}
        for i in range(len(argv) - 1, 0, -1):
            if argv[i - 1] in names and _NEGATIVE_NUMBER.match(argv[i]):
                argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
        parser = argparse.ArgumentParser(prog=" ".join(["timedata-lab", *path]))
        args, rest = _with_flags(parser, flags, runner).parse_known_args(argv[len(path):])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        text = args.run(args)
    except (TimedataError, ArithmeticError) as exc:  # kernel overflow, x / 0
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    if text:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
