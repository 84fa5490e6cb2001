"""Command-line front end exposing every toolkit module as a subcommand.

The whole command line is declared in ``COMMANDS``: ``main`` reads argv against the
flags that ``COMMANDS`` gives the leaf argv names, as argparse would read the parsers
``build_parser`` makes of it, into a ``types.SimpleNamespace``, and calls that leaf's
runner. argparse, imported by ``build_parser`` alone, only formats help and usage text,
building the parser of the one level that the text is about.
"""

import os
import sys
import types

from .errors import (TimedataError, finite_float, finite_floats, finite_text,
                     plain_float, plain_int, plain_ints)


class _Lazy:
    """The module timedata_lab.<name>, imported on its first attribute read, which writes
    it over this proxy in cli's globals: a leaf loads only the kernel it runs."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        name = self._name
        module = globals()[name] = getattr(__import__(__package__, fromlist=[name]), name)
        return getattr(module, attr)


analysis, geomlink, linkmodel, memtiming, optics, ptvda, relativity = map(_Lazy, (
    "analysis", "geomlink", "linkmodel", "memtiming", "optics", "ptvda", "relativity"))


def load_config(path: str) -> "tuple[list[linkmodel.Target], linkmodel.Timestamp]":
    """Load targets and defaults from an INI config.

    Expects [target.<name>] sections with distance_km / range_lm keys and
    an optional [defaults] section with base_time (HH:MM:SS).
    """
    import configparser  # imported at start, it would cost every other leaf 2-4 ms
    cp = configparser.ConfigParser(interpolation=None)  # a % is literal
    try:  # an OSError or UnicodeDecodeError is main's `file error:`, as for a CSV
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:  # joined: its message spans lines
        raise TimedataError(" ".join(str(exc).split())) from None

    def number(section, key):
        try:
            return finite_float(cp.get(section, key))
        except (ValueError, configparser.Error) as exc:  # bad or missing value
            raise TimedataError(f"[{section}] {key} in {path!r}: {exc}") from None

    targets = [linkmodel.Target(section[len("target."):], number(section, "distance_km"),
                                number(section, "range_lm"))
               for section in cp.sections() if section.startswith("target.")]
    if not targets:
        raise TimedataError(f"no [target.<name>] sections in {path!r}")
    base_time = linkmodel.Timestamp.parse(
        cp.get("defaults", "base_time", fallback="13:35:00"))
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
    """Carrier i arrives at arrivals[i], read by finite_floats and checked by Carrier.
    Cell i has address i and distance rank i, so each carrier's cell is its place in
    fifo_order, and no cell map is built or checked."""
    order = memtiming.fifo_order(map(memtiming.Carrier, range(len(a.arrivals)), a.arrivals))
    cell = {carrier.id: rank for rank, carrier in enumerate(order)}
    return "\n".join(f"carrier {i} -> cell {cell[i]}" for i in range(len(order)))


def _polar(a) -> str:
    p = relativity.polar_from_cartesian(a.x, a.y)
    return (f"r = {finite_text(p.r)}, phi = {finite_text(p.phi)} rad, "
            f"J = {finite_text(relativity.jacobian_polar(p))}")


def _probe(a) -> tuple[str, list[str]]:
    probe = ptvda.scaling_probe(a.sizes, trials=a.trials, seed=a.seed)
    lines = [f"n = {n}: {finite_text(t)} s" for n, t in probe.measured.items()]
    if probe.loglog_slope is None:
        return "\n".join(lines), ["warning: timing below clock resolution; fit skipped"]
    return "\n".join(lines + [f"log-log slope: {probe.loglog_slope:.4f}"]), []


def _sort(a) -> str:
    """The sorted values by finite_text's format, all in one: finite_floats read them
    as finite floats, and parallel_sort only reorders them, so none needs a check."""
    values = tuple(ptvda.parallel_sort(ptvda.SortInstance(a.values, a.partitions)))
    return ("%.6g," * len(values))[:-1] % values


def _classify(a) -> str:
    bound = {} if a.bound is None else {"m_bound": a.bound}  # else classify_ratio's default
    return ptvda.classify_ratio(a.n, a.nprime, **bound)


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


def _chart(a) -> tuple[str, list[str]]:
    omitted = analysis.render_radar_chart(analysis.parse_csv(getattr(a, "in")), a.out)
    return f"wrote radar chart to {a.out}", [
        f"warning: attribute {attr} is all sentinels; omitted" for attr in omitted]


_REQUIRED = ...


def _floats(*names):
    """Required finite float flags with the given names."""
    return [(name, finite_float, _REQUIRED) for name in names]


# command -> (help, {action -> (flags, runner)}); the action None puts the flags on
# the command itself. A flag is (name, type, default); a _REQUIRED default makes it
# mandatory. A runner takes the parsed arguments and returns its text, or its text
# and its warning lines, writing each result number with finite_text (sort run its
# finite floats by that format, all in one). --time stays a string so the DomainError
# of Timestamp.parse is a typed error, not a usage one, and sort classify takes plain
# floats because inf is its infinity marker.
COMMANDS = {
    "link": ("comlink time-data model", {
        "eps": (_floats("progress", "range"), lambda a: (
            f"{linkmodel.epsilon_from_progress(a.progress, a.range):.6f} Lm")),
        "shift": ([("time", str, _REQUIRED)] + _floats("epsilon"), lambda a: str(
            linkmodel.shift_timestamp(linkmodel.Timestamp.parse(a.time), a.epsilon))),
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
        "eta": ([("collected", plain_int, _REQUIRED), ("storable", plain_int, _REQUIRED)],
                lambda a: finite_text(
                    memtiming.quantum_efficiency(a.collected, a.storable))),
        "waterfall": ([("arrivals", finite_floats, _REQUIRED)], _waterfall),
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
                   lambda a: finite_text(relativity.charge_balance(
                       relativity.ChargeLedger(a.q1, a.qin, a.qout))) + " C"),
    }),
    "sort": ("partitioned parallel sort harness", {
        "run": ([("values", finite_floats, _REQUIRED), ("partitions", plain_int, 1)], _sort),
        "classify": ([("n", plain_float, _REQUIRED), ("nprime", plain_float, _REQUIRED),
                      ("bound", plain_float, None)], _classify),
        "probe": ([("sizes", plain_ints, _REQUIRED), ("trials", plain_int, 3),
                   ("seed", plain_int, None)], _probe),
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
                ("progress", finite_floats, _REQUIRED),
                ("out", str, _REQUIRED)], _sheet),
    }),
    "chart": ("render the radar chart SVG", {
        None: ([("in", str, _REQUIRED), ("out", str, _REQUIRED)], _chart),
    }),
}


def build_parser(path=()):
    """The argparse parser of the level of ``COMMANDS`` at path: () for the whole command
    line, (command,) or (command, action) below it. A leaf's parser holds its flags, any
    other one subparser of each choice, which is left empty. It formats the level's help
    and usage text; _parse reads argv. It alone imports argparse."""
    import argparse  # imported at start, it would cost every leaf about 3 ms
    parser = argparse.ArgumentParser(prog=" ".join(["timedata-lab", *path]), description=(
        None if path else "Comlink latency, optics, memory-timing, relativity, "
                          "sorting and spreadsheet toolkit"))
    actions = COMMANDS[path[0]][1] if path else {}
    if path[1:] or None in actions:  # a leaf: the action None is the command itself
        for name, _, default in actions[path[1] if path[1:] else None][0]:
            parser.add_argument("--" + name, required=default is _REQUIRED)
    elif path:
        sub = parser.add_subparsers(dest="action", required=True)
        for action in actions:  # no help=: even help=None adds a line to the help
            sub.add_parser(action)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for command, (help_text, _) in COMMANDS.items():
            sub.add_parser(command, help=help_text)
    return parser


def _exit(path, message="") -> SystemExit:
    """SystemExit whose args are _write's for the level at path, whose parser alone is
    built: its help for stdout and code 0, or given a message, its usage and
    `<prog>: error:` line for stderr, 2."""
    parser = build_parser(path)
    if message:
        return SystemExit([f"{parser.format_usage()}{parser.prog}: error: {message}"], "", 2)
    return SystemExit([], parser.format_help()[:-1], 0)


def _option(token, path, flags):
    """The one flag of flags that token, up to any `=`, is a prefix of, or None; it names
    none in full. `-h` and a prefix of --help raise help; a prefix of two, a usage error."""
    name, eq, text = token.partition("=")
    options = ([flag for flag in ("--help", *flags) if flag.startswith(name)]
               if name[:2] == "--" else ["--help"] if name == "-h" else [])
    if options[1:]:
        raise _exit(path, f"ambiguous option: {token} could match {', '.join(options)}")
    if options == ["--help"]:
        raise _exit(path, eq and f"argument -h/--help: ignored explicit argument {text!r}")
    return options[0] if options else None


def _choose(tokens, path, choices, leftover):
    """The entry of choices named by the next token that argparse reads as no option,
    which is appended to path. An option before it is help, or else left over."""
    for token in tokens:
        # argparse's negative numbers, digits with at most one point, are no options
        if token[:1] != "-" or token in ("-", "--") or token[1:].replace(".", "", 1).isdecimal():
            if token not in choices:
                raise _exit(path, f"argument {('command', 'action')[len(path)]}: invalid "
                            f"choice: {token!r} (choose from {', '.join(map(repr, choices))})")
            path.append(token)
            return choices[token]
        _option(token, path, ())  # raises for help; no other option is known here
        leftover.append(token)
    raise _exit(path, f"the following arguments are required: {('command', 'action')[len(path)]}")


def _parse(argv) -> types.SimpleNamespace:
    """A types.SimpleNamespace of the defaults that COMMANDS gives the leaf argv names,
    with its runner as run, and each value argv gives, read as argparse reads the leaf's
    parser; help and usage raise _exit."""
    tokens, path, leftover = iter(argv), [], []
    _, actions = _choose(tokens, path, COMMANDS, leftover)
    flags, runner = actions[None] if None in actions else _choose(tokens, path, actions, leftover)
    values, declared = {"run": runner}, {}  # {--name: (attribute, type)}
    for name, type_, default in flags:
        values[dest := name.replace("-", "_")] = default
        declared["--" + name] = dest, type_
    for token in tokens:
        flag, eq, text = token.partition("=")
        # a token that names no flag is left over, as is each one from `--` on
        if token == "--" or flag not in declared and not (flag := _option(token, path, declared)):
            leftover += [token, *tokens] if token == "--" else [token]
            continue
        if not eq:  # the next token, which `--`, `-h` and each `--name` cannot be
            text = next(tokens, "--")
        if text == "--" or not eq and (text[:2] == "--" or text == "-h"):
            raise _exit(path, f"argument {flag}: expected one argument")
        dest, type_ = declared[flag]
        try:
            values[dest] = type_(text)
        except (TypeError, ValueError):
            raise _exit(path, f"argument {flag}: invalid {type_.__name__} value: "
                        f"{text!r}") from None
    if _REQUIRED in values.values():
        raise _exit(path, "the following arguments are required: " + ", ".join(
            flag for flag, (dest, _) in declared.items() if values[dest] is _REQUIRED))
    if leftover:
        raise _exit([], "unrecognized arguments: " + " ".join(leftover))
    return types.SimpleNamespace(**values)


def _write(lines, text, code) -> int:
    """Prints lines to stderr, then text, unless empty, to stdout, and flushes both.
    Returns code, or 1 if a stream raised or is None (closed at start) with something
    to write. One that raised is pointed at os.devnull, so that Python's flush at exit
    cannot fail; nothing reports the failure, and the other stream is still written."""
    for stream, texts in ((sys.stderr, lines), (sys.stdout, [text] if text else [])):
        if stream is None:  # print would take None for stdout
            code = 1 if texts else code
            continue
        try:
            for line in texts:  # line and newline apart: under PYTHONUNBUFFERED, one
                print(line, file=stream)  # write to a closed pipe can fall short unraised
            stream.flush()
        except OSError:
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), stream.fileno())
            code = 1
    return code


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        out = args.run(args)
    except SystemExit as exc:  # help or a usage error, as _exit formats it
        return _write(*exc.args)
    except TimedataError as exc:
        return _write([f"error: {exc}"], "", 1)
    except (OSError, UnicodeDecodeError) as exc:
        return _write([f"file error: {exc}"], "", 1)
    text, warnings = out if isinstance(out, tuple) else (out, ())
    return _write(warnings, text, 0)


if __name__ == "__main__":
    sys.exit(main())
