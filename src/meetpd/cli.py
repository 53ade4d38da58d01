"""Command line front end: matrix | check | decompose | grid.

Exit codes: 0 for a positive verdict (or successful output), 1 for a
negative verdict, 2 for configuration errors, 3 for evaluation errors.
JSON documents carry a top-level ``schema`` field: 1 for check and
matrix, 2 for decompose (whose ``order_map`` holds only ``shape``; the
diagonal is in lexicographic multi-index order).  CSV uses a comma
separator with exact rationals rendered as p/q.
"""

import argparse
import json
import sys
from collections import namedtuple
from fractions import Fraction

from .arith import builtin, to_lattice_function
from .errors import EvaluationError, MeetPDError
from .incidence import value_blocks
from .meetmatrix import (
    decomposition_to_json,
    kron_decompose_d,
    matrix_to_csv,
    matrix_to_json,
    meet_matrix,
    reconstruct,
    summatory_function,
    table_function,
)
from .pdcheck import pd_criterion
from .posets import Poset, divisor_lattice, load_hasse, min_lattice

CONFIG_ERROR = 2
EVAL_ERROR = 3
# matrix and decompose write n x n documents
MAX_MATRIX_MEMBERS = 1024
# check reads each member once and never builds a product covering set: at
# this limit check --d 2 --fn gcd_pow:1 --m 1024 took 0.54-0.70 s and 40 MB
# peak, and at d = 1 check --fn gcd_pow:1 took 0.23-0.36 s and 41 MB at
# m = 100,000 and 2.0-2.5 s and 266 MB at m = 1,048,576 (cold, 2 vCPUs)
MAX_CHECK_MEMBERS = 1 << 20


class ConfigError(Exception):
    pass


class RunConfig(namedtuple("RunConfig", "family d fn bound fmt out")):
    """One resolved command line; fn is a LatticeFunction on family, or None."""

    __slots__ = ()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="meetpd",
        description="meet matrices, structured decompositions, and positive "
                    "semidefiniteness checks on meet semilattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("matrix", "write the meet matrix of the covering set at the bound"),
        ("check", "decide positive definiteness on the tested covering"),
        ("decompose", "write the structured factorization of the covering matrix"),
        ("grid", "emit the summatory-of-one grid data for a 2-d family"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--family", choices=["divisor", "min"], default=None)
        p.add_argument("--d", type=int, default=None, help="arity of the family")
        if name != "grid":
            p.add_argument("--fn", default=None,
                           help="builtin name[:param], or @file.csv / @file.json value table")
        p.add_argument("--m", type=int, required=(name != "grid"), default=None,
                       help="covering bound")
        if name in ("matrix", "decompose"):
            p.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)
        p.add_argument("--out", default=None)
        if name != "grid":
            p.add_argument("--hasse", default=None, help="explicit lattice description file")
        p.set_defaults(fn=None, fmt=None, hasse=None)
    return parser


def _parse_cell(text):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _too_many_digits():
    return ConfigError(f"a value has more than {sys.get_int_max_str_digits()} digits, "
                       "more than can be written")


def _rational_cell(value):
    """Fraction(value) of a string or int table value.  A decimal exponent
    past str()'s digit limit is refused before 10**exponent is built."""
    if type(value) not in (str, int):
        raise ValueError(f"value {value!r} is neither a string nor an integer")
    _, e, exponent = str(value).lower().partition("e")
    try:
        if e and abs(int(exponent)) > sys.get_int_max_str_digits():
            raise _too_many_digits()
    except ValueError:  # not a decimal exponent: Fraction judges the value
        pass
    return Fraction(value)


def _table(rows, path):
    """Value table from (coordinates, value) rows of one arity, one row per
    element; a value that is an integer is kept as an int."""
    mapping = {}
    arity = None
    for keys, value in rows:
        if arity is not None and len(keys) != arity:
            raise ConfigError(f"rows of {path} have {arity} and {len(keys)} coordinates")
        arity = len(keys)
        key = keys[0] if arity == 1 else tuple(keys)
        if key in mapping:
            raise ConfigError(f"value table {path} has a duplicate row for {key}")
        q = _rational_cell(value)
        mapping[key] = q.numerator if q.denominator == 1 else q
    if not mapping:
        raise ConfigError(f"value table {path} is empty")
    return mapping, arity


def _load_table(path, text_ids):
    """Value table from CSV rows ``i1,...,id,value`` (ids may be strings)."""
    cell = str.strip if text_ids else _parse_cell
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise ConfigError(f"bad table row: {line}")
            rows.append(([cell(c) for c in cells[:-1]], cells[-1]))
    return _table(rows, path)


def _load_matrix_diagonal(path, text_ids):
    """Diagonal of a matrix JSON document as a value table."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("kind") != "meet_matrix":
        raise ConfigError(f"{path} is not a meet matrix document")
    entries, labels = doc.get("entries"), doc.get("labels")
    if not isinstance(labels, list):
        raise ValueError("labels must be a list")
    if not (isinstance(entries, list) and len(entries) == len(labels)
            and all(isinstance(row, list) for row in entries)):
        raise ValueError("entries must hold one row per label")
    if any(len(row) <= i for i, row in enumerate(entries)):
        raise ValueError("a row ends before its diagonal entry")
    for x in labels:  # as matrix writes them: an int or a string, or a list of those
        if not all(type(c) in (int, str) for c in (x if type(x) is list else [x])):
            raise ValueError(f"label {x!r} is neither a string, an integer nor a list of those")
    labels = [[str(c) if text_ids else c for c in (x if type(x) is list else [x])] for x in labels]
    return _table(((x, entries[i][i]) for i, x in enumerate(labels)), path)


def _resolve_function(spec, d, text_ids):
    """The --fn value as (value table or builtin function, its arity).

    With text_ids (an explicit Hasse lattice, whose element ids are
    strings) table ids are read as text; otherwise a CSV id that parses
    as an integer is read as one.
    """
    if spec is None:
        raise ConfigError("--fn is required for this command")
    if spec.startswith("@"):
        path = spec[1:]
        load = _load_matrix_diagonal if path.endswith(".json") else _load_table
        try:
            mapping, arity = load(path, text_ids)
        except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}")
        if d is not None and d != arity:
            raise ConfigError(f"table arity {arity} does not match --d {d}")
        return mapping, arity
    name, _, param = spec.partition(":")
    alpha = None
    if param:
        try:
            alpha = Fraction(param)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad parameter {param!r} in --fn")
    try:
        fn = builtin(name, alpha=alpha, d=d if d is not None else (2 if name == "ramanujan_C" else 1))
    except (ValueError, MeetPDError) as exc:
        raise ConfigError(str(exc))
    return fn, fn.lattice.arity


def _resolve_config(args, need_fn=True):
    if args.hasse is not None and args.family is not None:
        raise ConfigError("--hasse and --family are mutually exclusive")
    bound = args.m
    if bound is not None and bound < 1:
        raise ConfigError("--m must be at least 1")

    family = None
    if args.hasse is not None:
        try:
            family = load_hasse(args.hasse)
        except (OSError, ValueError, MeetPDError) as exc:
            raise ConfigError(f"cannot load {args.hasse}: {exc}")

    text_ids = isinstance(family, Poset)
    fn, d = _resolve_function(args.fn, args.d, text_ids) if need_fn else (None, args.d)
    d = 1 if d is None else d
    if d < 1:
        raise ConfigError("--d must be at least 1")

    if family is None:
        family = min_lattice(d) if args.family == "min" else divisor_lattice(d)
    if isinstance(fn, dict):
        fn = table_function(family, fn, name=args.fn)
    elif fn is not None:
        fn = to_lattice_function(fn, family)
    return RunConfig(family, d, fn, bound, args.fmt, args.out)


def _emit(render, out):
    """Write render()'s text to out, or to stdout if out is None.  An int past
    str()'s digit limit makes render() raise ValueError: exit 2, nothing written."""
    try:
        text = render()
    except ValueError:
        raise _too_many_digits() from None
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}")


def _refuse_large_covering(config, command, limit):
    """Refuse a covering set of more than limit members before it is built."""
    family = config.family
    if isinstance(family, Poset):
        size = len(family)
    else:
        # an exponent past the limit's bit length already exceeds the limit
        size = config.bound ** min(family.arity, limit.bit_length())
    if size > limit:
        raise ConfigError(f"{command} is limited to covering sets of at most "
                          f"{limit} members; this one has more")


def _matrix_covering(config, command):
    """The covering set, refused above MAX_MATRIX_MEMBERS before it is built."""
    _refuse_large_covering(config, command, MAX_MATRIX_MEMBERS)
    return config.family.covering_set(config.bound)


def cmd_matrix(config):
    m = meet_matrix(_matrix_covering(config, "matrix"), config.fn)
    if (config.fmt or "json") == "csv":
        _emit(lambda: matrix_to_csv(m), config.out)
    else:
        _emit(lambda: json.dumps(matrix_to_json(m), indent=2) + "\n", config.out)
    return 0


def cmd_check(config):
    _refuse_large_covering(config, "check", MAX_CHECK_MEMBERS)
    verdict = pd_criterion(config.fn, config.family, config.bound)
    _emit(lambda: json.dumps({"schema": 1, **verdict.to_json()}, indent=2) + "\n", config.out)
    return 0 if verdict.is_positive else 1


def cmd_decompose(config):
    f = config.fn
    cover = _matrix_covering(config, "decompose")
    dec = kron_decompose_d(cover.factors, f)
    residual = reconstruct(dec).max_abs_difference(meet_matrix(cover, f))
    if (config.fmt or "json") == "csv":
        _emit(lambda: ",".join(map(str, dec.diag)) + "\n", config.out)
    else:
        _emit(lambda: _decomposition_text(decomposition_to_json(dec, residual=residual)) + "\n",
              config.out)
    return 0


def _indented(items, depth):
    """A JSON list of rendered items, laid out as json.dumps(..., indent=2) lays it at depth."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _decomposition_text(doc):
    """json.dumps(doc, indent=2), with the n^2 0/1 factor entries joined as text.

    The rest of the document goes through json.dumps in two parts, the
    keys before "factors" and the keys after it, spliced around the block.
    """
    keys = list(doc)
    at = keys.index("factors")
    head = json.dumps({k: doc[k] for k in keys[:at]}, indent=2)
    tail = json.dumps({k: doc[k] for k in keys[at + 1:]}, indent=2)
    block = _indented([_indented([_indented(list(map(str, row)), 3) for row in fac], 2)
                       for fac in doc["factors"]], 1)
    return head[:-2] + ',\n  "factors": ' + block + ",\n" + tail[2:]


def cmd_grid(config):
    if config.d != 2:
        raise ConfigError("grid data is two-dimensional; use --d 2")
    config = config._replace(bound=config.bound or 10)
    _refuse_large_covering(config, "grid", MAX_CHECK_MEMBERS)
    f = summatory_function(config.family, lambda _z: 1, name="lower_set_size")
    lines = [f"{a},{b},{Fraction(v, den) if den > 1 else v}"
             for xs, values, den in value_blocks(f, config.family.covering_set(config.bound))
             for (a, b), v in zip(xs, values)]
    _emit(lambda: "\n".join(lines) + "\n", config.out)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "grid" and args.d is None:
        args.d = 2
    try:
        config = _resolve_config(args, need_fn=args.command != "grid")
        if args.command == "matrix":
            return cmd_matrix(config)
        if args.command == "check":
            return cmd_check(config)
        if args.command == "decompose":
            return cmd_decompose(config)
        return cmd_grid(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EVAL_ERROR
    except MeetPDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
