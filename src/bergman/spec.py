"""The ``name(key=value,...)`` spec grammar of weights and functions.

A family table maps each name to ``(build, keys)``.  ``keys`` declares the
parameters as data, ``{key: (type, default)}``: type ``float`` (finite),
``int`` (integral, so ``deg=2e3`` is 2000 and ``deg=2.7`` an error) or
``str``, and a default or ``REQUIRED``; ``build`` gets them as keyword
arguments.  Keys ``COMPLEX`` instead declare one or more positional finite
complex tokens, passed to ``build`` as one list.  Unknown families and
keys, repeated keys and malformed or non-finite values raise
``DomainError``.
"""

import cmath
import re

from .errors import DomainError

REQUIRED = object()
COMPLEX = object()

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$", re.S)


def parse(text, families):
    """Build the object the spec ``text`` names in the table ``families``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise DomainError("spec %r does not match name(key=value,...)" % text)
    name, body = m.group(1), m.group(2).strip()
    if name not in families:
        raise DomainError("unknown family %r in spec %r" % (name, text))
    build, keys = families[name]
    parts = body.split(",") if body else []
    if keys is COMPLEX:
        return build([value(complex, tok, name) for tok in parts])
    given = {}
    for part in parts:
        key, eq, val = (s.strip() for s in part.partition("="))
        if not eq or key not in keys:
            raise DomainError("unknown parameter %r in spec %r" % (part, text))
        if key in given:
            raise DomainError("repeated parameter %r in spec %r" % (key, text))
        given[key] = value(keys[key][0], val, key)
    args = {key: given.get(key, default) for key, (_, default) in keys.items()}
    missing = [key for key, v in args.items() if v is REQUIRED]
    if missing:
        raise DomainError("spec %r is missing %s=" % (text, missing[0]))
    return build(**args)


def value(kind, text, key):
    """``text`` read as ``kind`` (float, int, complex or str) for ``key``."""
    if kind is str:
        return text
    try:
        v = complex(text) if kind is complex else float(text)
    except ValueError:
        raise DomainError("%s=%r is not a number" % (key, text)) from None
    if not cmath.isfinite(v):
        raise DomainError("%s=%r is not finite" % (key, text))
    if kind is int:
        if v != int(v):
            raise DomainError("%s=%r is not an integer" % (key, text))
        return int(v)
    return v
