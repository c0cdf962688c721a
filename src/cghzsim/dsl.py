"""Line-oriented circuit description language.

Circuits are straight-line programs, so the format is one instruction
per line with a mandatory header declaring the base amplitude::

    alpha 2.0
    prep a +          # '+'/'-' mean +alpha / -alpha
    prep b 0.5-1.25i  # or any complex literal RE / RE+IMi / RE-IMi
    h a               # optional: h a ref 2.0
    bs a b
    split b c
    select0 a

``#`` starts a comment.  Parsing never raises on malformed input: every
problem becomes a diagnostic with a line/column span, and any error
suppresses circuit emission.  Serialization is canonical (lowercase
keywords, shortest round-tripping number format); it refuses a circuit
that ``validate`` rejects, and ``parse(serialize(c))`` reproduces every
circuit it accepts exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

from .engine import (
    BeamSplitter,
    Circuit,
    Hadamard,
    Instruction,
    Prep,
    SelectVacuum,
    Split,
    _IDENT_OK,
    _check_valid,
    validate,
)

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(rf"^{_NUM}$")
_COMPLEX_RE = re.compile(
    rf"^(?P<re>{_NUM})(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$")


@dataclass(frozen=True)
class SourceSpan:
    line: int    # 1-based
    column: int  # 1-based


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    message: str

    def __str__(self):
        return f"{self.span.line}:{self.span.column}: error: {self.message}"


@dataclass
class ParseResult:
    circuit: Circuit | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.circuit is not None


def _fmt_real(x: float) -> str:
    """Shortest representation that round-trips the double exactly."""
    return repr(float(x))


def _fmt_amp(z: complex, alpha: float) -> str:
    if z == complex(alpha, 0.0):
        return "+"
    if z == complex(-alpha, 0.0):
        return "-"
    if z.imag == 0.0:
        return _fmt_real(z.real)
    sign = "+" if z.imag > 0 else "-"
    return f"{_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}i"


def _read_real(tok: str, what: str) -> float:
    if not _REAL_RE.match(tok):
        raise ValueError(f"'{tok}' is not a valid {what}")
    return float(tok)


def _read_mode(tok: str, alpha: float) -> str:
    if not _IDENT_OK(tok):
        raise ValueError(f"'{tok}' is not a valid mode name")
    return tok


def _read_amp(tok: str, alpha: float) -> complex:
    if tok in ("+", "-"):
        return complex(alpha if tok == "+" else -alpha, 0.0)
    m = _COMPLEX_RE.match(tok)
    if not m:
        raise ValueError(f"'{tok}' is not a valid amplitude (use +, -, RE, "
                         f"RE+IMi or RE-IMi)")
    return complex(float(m.group("re")),
                   float(m.group("im")) if m.group("im") else 0.0)


class _Kind(NamedTuple):
    """How one kind of field is read from its token and written back,
    given the circuit alpha; ``read`` raises ValueError with the
    diagnostic's message."""
    read: Callable[[str, float], object]
    write: Callable[[object, float], str]


_MODE = _Kind(_read_mode, lambda name, alpha: name)
_AMP = _Kind(_read_amp, _fmt_amp)
_REF = _Kind(lambda tok, alpha: _read_real(tok, "reference amplitude"),
             lambda ref, alpha: f"ref {_fmt_real(ref)}")


# The one place each instruction keyword is spelled: parse reads and
# serialize writes every instruction through its entry, which holds the
# instruction class, the kind of each of its fields in field order, and
# what the keyword takes, for the arity diagnostic.
_SYNTAX = {
    "prep": (Prep, (_MODE, _AMP), "a mode name and an amplitude"),
    "h": (Hadamard, (_MODE, _REF),
          "a mode name and an optional 'ref <value>'"),
    "bs": (BeamSplitter, (_MODE, _MODE), "two mode names"),
    "split": (Split, (_MODE, _MODE), "a source mode and a new mode name"),
    "select0": (SelectVacuum, (_MODE,), "one mode name"),
}


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Whitespace-split tokens with their 1-based start columns; text
    from the first '#' on is a comment."""
    hash_pos = line.find("#")
    if hash_pos != -1:
        line = line[:hash_pos]
    return [(m.group(0), m.start() + 1)
            for m in re.finditer(r"\S+", line)]


def parse(text: str) -> ParseResult:
    """Parse circuit text; diagnostics carry line/column positions.

    The returned circuit has also passed static validation; validation
    findings are mapped back to the source line of the offending
    instruction.  Any error leaves ``circuit`` as None.
    """
    diags: list[ParseDiagnostic] = []
    instructions: list[Instruction] = []
    ins_lines: list[int] = []
    alpha: float | None = None
    alpha_line = 1

    def err(line_no, col, msg):
        diags.append(ParseDiagnostic(SourceSpan(line_no, col), msg))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        if not toks:
            continue
        (kw, kw_col), args = toks[0], toks[1:]

        if alpha is None:
            alpha_line = line_no
            # a bad header still lets later lines get diagnostics
            alpha = float("nan")
            if kw != "alpha":
                err(line_no, kw_col,
                    "circuit must start with an 'alpha <value>' header")
            elif len(args) != 1:
                err(line_no, kw_col, "'alpha' takes exactly one value")
            else:
                try:
                    alpha = _read_real(args[0][0], "real number")
                except ValueError as exc:
                    err(line_no, args[0][1], str(exc))
            if kw == "alpha":
                continue

        if kw == "alpha":
            err(line_no, kw_col, "duplicate 'alpha' header")
            continue
        if kw not in _SYNTAX:
            err(line_no, kw_col, f"unknown keyword '{kw}'")
            continue
        cls, kinds, usage = _SYNTAX[kw]
        # the optional 'ref <value>' clause, last, takes two tokens or none
        optional = kinds[-1] is _REF
        fixed = len(kinds) - optional
        if len(args) not in ((fixed, fixed + 2) if optional else (fixed,)):
            err(line_no, kw_col, f"'{kw}' takes {usage}")
            continue
        # a present clause's first token is its word; the value is read as
        # the field
        word, word_col = args.pop(fixed) if len(args) > fixed else ("ref", 0)
        values = []
        for kind, (tok, col) in zip(kinds, args):
            if kind is _REF and word != "ref":
                err(line_no, word_col, f"expected 'ref', got '{word}'")
                break
            try:
                values.append(kind.read(tok, alpha))
            except ValueError as exc:
                err(line_no, col, str(exc))
        if len(values) == len(args):
            # an absent clause leaves its field at the default, None
            instructions.append(cls(*values))
            ins_lines.append(line_no)

    if alpha is None:
        err(1, 1, "missing 'alpha' header")
        return ParseResult(None, diags)
    if diags:
        return ParseResult(None, diags)

    circuit = Circuit(alpha=alpha, instructions=tuple(instructions))
    for d in validate(circuit):
        line = alpha_line if d.index is None else ins_lines[d.index]
        diags.append(ParseDiagnostic(SourceSpan(line, 1), d.message))
    return ParseResult(None if diags else circuit, diags)


def serialize(circuit: Circuit) -> str:
    """Canonical text form; parse(serialize(c)) reproduces c exactly.

    Raises CircuitValidationError if validate() reports anything: parse
    would refuse the text, and a foreign instruction has no text form.
    """
    _check_valid(validate(circuit))
    lines = [f"alpha {_fmt_real(circuit.alpha)}"]
    for ins in circuit.instructions:
        kw, cls, kinds = next((kw, cls, kinds)
                              for kw, (cls, kinds, _) in _SYNTAX.items()
                              if isinstance(ins, cls))
        values = (getattr(ins, f.name) for f in fields(cls))
        lines.append(" ".join([kw] + [
            kind.write(v, circuit.alpha)
            for kind, v in zip(kinds, values) if v is not None]))
    return "\n".join(lines) + "\n"
