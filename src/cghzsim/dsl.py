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
keywords, shortest round-tripping number format), and
``parse(serialize(c))`` reproduces the circuit exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .engine import (
    BeamSplitter,
    Circuit,
    Hadamard,
    Instruction,
    Prep,
    SelectVacuum,
    Split,
    validate,
)

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(rf"^{_NUM}$")
_COMPLEX_RE = re.compile(
    rf"^(?P<re>{_NUM})(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class SourceSpan:
    line: int    # 1-based
    column: int  # 1-based


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    message: str
    severity: str = "error"

    def __str__(self):
        return (f"{self.span.line}:{self.span.column}: "
                f"{self.severity}: {self.message}")


@dataclass
class ParseResult:
    circuit: Circuit | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.circuit is not None and not any(
            d.severity == "error" for d in self.diagnostics)


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

    def want_ident(line_no, tok, col):
        if not _IDENT_RE.match(tok):
            err(line_no, col, f"'{tok}' is not a valid mode name")
            return None
        return tok

    def want_real(line_no, tok, col, what):
        if not _REAL_RE.match(tok):
            err(line_no, col, f"'{tok}' is not a valid {what}")
            return None
        return float(tok)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        if not toks:
            continue
        (kw, kw_col), args = toks[0], toks[1:]

        if alpha is None:
            alpha_line = line_no
            if kw != "alpha":
                err(line_no, kw_col,
                    "circuit must start with an 'alpha <value>' header")
                # keep scanning so later lines still get diagnostics
                alpha = float("nan")
            elif len(args) != 1:
                err(line_no, kw_col, "'alpha' takes exactly one value")
                alpha = float("nan")
            else:
                val = want_real(line_no, args[0][0], args[0][1], "real number")
                alpha = float("nan") if val is None else val
            if kw == "alpha":
                continue

        if kw == "alpha":
            err(line_no, kw_col, "duplicate 'alpha' header")
            continue

        if kw == "prep":
            if len(args) != 2:
                err(line_no, kw_col, "'prep' takes a mode name and an "
                                     "amplitude")
                continue
            name = want_ident(line_no, args[0][0], args[0][1])
            amp_tok, amp_col = args[1]
            if name is None:
                continue
            if amp_tok == "+":
                amp = complex(alpha, 0.0)
            elif amp_tok == "-":
                amp = complex(-alpha, 0.0)
            else:
                m = _COMPLEX_RE.match(amp_tok)
                if not m:
                    err(line_no, amp_col,
                        f"'{amp_tok}' is not a valid amplitude (use +, -, "
                        f"RE, RE+IMi or RE-IMi)")
                    continue
                amp = complex(float(m.group("re")),
                              float(m.group("im")) if m.group("im") else 0.0)
            instructions.append(Prep(name, amp))
            ins_lines.append(line_no)
        elif kw == "h":
            if len(args) not in (1, 3):
                err(line_no, kw_col, "'h' takes a mode name and an optional "
                                     "'ref <value>'")
                continue
            name = want_ident(line_no, args[0][0], args[0][1])
            if name is None:
                continue
            ref = None
            if len(args) == 3:
                if args[1][0] != "ref":
                    err(line_no, args[1][1], f"expected 'ref', got "
                                             f"'{args[1][0]}'")
                    continue
                ref = want_real(line_no, args[2][0], args[2][1],
                                "reference amplitude")
                if ref is None:
                    continue
            instructions.append(Hadamard(name, ref))
            ins_lines.append(line_no)
        elif kw in ("bs", "split"):
            if len(args) != 2:
                err(line_no, kw_col, "'bs' takes two mode names" if kw == "bs"
                    else "'split' takes a source mode and a new mode name")
                continue
            a = want_ident(line_no, args[0][0], args[0][1])
            b = want_ident(line_no, args[1][0], args[1][1])
            if a is None or b is None:
                continue
            instructions.append((BeamSplitter if kw == "bs" else Split)(a, b))
            ins_lines.append(line_no)
        elif kw == "select0":
            if len(args) != 1:
                err(line_no, kw_col, "'select0' takes one mode name")
                continue
            name = want_ident(line_no, args[0][0], args[0][1])
            if name is None:
                continue
            instructions.append(SelectVacuum(name))
            ins_lines.append(line_no)
        else:
            err(line_no, kw_col, f"unknown keyword '{kw}'")

    if alpha is None:
        err(1, 1, "missing 'alpha' header")
        return ParseResult(None, diags)
    if diags:
        return ParseResult(None, diags)

    circuit = Circuit(alpha=alpha, instructions=tuple(instructions))
    for d in validate(circuit):
        line = alpha_line if d.index is None else ins_lines[d.index]
        diags.append(ParseDiagnostic(SourceSpan(line, 1), d.message))
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)
    return ParseResult(circuit, diags)


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


def serialize(circuit: Circuit) -> str:
    """Canonical text form; parse(serialize(c)) reproduces c exactly."""
    lines = [f"alpha {_fmt_real(circuit.alpha)}"]
    for ins in circuit.instructions:
        if isinstance(ins, Prep):
            lines.append(f"prep {ins.mode} {_fmt_amp(ins.amp, circuit.alpha)}")
        elif isinstance(ins, Hadamard):
            if ins.alpha_ref is None:
                lines.append(f"h {ins.mode}")
            else:
                lines.append(f"h {ins.mode} ref {_fmt_real(ins.alpha_ref)}")
        elif isinstance(ins, BeamSplitter):
            lines.append(f"bs {ins.mode_a} {ins.mode_b}")
        elif isinstance(ins, Split):
            lines.append(f"split {ins.mode} {ins.new_mode}")
        elif isinstance(ins, SelectVacuum):
            lines.append(f"select0 {ins.mode}")
        else:
            raise TypeError(f"cannot serialize {ins!r}")
    return "\n".join(lines) + "\n"
