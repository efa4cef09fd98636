"""The command handlers of `qrlab.cli`, one module per library layer.

A handler takes the parsed arguments and returns (exit code, text lines,
json payload).  `qrlab.cli` imports only the module of the command it
parsed, so a call compiles that module alone.  No module here imports
`qrlab.cli`: under `python -m` it runs as `__main__`, and the import would
compile and run it a second time.  The parse and print helpers that the
handlers share are below.
"""

from fractions import Fraction


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational {text!r} (want n or n/d)")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"malformed integer {text!r}")


def _sign(s: int) -> str:
    return f"{s:+d}"


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _ratstr(q) -> str:
    return str(Fraction(q))
