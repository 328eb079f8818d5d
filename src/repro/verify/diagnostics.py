"""The diagnostic engine: stable codes, severities, locations, reports.

Every check in :mod:`repro.verify` emits :class:`Diagnostic` records
instead of raising on the first problem, so a miscompiled kernel reports
*all* of its defects at once.  Codes are stable identifiers (``V004``,
``V108``, ...) that tests, scripts and EXPERIMENTS.md can key on; the
catalog below is the authoritative list (documented in docs/verify.md).

The module is dependency-free within the repository so every layer —
``il``, ``compiler``, ``isa``, ``ska`` — can import it unconditionally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering matters (ERROR > WARNING > NOTE)."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class SourceLocation:
    """Where a diagnostic anchors: an IL instruction or an ISA clause op.

    ``unit`` is ``"il"`` or ``"isa"``; IL locations carry the body
    instruction index, ISA locations the clause index and (for ALU
    clauses) the bundle index within it.
    """

    unit: str
    instruction: int | None = None
    clause: int | None = None
    bundle: int | None = None

    def __str__(self) -> str:
        if self.unit == "il":
            if self.instruction is None:
                return "il"
            return f"il:{self.instruction}"
        parts = [self.unit]
        if self.clause is not None:
            parts.append(f"clause {self.clause}")
        if self.bundle is not None:
            parts.append(f"bundle {self.bundle}")
        return ":".join(parts[:1]) + (
            f":{', '.join(parts[1:])}" if len(parts) > 1 else ""
        )

    def to_json(self) -> dict:
        record = {"unit": self.unit}
        for key in ("instruction", "clause", "bundle"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        return record


#: code -> (default severity, one-line title).  docs/verify.md mirrors this.
CODE_CATALOG: dict[str, tuple[Severity, str]] = {
    # ---- IL-level dataflow and declaration checks (V0xx) -----------------
    "V001": (Severity.ERROR, "kernel has no outputs"),
    "V002": (Severity.ERROR, "color-buffer output in compute mode"),
    "V003": (Severity.ERROR, "more than 8 render targets"),
    "V004": (Severity.ERROR, "register read before it is written"),
    "V005": (Severity.ERROR, "declared input is never fetched"),
    "V006": (Severity.ERROR, "fetched input value is never used"),
    "V007": (Severity.ERROR, "declared output is never written"),
    "V008": (Severity.WARNING, "dead write: result never reaches an output"),
    "V009": (Severity.ERROR, "instruction after the terminal store"),
    "V010": (Severity.WARNING, "output written more than once"),
    "V011": (Severity.ERROR, "ALU writes a non-temporary or reads an output"),
    "V012": (Severity.ERROR, "input or output index declared twice"),
    "V013": (Severity.ERROR, "input or output index used but never declared"),
    # ---- ISA-level clause/VLIW/register checks (V1xx) --------------------
    "V100": (Severity.ERROR, "compilation failed"),
    "V101": (Severity.ERROR, "illegal clause ordering"),
    "V102": (Severity.ERROR, "clause-temporary value escapes its clause"),
    "V103": (Severity.ERROR, "PV/PS read without a previous-bundle result"),
    "V104": (Severity.ERROR, "illegal VLIW bundle"),
    "V105": (Severity.WARNING, "reads a GPR written in the same bundle"),
    "V106": (Severity.ERROR, "read of an uninitialized GPR"),
    "V107": (Severity.WARNING, "dead ISA write: value never read"),
    "V108": (Severity.ERROR, "GPR count disagrees with recomputed max-live"),
    "V109": (Severity.WARNING, "clause exceeds the hardware size limit"),
    "V110": (Severity.ERROR, "illegal clause content"),
    "V111": (Severity.ERROR, "clause-temporary index out of range"),
    # ---- differential pass validation (V2xx) -----------------------------
    "V201": (Severity.ERROR, "optimization pass changed kernel semantics"),
    "V202": (Severity.ERROR, "optimization pass broke kernel validity"),
    "V203": (Severity.ERROR, "lowering changed kernel semantics"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, message, optional location."""

    code: str
    severity: Severity
    message: str
    location: SourceLocation | None = None
    #: free-form structured context (register names, counts, ...).
    data: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.code not in CODE_CATALOG:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def title(self) -> str:
        return CODE_CATALOG[self.code][1]

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location is not None else ""
        return f"{self.code} {self.severity}{where}: {self.message}"

    def to_json(self) -> dict:
        record = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.location is not None:
            record["location"] = self.location.to_json()
        if self.data:
            record["data"] = self.data
        return record


def diag(
    code: str,
    message: str,
    location: SourceLocation | None = None,
    severity: Severity | None = None,
    **data,
) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the catalog."""
    if severity is None:
        severity = CODE_CATALOG[code][0]
    return Diagnostic(code, severity, message, location, dict(data))


def errors(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def warnings(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diagnostics if d.severity is Severity.WARNING]


def format_diagnostics(
    diagnostics: list[Diagnostic], kernel_name: str | None = None
) -> str:
    """Human-readable multi-line rendering, most severe first."""
    if not diagnostics:
        return "verifier: clean (0 diagnostics)"
    ordered = sorted(
        diagnostics, key=lambda d: (-int(d.severity), d.code)
    )
    header = (
        f"verifier: {len(errors(diagnostics))} error(s), "
        f"{len(warnings(diagnostics))} warning(s)"
    )
    if kernel_name:
        header += f" in {kernel_name!r}"
    return "\n".join([header, *(f"  {d}" for d in ordered)])
