"""Shared infrastructure of the experiment runners.

Every experiment module exposes a ``run_*`` function returning an
:class:`ExperimentResult`: a labelled list of dict rows plus free-form notes.
Benchmarks execute the runners at reduced scale (the ``scale`` arguments
default to sizes that finish in seconds); passing the paper's sizes
reproduces the original setting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Default scaled-down relation size used by the experiment runners: large
#: enough that the SHJ hash table exceeds the 4 MB shared cache (so the
#: memory-stall behaviour the paper studies is visible), small enough that
#: the whole suite runs in minutes.
DEFAULT_TUPLES = 200_000

#: The paper's default relation size (Section 5.1).
PAPER_TUPLES = 16_000_000


@dataclass
class ExperimentResult:
    """Rows of one regenerated table or figure."""

    experiment: str
    description: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    parameters: dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column_names(self) -> list[str]:
        names: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def column(self, name: str) -> list[object]:
        return [row.get(name) for row in self.rows]

    # ------------------------------------------------------------------
    def to_text(self, float_format: str = "{:.4g}") -> str:
        """Human-readable fixed-width table (what the benches print)."""
        names = self.column_names()
        if not names:
            return f"== {self.experiment} ==\n(no rows)\n"

        def fmt(value: object) -> str:
            if isinstance(value, bool):
                return str(value)
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        cells = [[fmt(row.get(name, "")) for name in names] for row in self.rows]
        widths = [
            max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
            for i, name in enumerate(names)
        ]
        lines = [f"== {self.experiment}: {self.description} =="]
        lines.append("  ".join(name.ljust(width) for name, width in zip(names, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict[str, object]:
        """Machine-readable form (what the benchmark JSON artifacts embed)."""
        return {
            "experiment": self.experiment,
            "description": self.description,
            "parameters": dict(self.parameters),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_markdown(self) -> str:
        names = self.column_names()
        if not names:
            return f"### {self.experiment}\n\n(no rows)\n"
        lines = [f"### {self.experiment}: {self.description}", ""]
        lines.append("| " + " | ".join(names) + " |")
        lines.append("|" + "|".join("---" for _ in names) + "|")
        for row in self.rows:
            cells = []
            for name in names:
                value = row.get(name, "")
                cells.append(f"{value:.4g}" if isinstance(value, float) else str(value))
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        for note in self.notes:
            lines.append(f"*{note}*")
        return "\n".join(lines) + "\n"


def improvement(baseline: float, candidate: float) -> float:
    """Relative improvement of ``candidate`` over ``baseline`` in percent."""
    if baseline <= 0:
        return 0.0
    return (1.0 - candidate / baseline) * 100.0
