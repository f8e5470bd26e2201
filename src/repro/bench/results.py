"""Result containers and table formatting for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["FigureResult"]


@dataclass
class FigureResult:
    """Rows reproducing one of the paper's tables or figures."""

    name: str
    description: str
    columns: Sequence[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Optional attached :class:`repro.obs.QueryTrace` (``--trace-out`` writes it).
    trace: Any = field(default=None, repr=False)

    def to_dict(self) -> dict[str, Any]:
        """The JSON form ``--json`` writes; the attached trace is not part of it."""
        return {
            "name": self.name,
            "description": self.description,
            "columns": list(self.columns),
            "rows": self.rows,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FigureResult":
        """Rebuild a result from its :meth:`to_dict` form (e.g. a ``--json`` entry)."""
        return cls(
            data["name"],
            data["description"],
            list(data["columns"]),
            list(data["rows"]),
            list(data["notes"]),
        )

    def add(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria: Any) -> list[dict[str, Any]]:
        out = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                out.append(row)
        return out

    def format_table(self) -> str:
        """Render as a fixed-width text table (paper-style output)."""

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.3g}" if abs(value) < 1000 else f"{value:,.0f}"
            return str(value)

        header = [str(c) for c in self.columns]
        body = [[fmt(row.get(c, "")) for c in self.columns] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            f"== {self.name}: {self.description} ==",
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
