"""Deterministic machine-readable reports for the CLI and the demos.

JSON output must be byte-stable across runs for identical inputs, so it
carries only deterministic content (timing appears in the human-readable
rendering only) with sorted keys and canonical set literals.  At run time
this module needs only ``sets``, so a command that reports on words loads
neither ``algebra`` nor ``classify``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .sets import SentenceSet, _Record

if TYPE_CHECKING:
    from .algebra import SublatticeReport
    from .classify import AxiomReport, Verdict


class Report(_Record):
    __slots__ = ("command", "verdict", "data", "timing_ms")

    def __init__(
        self, command: str, verdict: bool | None = None, data: dict | None = None, timing_ms: float = 0.0
    ) -> None:
        self.command = command
        self.verdict = verdict
        self.data = {} if data is None else data
        self.timing_ms = timing_ms

    def to_json(self) -> str:
        payload = {"command": self.command, "verdict": self.verdict, "data": self.data}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.verdict is not None:
            lines.append(f"verdict: {str(self.verdict).lower()}")
        lines.extend(_text_lines(self.data, ""))
        lines.append(f"time-ms: {self.timing_ms:.1f}")
        return "\n".join(lines) + "\n"


def _text_lines(value, prefix: str) -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_text_lines(item, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.extend(_text_lines(item, prefix + "  "))
            else:
                lines.append(f"{prefix}- {item}")
    else:
        lines.append(f"{prefix}{value}")
    return lines


def verdict_payload(verdict: Verdict, witness_names) -> dict:
    payload: dict = {"passed": verdict.passed, "conclusive": True}
    if verdict.witness is not None:
        payload["witness"] = {
            name: _witness_item(item)
            for name, item in zip(witness_names, verdict.witness)
        }
    return payload


def _witness_item(item):
    if isinstance(item, SentenceSet):
        return item.literal()
    return item


def axiom_report_payload(report: AxiomReport) -> dict:
    payload = {
        "axiom-i": verdict_payload(report.axiom_i, ("set",)),
        "axiom-ii": verdict_payload(report.axiom_ii, ("smaller", "larger")),
        "axiom-iii": verdict_payload(report.axiom_iii, ("set", "element")),
        "axiomless": report.axiomless,
        "mode": report.mode_note,
    }
    if report.finitary_from_monotone is not None:
        payload["finitary-followed-from-i-ii"] = report.finitary_from_monotone
    return payload


def sublattice_payload(trigger: SentenceSet, generators, result: SublatticeReport) -> dict:
    """The fixed-trigger sublattice verdicts; ``generators`` is shown as given."""
    payload = {
        "trigger": trigger.literal(),
        "generators": generators,
        "inf-closed-form": result.inf_closed_form,
        "sup-closed-form": result.sup_closed_form,
        "joins-agree": result.joins_agree,
        "distributive": result.distributive,
    }
    if result.non_chain_witness is not None:
        first, second, probe = result.non_chain_witness
        payload["non-chain-witness"] = {
            "first": first.literal(),
            "second": second.literal(),
            "probe": probe.literal(),
        }
    return payload
