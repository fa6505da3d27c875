"""The audit trail, and the one place a pipeline asks the model a question.

Every completion the pipelines make goes through :func:`ask`, which records
the prompt, calls the provider, and records the response, so the trail holds
each prompt directly followed by its answer.  A warning is a ``decision``
event with a non-empty ``warning`` field; :meth:`AuditTrail.warnings` lists
them.  :func:`is_negative_answer` recognises the answers that say there is
nothing to report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .llm import CompletionRequest


@dataclass
class AuditEvent:
    seq: int
    stage: str
    event: str
    data: dict[str, Any]


class AuditTrail:
    """Ordered record of everything a report's pipeline runs did,
    JSONL-serializable.  The caller creates one per report and hands it to
    each pipeline."""

    def __init__(self, report_id: str):
        self.report_id = report_id
        self.events: list[AuditEvent] = []

    def record(self, stage: str, event: str, **data: Any) -> None:
        self.events.append(AuditEvent(len(self.events), stage, event, data))

    def prompts(self) -> list[tuple[str, int]]:
        """(prompt text, reserved output tokens) for every issued prompt."""
        return [
            (e.data["text"], e.data["reserved_output"])
            for e in self.events
            if e.event == "prompt"
        ]

    def warnings(self) -> list[dict[str, Any]]:
        """The decisions with a non-empty ``warning``, in order, each as its
        audit line reads less ``report`` and ``event``."""
        return [{"seq": e.seq, "stage": e.stage, **e.data} for e in self.events
                if e.event == "decision" and e.data.get("warning")]

    def to_jsonl(self) -> str:
        lines = []
        for e in self.events:
            record = {"seq": e.seq, "report": self.report_id, "stage": e.stage, "event": e.event}
            record.update(e.data)
            lines.append(json.dumps(record, ensure_ascii=False))
        return "\n".join(lines) + ("\n" if lines else "")


def ask(provider: Any, trail: AuditTrail, stage: str, prompt: str, reserved_output: int,
        **fields: Any) -> str:
    """Complete *prompt* with *reserved_output* answer tokens and return the
    answer, recording a ``prompt`` and then a ``response`` event for *stage*.
    Both events carry *fields*, which say where in the stage the question
    was asked (chunk, query, name, ...)."""
    trail.record(stage, "prompt", text=prompt, reserved_output=reserved_output, **fields)
    response = provider.complete(CompletionRequest(prompt, max_output_tokens=reserved_output))
    trail.record(stage, "response", text=response, **fields)
    return response


# answers, and answer lines, that say "nothing here"; compared casefolded,
# stripped and without trailing periods
NEGATIVE_ANSWERS = frozenset({
    "", "none", "n/a", "na", "no", "nothing", "unknown", "no one", "not specified",
    "no relevant text", "no relevant text found", "there is no relevant text",
})


def is_negative_answer(text: str) -> bool:
    """Whether *text* is one of the :data:`NEGATIVE_ANSWERS`."""
    return text.casefold().strip().rstrip(".") in NEGATIVE_ANSWERS
