"""One named check, from the code that decides it to the envelope.

A check is the dict {"name", "ok", "detail"}.  ``ok`` is True (pass),
False (fail) or None (inconclusive); ``detail`` is deterministic JSON data
(a string, or a dict of counts and witnesses), never wall-clock.  Every
producer in the package returns such records, and the command-line
envelope and the acceptance criteria read them as they are.
"""

from __future__ import annotations

from typing import Iterable, Optional


def check(name: str, ok: Optional[bool], detail="") -> dict:
    """The record of one named check; a non-None ``ok`` becomes a bool."""
    return {"name": name, "ok": None if ok is None else bool(ok), "detail": detail}


def status(ok: Optional[bool]) -> str:
    """pass / fail / inconclusive for ok True / False / None."""
    if ok is True:
        return "pass"
    if ok is False:
        return "fail"
    return "inconclusive"


def aggregate(records: Iterable[dict]) -> Optional[bool]:
    """False when some check fails, else None when some is inconclusive or
    there are no checks, else True."""
    oks = {record["ok"] for record in records}
    if False in oks:
        return False
    if None in oks or not oks:
        return None
    return True


def failing(records: Iterable[dict]) -> list[str]:
    """Names of the checks that do not pass, in order."""
    return [record["name"] for record in records if record["ok"] is not True]
