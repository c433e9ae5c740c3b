"""Reading and writing of RTTM v1.3 SPEAKER lines."""

from __future__ import annotations

from .errors import InvalidInputError


def write_rttm(path, turns, file_id: str):
    """Write SPEAKER lines with 3-decimal start/duration.

    ``turns`` is an iterable of (speaker, start_s, end_s); lines are sorted
    by (start, speaker) so identical inputs produce identical bytes. The
    file id and every speaker label must be one field, nonempty and without
    whitespace, for :func:`read_rttm` to read the lines back; nothing is
    written otherwise.
    """
    rows = sorted((float(s), str(spk), float(e)) for spk, s, e in turns)
    for field in (file_id, *(speaker for _, speaker, _ in rows)):
        if field.split() != [field]:
            raise InvalidInputError(f"RTTM field {field!r} is empty or holds whitespace")
    with open(path, "w") as fh:
        for start, speaker, end in rows:
            fh.write(
                f"SPEAKER {file_id} 1 {start:.3f} {end - start:.3f} <NA> <NA> {speaker} <NA> <NA>\n"
            )


def read_rttm(path):
    """Parse SPEAKER lines into (speaker, start_s, end_s) triples.

    Non-SPEAKER record types are skipped; malformed SPEAKER lines raise with
    their line number.
    """
    turns = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0] != "SPEAKER":
                continue
            if len(fields) < 8:
                raise InvalidInputError(f"{path}: malformed RTTM line {lineno}")
            try:
                start = float(fields[3])
                duration = float(fields[4])
            except ValueError:
                raise InvalidInputError(f"{path}: malformed RTTM line {lineno}") from None
            if duration < 0:
                raise InvalidInputError(f"{path}: malformed RTTM line {lineno}")
            turns.append((fields[7], start, start + duration))
    return turns
