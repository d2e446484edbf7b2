"""Reference event log: one keyword-fields dict per line, rendered line by line.

Cross-checks ``SimWorld``'s flat log storage (a shape id per line and one
flat list of values).  ``emit`` keeps each call's time, event name and
fields dict as passed, and ``render_log`` and ``event`` are the
dict-per-line ``SimWorld.render_log`` and log-view line builder the flat
storage replaced, with their bodies unchanged; ``_render`` and
``_template`` are copied too, so no helper is shared with the code under
test.
"""

from pidsim.simnet import LogEvent


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _template(shape: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
    """The %-template of a whole line of one (event name, *keys) shape, and
    its keys in sorted order."""
    name, *keys = shape
    keys.sort()
    parts = ["t=%s seq=%s ev=" + name.replace("%", "%%")]
    parts.extend(key.replace("%", "%%") + "=%s" for key in keys)
    return " ".join(parts) + "\n", tuple(keys)


class ReferenceLog:
    """The log as three parallel lists: time, event name, fields dict."""

    def __init__(self) -> None:
        self._times: list[int] = []
        self._names: list[str] = []
        self._fields: list[dict[str, object]] = []

    def __len__(self) -> int:
        return len(self._times)

    def emit(self, now: int, event_name: str, **fields: object) -> None:
        self._times.append(now)
        self._names.append(event_name)
        self._fields.append(fields)

    def render_log(self) -> str:
        """The whole log as text: each line rendered once, keys sorted."""
        render = _render
        # Every emit call site passes a fixed key set: a few dozen shapes.
        templates: dict[tuple[str, ...], tuple[str, tuple[str, ...]]] = {}
        lines = []
        for seq, (t, name, fields) in enumerate(
                zip(self._times, self._names, self._fields)):
            shape = (name, *fields)
            made = templates.get(shape)
            if made is None:
                made = templates[shape] = _template(shape)
            template, keys = made
            lines.append(template % (t, seq, *[render(fields[k]) for k in keys]))
        return "".join(lines)

    def event(self, seq: int) -> LogEvent:
        items = sorted(self._fields[seq].items())
        return LogEvent(self._times[seq], seq, self._names[seq],
                        tuple([(k, _render(v)) for k, v in items]))

    def events(self) -> list[LogEvent]:
        return [self.event(seq) for seq in range(len(self))]
