"""The table and CSV formats of a report's JSON form; a JSON run never loads them."""


def _nested(value) -> bool:  # a dict, a list or a lazy view, such as the witness's lines
    return hasattr(value, "__iter__") and not isinstance(value, str)


def render_table(value, out, indent: str = "") -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            if _nested(inner):
                out.write(f"{indent}{key}:\n")
                render_table(inner, out, indent + "  ")
            else:
                out.write(f"{indent}{key}: {inner}\n")
    elif _nested(value):
        first = next(iter(value), None)  # a report's list holds one kind of item
        if isinstance(first, dict):
            keys = list(first.keys())
            widths = [len(str(k)) for k in keys]
            for item in value:  # size the columns first, holding one cell string at a time
                widths = [max(w, len(_cell(item.get(k)))) for k, w in zip(keys, widths)]
            out.write(indent + "  ".join(str(k).ljust(w) for k, w in zip(keys, widths)) + "\n")
            for item in value:
                out.write(indent + "  ".join(_cell(item.get(k)).ljust(w) for k, w in zip(keys, widths))
                          + "\n")
        else:
            for item in value:
                out.write(f"{indent}{item}\n")


def _cell(value) -> str:
    if isinstance(value, dict) and value.get("closed_open"):
        return f"[{value['lo']}, {value['hi']})"
    return str(value)


def emit_csv(result, out) -> None:
    import csv  # only --format csv pays for it

    writer = csv.writer(out, lineterminator="\n")
    if isinstance(result, dict) and "values" in result and isinstance(result["values"], list):
        for item in result["values"]:
            writer.writerow([item])
    else:
        _flat_csv(result, writer, prefix="")


def _flat_csv(value, writer, prefix: str) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if _nested(inner):
                _flat_csv(inner, writer, path)
            else:
                writer.writerow([path, inner])
    elif _nested(value):
        for idx, inner in enumerate(value):
            _flat_csv(inner, writer, f"{prefix}[{idx}]")
    else:
        writer.writerow([prefix, value])
